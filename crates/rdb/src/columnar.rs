//! Columnar projections: typed vectors, time-sorted blocks, zone maps, and
//! vectorized predicate kernels.
//!
//! The row store ([`crate::Table`]) interprets predicate ASTs row-at-a-time
//! over `Vec<Value>` rows — pointer-chasing on the hottest path in the
//! system. A [`Columnar`] projection shadows a table with flat typed
//! vectors (`i64`, dictionary-interned `u32` symbols, bools), keeps rows
//! sorted by the partition's time column, and slices them into fixed-size
//! blocks carrying min/max **zone maps**. Scans then:
//!
//! 1. compile the conjuncts into a handful of [`Kernel`]s (eq-i64,
//!    range-i64, in-list, eq-sym, like-sym) plus a residual AST remainder,
//! 2. skip whole blocks whose zone map excludes a kernel,
//! 3. binary-search the time window inside each surviving block (blocks are
//!    internally sorted, so late out-of-order appends only cause block
//!    *overlap*, never mis-sorting), and
//! 4. evaluate each kernel as a tight loop over a column slice into a
//!    selection bitmap, falling back to the row store only for residual
//!    predicates on the surviving rows.
//!
//! `LIKE` / `NOT LIKE` on a dictionary column is a kernel too: the
//! compiled pattern is evaluated once per *distinct symbol* the scan meets
//! and remembered in a scan-local [`LikeMemo`], so a row costs one `u32`
//! load and one memo lookup however long its string is. The memo lives for
//! one table scan (all chunks share the dictionary) and is never resident.
//!
//! [`Columnar::surviving_rows`] is the path's cost estimate — rows in
//! blocks the zone maps cannot exclude — which [`crate::Table`] weighs
//! against index probes when it picks an access path.
//!
//! Projections are maintained incrementally: appends sorted-insert into the
//! open tail block, which is sealed (zone maps computed) once it reaches
//! [`ColumnarSpec::block_rows`] rows. The row store remains the source of
//! truth; a projection can be rebuilt from it at any time.

use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::{ColumnType, Row, Schema};
use aiql_model::{Dict, LikePattern, SharedDict, Sym, Value, NULL_SYM};

/// Default rows per zone-mapped block.
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

/// NULL sentinel in a bool column (values are 0 / 1).
const NULL_BOOL: u8 = 2;

/// Configuration of a columnar projection.
#[derive(Debug, Clone)]
pub struct ColumnarSpec {
    /// Column to keep the projection sorted on (must be `Int`; typically
    /// the partition time column). `None` keeps insertion order.
    pub time_col: Option<String>,
    /// Rows per sealed block (zone-map granularity).
    pub block_rows: usize,
    /// Projected columns. Empty means *every* supported column
    /// (`Int`/`Str`/`Bool`; `Float` stays on the row path).
    pub columns: Vec<String>,
}

impl ColumnarSpec {
    /// Projects every supported column, insertion-ordered.
    pub fn all() -> ColumnarSpec {
        ColumnarSpec {
            time_col: None,
            block_rows: DEFAULT_BLOCK_ROWS,
            columns: Vec::new(),
        }
    }

    /// Projects every supported column, sorted on `time_col`.
    pub fn time_sorted(time_col: &str) -> ColumnarSpec {
        ColumnarSpec {
            time_col: Some(time_col.to_string()),
            ..ColumnarSpec::all()
        }
    }

    /// Restricts the projection to `columns`, builder style.
    pub fn with_columns(mut self, columns: &[&str]) -> ColumnarSpec {
        self.columns = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Sets the block size, builder style.
    pub fn with_block_rows(mut self, rows: usize) -> ColumnarSpec {
        self.block_rows = rows.max(2);
        self
    }
}

/// One projected column as a flat typed vector.
#[derive(Debug, Clone)]
enum ColumnData {
    /// `i64` values with a parallel null flag (events are never null, so
    /// the flag vector is all-false there; entity attributes may be null).
    Int { vals: Vec<i64>, nulls: Vec<bool> },
    /// Dictionary codes; [`NULL_SYM`] stands for NULL.
    Sym { vals: Vec<u32> },
    /// 0 / 1 / [`NULL_BOOL`].
    Bool { vals: Vec<u8> },
}

impl ColumnData {
    fn new(ty: ColumnType) -> Option<ColumnData> {
        Some(match ty {
            ColumnType::Int => ColumnData::Int {
                vals: Vec::new(),
                nulls: Vec::new(),
            },
            ColumnType::Str => ColumnData::Sym { vals: Vec::new() },
            ColumnType::Bool => ColumnData::Bool { vals: Vec::new() },
            ColumnType::Float => return None,
        })
    }

    fn insert(&mut self, at: usize, v: &Value, dict: &SharedDict) {
        match self {
            ColumnData::Int { vals, nulls } => {
                let (x, null) = match v {
                    Value::Int(i) => (*i, false),
                    _ => (0, true),
                };
                vals.insert(at, x);
                nulls.insert(at, null);
            }
            ColumnData::Sym { vals } => {
                let code = match v {
                    Value::Str(s) => dict.intern(s).0,
                    _ => NULL_SYM,
                };
                vals.insert(at, code);
            }
            ColumnData::Bool { vals } => {
                let code = match v {
                    Value::Bool(b) => *b as u8,
                    _ => NULL_BOOL,
                };
                vals.insert(at, code);
            }
        }
    }

    /// Sort key of the value at `i` for time ordering (nulls first).
    fn int_key(&self, i: usize) -> i64 {
        match self {
            ColumnData::Int { vals, nulls } => {
                if nulls[i] {
                    i64::MIN
                } else {
                    vals[i]
                }
            }
            _ => i64::MIN,
        }
    }

    fn zone(&self, range: std::ops::Range<usize>) -> Zone {
        match self {
            ColumnData::Int { vals, nulls } => {
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                for i in range {
                    if !nulls[i] {
                        min = min.min(vals[i]);
                        max = max.max(vals[i]);
                    }
                }
                Zone::Int { min, max }
            }
            ColumnData::Sym { vals } => {
                let mut mask = 0u64;
                for &v in &vals[range] {
                    if v != NULL_SYM {
                        mask |= 1u64 << (v % 64);
                    }
                }
                Zone::Sym { mask }
            }
            ColumnData::Bool { .. } => Zone::Opaque,
        }
    }
}

/// Per-block, per-column summary used to skip blocks without touching them.
#[derive(Debug, Clone, Copy)]
enum Zone {
    /// Min/max over the non-null values (inverted range when all-null).
    Int { min: i64, max: i64 },
    /// 64-bit membership mask over `code % 64` of the non-null symbols.
    Sym { mask: u64 },
    /// No pruning information.
    Opaque,
}

/// A vectorized predicate over one projected column. Kernels replicate the
/// exact semantics of the [`Expr`] conjunct they were compiled from
/// (comparisons with NULL are false).
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// `col = v` on an `Int` column.
    EqI64 { col: usize, v: i64 },
    /// `lo <= col <= hi` on an `Int` column (inclusive, either side open).
    RangeI64 {
        col: usize,
        lo: Option<i64>,
        hi: Option<i64>,
    },
    /// `col IN (vals)` on an `Int` column; `vals` sorted and deduplicated.
    InI64 { col: usize, vals: Vec<i64> },
    /// `col = sym` on a dictionary column.
    EqSym { col: usize, sym: u32 },
    /// `col IN (syms)` on a dictionary column; sorted and deduplicated.
    InSym { col: usize, syms: Vec<u32> },
    /// `col = v` on a bool column.
    EqBool { col: usize, v: bool },
    /// `col LIKE pattern` (`NOT LIKE` when `negated`) on a dictionary
    /// column, evaluated per distinct symbol through a [`LikeMemo`].
    LikeSym {
        col: usize,
        pattern: LikePattern,
        negated: bool,
    },
    /// A conjunct that provably matches nothing (e.g. an equality against a
    /// string absent from the dictionary).
    Never,
}

impl Kernel {
    fn col(&self) -> Option<usize> {
        match self {
            Kernel::EqI64 { col, .. }
            | Kernel::RangeI64 { col, .. }
            | Kernel::InI64 { col, .. }
            | Kernel::EqSym { col, .. }
            | Kernel::InSym { col, .. }
            | Kernel::EqBool { col, .. }
            | Kernel::LikeSym { col, .. } => Some(*col),
            Kernel::Never => None,
        }
    }

    /// Whether the zone map proves no row of the block can match.
    fn excluded_by(&self, zone: Zone) -> bool {
        match (self, zone) {
            (Kernel::EqI64 { v, .. }, Zone::Int { min, max }) => *v < min || *v > max,
            (Kernel::RangeI64 { lo, hi, .. }, Zone::Int { min, max }) => {
                lo.is_some_and(|lo| lo > max) || hi.is_some_and(|hi| hi < min)
            }
            (Kernel::InI64 { vals, .. }, Zone::Int { min, max }) => {
                // `vals` is sorted: overlap with [min, max] iff some element
                // lands at or after `min` without exceeding `max`.
                let at = vals.partition_point(|&v| v < min);
                at == vals.len() || vals[at] > max
            }
            (Kernel::EqSym { sym, .. }, Zone::Sym { mask }) => mask & (1u64 << (sym % 64)) == 0,
            (Kernel::InSym { syms, .. }, Zone::Sym { mask }) => {
                syms.iter().all(|s| mask & (1u64 << (s % 64)) == 0)
            }
            (Kernel::Never, _) => true,
            _ => false,
        }
    }

    /// ANDs this predicate into `sel`, where `sel[i]` covers projection
    /// position `base + i`. ([`Kernel::LikeSym`] needs the scan's memo and
    /// goes through [`LikeMemo::apply`] instead.)
    fn apply(&self, data: &ColumnData, base: usize, sel: &mut [bool]) {
        match (self, data) {
            (Kernel::EqI64 { v, .. }, ColumnData::Int { vals, nulls }) => {
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && !nulls[base + i] && vals[base + i] == *v;
                }
            }
            (Kernel::RangeI64 { lo, hi, .. }, ColumnData::Int { vals, nulls }) => {
                let lo = lo.unwrap_or(i64::MIN);
                let hi = hi.unwrap_or(i64::MAX);
                for (i, s) in sel.iter_mut().enumerate() {
                    let x = vals[base + i];
                    *s = *s && !nulls[base + i] && x >= lo && x <= hi;
                }
            }
            (Kernel::InI64 { vals: set, .. }, ColumnData::Int { vals, nulls }) => {
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && !nulls[base + i] && set.binary_search(&vals[base + i]).is_ok();
                }
            }
            (Kernel::EqSym { sym, .. }, ColumnData::Sym { vals }) => {
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && vals[base + i] == *sym;
                }
            }
            (Kernel::InSym { syms, .. }, ColumnData::Sym { vals }) => {
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && syms.binary_search(&vals[base + i]).is_ok();
                }
            }
            (Kernel::EqBool { v, .. }, ColumnData::Bool { vals }) => {
                let want = *v as u8;
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && vals[base + i] == want;
                }
            }
            (Kernel::Never, _) => sel.fill(false),
            _ => debug_assert!(false, "kernel/column type mismatch"),
        }
    }
}

/// Scan-local scratch of the [`Kernel::LikeSym`] kernels: for each, the
/// pattern's outcome per dictionary symbol met so far. One memo serves
/// every chunk of a table scan and is dropped with it.
#[derive(Debug, Default)]
pub struct LikeMemo {
    /// By kernel position: `UNSEEN` / `NO` / `YES` per symbol.
    outcomes: Vec<Vec<u8>>,
    /// Rows decided through a memo lookup.
    pub rows: u64,
    /// Pattern evaluations performed — one per distinct symbol met.
    pub symbol_evals: u64,
}

const UNSEEN: u8 = 0;
const NO: u8 = 1;
const YES: u8 = 2;

impl LikeMemo {
    /// ANDs kernel `ki` (`pattern`, over the codes `syms`) into `sel`.
    /// NULL matches neither `LIKE` nor `NOT LIKE`.
    fn apply(
        &mut self,
        ki: usize,
        pattern: &LikePattern,
        negated: bool,
        dict: &Dict,
        syms: &[u32],
        sel: &mut [bool],
    ) {
        if self.outcomes.len() <= ki {
            self.outcomes.resize_with(ki + 1, Vec::new);
        }
        let memo = &mut self.outcomes[ki];
        if memo.len() < dict.len() {
            memo.resize(dict.len(), UNSEEN);
        }
        for (s, &sym) in sel.iter_mut().zip(syms) {
            if !*s {
                continue;
            }
            if sym == NULL_SYM {
                *s = false;
                continue;
            }
            self.rows += 1;
            let outcome = &mut memo[sym as usize];
            if *outcome == UNSEEN {
                self.symbol_evals += 1;
                let text = dict.resolve(Sym(sym)).expect("stored symbols are interned");
                *outcome = if pattern.matches(text) { YES } else { NO };
            }
            *s = (*outcome == YES) != negated;
        }
    }
}

/// A columnar projection of one table (or one partition).
///
/// `Clone` deep-copies the flat vectors — it backs the copy-on-write step
/// that unseals a snapshot-shared partition for further appends (see
/// [`crate::partition::PartitionedTable`]).
#[derive(Debug, Clone)]
pub struct Columnar {
    time_idx: Option<usize>,
    block_rows: usize,
    dict: SharedDict,
    /// Schema position → slot in `cols`.
    slots: Vec<Option<usize>>,
    /// Projected columns: `(schema position, data)`.
    cols: Vec<(usize, ColumnData)>,
    /// Projection order → row position in the backing row store.
    perm: Vec<u32>,
    /// Zone maps of the sealed blocks, aligned with `cols`.
    sealed: Vec<Vec<Zone>>,
    /// Rows covered by sealed blocks. Equal to `sealed.len() * block_rows`
    /// until [`Columnar::seal_tail_block`] seals a partial final block —
    /// after which the projection is frozen (no further appends).
    sealed_rows: usize,
}

impl Columnar {
    /// Builds a projection over `rows` (the batch path). Fails if a named
    /// column is missing or unsupported, or the time column is not `Int`.
    pub fn build(
        schema: &Schema,
        spec: &ColumnarSpec,
        dict: SharedDict,
        rows: &[Row],
    ) -> Result<Columnar, RdbError> {
        let time_idx = match &spec.time_col {
            Some(name) => {
                let idx = schema.require(name)?;
                if schema.column_type(idx) != ColumnType::Int {
                    return Err(RdbError::SchemaMismatch(format!(
                        "columnar time column {name} must be Int"
                    )));
                }
                Some(idx)
            }
            None => None,
        };
        let mut projected: Vec<usize> = if spec.columns.is_empty() {
            (0..schema.arity())
                .filter(|&i| schema.column_type(i) != ColumnType::Float)
                .collect()
        } else {
            let mut v = Vec::with_capacity(spec.columns.len());
            for name in &spec.columns {
                let idx = schema.require(name)?;
                if schema.column_type(idx) == ColumnType::Float {
                    return Err(RdbError::SchemaMismatch(format!(
                        "columnar cannot project Float column {name}"
                    )));
                }
                v.push(idx);
            }
            v
        };
        if let Some(t) = time_idx {
            if !projected.contains(&t) {
                projected.push(t);
            }
        }
        projected.sort_unstable();
        projected.dedup();

        let mut slots = vec![None; schema.arity()];
        let mut cols = Vec::with_capacity(projected.len());
        for idx in projected {
            let data = ColumnData::new(schema.column_type(idx)).expect("Float filtered above");
            slots[idx] = Some(cols.len());
            cols.push((idx, data));
        }
        let mut c = Columnar {
            time_idx,
            block_rows: spec.block_rows.max(2),
            dict,
            slots,
            cols,
            perm: Vec::new(),
            sealed: Vec::new(),
            sealed_rows: 0,
        };

        // Bulk load: sort positions by time (stable on insertion order) and
        // append in order — every insert lands at the tail, so this is O(n)
        // vector pushes plus the sort.
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        if let Some(t) = c.time_idx {
            order.sort_by_key(|&p| rows[p as usize][t].as_int().unwrap_or(i64::MIN));
        }
        for p in order {
            c.append(&rows[p as usize], p);
        }
        Ok(c)
    }

    /// Rebuilds a projection from snapshotted block metadata: `perm` is the
    /// projection order a previous instance reached (see
    /// [`Columnar::perm`]). Rows are appended in exactly that order, so the
    /// restored projection reproduces the original block boundaries and
    /// zone maps without re-sorting — including the block *overlap* a
    /// live-grown projection accumulates from out-of-order appends, which
    /// a bulk [`Columnar::build`] would have merged away.
    pub fn restore(
        schema: &Schema,
        spec: &ColumnarSpec,
        dict: SharedDict,
        rows: &[Row],
        perm: &[u32],
    ) -> Result<Columnar, RdbError> {
        if perm.len() != rows.len() || perm.iter().any(|&p| p as usize >= rows.len()) {
            return Err(RdbError::SchemaMismatch(format!(
                "columnar permutation covers {} rows, table has {}",
                perm.len(),
                rows.len()
            )));
        }
        let mut c = Columnar::build(schema, spec, dict, &[])?;
        for &p in perm {
            c.append(&rows[p as usize], p);
        }
        Ok(c)
    }

    /// Whether `col` is materialized in this projection.
    pub fn is_projected(&self, col: usize) -> bool {
        self.slots.get(col).is_some_and(Option::is_some)
    }

    /// Number of projected rows (equals the backing table's row count).
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the projection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Number of sealed (zone-mapped) blocks.
    pub fn sealed_blocks(&self) -> usize {
        self.sealed.len()
    }

    /// The projection order: `perm()[i]` is the row-store position of the
    /// row at projection position `i`. Together with the block size this is
    /// the complete block metadata of the projection — persisting it lets
    /// [`Columnar::restore`] rebuild identical blocks without re-sorting.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Rows per sealed block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// The shared dictionary this projection interns into.
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// Adds `col` to the projection, back-filling from `rows` — how
    /// `create_index` keeps newly indexed columns kernel-evaluable.
    /// Unsupported (`Float`) columns are left on the row path.
    pub fn project_column(&mut self, schema: &Schema, col: usize, rows: &[Row]) {
        if self.is_projected(col) {
            return;
        }
        let Some(mut data) = ColumnData::new(schema.column_type(col)) else {
            return;
        };
        for (at, &p) in self.perm.iter().enumerate() {
            data.insert(at, &rows[p as usize][col], &self.dict);
        }
        // Extend every sealed block's zone list with the new column (the
        // final sealed block may be partial after `seal_tail_block`).
        for (b, zones) in self.sealed.iter_mut().enumerate() {
            let end = ((b + 1) * self.block_rows).min(self.perm.len());
            zones.push(data.zone(b * self.block_rows..end));
        }
        self.slots[col] = Some(self.cols.len());
        self.cols.push((col, data));
    }

    /// Seals the open tail block (zone maps over the partial remainder)
    /// even though it holds fewer than [`Columnar::block_rows`] rows. The
    /// chunked table calls this when it seals a chunk, so every block of a
    /// sealed chunk is zone-prunable. The projection must take no further
    /// appends afterwards: the positional block stride in
    /// [`Columnar::select_stats`] assumes only the *final* block can be
    /// partial. No-op on an empty tail block.
    pub fn seal_tail_block(&mut self) {
        if self.perm.len() > self.sealed_rows {
            let range = self.sealed_rows..self.perm.len();
            let zones = self
                .cols
                .iter()
                .map(|(_, d)| d.zone(range.clone()))
                .collect();
            self.sealed.push(zones);
            self.sealed_rows = self.perm.len();
        }
    }

    /// Appends row-store row `pos` (contents `row`), sorted-inserting into
    /// the open tail block and sealing it when full.
    pub fn append(&mut self, row: &Row, pos: u32) {
        debug_assert!(
            self.sealed.len() * self.block_rows == self.sealed_rows,
            "no appends after seal_tail_block froze the projection"
        );
        let sealed_rows = self.sealed_rows;
        let at = match self.time_idx {
            Some(t) => {
                let key = row[t].as_int().unwrap_or(i64::MIN);
                let slot = self.slots[t].expect("time column is projected");
                let data = &self.cols[slot].1;
                // Insert after equal keys (stable w.r.t. arrival order).
                let mut lo = sealed_rows;
                let mut hi = self.perm.len();
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if data.int_key(mid) <= key {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
            None => self.perm.len(),
        };
        self.perm.insert(at, pos);
        for (idx, data) in &mut self.cols {
            data.insert(at, &row[*idx], &self.dict);
        }
        if self.perm.len() - sealed_rows == self.block_rows {
            let range = sealed_rows..self.perm.len();
            let zones = self
                .cols
                .iter()
                .map(|(_, d)| d.zone(range.clone()))
                .collect();
            self.sealed.push(zones);
            self.sealed_rows = self.perm.len();
        }
    }

    /// Evaluates `kernels` over every block, skipping blocks excluded by
    /// zone maps and binary-searching the time window inside sorted blocks.
    /// Returns matching row-store positions (unordered); `scanned` counts
    /// rows actually evaluated.
    pub fn select(&self, kernels: &[Kernel], scanned: &mut u64) -> Vec<u32> {
        let (mut pruned, mut visited) = (0, 0);
        self.select_stats(
            kernels,
            &mut LikeMemo::default(),
            scanned,
            &mut pruned,
            &mut visited,
        )
    }

    /// Whether the zone maps of sealed block `block` prove that none of its
    /// rows satisfies `kernels` (never true of the open tail block).
    fn zone_excluded(&self, block: usize, kernels: &[Kernel]) -> bool {
        self.sealed.get(block).is_some_and(|zones| {
            kernels.iter().any(|k| {
                k.col()
                    .and_then(|c| self.slots[c])
                    .is_some_and(|slot| k.excluded_by(zones[slot]))
            })
        })
    }

    /// Rows in the blocks [`Columnar::select_stats`] would evaluate for
    /// `kernels`, i.e. those no zone map excludes: the cost estimate of the
    /// vectorized path, from block metadata alone.
    pub fn surviving_rows(&self, kernels: &[Kernel]) -> usize {
        if kernels.iter().any(|k| matches!(k, Kernel::Never)) {
            return 0;
        }
        let n = self.perm.len();
        (0..n.div_ceil(self.block_rows))
            .filter(|&b| !self.zone_excluded(b, kernels))
            .map(|b| self.block_rows.min(n - b * self.block_rows))
            .sum()
    }

    /// [`Columnar::select`] with zone-map accounting: `blocks_pruned` counts
    /// blocks skipped purely by their zone maps, `blocks_total` every block
    /// (sealed or open tail) the scan considered. `memo` carries the
    /// [`Kernel::LikeSym`] outcomes from chunk to chunk of one table scan.
    pub fn select_stats(
        &self,
        kernels: &[Kernel],
        memo: &mut LikeMemo,
        scanned: &mut u64,
        blocks_pruned: &mut u64,
        blocks_total: &mut u64,
    ) -> Vec<u32> {
        if kernels.iter().any(|k| matches!(k, Kernel::Never)) {
            return Vec::new();
        }
        // Intersect the time bounds of all kernels on the sort column; those
        // kernels are then fully enforced by the per-block binary search.
        let (mut t_lo, mut t_hi) = (i64::MIN, i64::MAX);
        let mut time_kernels = false;
        if let Some(t) = self.time_idx {
            for k in kernels {
                match k {
                    Kernel::EqI64 { col, v } if *col == t => {
                        t_lo = t_lo.max(*v);
                        t_hi = t_hi.min(*v);
                        time_kernels = true;
                    }
                    Kernel::RangeI64 { col, lo, hi } if *col == t => {
                        if let Some(lo) = lo {
                            t_lo = t_lo.max(*lo);
                        }
                        if let Some(hi) = hi {
                            t_hi = t_hi.min(*hi);
                        }
                        time_kernels = true;
                    }
                    _ => {}
                }
            }
        }
        // The kernels still to apply per row, with their positions (the
        // memo's key).
        let narrowed: Vec<(usize, &Kernel)> = kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                !matches!(k, Kernel::EqI64 { col, .. } | Kernel::RangeI64 { col, .. }
                    if Some(*col) == self.time_idx)
            })
            .collect();
        // One read guard for this chunk's blocks: symbols resolve by
        // reference, and interning waits for one chunk at most.
        let dict = kernels
            .iter()
            .any(|k| matches!(k, Kernel::LikeSym { .. }))
            .then(|| self.dict.read());

        let n = self.perm.len();
        let mut out = Vec::new();
        let mut sel = vec![false; self.block_rows];
        let mut base = 0usize;
        let mut block = 0usize;
        while base < n {
            let len = self.block_rows.min(n - base);
            *blocks_total += 1;
            if self.zone_excluded(block, kernels) {
                *blocks_pruned += 1;
                base += len;
                block += 1;
                continue;
            }
            // Time-window narrowing inside the (sorted) block.
            let (off_lo, off_hi) = if time_kernels {
                let t = self.time_idx.expect("time_kernels implies time_idx");
                let slot = self.slots[t].expect("time column is projected");
                let data = &self.cols[slot].1;
                let lo = partition_in(data, base, base + len, |k| k < t_lo) - base;
                let hi = partition_in(data, base, base + len, |k| k <= t_hi) - base;
                (lo, hi)
            } else {
                (0, len)
            };
            if off_lo < off_hi {
                *scanned += (off_hi - off_lo) as u64;
                let window = &mut sel[..off_hi - off_lo];
                window.fill(true);
                for &(ki, k) in &narrowed {
                    let slot = k
                        .col()
                        .and_then(|c| self.slots[c])
                        .expect("kernels compile only on projected columns");
                    match (k, &self.cols[slot].1) {
                        (
                            Kernel::LikeSym {
                                pattern, negated, ..
                            },
                            ColumnData::Sym { vals },
                        ) => memo.apply(
                            ki,
                            pattern,
                            *negated,
                            dict.as_deref().expect("guard taken for LikeSym kernels"),
                            &vals[base + off_lo..base + off_hi],
                            window,
                        ),
                        (k, data) => k.apply(data, base + off_lo, window),
                    }
                }
                for (i, &s) in window.iter().enumerate() {
                    if s {
                        out.push(self.perm[base + off_lo + i]);
                    }
                }
            }
            base += len;
            block += 1;
        }
        out
    }
}

/// `partition_point` over `data.int_key` restricted to `[lo, hi)`.
fn partition_in(
    data: &ColumnData,
    mut lo: usize,
    mut hi: usize,
    pred: impl Fn(i64) -> bool,
) -> usize {
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(data.int_key(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Compiles `conjuncts` into vectorized kernels where possible. Returns the
/// kernels plus the indices of conjuncts that must stay on the row-store
/// interpreter (residual predicates). An empty kernel list means the
/// columnar path offers no leverage and the caller should scan rows.
pub fn compile_conjuncts(
    schema: &Schema,
    columnar: &Columnar,
    conjuncts: &[Expr],
) -> (Vec<Kernel>, Vec<usize>) {
    let mut kernels = Vec::new();
    let mut residual = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        match compile_one(schema, columnar, c) {
            Some(k) => kernels.push(k),
            None => residual.push(i),
        }
    }
    (kernels, residual)
}

fn compile_one(schema: &Schema, columnar: &Columnar, e: &Expr) -> Option<Kernel> {
    match e {
        Expr::Cmp(op, a, b) => {
            let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
                (Expr::Lit(v), Expr::Col(c)) => (*c, v, op.flip()),
                _ => return None,
            };
            if !columnar.is_projected(col) {
                return None;
            }
            match (schema.column_type(col), lit) {
                (ColumnType::Int, Value::Int(v)) => {
                    let v = *v;
                    Some(match op {
                        CmpOp::Eq => Kernel::EqI64 { col, v },
                        CmpOp::Le => Kernel::RangeI64 {
                            col,
                            lo: None,
                            hi: Some(v),
                        },
                        CmpOp::Lt => match v.checked_sub(1) {
                            Some(hi) => Kernel::RangeI64 {
                                col,
                                lo: None,
                                hi: Some(hi),
                            },
                            None => Kernel::Never,
                        },
                        CmpOp::Ge => Kernel::RangeI64 {
                            col,
                            lo: Some(v),
                            hi: None,
                        },
                        CmpOp::Gt => match v.checked_add(1) {
                            Some(lo) => Kernel::RangeI64 {
                                col,
                                lo: Some(lo),
                                hi: None,
                            },
                            None => Kernel::Never,
                        },
                        // != is anti-selective; not worth a kernel.
                        CmpOp::Ne => return None,
                    })
                }
                (ColumnType::Str, Value::Str(s)) if op == CmpOp::Eq => {
                    Some(match columnar.dict().lookup(s) {
                        Some(sym) => Kernel::EqSym { col, sym: sym.0 },
                        // Equality against a never-stored string: nothing
                        // can match.
                        None => Kernel::Never,
                    })
                }
                (ColumnType::Bool, Value::Bool(v)) if op == CmpOp::Eq => {
                    Some(Kernel::EqBool { col, v: *v })
                }
                // Cross-type / float comparisons keep loose-compare
                // semantics on the row path.
                _ => None,
            }
        }
        Expr::Like(inner, pattern) | Expr::NotLike(inner, pattern) => match inner.as_ref() {
            Expr::Col(col)
                if columnar.is_projected(*col) && schema.column_type(*col) == ColumnType::Str =>
            {
                Some(Kernel::LikeSym {
                    col: *col,
                    pattern: pattern.clone(),
                    negated: matches!(e, Expr::NotLike(..)),
                })
            }
            _ => None,
        },
        Expr::In(inner, list) => {
            let Expr::Col(col) = inner.as_ref() else {
                return None;
            };
            let col = *col;
            if !columnar.is_projected(col) {
                return None;
            }
            let list = list.values();
            match schema.column_type(col) {
                ColumnType::Int => {
                    // A Float literal could loose-equal a stored Int; keep
                    // such lists on the interpreter.
                    if list.iter().any(|v| matches!(v, Value::Float(_))) {
                        return None;
                    }
                    let mut vals: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
                    vals.sort_unstable();
                    vals.dedup();
                    Some(if vals.is_empty() {
                        Kernel::Never
                    } else {
                        Kernel::InI64 { col, vals }
                    })
                }
                ColumnType::Str => {
                    let mut syms: Vec<u32> = list
                        .iter()
                        .filter_map(|v| v.as_str())
                        .filter_map(|s| columnar.dict().lookup(s))
                        .map(|s| s.0)
                        .collect();
                    syms.sort_unstable();
                    syms.dedup();
                    Some(if syms.is_empty() {
                        Kernel::Never
                    } else {
                        Kernel::InSym { col, syms }
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("t", ColumnType::Int),
            ("agent", ColumnType::Int),
            ("name", ColumnType::Str),
            ("ok", ColumnType::Bool),
            ("score", ColumnType::Float),
        ])
    }

    fn row(t: i64, agent: i64, name: &str, ok: bool) -> Row {
        vec![
            Value::Int(t),
            Value::Int(agent),
            Value::str(name),
            Value::Bool(ok),
            Value::Float(t as f64),
        ]
    }

    fn build(rows: &[Row], block: usize) -> Columnar {
        Columnar::build(
            &schema(),
            &ColumnarSpec::time_sorted("t").with_block_rows(block),
            SharedDict::new(),
            rows,
        )
        .unwrap()
    }

    #[test]
    fn build_skips_float_and_projects_rest() {
        let c = build(&[row(1, 0, "a", true)], 4);
        assert!(c.is_projected(0));
        assert!(c.is_projected(2));
        assert!(!c.is_projected(4), "Float stays on the row path");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn named_column_validation() {
        let bad = Columnar::build(
            &schema(),
            &ColumnarSpec::all().with_columns(&["score"]),
            SharedDict::new(),
            &[],
        );
        assert!(bad.is_err(), "Float cannot be projected explicitly");
        let bad = Columnar::build(
            &schema(),
            &ColumnarSpec::time_sorted("name"),
            SharedDict::new(),
            &[],
        );
        assert!(bad.is_err(), "time column must be Int");
    }

    #[test]
    fn select_matches_interpreter_on_every_kernel_shape() {
        let rows: Vec<Row> = (0..100)
            .map(|i| row(i * 10, i % 4, ["a", "b", "c"][(i % 3) as usize], i % 2 == 0))
            .collect();
        let c = build(&rows, 8);
        let conjuncts = vec![
            Expr::cmp_lit(0, CmpOp::Ge, 200i64),
            Expr::cmp_lit(0, CmpOp::Lt, 700i64),
            Expr::cmp_lit(2, CmpOp::Eq, "b"),
            Expr::in_list(1, vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Expr::cmp_lit(3, CmpOp::Eq, true),
        ];
        let (kernels, residual) = compile_conjuncts(&schema(), &c, &conjuncts);
        assert_eq!(kernels.len(), 5);
        assert!(residual.is_empty());
        let mut scanned = 0;
        let mut got = c.select(&kernels, &mut scanned);
        got.sort_unstable();
        let want: Vec<u32> = (0..rows.len() as u32)
            .filter(|&p| conjuncts.iter().all(|e| e.matches(&rows[p as usize])))
            .collect();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "test must exercise matches");
        assert!(
            scanned < rows.len() as u64,
            "window narrowing skips rows: {scanned}"
        );
    }

    #[test]
    fn zone_maps_skip_blocks() {
        // Two well-separated agent populations in separate blocks.
        let rows: Vec<Row> = (0..64)
            .map(|i| row(i, if i < 32 { 1 } else { 1000 }, "x", true))
            .collect();
        let c = build(&rows, 32);
        assert_eq!(c.sealed_blocks(), 2);
        let (kernels, _) =
            compile_conjuncts(&schema(), &c, &[Expr::cmp_lit(1, CmpOp::Eq, 1000i64)]);
        let mut scanned = 0;
        let got = c.select(&kernels, &mut scanned);
        assert_eq!(got.len(), 32);
        assert_eq!(scanned, 32, "first block zone-excluded");
    }

    #[test]
    fn missing_dictionary_string_compiles_to_never() {
        let rows = vec![row(1, 0, "present", true)];
        let c = build(&rows, 4);
        let (kernels, _) = compile_conjuncts(
            &schema(),
            &c,
            &[Expr::cmp_lit(2, CmpOp::Eq, "absent-from-dict")],
        );
        assert_eq!(kernels, vec![Kernel::Never]);
        let mut scanned = 0;
        assert!(c.select(&kernels, &mut scanned).is_empty());
        assert_eq!(scanned, 0, "Never short-circuits the whole scan");
    }

    #[test]
    fn unsupported_conjuncts_stay_residual() {
        let rows = vec![row(1, 0, "a", true)];
        let c = build(&rows, 4);
        let conjuncts = vec![
            // LIKE over an expression, not a dictionary column.
            Expr::Like(
                Box::new(Expr::Lit(Value::str("a"))),
                LikePattern::new("%a%"),
            ),
            Expr::cmp_lit(4, CmpOp::Gt, 0i64),
            Expr::cmp_lit(0, CmpOp::Ne, 5i64),
            Expr::cmp_lit(0, CmpOp::Eq, 1i64),
        ];
        let (kernels, residual) = compile_conjuncts(&schema(), &c, &conjuncts);
        assert_eq!(kernels.len(), 1);
        assert_eq!(residual, vec![0, 1, 2]);
    }

    #[test]
    fn like_kernels_evaluate_each_symbol_once() {
        let schema = Schema::new(&[("t", ColumnType::Int), ("name", ColumnType::Str)]);
        let names = ["C:\\Windows\\cmd.exe", "/bin/bash", "CMD.EXE", "ΟΔΟΣ.exe"];
        let mut rows: Vec<Row> = (0..40)
            .map(|i| vec![Value::Int(i), Value::str(names[(i % 4) as usize])])
            .collect();
        rows.push(vec![Value::Int(40), Value::Null]);
        let c = Columnar::build(
            &schema,
            &ColumnarSpec::time_sorted("t").with_block_rows(8),
            SharedDict::new(),
            &rows,
        )
        .unwrap();
        for conjunct in [
            Expr::like(1, "%cmd.exe"),
            Expr::NotLike(Box::new(Expr::Col(1)), LikePattern::new("%cmd.exe")),
            Expr::like(1, "%ς.exe"),
            Expr::like(1, "%"),
            Expr::like(1, "nothing"),
        ] {
            let conjuncts = [conjunct, Expr::cmp_lit(0, CmpOp::Ge, 4i64)];
            let (kernels, residual) = compile_conjuncts(&schema, &c, &conjuncts);
            assert!(residual.is_empty(), "{conjuncts:?}");
            let mut memo = LikeMemo::default();
            let (mut scanned, mut pruned, mut total) = (0, 0, 0);
            let mut got =
                c.select_stats(&kernels, &mut memo, &mut scanned, &mut pruned, &mut total);
            got.sort_unstable();
            let want: Vec<u32> = (0..rows.len() as u32)
                .filter(|&p| conjuncts.iter().all(|e| e.matches(&rows[p as usize])))
                .collect();
            assert_eq!(got, want, "{conjuncts:?}");
            assert_eq!(memo.rows, 36, "the non-NULL rows at t >= 4");
            assert_eq!(memo.symbol_evals, 4, "once per distinct name");
        }
    }

    #[test]
    fn surviving_rows_counts_what_zone_maps_leave() {
        let rows: Vec<Row> = (0..70)
            .map(|i| row(i, if i < 32 { 1 } else { 1000 }, "x", true))
            .collect();
        let c = build(&rows, 32);
        let kernels = |e: Expr| compile_conjuncts(&schema(), &c, &[e]).0;
        assert_eq!(
            c.surviving_rows(&kernels(Expr::cmp_lit(2, CmpOp::Eq, "x"))),
            70
        );
        assert_eq!(
            c.surviving_rows(&kernels(Expr::cmp_lit(1, CmpOp::Eq, 1000i64))),
            38,
            "first block excluded; the open 6-row tail block always counts"
        );
        assert_eq!(
            c.surviving_rows(&kernels(Expr::cmp_lit(2, CmpOp::Eq, "absent"))),
            0
        );
    }

    #[test]
    fn out_of_order_appends_keep_blocks_internally_sorted() {
        let mut c = build(&[], 4);
        // Arrivals out of time order, enough to seal two blocks.
        let times = [50, 10, 40, 20, 30, 5, 60, 25, 70, 15];
        let rows: Vec<Row> = times.iter().map(|&t| row(t, 0, "x", true)).collect();
        for (p, r) in rows.iter().enumerate() {
            c.append(r, p as u32);
        }
        assert_eq!(c.sealed_blocks(), 2);
        // A time-window query over the overlapping blocks stays exact.
        let conjuncts = vec![
            Expr::cmp_lit(0, CmpOp::Ge, 15i64),
            Expr::cmp_lit(0, CmpOp::Le, 45i64),
        ];
        let (kernels, _) = compile_conjuncts(&schema(), &c, &conjuncts);
        let mut scanned = 0;
        let mut got = c.select(&kernels, &mut scanned);
        got.sort_unstable();
        let want: Vec<u32> = (0..rows.len() as u32)
            .filter(|&p| conjuncts.iter().all(|e| e.matches(&rows[p as usize])))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nulls_never_match_kernels() {
        let schema = Schema::new(&[("t", ColumnType::Int), ("x", ColumnType::Int)]);
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Int(7)],
        ];
        let c = Columnar::build(
            &schema,
            &ColumnarSpec::time_sorted("t"),
            SharedDict::new(),
            &rows,
        )
        .unwrap();
        let mut scanned = 0;
        let (kernels, _) = compile_conjuncts(&schema, &c, &[Expr::cmp_lit(1, CmpOp::Ge, 0i64)]);
        assert_eq!(c.select(&kernels, &mut scanned), vec![1]);
        let (kernels, _) = compile_conjuncts(&schema, &c, &[Expr::cmp_lit(1, CmpOp::Eq, 0i64)]);
        assert!(c.select(&kernels, &mut scanned).is_empty());
    }

    #[test]
    fn project_column_backfills_and_extends_zones() {
        let rows: Vec<Row> = (0..10).map(|i| row(i, i, "n", true)).collect();
        let mut c = Columnar::build(
            &schema(),
            &ColumnarSpec::time_sorted("t")
                .with_columns(&["t"])
                .with_block_rows(4),
            SharedDict::new(),
            &rows,
        )
        .unwrap();
        assert!(!c.is_projected(1));
        c.project_column(&schema(), 1, &rows);
        assert!(c.is_projected(1));
        // Float projection request is a no-op, not a panic.
        c.project_column(&schema(), 4, &rows);
        assert!(!c.is_projected(4));
        let (kernels, residual) =
            compile_conjuncts(&schema(), &c, &[Expr::cmp_lit(1, CmpOp::Eq, 3i64)]);
        assert!(residual.is_empty());
        let mut scanned = 0;
        assert_eq!(c.select(&kernels, &mut scanned), vec![3]);
        // Block [4, 8) is zone-excluded; block [0, 4) and the two-row open
        // tail are evaluated.
        assert_eq!(scanned, 6, "backfilled zones prune");
    }
}
