//! Columnar projections: typed vectors, time-sorted sealed chunks, zone
//! maps, and vectorized predicate kernels.
//!
//! The row store ([`crate::Table`]) interprets predicate ASTs row-at-a-time
//! over `Vec<Value>` rows — pointer-chasing on the hottest path in the
//! system. A [`Columnar`] projection shadows a sealed chunk with flat typed
//! vectors (`i64`, dictionary-interned `u32` symbols, bools), keeps its
//! rows sorted by the partition's time column, and carries one min/max
//! **zone map** per column over the whole chunk: the sealed chunk is the
//! zone-map unit. Scans then:
//!
//! 1. compile the conjuncts into a handful of [`Kernel`]s (eq-i64,
//!    range-i64, in-list, eq-sym, like-sym) plus a residual AST remainder,
//! 2. skip the whole chunk when a zone map excludes a kernel,
//! 3. binary-search the time window over the chunk (its projection runs
//!    in time order), and
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
//! [`Columnar::surviving_rows`] is the path's cost estimate — the chunk's
//! rows unless its zone maps exclude them — which [`crate::Table`] weighs
//! against index probes when it picks an access path.
//!
//! A projection holds every column of its table (a table with a `Float`
//! column takes none: [`Columnar::build`] refuses it) and is lossless, so
//! it *is* its sealed chunk: the chunk keeps no rows, and its rows are read
//! back value by value ([`Columnar::value`]). A string is read as the
//! dictionary's own `Arc<str>` — a refcount bump, never a copy of the
//! payload.
//!
//! A projection is built once, when its chunk seals: each row is read
//! once, in arrival order, into every column; the columns are then
//! permuted into projection order — the rows' stable sort by the time
//! column, taken from the filled column, or a persisted order on restore —
//! and each gets its zone map. A snapshot writes the chunk as these
//! columns, and a restore reads them back as they were ([`Columnar::perm`]
//! included), without a row in between.

use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::{ColumnType, Row, Schema};
use crate::snapshot::MAX_RESERVE;
use aiql_model::{Dict, LikePattern, SharedDict, Sym, Value, NULL_SYM};
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::sync::Arc;

/// NULL sentinel in a bool column (values are 0 / 1).
const NULL_BOOL: u8 = 2;

/// A persisted column's encoding tag: its values as they are resident.
const RAW: u8 = 0;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes fixed-width little-endian values through a stack buffer.
fn write_le<W: Write, const N: usize>(
    w: &mut W,
    vals: impl Iterator<Item = [u8; N]>,
) -> io::Result<()> {
    let mut buf = [0u8; 4096];
    let mut at = 0;
    for v in vals {
        if at + N > buf.len() {
            w.write_all(&buf[..at])?;
            at = 0;
        }
        buf[at..at + N].copy_from_slice(&v);
        at += N;
    }
    w.write_all(&buf[..at])
}

/// Fills `buf` from `r`; a chunk's columns that end early are invalid
/// data.
fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("a chunk's columns end early"),
        _ => e,
    })
}

fn read_byte<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8];
    read_exact(r, &mut b)?;
    Ok(b[0])
}

/// Reads `n` fixed-width little-endian values. A count past the input
/// fails when the input ends, having reserved at most [`MAX_RESERVE`]
/// values.
fn read_le<R: Read, T, const N: usize>(
    r: &mut R,
    n: usize,
    from: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(MAX_RESERVE));
    let mut buf = [0u8; 4096];
    let mut left = n;
    while left > 0 {
        let bytes = &mut buf[..left.min(4096 / N) * N];
        read_exact(r, bytes)?;
        out.extend(
            bytes
                .chunks_exact(N)
                .map(|b| from(b.try_into().expect("N bytes"))),
        );
        left -= bytes.len() / N;
    }
    out.shrink_to_fit();
    Ok(out)
}

/// Configuration of a columnar projection: every column of the table,
/// in insertion order or sorted on a time column.
#[derive(Debug, Clone)]
pub struct ColumnarSpec {
    /// Column to keep the projection sorted on (must be `Int`; typically
    /// the partition time column). `None` keeps insertion order.
    pub time_col: Option<String>,
}

impl ColumnarSpec {
    /// Projects every column, insertion-ordered.
    pub fn all() -> ColumnarSpec {
        ColumnarSpec { time_col: None }
    }

    /// Projects every column, sorted on `time_col`.
    pub fn time_sorted(time_col: &str) -> ColumnarSpec {
        ColumnarSpec {
            time_col: Some(time_col.to_string()),
        }
    }
}

/// One projected column as a flat typed vector.
#[derive(Debug, Clone)]
enum ColumnData {
    /// `i64` values with a parallel null flag. The flags are allocated at
    /// the column's first NULL and are empty until then — events are never
    /// null, so an event column is its values and nothing else.
    Int { vals: Vec<i64>, nulls: Vec<bool> },
    /// Dictionary codes; [`NULL_SYM`] stands for NULL.
    Sym { vals: Vec<u32> },
    /// 0 / 1 / [`NULL_BOOL`].
    Bool { vals: Vec<u8> },
}

/// Whether Int position `i` is NULL (`nulls` is empty while none is).
#[inline]
fn int_null(nulls: &[bool], i: usize) -> bool {
    !nulls.is_empty() && nulls[i]
}

/// ANDs `keep` of the values from `base` on into `sel`, a NULL never
/// kept. Branch-free, so the loop vectorizes.
#[inline]
fn and_int(
    sel: &mut [bool],
    vals: &[i64],
    nulls: &[bool],
    base: usize,
    keep: impl Fn(i64) -> bool,
) {
    let vals = &vals[base..base + sel.len()];
    if nulls.is_empty() {
        for (s, &x) in sel.iter_mut().zip(vals) {
            *s &= keep(x);
        }
    } else {
        for ((s, &x), &null) in sel.iter_mut().zip(vals).zip(&nulls[base..]) {
            *s &= keep(x) & !null;
        }
    }
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

    /// An empty column of this one's type, with room for `n` values.
    fn empty(&self, n: usize) -> ColumnData {
        match self {
            ColumnData::Int { .. } => ColumnData::Int {
                vals: Vec::with_capacity(n),
                nulls: Vec::new(),
            },
            ColumnData::Sym { .. } => ColumnData::Sym {
                vals: Vec::with_capacity(n),
            },
            ColumnData::Bool { .. } => ColumnData::Bool {
                vals: Vec::with_capacity(n),
            },
        }
    }

    /// Appends `other`'s values, a column of the same type.
    fn extend(&mut self, other: &ColumnData) {
        match (self, other) {
            (
                ColumnData::Int { vals, nulls },
                ColumnData::Int {
                    vals: more,
                    nulls: more_nulls,
                },
            ) => {
                if !nulls.is_empty() || !more_nulls.is_empty() {
                    nulls.resize(vals.len(), false);
                    if more_nulls.is_empty() {
                        nulls.resize(vals.len() + more.len(), false);
                    } else {
                        nulls.extend_from_slice(more_nulls);
                    }
                }
                vals.extend_from_slice(more);
            }
            (ColumnData::Sym { vals }, ColumnData::Sym { vals: more }) => {
                vals.extend_from_slice(more)
            }
            (ColumnData::Bool { vals }, ColumnData::Bool { vals: more }) => {
                vals.extend_from_slice(more)
            }
            _ => unreachable!("columns of one projection keep their types"),
        }
    }

    /// Bytes the values take (what copying them copies).
    fn filled_bytes(&self) -> usize {
        match self {
            ColumnData::Int { vals, nulls } => vals.len() * 8 + nulls.len(),
            ColumnData::Sym { vals } => vals.len() * 4,
            ColumnData::Bool { vals } => vals.len(),
        }
    }

    /// Appends `v`; a string is stored as the code `intern` gives it.
    #[inline]
    fn push(&mut self, v: &Value, intern: impl FnOnce(&Arc<str>) -> u32) {
        match self {
            ColumnData::Int { vals, nulls } => {
                let (x, null) = match v {
                    Value::Int(i) => (*i, false),
                    _ => (0, true),
                };
                if null || !nulls.is_empty() {
                    // Allocates the flags at the first NULL.
                    nulls.resize(vals.len(), false);
                    nulls.push(null);
                }
                vals.push(x);
            }
            ColumnData::Sym { vals } => vals.push(match v {
                Value::Str(s) => intern(s),
                _ => NULL_SYM,
            }),
            ColumnData::Bool { vals } => vals.push(match v {
                Value::Bool(b) => *b as u8,
                _ => NULL_BOOL,
            }),
        }
    }

    /// Reorders the column in place so position `i` holds what position
    /// `perm[i]` held (`perm` is as long as the column). Total: an entry
    /// past the column reads a default, which the layout check then
    /// refuses as no permutation.
    fn permute(&mut self, perm: &[u32]) {
        fn gather<T: Copy + Default>(v: &mut [T], perm: &[u32]) {
            let from = v.to_vec();
            for (x, &p) in v.iter_mut().zip(perm) {
                *x = from.get(p as usize).copied().unwrap_or_default();
            }
        }
        match self {
            ColumnData::Int { vals, nulls } => {
                gather(vals, perm);
                gather(nulls, perm);
            }
            ColumnData::Sym { vals } => gather(vals, perm),
            ColumnData::Bool { vals } => gather(vals, perm),
        }
    }

    /// Writes the column raw: its values little-endian, an `Int` column's
    /// values followed by a flag byte and, when it holds a NULL, one null
    /// flag per value.
    fn write_raw<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            ColumnData::Int { vals, nulls } => {
                write_le(w, vals.iter().map(|v| v.to_le_bytes()))?;
                w.write_all(&[!nulls.is_empty() as u8])?;
                write_le(w, nulls.iter().map(|&b| [b as u8]))
            }
            ColumnData::Sym { vals } => write_le(w, vals.iter().map(|v| v.to_le_bytes())),
            ColumnData::Bool { vals } => w.write_all(vals),
        }
    }

    /// Reads into this empty column the `n` values [`ColumnData::write_raw`]
    /// wrote, refusing a code the dictionary's `dict_len` entries do not
    /// hold and any flag or bool outside its range.
    fn read_raw<R: Read>(&mut self, r: &mut R, n: usize, dict_len: usize) -> io::Result<()> {
        match self {
            ColumnData::Int { vals, nulls } => {
                *vals = read_le(r, n, i64::from_le_bytes)?;
                let flag = read_byte(r)?;
                if flag > 1 {
                    return Err(invalid(format!("null-flag marker {flag}")));
                }
                if flag == 1 {
                    let flags = read_le(r, n, |[b]| b)?;
                    if flags.iter().any(|&b| b > 1) || !flags.contains(&1) {
                        return Err(invalid("null flags hold no NULL or a non-flag"));
                    }
                    *nulls = flags.into_iter().map(|b| b == 1).collect();
                }
            }
            ColumnData::Sym { vals } => {
                *vals = read_le(r, n, u32::from_le_bytes)?;
                if let Some(&bad) = vals
                    .iter()
                    .find(|&&c| c != NULL_SYM && c as usize >= dict_len)
                {
                    return Err(invalid(format!(
                        "code {bad} outside a dictionary of {dict_len} strings"
                    )));
                }
            }
            ColumnData::Bool { vals } => {
                *vals = read_le(r, n, |[b]| b)?;
                if vals.iter().any(|&b| b > NULL_BOOL) {
                    return Err(invalid("bool column value out of range"));
                }
            }
        }
        Ok(())
    }

    /// The value at `i` as the row store holds it; a string is the
    /// dictionary's.
    fn value(&self, i: usize, dict: &SharedDict) -> Value {
        match self {
            ColumnData::Int { vals, nulls } if !int_null(nulls, i) => Value::Int(vals[i]),
            ColumnData::Sym { vals } if vals[i] != NULL_SYM => Value::Str(
                dict.read()
                    .shared(Sym(vals[i]))
                    .expect("stored symbols are interned")
                    .clone(),
            ),
            ColumnData::Bool { vals } if vals[i] != NULL_BOOL => Value::Bool(vals[i] == 1),
            _ => Value::Null,
        }
    }

    /// The value at `i` of an `Int` column (`None` for NULL or another
    /// type).
    fn int(&self, i: usize) -> Option<i64> {
        match self {
            ColumnData::Int { vals, nulls } if !int_null(nulls, i) => Some(vals[i]),
            _ => None,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int { vals, nulls } => vals.capacity() * 8 + nulls.capacity(),
            ColumnData::Sym { vals } => vals.capacity() * 4,
            ColumnData::Bool { vals } => vals.capacity(),
        }
    }

    /// Sort key of the value at `i` for time ordering (nulls first).
    fn int_key(&self, i: usize) -> i64 {
        match self {
            ColumnData::Int { vals, nulls } if !int_null(nulls, i) => vals[i],
            _ => i64::MIN,
        }
    }

    /// The column's zone map.
    fn zone(&self) -> Zone {
        match self {
            ColumnData::Int { vals, nulls } => {
                let (mut min, mut max) = (i64::MAX, i64::MIN);
                for (i, &v) in vals.iter().enumerate() {
                    if !int_null(nulls, i) {
                        min = min.min(v);
                        max = max.max(v);
                    }
                }
                Zone::Int { min, max }
            }
            ColumnData::Sym { vals } => {
                let mut mask = 0u64;
                for &v in vals {
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

/// Per-column summary of a sealed chunk, used to skip the chunk without
/// touching its rows.
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

    /// Whether the zone map proves no row of the chunk can match.
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
                and_int(sel, vals, nulls, base, |x| x == *v);
            }
            (Kernel::RangeI64 { lo, hi, .. }, ColumnData::Int { vals, nulls }) => {
                let lo = lo.unwrap_or(i64::MIN);
                let hi = hi.unwrap_or(i64::MAX);
                and_int(sel, vals, nulls, base, |x| (x >= lo) & (x <= hi));
            }
            (Kernel::InI64 { vals: set, .. }, ColumnData::Int { vals, nulls }) => {
                // A binary search is worth skipping for rows already out.
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s
                        && set.binary_search(&vals[base + i]).is_ok()
                        && !int_null(nulls, base + i);
                }
            }
            (Kernel::EqSym { sym, .. }, ColumnData::Sym { vals }) => {
                for (s, &code) in sel.iter_mut().zip(&vals[base..]) {
                    *s &= code == *sym;
                }
            }
            (Kernel::InSym { syms, .. }, ColumnData::Sym { vals }) => {
                for (i, s) in sel.iter_mut().enumerate() {
                    *s = *s && syms.binary_search(&vals[base + i]).is_ok();
                }
            }
            (Kernel::EqBool { v, .. }, ColumnData::Bool { vals }) => {
                let want = *v as u8;
                for (s, &b) in sel.iter_mut().zip(&vals[base..]) {
                    *s &= b == want;
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

/// A columnar projection of one sealed table chunk — or, empty, a table's
/// columnar configuration, which each seal clones and fills.
///
/// `Clone` deep-copies the flat vectors. A filled projection is cloned
/// only by a schema operation that rebuilds a shared chunk; sealed chunks
/// are otherwise shared by reference (see [`crate::table`]).
#[derive(Debug, Clone)]
pub struct Columnar {
    time_idx: Option<usize>,
    dict: SharedDict,
    /// The columns, by schema position.
    cols: Vec<ColumnData>,
    /// Projection order → row position in the chunk.
    perm: Vec<u32>,
    /// Zone maps, one per column, aligned with `cols`.
    zones: Vec<Zone>,
}

impl Columnar {
    /// Builds a projection over `rows`, in their projection order (their
    /// stable sort by the time column); over no rows, an empty one. Fails
    /// if the table has a `Float` column, or the time column is missing or
    /// not `Int`.
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
        let cols = schema
            .iter()
            .map(|(name, ty)| {
                ColumnData::new(ty).ok_or_else(|| {
                    RdbError::SchemaMismatch(format!("columnar cannot project Float column {name}"))
                })
            })
            .collect::<Result<_, _>>()?;
        let layout = Columnar {
            time_idx,
            dict,
            cols,
            perm: Vec::new(),
            zones: Vec::new(),
        };
        if rows.is_empty() {
            return Ok(layout);
        }
        let mut tail = ColumnTail::new(&layout);
        for row in rows {
            tail.push(&layout, row);
        }
        layout.seal(&tail, None)
    }

    /// Seals `tail` into a filled copy of this empty projection — the one
    /// place a sealed projection is made. Each column is the concatenation
    /// of the tail's blocks, permuted into projection order and given its
    /// zone map. The order is `order` — a persisted one, refused unless it
    /// is a permutation of the rows that runs in time order — or, with
    /// none, the rows' stable sort by the time column (NULL first), taken
    /// from the filled column.
    pub(crate) fn seal(
        &self,
        tail: &ColumnTail,
        order: Option<&[u32]>,
    ) -> Result<Columnar, RdbError> {
        let n = tail.len;
        let mut c = self.clone();
        for (col, data) in c.cols.iter_mut().enumerate() {
            *data = data.empty(n);
            for block in tail.blocks() {
                data.extend(&block[col]);
            }
        }
        let perm = match order {
            Some(order) if order.len() != n => {
                return Err(RdbError::SchemaMismatch(format!(
                    "columnar order of {} positions for {n} rows",
                    order.len()
                )))
            }
            Some(order) => order.to_vec(),
            None => c.time_order(n),
        };
        let identity = perm.iter().enumerate().all(|(i, &p)| p as usize == i);
        for data in &mut c.cols {
            if !identity {
                data.permute(&perm);
            }
            if let ColumnData::Int { nulls, .. } = data {
                nulls.shrink_to_fit();
            }
        }
        c.perm = perm;
        c.zones = c.cols.iter().map(ColumnData::zone).collect();
        if order.is_some() {
            c.check()?;
        }
        Ok(c)
    }

    /// The stable sort by time of `n` filled, arrival-ordered positions.
    fn time_order(&self, n: usize) -> Vec<u32> {
        let Some(t) = self.time_idx else {
            return (0..n as u32).collect();
        };
        let data = &self.cols[t];
        let mut keyed: Vec<(i64, u32)> = (0..n).map(|i| (data.int_key(i), i as u32)).collect();
        // Positions are distinct, so this is the stable sort by time.
        keyed.sort_unstable();
        // Collected from a borrow, not in place: the order is sized to
        // itself.
        keyed.iter().map(|&(_, p)| p).collect()
    }

    /// Checks a filled projection's layout (every column holds one value
    /// per entry of the order): the order a permutation, the time column
    /// non-decreasing.
    fn check(&self) -> Result<(), RdbError> {
        let n = self.perm.len();
        let mut seen = vec![false; n];
        let permutation = self.perm.iter().all(|&p| {
            seen.get_mut(p as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        });
        let ordered = self.time_idx.is_none_or(|t| {
            let data = &self.cols[t];
            (1..n).all(|i| data.int_key(i - 1) <= data.int_key(i))
        });
        (permutation && ordered).then_some(()).ok_or_else(|| {
            RdbError::SchemaMismatch(format!(
                "columnar order of {n} positions is no time-ordered permutation"
            ))
        })
    }

    /// Writes the filled projection as it is resident: per column an
    /// encoding tag ([`RAW`], the only one) and its values in projection
    /// order, then the projection order.
    pub(crate) fn write_chunk<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for data in &self.cols {
            w.write_all(&[RAW])?;
            data.write_raw(w)?;
        }
        write_le(w, self.perm.iter().map(|p| p.to_le_bytes()))
    }

    /// Reads, into a copy of this empty projection, the `n`-row chunk
    /// [`Columnar::write_chunk`] wrote: each column straight into its
    /// vector, every code checked against the dictionary, the layout
    /// checked as a persisted order is, then the zone maps.
    pub(crate) fn read_chunk<R: Read>(&self, r: &mut R, n: usize) -> io::Result<Columnar> {
        let mut c = self.clone();
        let dict_len = self.dict.len();
        for data in &mut c.cols {
            let tag = read_byte(r)?;
            if tag != RAW {
                return Err(invalid(format!("unknown column encoding {tag}")));
            }
            data.read_raw(r, n, dict_len)?;
        }
        c.perm = read_le(r, n, u32::from_le_bytes)?;
        c.check().map_err(|e| invalid(e.to_string()))?;
        c.zones = c.cols.iter().map(ColumnData::zone).collect();
        Ok(c)
    }

    /// Number of columns of the projected table.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The value of column `col` at projection position `at`, exactly as
    /// the row store held it; a string shares the dictionary's payload.
    pub fn value(&self, at: usize, col: usize) -> Value {
        self.cols[col].value(at, &self.dict)
    }

    /// The dictionary codes of `col`, by projection position, when it is a
    /// string column.
    pub(crate) fn codes(&self, col: usize) -> Option<&[u32]> {
        match self.cols.get(col)? {
            ColumnData::Sym { vals } => Some(vals),
            _ => None,
        }
    }

    /// The values and null flags (empty while the column holds no NULL)
    /// of `col`, by projection position, when it is an `Int` column.
    pub(crate) fn ints(&self, col: usize) -> Option<(&[i64], &[bool])> {
        match self.cols.get(col)? {
            ColumnData::Int { vals, nulls } => Some((vals, nulls)),
            _ => None,
        }
    }

    /// [`Columnar::value`] of an `Int` column, without building a value
    /// (`None` for NULL or another type).
    pub fn int(&self, at: usize, col: usize) -> Option<i64> {
        self.cols[col].int(at)
    }

    /// Heap bytes held: the column vectors, the projection order, the zone
    /// maps (the shared dictionary is the store's, not the projection's).
    pub fn resident_bytes(&self) -> u64 {
        let cols: usize = self.cols.iter().map(ColumnData::heap_bytes).sum();
        (cols
            + self.zones.capacity() * size_of::<Zone>()
            + self.perm.capacity() * 4
            + self.cols.capacity() * size_of::<ColumnData>()) as u64
    }

    /// Number of rows (the chunk's).
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the projection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The projection order: `perm()[i]` is the row-store position of the
    /// row at projection position `i` — the projection's whole layout
    /// metadata, which a snapshot persists so a restore rebuilds the same
    /// projection without re-sorting.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The shared dictionary this projection interns into.
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// The filled layout — columns, order, zone maps — without the
    /// dictionary, whose lookup table prints in no fixed order.
    #[cfg(test)]
    pub(crate) fn layout_debug(&self) -> String {
        format!(
            "{:?} {:?} {:?} {:?}",
            self.time_idx, self.cols, self.perm, self.zones
        )
    }

    /// Evaluates `kernels` over the chunk unless its zone maps exclude it,
    /// binary-searching the time window first. Returns matching row-store
    /// positions (unordered); `scanned` counts rows actually evaluated.
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

    /// Whether the zone maps prove that no row satisfies `kernels`.
    fn zone_excluded(&self, kernels: &[Kernel]) -> bool {
        kernels
            .iter()
            .any(|k| k.col().is_some_and(|c| k.excluded_by(self.zones[c])))
    }

    /// Rows [`Columnar::select_stats`] would evaluate for `kernels` before
    /// narrowing to the time window: the chunk's, unless its zone maps
    /// exclude it — the cost estimate of the vectorized path, from zone
    /// maps alone.
    pub fn surviving_rows(&self, kernels: &[Kernel]) -> usize {
        if kernels.iter().any(|k| matches!(k, Kernel::Never)) || self.zone_excluded(kernels) {
            0
        } else {
            self.perm.len()
        }
    }

    /// [`Columnar::select`] with zone-map accounting: `blocks_total` counts
    /// the chunk if the scan considered it, `blocks_pruned` if its zone maps
    /// alone excluded it. `memo` carries the [`Kernel::LikeSym`] outcomes
    /// from chunk to chunk of one table scan.
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
        let n = self.perm.len();
        if n == 0 {
            return Vec::new();
        }
        *blocks_total += 1;
        if self.zone_excluded(kernels) {
            *blocks_pruned += 1;
            return Vec::new();
        }
        // Intersect the time bounds of all kernels on the sort column; those
        // kernels are then fully enforced by the binary search.
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
        // memo's key). A NULL time sorts as `i64::MIN`, inside any window
        // reaching down there, so with NULLs present the time kernels run
        // per row too.
        let time_nulls = self.time_idx.is_some_and(
            |t| matches!(&self.cols[t], ColumnData::Int { nulls, .. } if !nulls.is_empty()),
        );
        let narrowed: Vec<(usize, &Kernel)> = kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                time_nulls
                    || !matches!(k, Kernel::EqI64 { col, .. } | Kernel::RangeI64 { col, .. }
                    if Some(*col) == self.time_idx)
            })
            .collect();
        // Time-window narrowing over the (sorted) chunk.
        let (lo, hi) = match self.time_idx {
            Some(t) if time_kernels => {
                let data = &self.cols[t];
                (
                    partition_in(data, n, |k| k < t_lo),
                    partition_in(data, n, |k| k <= t_hi),
                )
            }
            _ => (0, n),
        };
        if lo >= hi {
            return Vec::new();
        }
        *scanned += (hi - lo) as u64;
        let mut sel = vec![true; hi - lo];
        for &(ki, k) in &narrowed {
            let col = k.col().expect("`Never` returned above");
            match (k, &self.cols[col]) {
                (
                    Kernel::LikeSym {
                        pattern, negated, ..
                    },
                    ColumnData::Sym { vals },
                ) => {
                    // A read guard for one chunk: symbols resolve by
                    // reference, and interning waits for one chunk at most.
                    let dict = self.dict.read();
                    memo.apply(ki, pattern, *negated, &dict, &vals[lo..hi], &mut sel)
                }
                (k, data) => k.apply(data, lo, &mut sel),
            }
        }
        (lo..)
            .zip(sel)
            .filter(|&(_, s)| s)
            .map(|(i, _)| self.perm[i])
            .collect()
    }
}

/// Rows per block of a columnar table's open tail: what the
/// first append after a publish copies at most, per table it touches.
///
/// The `ingest` ledger sets it. A flush there logs ≈ 106 KB and lands
/// ≈ 512 rows in each of two hot `events` partitions (88 bytes a row as
/// columns) and a few in each entity table, so each publish interval
/// copies about half a block per touched table: 0.067 bytes per byte
/// logged at 64 rows, 0.133 at 128, where a `Vec<Row>` tail copied whole
/// cost 15. Per row, a block costs its allocations (one per column, two
/// more), ≈ 0.2 at 64 rows, and a tail scan its per-block set-up; neither
/// shows in the acknowledgement or the live reads, so the copy decides:
/// the smallest block the design allows.
pub const TAIL_BLOCK_ROWS: usize = 64;

/// One block of an open tail: a column per projected column, each with
/// room for [`TAIL_BLOCK_ROWS`] values.
type Block = Vec<ColumnData>;

/// The open tail of a table with a projection: its rows in arrival order,
/// as columns of the table's projection, in blocks of [`TAIL_BLOCK_ROWS`]
/// rows — full blocks behind `Arc`, then the one partial block appends
/// fill, owned.
///
/// `Clone` bumps the full blocks' refcounts and copies the partial block
/// ([`ColumnTail::copy_bytes`]), nothing else: a table detached from a
/// published snapshot for its first append after the publish shares every
/// full block with it. Sealing reads the blocks — it copies what a batch
/// load would — through [`Columnar::seal`].
#[derive(Debug)]
pub(crate) struct ColumnTail {
    dict: SharedDict,
    full: Vec<Arc<Block>>,
    /// The partial block: empty (no columns) while no row is in it.
    open: Block,
    len: usize,
    /// Heap bytes of the full blocks, which never change.
    full_bytes: u64,
}

impl Clone for ColumnTail {
    fn clone(&self) -> ColumnTail {
        // The copy keeps room for the whole block, as the original has:
        // appends into it then never reallocate.
        let open = self.open.iter().map(|c| {
            let mut data = c.empty(TAIL_BLOCK_ROWS);
            data.extend(c);
            data
        });
        ColumnTail {
            dict: self.dict.clone(),
            full: self.full.clone(),
            open: open.collect(),
            len: self.len,
            full_bytes: self.full_bytes,
        }
    }
}

/// Heap bytes of a tail block: its column vectors and their list.
fn block_bytes(block: &Block) -> u64 {
    let cols: usize = block.iter().map(ColumnData::heap_bytes).sum();
    (cols + block.capacity() * size_of::<ColumnData>()) as u64
}

impl ColumnTail {
    /// An empty tail of `layout`'s columns.
    pub(crate) fn new(layout: &Columnar) -> ColumnTail {
        ColumnTail {
            dict: layout.dict.clone(),
            full: Vec::new(),
            open: Vec::new(),
            len: 0,
            full_bytes: 0,
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `row`, a row of `layout`'s table: each value pushed onto its
    /// column of the partial block, a string as its dictionary code
    /// (interned under one dictionary lock, taken only for a row that
    /// holds a string). A block that fills is shared from then on.
    pub(crate) fn push(&mut self, layout: &Columnar, row: &[Value]) {
        if self.open.is_empty() {
            self.open = (layout.cols.iter())
                .map(|c| c.empty(TAIL_BLOCK_ROWS))
                .collect();
        }
        let mut guard = None;
        for (data, v) in self.open.iter_mut().zip(row) {
            data.push(v, |s| {
                let mut s = s.clone();
                let dict = guard.get_or_insert_with(|| self.dict.write());
                dict.intern_shared(&mut s).0
            });
        }
        drop(guard);
        self.len += 1;
        if self.len.is_multiple_of(TAIL_BLOCK_ROWS) {
            let block = std::mem::take(&mut self.open);
            self.full_bytes += block_bytes(&block);
            self.full.push(Arc::new(block));
        }
    }

    /// Drops every row (blocks a clone shares stay alive there).
    pub(crate) fn clear(&mut self) {
        self.full.clear();
        self.open = Vec::new();
        self.len = 0;
        self.full_bytes = 0;
    }

    /// Every block, in order: the full ones, then the partial one if it
    /// holds a row.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        let open = (!self.open.is_empty()).then_some(&self.open);
        self.full.iter().map(|b| &**b).chain(open)
    }

    /// The block holding row `pos`, and the row's place in it.
    fn at(&self, pos: usize) -> (&Block, usize) {
        let block = match self.full.get(pos / TAIL_BLOCK_ROWS) {
            Some(full) => full,
            None => &self.open,
        };
        (block, pos % TAIL_BLOCK_ROWS)
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.blocks().next().map_or(0, Vec::len)
    }

    /// The value of column `col` at row `pos`, as [`Columnar::value`]
    /// reads it.
    pub(crate) fn value(&self, pos: usize, col: usize) -> Value {
        let (block, i) = self.at(pos);
        block[col].value(i, &self.dict)
    }

    /// [`ColumnTail::value`] of an `Int` column, without building a value.
    pub(crate) fn int(&self, pos: usize, col: usize) -> Option<i64> {
        let (block, i) = self.at(pos);
        block[col].int(i)
    }

    /// What [`ColumnTail::clone`] copies: the values of the partial block.
    pub(crate) fn copy_bytes(&self) -> u64 {
        self.open
            .iter()
            .map(ColumnData::filled_bytes)
            .sum::<usize>() as u64
    }

    /// Heap bytes held: the blocks and the list of full ones.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let list = self.full.capacity() * size_of::<Arc<Block>>();
        self.full_bytes + block_bytes(&self.open) + list as u64
    }

    /// How many full blocks are physically shared (same `Arc`) with
    /// `other`, compared positionally.
    pub(crate) fn blocks_shared_with(&self, other: &ColumnTail) -> usize {
        self.full
            .iter()
            .zip(&other.full)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Evaluates `kernels` over every block — a plain pass: no zone map, no
    /// time window, a time kernel a range kernel like any other — and
    /// appends the rows satisfying all of them to `out`, in arrival order.
    /// `memo` carries the [`Kernel::LikeSym`] outcomes of the table scan.
    /// Returns the rows evaluated.
    pub(crate) fn select(
        &self,
        kernels: &[Kernel],
        memo: &mut LikeMemo,
        out: &mut Vec<u32>,
    ) -> u64 {
        if kernels.iter().any(|k| matches!(k, Kernel::Never)) {
            return 0;
        }
        let mut sel = Vec::new();
        for (b, block) in self.blocks().enumerate() {
            let start = b * TAIL_BLOCK_ROWS;
            sel.clear();
            sel.resize((self.len - start).min(TAIL_BLOCK_ROWS), true);
            for (ki, k) in kernels.iter().enumerate() {
                let col = k.col().expect("`Never` returned above");
                match (k, &block[col]) {
                    (
                        Kernel::LikeSym {
                            pattern, negated, ..
                        },
                        ColumnData::Sym { vals },
                    ) => {
                        let dict = self.dict.read();
                        memo.apply(ki, pattern, *negated, &dict, vals, &mut sel)
                    }
                    (k, data) => k.apply(data, 0, &mut sel),
                }
            }
            let rows = (start as u32..).zip(&sel);
            out.extend(rows.filter(|&(_, &s)| s).map(|(p, _)| p));
        }
        self.len as u64
    }
}

/// `partition_point` over `data.int_key` on the first `n` positions.
fn partition_in(data: &ColumnData, n: usize, pred: impl Fn(i64) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
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
            if col >= columnar.arity() {
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
                if *col < columnar.arity() && schema.column_type(*col) == ColumnType::Str =>
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
            if col >= columnar.arity() {
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
    use crate::table::{ScanProfile, Table};

    fn schema() -> Schema {
        Schema::new(&[
            ("t", ColumnType::Int),
            ("agent", ColumnType::Int),
            ("name", ColumnType::Str),
            ("ok", ColumnType::Bool),
        ])
    }

    fn row(t: i64, agent: i64, name: &str, ok: bool) -> Row {
        vec![
            Value::Int(t),
            Value::Int(agent),
            Value::str(name),
            Value::Bool(ok),
        ]
    }

    fn build(rows: &[Row]) -> Columnar {
        Columnar::build(
            &schema(),
            &ColumnarSpec::time_sorted("t"),
            SharedDict::new(),
            rows,
        )
        .unwrap()
    }

    /// A table sealing `chunk`-row chunks, projected under `spec`, over
    /// `rows`; every row sealed.
    fn chunked(chunk: usize, spec: &ColumnarSpec, rows: &[Row]) -> Table {
        let mut t = Table::with_chunk_rows(schema(), chunk);
        t.enable_columnar(spec, SharedDict::new()).unwrap();
        for r in rows {
            t.insert(r.clone()).unwrap();
        }
        t.seal_tail();
        t
    }

    /// `conjuncts` selected on `t`: the rows, rows scanned, chunks pruned.
    fn scan(t: &Table, conjuncts: &[Expr]) -> (Vec<u32>, u64, u64) {
        let (mut scanned, mut profile) = (0, ScanProfile::default());
        let (_, rows) = t.select_profiled(conjuncts, &mut scanned, &mut profile);
        (rows, scanned, profile.blocks_pruned)
    }

    #[test]
    fn a_float_column_takes_no_projection() {
        let with_float = Schema::new(&[("t", ColumnType::Int), ("score", ColumnType::Float)]);
        let spec = ColumnarSpec::time_sorted("t");
        let built = Columnar::build(&with_float, &spec, SharedDict::new(), &[]);
        assert!(matches!(built, Err(RdbError::SchemaMismatch(_))));
        let mut t = Table::new(with_float);
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.seal_tail();
        let enabled = t.enable_columnar(&spec, SharedDict::new());
        assert!(matches!(enabled, Err(RdbError::SchemaMismatch(_))));
        assert!(t.columnar().is_none() && !t.sealed_chunks()[0].is_projected());
        let c = build(&[row(1, 0, "a", true)]);
        assert_eq!((c.arity(), c.len()), (4, 1));
    }

    #[test]
    fn named_column_validation() {
        let bad = Columnar::build(
            &schema(),
            &ColumnarSpec::time_sorted("name"),
            SharedDict::new(),
            &[],
        );
        assert!(bad.is_err(), "time column must be Int");
        let spec = ColumnarSpec::time_sorted("absent");
        let bad = Columnar::build(&schema(), &spec, SharedDict::new(), &[]);
        assert!(bad.is_err(), "time column must exist");
    }

    #[test]
    fn select_matches_interpreter_on_every_kernel_shape() {
        let rows: Vec<Row> = (0..100)
            .map(|i| row(i * 10, i % 4, ["a", "b", "c"][(i % 3) as usize], i % 2 == 0))
            .collect();
        let c = build(&rows);
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
        // Two well-separated agent populations in separate chunks.
        let rows: Vec<Row> = (0..64)
            .map(|i| row(i, if i < 32 { 1 } else { 1000 }, "x", true))
            .collect();
        let t = chunked(32, &ColumnarSpec::time_sorted("t"), &rows);
        assert_eq!(t.sealed_chunks().len(), 2);
        let (got, scanned, pruned) = scan(&t, &[Expr::cmp_lit(1, CmpOp::Eq, 1000i64)]);
        assert_eq!(got, (32..64).collect::<Vec<u32>>());
        assert_eq!((scanned, pruned), (32, 1), "first chunk zone-excluded");
    }

    #[test]
    fn missing_dictionary_string_compiles_to_never() {
        let rows = vec![row(1, 0, "present", true)];
        let c = build(&rows);
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
        let c = build(&rows);
        let conjuncts = vec![
            // LIKE over an expression, not a dictionary column.
            Expr::Like(
                Box::new(Expr::Lit(Value::str("a"))),
                LikePattern::new("%a%"),
            ),
            Expr::cmp_lit(1, CmpOp::Gt, 0.5f64),
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
            &ColumnarSpec::time_sorted("t"),
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
        let t = chunked(32, &ColumnarSpec::time_sorted("t"), &rows);
        let surviving = |e: Expr| -> usize {
            let (kernels, _) = compile_conjuncts(&schema(), t.columnar().unwrap(), &[e]);
            t.sealed_chunks()
                .iter()
                .map(|c| c.columnar().unwrap().surviving_rows(&kernels))
                .sum()
        };
        assert_eq!(surviving(Expr::cmp_lit(2, CmpOp::Eq, "x")), 70);
        assert_eq!(
            surviving(Expr::cmp_lit(1, CmpOp::Eq, 1000i64)),
            38,
            "the first chunk excluded; the second and the final 6-row one hold 1000"
        );
        assert_eq!(
            surviving(Expr::cmp_lit(1, CmpOp::Eq, 1i64)),
            32,
            "the final partial chunk is zone-mapped too"
        );
        assert_eq!(surviving(Expr::cmp_lit(2, CmpOp::Eq, "absent")), 0);
    }

    #[test]
    fn out_of_order_appends_keep_blocks_internally_sorted() {
        // Arrivals out of time order, sealed in 4-row chunks: each chunk's
        // projection is the time sort of its own rows, and a window over
        // the overlapping chunks stays exact.
        let times = [50, 10, 40, 20, 30, 5, 60, 25, 70, 15];
        let rows: Vec<Row> = times.iter().map(|&t| row(t, 0, "x", true)).collect();
        let t = chunked(4, &ColumnarSpec::time_sorted("t"), &rows);
        let perms: Vec<&[u32]> = t
            .sealed_chunks()
            .iter()
            .map(|c| c.columnar().unwrap().perm())
            .collect();
        assert_eq!(perms, [&[1, 3, 2, 0][..], &[1, 3, 0, 2], &[1, 0]]);
        let conjuncts = vec![
            Expr::cmp_lit(0, CmpOp::Ge, 15i64),
            Expr::cmp_lit(0, CmpOp::Le, 45i64),
        ];
        let want: Vec<u32> = (0..rows.len() as u32)
            .filter(|&p| conjuncts.iter().all(|e| e.matches(&rows[p as usize])))
            .collect();
        assert_eq!(scan(&t, &conjuncts).0, want);
        // Built from the rows whole, the projection sorts them whole, and
        // that order loads.
        let c = build(&rows);
        assert_eq!(c.perm(), [5, 1, 9, 3, 7, 4, 2, 0, 6, 8]);
        let refill = |order: &[u32]| {
            let layout = build(&[]);
            let mut tail = ColumnTail::new(&layout);
            rows.iter().for_each(|r| tail.push(&layout, r));
            layout.seal(&tail, Some(order))
        };
        refill(c.perm()).unwrap();
        // An order not time-sorted over its chunk is refused — the one
        // above, sorted 4 rows at a time, included — as is one that is no
        // permutation.
        for bad in [
            vec![1, 3, 2, 0, 5, 7, 4, 6, 9, 8],
            vec![5, 1, 9, 3, 7, 4, 2, 0, 6, 6],
            vec![0, 1, 2],
        ] {
            assert!(refill(&bad).is_err(), "{bad:?}");
        }
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
    fn values_read_back_exactly_and_null_flags_wait_for_a_null() {
        let schema = Schema::new(&[
            ("t", ColumnType::Int),
            ("x", ColumnType::Int),
            ("name", ColumnType::Str),
            ("ok", ColumnType::Bool),
        ]);
        let rows: Vec<Row> = (0..20i64)
            .map(|i| {
                vec![
                    Value::Int(20 - i),
                    if i == 13 {
                        Value::Null
                    } else {
                        Value::Int(i * 3)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("n{}", i % 3))
                    },
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    },
                ]
            })
            .collect();
        let spec = ColumnarSpec::time_sorted("t");
        let c = Columnar::build(&schema, &spec, SharedDict::new(), &rows).unwrap();
        for (at, &p) in c.perm().iter().enumerate() {
            for (col, want) in rows[p as usize].iter().enumerate() {
                assert_eq!(&c.value(at, col), want, "row {p} col {col}");
                assert_eq!(c.int(at, col), want.as_int());
            }
        }
        let flags = |c: &Columnar, col: usize| match &c.cols[col] {
            ColumnData::Int { nulls, .. } => nulls.len(),
            _ => unreachable!(),
        };
        assert_eq!(flags(&c, 0), 0, "a column without NULL has no flags");
        assert_eq!(flags(&c, 1), 20);
        let before = Columnar::build(&schema, &spec, SharedDict::new(), &rows[..13]).unwrap();
        assert_eq!(flags(&before, 1), 0, "allocated at the first NULL");
    }
}
