//! Chunked row-store tables with secondary B-tree indexes and optional
//! columnar projections (see [`crate::columnar`]).
//!
//! A [`Table`] is physically a sequence of **chunks**: zero or more
//! immutable [`SealedChunk`]s held behind `Arc`, plus one small mutable
//! **tail** chunk that absorbs every insert. Each chunk privately carries
//! its slice of rows together with the secondary indexes and the columnar
//! blocks/zone maps over exactly those rows (all positions chunk-local), so
//! a sealed chunk is a self-contained, immutable scan unit.
//!
//! The payoff is the cost of [`Table::clone`] — the copy-on-write step that
//! publishes a store snapshot: sealed chunks are shared by reference
//! (refcount bumps), only the open tail is deep-copied, making publication
//! O(tail) instead of O(table). The invariants:
//!
//! - rows keep global insertion order: chunk boundaries split `0..len()`
//!   into consecutive ranges, sealed chunks first, the tail last;
//! - a sealed chunk's row content never changes (the rare schema
//!   operations — [`Table::create_index`], [`Table::enable_columnar`] —
//!   rebuild auxiliary structures through `Arc::make_mut`, which is why
//!   they are deliberately not charged as copy-on-write);
//! - every chunk carries the same index set and columnar configuration, so
//!   access-path selection is decided **once per table** and applied chunk
//!   by chunk.
//!
//! The tail seals automatically when it reaches [`Table::chunk_rows`] rows;
//! [`Table::seal_tail`] / [`Table::freeze_tail`] seal it early (the
//! snapshot-restore and publication paths respectively).

use crate::columnar::{compile_conjuncts, Columnar, ColumnarSpec, Kernel, LikeMemo};
use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::{Row, Schema};
use aiql_model::{SharedDict, Value};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// Default rows per chunk. Matches
/// [`crate::columnar::DEFAULT_BLOCK_ROWS`] so a full chunk is exactly one
/// fully zone-mapped columnar block.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// A secondary index: column value → row positions (chunk-local).
#[derive(Debug, Default, Clone)]
pub struct Index {
    map: BTreeMap<Value, Vec<u32>>,
}

impl Index {
    /// Rows whose indexed value equals `v`.
    pub fn get_eq(&self, v: &Value) -> &[u32] {
        self.map.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Rows whose indexed value lies in `[lo, hi]` (either bound optional).
    pub fn get_range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<u32> {
        let lower = lo.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        let upper = hi.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        let mut out = Vec::new();
        for (_, rows) in self.map.range((lower, upper)) {
            out.extend_from_slice(rows);
        }
        out
    }

    fn insert(&mut self, v: Value, row: u32) {
        self.map.entry(v).or_default().push(row);
    }

    /// The part of `sorted` (ascending under [`Value::loose_cmp`], as an
    /// [`crate::InList`] keeps its values) that can equal a key of this
    /// index: what lies within its smallest and largest key. A column
    /// holds one type (or NULL), over which the loose order only coarsens
    /// the key order, so nothing outside the slice has a posting here.
    fn clip<'a>(&self, sorted: &'a [Value]) -> &'a [Value] {
        let (Some((min, _)), Some((max, _))) =
            (self.map.first_key_value(), self.map.last_key_value())
        else {
            return &[];
        };
        let from = sorted.partition_point(|v| v.loose_cmp(min).is_lt());
        let to = sorted.partition_point(|v| v.loose_cmp(max).is_le());
        &sorted[from..to]
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// One chunk of a [`Table`]: a consecutive run of rows with the secondary
/// indexes and optional columnar projection over exactly those rows.
///
/// All positions inside a chunk are **chunk-local**: `rows()[0]` is global
/// position `base` where `base` is the sum of the preceding chunks'
/// lengths. The same struct backs both sealed chunks (immutable, shared
/// behind `Arc` with every snapshot that pinned them) and the open tail
/// (mutable, privately owned by the table).
///
/// Invariants of a *sealed* chunk:
///
/// - row content, indexes, and columnar blocks never change after sealing
///   (schema operations rebuild them via `Arc::make_mut`, producing a new
///   chunk value rather than mutating a shared one);
/// - its columnar projection, when present, is fully zone-mapped: the final
///   partial block is sealed at chunk-seal time
///   ([`Columnar::seal_tail_block`]), so scans can zone-prune every block.
#[derive(Debug, Clone)]
pub struct SealedChunk {
    rows: Vec<Row>,
    indexes: BTreeMap<usize, Index>,
    columnar: Option<Columnar>,
}

impl SealedChunk {
    fn empty() -> SealedChunk {
        SealedChunk {
            rows: Vec::new(),
            indexes: BTreeMap::new(),
            columnar: None,
        }
    }

    /// The chunk's rows (chunk-local order = global insertion order).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The chunk's columnar projection, if the table has one enabled.
    pub fn columnar(&self) -> Option<&Columnar> {
        self.columnar.as_ref()
    }

    /// Builds the index on `col` over this chunk's rows and, when a
    /// projection exists, projects the column so it stays kernel-evaluable.
    fn build_index(&mut self, schema: &Schema, col: usize) {
        let mut index = Index::default();
        for (pos, row) in self.rows.iter().enumerate() {
            index.insert(row[col].clone(), pos as u32);
        }
        self.indexes.insert(col, index);
        if let Some(c) = &mut self.columnar {
            c.project_column(schema, col, &self.rows);
        }
    }
}

/// A table: schema plus a list of sealed chunks and one open tail chunk
/// (see the [module docs](self) for the chunk lifecycle).
///
/// `Clone` is the copy-on-write step that detaches a snapshot-shared table
/// for further writes: sealed chunks are shared by reference, only the open
/// tail (rows, tail indexes, open columnar block) is deep-copied.
///
/// # Examples
///
/// Sealed chunks are physically shared between a table and its clones —
/// only the tail is copied:
///
/// ```
/// use aiql_rdb::{ColumnType, Schema, Table, Value};
///
/// let schema = Schema::new(&[("x", ColumnType::Int)]);
/// let mut t = Table::with_chunk_rows(schema, 2);
/// for i in 0..5 {
///     t.insert(vec![Value::Int(i)]).unwrap();
/// }
/// assert_eq!(t.chunk_boundaries(), vec![2, 2, 1]);
/// let snapshot = t.clone(); // O(tail): both sealed chunks shared by reference
/// assert_eq!(t.chunks_shared_with(&snapshot), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    /// Rows at which the tail auto-seals.
    chunk_rows: usize,
    /// Immutable history, oldest first.
    sealed: Vec<Arc<SealedChunk>>,
    /// Global start position of `sealed[i]` (parallel to `sealed`).
    starts: Vec<u32>,
    /// Total rows across sealed chunks (= the tail's global base).
    sealed_len: usize,
    /// The open chunk absorbing inserts.
    tail: SealedChunk,
    /// Columnar configuration applied to every chunk (and every future
    /// tail) once [`Table::enable_columnar`] ran.
    columnar_cfg: Option<(ColumnarSpec, SharedDict)>,
}

/// How a scan located its rows — reported in [`crate::exec::ExecStats`] and
/// asserted on by planner tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full table scan.
    Seq,
    /// Index equality probe(s).
    IndexEq,
    /// Index range scan.
    IndexRange,
    /// Vectorized scan of the columnar projection (zone-map pruned).
    Columnar,
}

impl AccessPath {
    /// Human-readable name, as EXPLAIN output prints it.
    pub fn name(self) -> &'static str {
        match self {
            AccessPath::Seq => "seq-scan",
            AccessPath::IndexEq => "index-probe",
            AccessPath::IndexRange => "index-range",
            AccessPath::Columnar => "columnar",
        }
    }
}

/// Accounting for one logical scan (possibly spanning many partitions):
/// which access paths ran, how much partition and zone-map pruning paid
/// off, and how many rows were touched vs returned. The raw material of
/// the session API's `EXPLAIN` output.
///
/// A chunked table still records **one** access path per table scan (the
/// path is chosen once and applied to every chunk), so per-partition path
/// counts are unchanged by chunking; only `blocks_total`/`blocks_pruned`
/// accumulate across all chunks' columnar blocks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanProfile {
    /// Partitions the table holds (1 for plain tables).
    pub partitions_total: u32,
    /// Partitions admitted by pruning and actually scanned.
    pub partitions_scanned: u32,
    /// Per-access-path counts, one increment per (partition) scan.
    pub seq_scans: u32,
    pub index_eq_probes: u32,
    pub index_range_scans: u32,
    pub columnar_scans: u32,
    /// Columnar blocks considered / skipped purely by zone maps.
    pub blocks_total: u64,
    pub blocks_pruned: u64,
    /// Rows the scan touched (candidate evaluations).
    pub rows_scanned: u64,
    /// Rows that satisfied every conjunct.
    pub rows_matched: u64,
    /// Rows a `LIKE` kernel decided by dictionary code, and the pattern
    /// evaluations that took — one per distinct symbol per table scan, so
    /// `1 - like_symbol_evals / like_rows` is the memo's hit rate.
    pub like_rows: u64,
    pub like_symbol_evals: u64,
    /// B-tree lookups made by index equality probes (after clipping the
    /// IN-list to each chunk's key range).
    pub in_probe_lookups: u64,
    /// Shards the store's layout routes partitions into (0 for unsharded
    /// scans; see [`crate::partition::shard_of`]).
    pub shards_total: u32,
    /// Shards that held at least one admitted partition and were scanned.
    pub shards_scanned: u32,
}

impl ScanProfile {
    /// Folds another profile into this one (parallel partition workers).
    pub fn merge(&mut self, o: &ScanProfile) {
        self.partitions_total += o.partitions_total;
        self.partitions_scanned += o.partitions_scanned;
        self.seq_scans += o.seq_scans;
        self.index_eq_probes += o.index_eq_probes;
        self.index_range_scans += o.index_range_scans;
        self.columnar_scans += o.columnar_scans;
        self.blocks_total += o.blocks_total;
        self.blocks_pruned += o.blocks_pruned;
        self.rows_scanned += o.rows_scanned;
        self.rows_matched += o.rows_matched;
        self.like_rows += o.like_rows;
        self.like_symbol_evals += o.like_symbol_evals;
        self.in_probe_lookups += o.in_probe_lookups;
        self.shards_total += o.shards_total;
        self.shards_scanned += o.shards_scanned;
    }

    fn record_path(&mut self, path: AccessPath) {
        match path {
            AccessPath::Seq => self.seq_scans += 1,
            AccessPath::IndexEq => self.index_eq_probes += 1,
            AccessPath::IndexRange => self.index_range_scans += 1,
            AccessPath::Columnar => self.columnar_scans += 1,
        }
    }

    /// The access paths that ran, in priority order, as `name` strings.
    pub fn paths(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.index_eq_probes > 0 {
            out.push(AccessPath::IndexEq.name());
        }
        if self.columnar_scans > 0 {
            out.push(AccessPath::Columnar.name());
        }
        if self.index_range_scans > 0 {
            out.push(AccessPath::IndexRange.name());
        }
        if self.seq_scans > 0 {
            out.push(AccessPath::Seq.name());
        }
        out
    }
}

impl Table {
    /// Creates an empty table sealing chunks at [`DEFAULT_CHUNK_ROWS`].
    pub fn new(schema: Schema) -> Table {
        Table::with_chunk_rows(schema, DEFAULT_CHUNK_ROWS)
    }

    /// Creates an empty table sealing chunks at `chunk_rows` rows (min 1).
    pub fn with_chunk_rows(schema: Schema, chunk_rows: usize) -> Table {
        Table {
            schema,
            chunk_rows: chunk_rows.max(1),
            sealed: Vec::new(),
            starts: Vec::new(),
            sealed_len: 0,
            tail: SealedChunk::empty(),
            columnar_cfg: None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows at which the tail auto-seals.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The sealed chunks, oldest first.
    pub fn sealed_chunks(&self) -> &[Arc<SealedChunk>] {
        &self.sealed
    }

    /// The open tail chunk (possibly empty).
    pub fn tail_chunk(&self) -> &SealedChunk {
        &self.tail
    }

    /// Row counts per chunk in global order: sealed chunks first, then the
    /// tail if it holds rows. Persisted by snapshots so a restored table
    /// reproduces seal boundaries exactly.
    pub fn chunk_boundaries(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.sealed.iter().map(|c| c.rows.len()).collect();
        if !self.tail.rows.is_empty() {
            v.push(self.tail.rows.len());
        }
        v
    }

    /// How many sealed chunks are physically shared (same `Arc` allocation)
    /// with `other`. Chunks are compared positionally: a table and its
    /// clone share a common sealed prefix until a schema operation rebuilds
    /// chunks on one side. Diagnostic for tests and benches.
    pub fn chunks_shared_with(&self, other: &Table) -> usize {
        self.sealed
            .iter()
            .zip(other.sealed.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// All rows in global insertion order, across chunks.
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.sealed
            .iter()
            .flat_map(|c| c.rows.iter())
            .chain(self.tail.rows.iter())
    }

    /// A cheap structural estimate of the table's resident size: row
    /// storage as `rows × arity × size_of::<Value>()` plus the per-row
    /// vector headers. Deliberately O(1) — it ignores heap-allocated
    /// string payloads and index/projection overhead. See
    /// [`Table::tail_bytes`] for the copy-on-write charge.
    pub fn approx_bytes(&self) -> u64 {
        (self.len() * self.per_row_bytes()) as u64
    }

    /// The [`Table::approx_bytes`]-style size of the open tail chunk —
    /// exactly what [`Table::clone`] deep-copies, since sealed chunks are
    /// shared by reference. This is the amount
    /// [`crate::PartitionedTable`]'s copy-on-write accounting charges per
    /// detach of a snapshot-shared table: O(tail), not O(table).
    pub fn tail_bytes(&self) -> u64 {
        (self.tail.rows.len() * self.per_row_bytes()) as u64
    }

    fn per_row_bytes(&self) -> usize {
        self.schema.arity() * std::mem::size_of::<Value>() + std::mem::size_of::<Row>()
    }

    /// One row by global position.
    pub fn row(&self, idx: u32) -> &Row {
        let i = idx as usize;
        if i >= self.sealed_len {
            return &self.tail.rows[i - self.sealed_len];
        }
        let k = self.starts.partition_point(|&s| (s as usize) <= i) - 1;
        &self.sealed[k].rows[i - self.starts[k] as usize]
    }

    /// Every chunk with its global base position, tail last.
    fn chunks_with_base(&self) -> impl Iterator<Item = (&SealedChunk, u32)> {
        self.sealed
            .iter()
            .zip(self.starts.iter())
            .map(|(c, &s)| (c.as_ref(), s))
            .chain(std::iter::once((&self.tail, self.sealed_len as u32)))
    }

    /// Validates and appends a row into the open tail, maintaining the
    /// tail's indexes and columnar projection (sorted insert into its open
    /// block). Seals the tail into an immutable chunk when it reaches
    /// [`Table::chunk_rows`] rows.
    pub fn insert(&mut self, row: Row) -> Result<(), RdbError> {
        self.schema.check_row(&row)?;
        let pos = self.tail.rows.len() as u32;
        for (&col, index) in self.tail.indexes.iter_mut() {
            index.insert(row[col].clone(), pos);
        }
        if let Some(c) = &mut self.tail.columnar {
            c.append(&row, pos);
        }
        self.tail.rows.push(row);
        if self.tail.rows.len() >= self.chunk_rows {
            self.seal_tail();
        }
        Ok(())
    }

    /// Seals the open tail into an immutable chunk and opens a fresh empty
    /// tail carrying the same index set and columnar configuration. The
    /// sealed chunk's final partial columnar block is zone-mapped
    /// ([`Columnar::seal_tail_block`]) — safe because sealed chunks never
    /// take another append. No-op on an empty tail.
    ///
    /// The snapshot-restore path calls this at each persisted chunk
    /// boundary so a reopened table reproduces the pre-shutdown layout.
    pub fn seal_tail(&mut self) {
        if self.tail.rows.is_empty() {
            return;
        }
        if let Some(c) = &mut self.tail.columnar {
            c.seal_tail_block();
        }
        let fresh = self.fresh_tail();
        let sealed = std::mem::replace(&mut self.tail, fresh);
        self.starts.push(self.sealed_len as u32);
        self.sealed_len += sealed.rows.len();
        self.sealed.push(Arc::new(sealed));
    }

    /// Seals the tail only if it holds at least `min_rows` rows (min 1);
    /// returns whether it sealed. The snapshot-publication path freezes
    /// tails this way before cloning the head, so sealed history is shared
    /// with the snapshot and the publish copies at most `min_rows`-sized
    /// open tails — without fragmenting hot partitions into dust chunks.
    ///
    /// ```
    /// use aiql_rdb::{ColumnType, Schema, Table, Value};
    ///
    /// let mut t = Table::new(Schema::new(&[("x", ColumnType::Int)]));
    /// t.insert(vec![Value::Int(1)]).unwrap();
    /// assert!(!t.freeze_tail(2), "below the minimum: tail stays open");
    /// t.insert(vec![Value::Int(2)]).unwrap();
    /// assert!(t.freeze_tail(2));
    /// assert_eq!(t.tail_bytes(), 0, "cloning now copies no row data");
    /// ```
    pub fn freeze_tail(&mut self, min_rows: usize) -> bool {
        if self.tail.rows.len() >= min_rows.max(1) {
            self.seal_tail();
            true
        } else {
            false
        }
    }

    /// A fresh empty tail with the table's index set and columnar
    /// configuration (columnar first, then indexes project into it —
    /// mirroring partition rollover).
    fn fresh_tail(&self) -> SealedChunk {
        let mut chunk = SealedChunk::empty();
        if let Some((spec, dict)) = &self.columnar_cfg {
            let mut c = Columnar::build(&self.schema, spec, dict.clone(), &[])
                .expect("spec validated when columnar was enabled");
            for &col in self.tail.indexes.keys() {
                c.project_column(&self.schema, col, &[]);
            }
            chunk.columnar = Some(c);
        }
        for &col in self.tail.indexes.keys() {
            chunk.indexes.insert(col, Index::default());
        }
        chunk
    }

    /// Builds (or rebuilds) a columnar projection over every chunk; future
    /// inserts maintain the tail's incrementally and every future tail
    /// inherits the configuration. Indexed columns join the projection
    /// automatically, so [`Table::indexed_columns`] stays the single source
    /// of truth for both layouts. Rebuilding sealed chunks goes through
    /// `Arc::make_mut` (a rare schema operation, not charged as
    /// copy-on-write).
    pub fn enable_columnar(
        &mut self,
        spec: &ColumnarSpec,
        dict: SharedDict,
    ) -> Result<(), RdbError> {
        // The tail's projection is built first: it validates the spec
        // before any sealed chunk is rebuilt.
        let tail_col = build_projection(&self.schema, spec, &dict, &self.tail)?;
        for chunk in &mut self.sealed {
            let c = Arc::make_mut(chunk);
            let mut col = build_projection(&self.schema, spec, &dict, c)
                .expect("spec already validated against this schema");
            col.seal_tail_block();
            c.columnar = Some(col);
        }
        self.tail.columnar = Some(tail_col);
        self.columnar_cfg = Some((spec.clone(), dict));
        Ok(())
    }

    /// Restores columnar projections from snapshotted block metadata
    /// instead of re-sorting the rows — the deserialization path of the
    /// durable store. `perm` is the concatenation of each chunk's
    /// projection order in chunk order (sealed chunks, then the tail), with
    /// entries as **global** row positions (see [`Columnar::perm`] for the
    /// chunk-local order). Indexed columns join the projection exactly as
    /// they do on [`Table::enable_columnar`].
    pub fn restore_columnar(
        &mut self,
        spec: &ColumnarSpec,
        dict: SharedDict,
        perm: &[u32],
    ) -> Result<(), RdbError> {
        if perm.len() != self.len() {
            return Err(RdbError::SchemaMismatch(format!(
                "columnar permutation covers {} rows, table has {}",
                perm.len(),
                self.len()
            )));
        }
        // Rebuild per chunk: slice the global permutation at chunk
        // boundaries and shift to chunk-local positions
        // (`Columnar::restore` validates the local range).
        let mut rebuilt = Vec::with_capacity(self.sealed.len() + 1);
        let mut off = 0usize;
        for (chunk, base) in self.chunks_with_base() {
            let len = chunk.rows.len();
            let mut local = Vec::with_capacity(len);
            for &p in &perm[off..off + len] {
                local.push(p.checked_sub(base).ok_or_else(|| {
                    RdbError::SchemaMismatch(format!(
                        "columnar permutation entry {p} before chunk base {base}"
                    ))
                })?);
            }
            let mut col = Columnar::restore(&self.schema, spec, dict.clone(), &chunk.rows, &local)?;
            for &ic in chunk.indexes.keys() {
                col.project_column(&self.schema, ic, &chunk.rows);
            }
            rebuilt.push(col);
            off += len;
        }
        let tail_col = rebuilt.pop().expect("the tail chunk always exists");
        for (chunk, mut col) in self.sealed.iter_mut().zip(rebuilt) {
            col.seal_tail_block();
            Arc::make_mut(chunk).columnar = Some(col);
        }
        self.tail.columnar = Some(tail_col);
        self.columnar_cfg = Some((spec.clone(), dict));
        Ok(())
    }

    /// The open tail's columnar projection, if one is enabled. Presence is
    /// table-wide: every chunk carries a projection under the same
    /// configuration (per-chunk blocks are reached via
    /// [`Table::sealed_chunks`]).
    pub fn columnar(&self) -> Option<&Columnar> {
        self.tail.columnar.as_ref()
    }

    /// Creates a secondary index on `column`, back-filling every chunk
    /// (sealed chunks through `Arc::make_mut` — a rare schema operation,
    /// not charged as copy-on-write). Creating an index twice is a no-op.
    /// When a columnar projection is enabled, the column also joins the
    /// projection so it stays kernel-evaluable on both access paths.
    pub fn create_index(&mut self, column: &str) -> Result<(), RdbError> {
        let col = self.schema.require(column)?;
        if self.tail.indexes.contains_key(&col) {
            return Ok(());
        }
        for chunk in &mut self.sealed {
            Arc::make_mut(chunk).build_index(&self.schema, col);
        }
        self.tail.build_index(&self.schema, col);
        Ok(())
    }

    /// Column positions that have indexes (identical on every chunk).
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.tail.indexes.keys().copied().collect()
    }

    /// Selects row positions satisfying all `conjuncts`. The access path is
    /// chosen **once per table**, from table-wide statistics, and applied
    /// to every chunk in order:
    ///
    /// - an **index equality probe** (`col = lit` / `col IN (lits)` on an
    ///   indexed column) or a **columnar scan** (at least one conjunct
    ///   compiles into a vectorized kernel), whichever costs less: a
    ///   probe's B-tree lookups plus the candidates in the posting lists
    ///   they reach, against the rows the zone maps cannot exclude
    ///   ([`Columnar::surviving_rows`]). Of several usable probes the
    ///   cheapest runs;
    /// - failing both, an **index range scan** (`col >=/<=/</> lit` on an
    ///   indexed column);
    /// - failing that, a **sequential scan**.
    ///
    /// The conjuncts the path does not answer itself are applied as a
    /// residual row filter. Returns the chosen access path alongside the
    /// (global) row positions, in row order. `scanned` is incremented by
    /// the number of rows the scan *touched* (not returned), so callers can
    /// account I/O-like cost.
    pub fn select(&self, conjuncts: &[Expr], scanned: &mut u64) -> (AccessPath, Vec<u32>) {
        let mut profile = ScanProfile::default();
        self.select_profiled(conjuncts, scanned, &mut profile)
    }

    /// [`Table::select`] with full accounting into `profile`: the chosen
    /// access path, zone-map block pruning, and touched/matched row counts.
    pub fn select_profiled(
        &self,
        conjuncts: &[Expr],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> (AccessPath, Vec<u32>) {
        let before = *scanned;
        let (path, rows) = self.select_inner(conjuncts, scanned, profile);
        profile.record_path(path);
        profile.rows_scanned += *scanned - before;
        profile.rows_matched += rows.len() as u64;
        (path, rows)
    }

    fn select_inner(
        &self,
        conjuncts: &[Expr],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> (AccessPath, Vec<u32>) {
        // Index-usable conjuncts. The index set is identical on every
        // chunk, so this — like everything below — is decided per table.
        let probes: Vec<(usize, IndexProbe)> = conjuncts
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| Some((ci, index_probe(c)?)))
            .filter(|(_, p)| self.tail.indexes.contains_key(&p.col))
            .collect();
        // The projected-column set and the dictionary are table-wide:
        // kernels compile once and run on every chunk.
        let vectorized = self
            .tail
            .columnar
            .as_ref()
            .map(|col| compile_conjuncts(&self.schema, col, conjuncts))
            .filter(|(kernels, _)| !kernels.is_empty());

        // Equality probes, fewest B-tree lookups first. One runs only if it
        // beats the kernel scan (and the probes before it): first on its
        // lookups alone, which cost nothing to count; then, looked up, on
        // the candidates its posting lists actually hold.
        let mut eq_probes: Vec<(usize, usize, &[Value], usize)> = probes
            .iter()
            .filter_map(|(ci, p)| match p.kind {
                ProbeKind::Eq(values) => {
                    Some((*ci, p.col, values, self.probe_lookups(p.col, values)))
                }
                ProbeKind::Range { .. } => None,
            })
            .collect();
        eq_probes.sort_by_key(|&(.., lookups)| lookups);
        let mut budget = match &vectorized {
            Some((kernels, _)) if !eq_probes.is_empty() => self.kernel_cost(kernels),
            _ => usize::MAX,
        };
        let mut chosen = None;
        for (ci, col, values, lookups) in eq_probes {
            if lookups.saturating_mul(LOOKUP_COST) >= budget {
                break;
            }
            let postings = self.probe(col, values, profile);
            let candidates: usize = postings.iter().map(Vec::len).sum();
            let cost = lookups * LOOKUP_COST + candidates * CANDIDATE_COST;
            if cost < budget {
                budget = cost;
                chosen = Some((ci, postings));
            }
        }

        if let Some((ci, postings)) = chosen {
            let mut out = Vec::new();
            for ((chunk, base), mut candidates) in self.chunks_with_base().zip(postings) {
                *scanned += candidates.len() as u64;
                // The probe conjunct is answered by the index itself.
                candidates.retain(|&pos| {
                    let row = &chunk.rows[pos as usize];
                    conjuncts
                        .iter()
                        .enumerate()
                        .all(|(i, c)| i == ci || c.matches(row))
                });
                out.extend(candidates.into_iter().map(|p| p + base));
            }
            return (AccessPath::IndexEq, out);
        }
        if let Some((kernels, residual)) = &vectorized {
            let rows = self.columnar_select(conjuncts, kernels, residual, scanned, profile);
            return (AccessPath::Columnar, rows);
        }

        let range = probes.iter().find_map(|(_, p)| match p.kind {
            ProbeKind::Range { lo, hi } => Some((p.col, lo, hi)),
            ProbeKind::Eq(_) => None,
        });
        let mut out = Vec::new();
        for (chunk, base) in self.chunks_with_base() {
            // `index_probe` encodes exclusive bounds inclusively, so a
            // range candidate is re-checked against every conjunct.
            let mut candidates = match range {
                Some((col, lo, hi)) => {
                    // Key order → row order, like every other path.
                    let mut rows = chunk.indexes[&col].get_range(lo, hi);
                    rows.sort_unstable();
                    rows
                }
                None => (0..chunk.rows.len() as u32).collect(),
            };
            *scanned += candidates.len() as u64;
            candidates.retain(|&pos| {
                let row = &chunk.rows[pos as usize];
                conjuncts.iter().all(|c| c.matches(row))
            });
            out.extend(candidates.into_iter().map(|p| p + base));
        }
        let path = match range {
            Some(_) => AccessPath::IndexRange,
            None => AccessPath::Seq,
        };
        (path, out)
    }

    /// B-tree lookups that answering `col IN (values)` from the chunk
    /// indexes takes: one per value per chunk whose key range holds it.
    fn probe_lookups(&self, col: usize, values: &[Value]) -> usize {
        self.chunks_with_base()
            .map(|(chunk, _)| chunk.indexes[&col].clip(values).len())
            .sum()
    }

    /// Makes those lookups: per chunk, the rows holding one of `values` in
    /// `col`, in row order.
    fn probe(&self, col: usize, values: &[Value], profile: &mut ScanProfile) -> Vec<Vec<u32>> {
        self.chunks_with_base()
            .map(|(chunk, _)| {
                let index = &chunk.indexes[&col];
                // Each row sits in exactly one posting list, so the
                // concatenation holds no duplicates; sorting restores row
                // order across values.
                let mut rows = Vec::new();
                for v in index.clip(values) {
                    rows.extend_from_slice(index.get_eq(v));
                    profile.in_probe_lookups += 1;
                }
                rows.sort_unstable();
                rows
            })
            .collect()
    }

    /// Estimated cost of the vectorized path, in kernel-evaluated rows: the
    /// rows in blocks no zone map excludes.
    fn kernel_cost(&self, kernels: &[Kernel]) -> usize {
        self.chunks_with_base()
            .filter_map(|(chunk, _)| chunk.columnar.as_ref())
            .map(|col| col.surviving_rows(kernels))
            .sum()
    }

    /// The vectorized path: scan every chunk's blocks with `kernels`, then
    /// row-filter the `residual` conjuncts per chunk.
    fn columnar_select(
        &self,
        conjuncts: &[Expr],
        kernels: &[Kernel],
        residual: &[usize],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<u32> {
        let mut memo = LikeMemo::default();
        let mut out = Vec::new();
        for (chunk, base) in self.chunks_with_base() {
            let col = chunk
                .columnar
                .as_ref()
                .expect("every chunk carries the table's columnar configuration");
            let mut positions = col.select_stats(
                kernels,
                &mut memo,
                scanned,
                &mut profile.blocks_pruned,
                &mut profile.blocks_total,
            );
            if !residual.is_empty() {
                positions.retain(|&p| {
                    let row = &chunk.rows[p as usize];
                    residual.iter().all(|&ci| conjuncts[ci].matches(row))
                });
            }
            // Chunk-local row order; chunks are visited in global order, so
            // the concatenation matches the sequential scan exactly.
            positions.sort_unstable();
            out.extend(positions.into_iter().map(|p| p + base));
        }
        profile.like_rows += memo.rows;
        profile.like_symbol_evals += memo.symbol_evals;
        out
    }
}

/// What one B-tree lookup costs, in kernel-evaluated rows: descending a
/// chunk index over generic [`Value`] keys (~150 ns) against a kernel pass
/// over one row of flat typed vectors (~10 ns).
const LOOKUP_COST: usize = 16;

/// What one probe candidate costs in the same unit: fetching its row and
/// re-checking the remaining conjuncts on the interpreter.
const CANDIDATE_COST: usize = 4;

/// Builds a chunk's projection under `spec`, projecting its indexed
/// columns.
fn build_projection(
    schema: &Schema,
    spec: &ColumnarSpec,
    dict: &SharedDict,
    chunk: &SealedChunk,
) -> Result<Columnar, RdbError> {
    let mut col = Columnar::build(schema, spec, dict.clone(), &chunk.rows)?;
    for &ic in chunk.indexes.keys() {
        col.project_column(schema, ic, &chunk.rows);
    }
    Ok(col)
}

#[derive(Clone, Copy)]
enum ProbeKind<'a> {
    /// Equality with any of these values (ascending under
    /// [`Value::loose_cmp`]).
    Eq(&'a [Value]),
    Range {
        lo: Option<&'a Value>,
        hi: Option<&'a Value>,
    },
}

struct IndexProbe<'a> {
    col: usize,
    kind: ProbeKind<'a>,
}

/// Recognizes conjuncts usable as index probes: `Col = Lit`, `Col IN (...)`,
/// and single-sided ranges `Col </<=/>/>= Lit`.
fn index_probe(e: &Expr) -> Option<IndexProbe<'_>> {
    match e {
        Expr::Cmp(op, a, b) => {
            let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v, *op),
                (Expr::Lit(v), Expr::Col(c)) => (*c, v, op.flip()),
                _ => return None,
            };
            let kind = match op {
                CmpOp::Eq => ProbeKind::Eq(std::slice::from_ref(lit)),
                CmpOp::Le | CmpOp::Lt => ProbeKind::Range {
                    lo: None,
                    hi: Some(lit),
                },
                CmpOp::Ge | CmpOp::Gt => ProbeKind::Range {
                    lo: Some(lit),
                    hi: None,
                },
                CmpOp::Ne => return None,
            };
            Some(IndexProbe { col, kind })
        }
        Expr::In(inner, list) => match inner.as_ref() {
            Expr::Col(c) => Some(IndexProbe {
                col: *c,
                kind: ProbeKind::Eq(list.values()),
            }),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn table() -> Table {
        let mut t = Table::new(Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]));
        for (id, name, size) in [
            (1, "alpha", 10),
            (2, "beta", 20),
            (3, "alpha", 30),
            (4, "gamma", 40),
        ] {
            t.insert(vec![Value::Int(id), Value::str(name), Value::Int(size)])
                .unwrap();
        }
        t
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::str("x"), Value::str("y"), Value::Int(1)])
            .is_err());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn seq_scan_when_no_index() {
        let t = table();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::Seq);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(scanned, 4);
    }

    #[test]
    fn index_eq_probe() {
        let mut t = table();
        t.create_index("name").unwrap();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(scanned, 2, "only matching rows touched");
    }

    #[test]
    fn index_in_probe_and_residual() {
        let mut t = table();
        t.create_index("name").unwrap();
        let mut scanned = 0;
        let conjuncts = vec![
            Expr::in_list(1, vec![Value::str("alpha"), Value::str("gamma")]),
            Expr::cmp_lit(2, CmpOp::Gt, 15i64),
        ];
        let (path, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![2, 3]);
    }

    #[test]
    fn index_range_probe() {
        let mut t = table();
        t.create_index("size").unwrap();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(2, CmpOp::Ge, 20i64)], &mut scanned);
        assert_eq!(path, AccessPath::IndexRange);
        assert_eq!(rows, vec![1, 2, 3]);
        // Exclusive bound: strict > re-checks the predicate.
        let (_, rows) = t.select(&[Expr::cmp_lit(2, CmpOp::Gt, 20i64)], &mut scanned);
        assert_eq!(rows, vec![2, 3]);
    }

    #[test]
    fn index_backfill_and_idempotence() {
        let mut t = table();
        t.create_index("name").unwrap();
        t.create_index("name").unwrap();
        t.insert(vec![Value::Int(5), Value::str("alpha"), Value::Int(50)])
            .unwrap();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![0, 2, 4], "backfill plus index-maintained append");
        assert_eq!(scanned, 3);
        assert!(t.create_index("bogus").is_err());
    }

    #[test]
    fn columnar_path_matches_seq_scan() {
        let mut t = table();
        t.enable_columnar(&ColumnarSpec::all(), SharedDict::new())
            .unwrap();
        let mut scanned = 0;
        let conjuncts = vec![Expr::cmp_lit(1, CmpOp::Eq, "alpha")];
        let (path, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(path, AccessPath::Columnar);
        assert_eq!(rows, vec![0, 2], "row order, like the seq scan");
        // Incremental maintenance: appended rows are visible.
        t.insert(vec![Value::Int(5), Value::str("alpha"), Value::Int(50)])
            .unwrap();
        let (_, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(rows, vec![0, 2, 4]);
    }

    #[test]
    fn like_runs_on_the_dictionary_and_residuals_on_rows() {
        let mut t = table();
        t.enable_columnar(&ColumnarSpec::all(), SharedDict::new())
            .unwrap();
        let mut profile = ScanProfile::default();
        // LIKE alone is a kernel: one evaluation per distinct name.
        let (path, rows) = t.select_profiled(&[Expr::like(1, "%A%")], &mut 0, &mut profile);
        assert_eq!(path, AccessPath::Columnar);
        assert_eq!(rows, vec![0, 1, 2, 3]);
        assert_eq!((profile.like_rows, profile.like_symbol_evals), (4, 3));
        let (_, rows) = t.select(
            &[Expr::NotLike(Box::new(Expr::Col(1)), "%ph%".into())],
            &mut 0,
        );
        assert_eq!(rows, vec![1, 3]);
        // What no kernel answers stays a row filter behind the kernels...
        let conjuncts = vec![Expr::like(1, "%mm%"), Expr::cmp_lit(2, CmpOp::Ne, 10i64)];
        let (path, rows) = t.select(&conjuncts, &mut 0);
        assert_eq!(path, AccessPath::Columnar);
        assert_eq!(rows, vec![3], "gamma");
        // ...and alone falls back to the row store.
        let (path, rows) = t.select(&[Expr::cmp_lit(2, CmpOp::Ne, 10i64)], &mut 0);
        assert_eq!(path, AccessPath::Seq);
        assert_eq!(rows, vec![1, 2, 3]);
    }

    /// 2 000 rows in 20 chunks: unique ascending `id`, 10 `grp` values
    /// striped over the rows; both indexed, all projected.
    fn wide_table() -> Table {
        let mut t = Table::with_chunk_rows(
            Schema::new(&[("id", ColumnType::Int), ("grp", ColumnType::Int)]),
            100,
        );
        t.create_index("id").unwrap();
        t.create_index("grp").unwrap();
        t.enable_columnar(&ColumnarSpec::all(), SharedDict::new())
            .unwrap();
        for i in 0..2000i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
        }
        t
    }

    #[test]
    fn probe_or_kernel_is_a_cost_comparison() {
        let t = wide_table();
        let ids = |r: std::ops::Range<i64>| Expr::in_list(0, r.map(Value::Int).collect());
        let run = |conjuncts: &[Expr]| {
            let (mut scanned, mut profile) = (0, ScanProfile::default());
            let (path, rows) = t.select_profiled(conjuncts, &mut scanned, &mut profile);
            let want: Vec<u32> = (0..2000u32)
                .filter(|&p| conjuncts.iter().all(|c| c.matches(t.row(p))))
                .collect();
            assert_eq!(rows, want, "{conjuncts:?}");
            (path, scanned, profile.in_probe_lookups)
        };
        // A point lookup: one B-tree descent (the list is clipped to the
        // one chunk whose key range holds it) beats scanning its block.
        assert_eq!(
            run(&[Expr::cmp_lit(0, CmpOp::Eq, 777i64)]),
            (AccessPath::IndexEq, 1, 1)
        );
        // A short list still probes, each id in its own chunk only.
        assert_eq!(
            run(&[ids(40..43), Expr::cmp_lit(1, CmpOp::Ne, 3i64)]),
            (AccessPath::IndexEq, 3, 3)
        );
        // A list that covers the table costs a lookup per row: the kernel
        // answers it in one pass.
        assert_eq!(run(&[ids(0..2000)]), (AccessPath::Columnar, 2000, 0));
        // ...unless zone maps leave the kernel less than the probe costs.
        let (path, scanned, _) = run(&[ids(500..600)]);
        assert_eq!((path, scanned), (AccessPath::Columnar, 100));
        // Of two usable probes the cheaper one runs, wherever it stands:
        // `grp = 3` would yield 200 candidates, `id = 13` yields one.
        assert_eq!(
            run(&[
                Expr::cmp_lit(1, CmpOp::Eq, 3i64),
                Expr::cmp_lit(0, CmpOp::Eq, 13i64)
            ]),
            (AccessPath::IndexEq, 1, 1)
        );
        // A probe that is cheap to look up (60 lookups) can still lose on
        // what the lookups find: 600 candidates to re-check.
        assert_eq!(
            run(&[Expr::in_list(1, (3..6).map(Value::Int).collect())]),
            (AccessPath::Columnar, 2000, 60)
        );
        // One that cannot even be looked up for less is not tried.
        assert_eq!(
            run(&[Expr::in_list(1, (0..9).map(Value::Int).collect())]),
            (AccessPath::Columnar, 2000, 0)
        );
        // Values no chunk can hold are never looked up, nor is a row read.
        let (_, scanned, lookups) = run(&[ids(5000..5003)]);
        assert_eq!((scanned, lookups), (0, 0));
    }

    #[test]
    fn probe_decides_without_a_projection() {
        // The row store has no scan cheaper than a probe to offer.
        let mut t = table();
        t.create_index("name").unwrap();
        let (mut scanned, mut profile) = (0, ScanProfile::default());
        let conjuncts = [Expr::in_list(
            1,
            vec![Value::str("gamma"), Value::str("alpha"), Value::str("zeta")],
        )];
        let (path, rows) = t.select_profiled(&conjuncts, &mut scanned, &mut profile);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![0, 2, 3]);
        assert_eq!(profile.in_probe_lookups, 2, "zeta lies past the last key");
    }

    #[test]
    fn eq_preferred_over_range() {
        let mut t = table();
        t.create_index("name").unwrap();
        t.create_index("size").unwrap();
        let mut scanned = 0;
        let conjuncts = vec![
            Expr::cmp_lit(2, CmpOp::Ge, 0i64),
            Expr::cmp_lit(1, CmpOp::Eq, "beta"),
        ];
        let (path, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![1]);
    }

    // ------------------------------------------------------------------
    // Chunked layout
    // ------------------------------------------------------------------

    /// A chunked table (3-row chunks) and a monolithic oracle (one big
    /// chunk) over the same 10 rows, with a "name" index on both.
    fn chunked_and_oracle() -> (Table, Table) {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]);
        let mut chunked = Table::with_chunk_rows(schema.clone(), 3);
        let mut oracle = Table::with_chunk_rows(schema, 1000);
        for t in [&mut chunked, &mut oracle] {
            t.create_index("name").unwrap();
        }
        for i in 0..10i64 {
            let row = vec![
                Value::Int(i),
                Value::str(["alpha", "beta", "gamma"][(i % 3) as usize]),
                Value::Int(i * 10),
            ];
            chunked.insert(row.clone()).unwrap();
            oracle.insert(row).unwrap();
        }
        (chunked, oracle)
    }

    #[test]
    fn auto_seal_boundaries_and_row_access() {
        let (chunked, oracle) = chunked_and_oracle();
        assert_eq!(chunked.chunk_boundaries(), vec![3, 3, 3, 1]);
        assert_eq!(chunked.sealed_chunks().len(), 3);
        assert_eq!(oracle.chunk_boundaries(), vec![10]);
        assert_eq!(chunked.len(), oracle.len());
        for i in 0..10u32 {
            assert_eq!(chunked.row(i), oracle.row(i), "row {i}");
        }
        let all: Vec<&Row> = chunked.iter_rows().collect();
        let want: Vec<&Row> = oracle.iter_rows().collect();
        assert_eq!(all, want);
    }

    #[test]
    fn chunked_select_matches_monolithic_on_every_path() {
        let cases: Vec<Vec<Expr>> = vec![
            vec![Expr::cmp_lit(1, CmpOp::Eq, "alpha")],
            vec![Expr::cmp_lit(2, CmpOp::Ge, 40i64)],
            vec![Expr::like(1, "%et%")],
            vec![Expr::cmp_lit(0, CmpOp::Ge, 2i64), Expr::like(1, "%a%")],
            vec![Expr::cmp_lit(2, CmpOp::Ne, 40i64)],
            vec![Expr::in_list(
                1,
                vec![Value::str("beta"), Value::str("gamma")],
            )],
        ];
        // The layouts may cost a path differently; what they may not do is
        // answer differently. Row stores and projected stores together
        // take every path there is.
        let mut paths = Vec::new();
        for columnar in [false, true] {
            let (mut chunked, mut oracle) = chunked_and_oracle();
            for t in [&mut chunked, &mut oracle] {
                t.create_index("size").unwrap();
                if columnar {
                    t.enable_columnar(
                        &ColumnarSpec::time_sorted("id").with_block_rows(2),
                        SharedDict::new(),
                    )
                    .unwrap();
                }
            }
            for conjuncts in &cases {
                let (p1, r1) = chunked.select(conjuncts, &mut 0);
                let (p2, r2) = oracle.select(conjuncts, &mut 0);
                assert_eq!(r1, r2, "same rows for {conjuncts:?}");
                paths.extend([p1, p2]);
            }
        }
        for path in [
            AccessPath::IndexEq,
            AccessPath::IndexRange,
            AccessPath::Columnar,
            AccessPath::Seq,
        ] {
            assert!(paths.contains(&path), "{path:?} never ran");
        }
    }

    #[test]
    fn clone_shares_sealed_chunks_and_copies_only_the_tail() {
        let (chunked, _) = chunked_and_oracle();
        let snapshot = chunked.clone();
        assert_eq!(chunked.chunks_shared_with(&snapshot), 3);
        assert!(chunked.tail_bytes() > 0);
        assert!(chunked.tail_bytes() < chunked.approx_bytes());
        // Appending detaches nothing sealed: the clone still shares all
        // three chunks with the (mutated) original.
        let mut head = chunked;
        head.insert(vec![Value::Int(99), Value::str("late"), Value::Int(0)])
            .unwrap();
        assert_eq!(head.chunks_shared_with(&snapshot), 3);
    }

    #[test]
    fn freeze_tail_empties_the_copy_charge() {
        let (mut chunked, _) = chunked_and_oracle();
        assert!(chunked.tail_bytes() > 0);
        assert!(!chunked.freeze_tail(2), "1-row tail below the minimum");
        assert!(chunked.freeze_tail(1));
        assert_eq!(chunked.tail_bytes(), 0);
        assert_eq!(chunked.chunk_boundaries(), vec![3, 3, 3, 1]);
        chunked.seal_tail(); // empty tail: no-op
        assert_eq!(chunked.sealed_chunks().len(), 4);
    }

    #[test]
    fn schema_ops_apply_to_every_chunk() {
        let (mut chunked, mut oracle) = chunked_and_oracle();
        // Index created after sealing back-fills sealed chunks too.
        for t in [&mut chunked, &mut oracle] {
            t.create_index("size").unwrap();
        }
        let (mut s1, mut s2) = (0, 0);
        let (p1, r1) = chunked.select(&[Expr::cmp_lit(2, CmpOp::Ge, 40i64)], &mut s1);
        let (p2, r2) = oracle.select(&[Expr::cmp_lit(2, CmpOp::Ge, 40i64)], &mut s2);
        assert_eq!(p1, AccessPath::IndexRange);
        assert_eq!((p1, r1, s1), (p2, r2, s2));
        // Columnar enabled after sealing covers sealed chunks too, with
        // every sealed chunk fully zone-mapped (partial final block sealed).
        chunked
            .enable_columnar(
                &ColumnarSpec::time_sorted("id").with_block_rows(2),
                SharedDict::new(),
            )
            .unwrap();
        for chunk in chunked.sealed_chunks() {
            let c = chunk.columnar().expect("every chunk projected");
            assert_eq!(c.len(), chunk.len());
            assert_eq!(c.sealed_blocks(), chunk.len().div_ceil(2));
        }
    }
}
