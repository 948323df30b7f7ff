//! Chunked tables: an open tail and immutable sealed chunks, each sealed
//! chunk with its own secondary indexes and optional columnar projection
//! (see [`crate::columnar`]).
//!
//! A [`Table`] is physically a sequence of **chunks**: zero or more
//! immutable [`SealedChunk`]s held behind `Arc`, plus one mutable **tail**
//! that absorbs every insert, in arrival order, with no index and no order
//! of its own. In a table with a projection the tail is **columns** — the
//! projection's, in fixed-size blocks of [`crate::TAIL_BLOCK_ROWS`] rows
//! behind `Arc` — so an insert is a checked push of each value onto its
//! column, a string as its dictionary code (interned on the way, which
//! keeps codes in arrival order). A table without one (the row-store
//! configuration, the baselines) keeps the tail as rows.
//!
//! Reads take the tail as it is. A columnar tail runs the same kernels as
//! a sealed chunk, block by block — no zone map, no time window: a time
//! bound is a range kernel like any other — and re-checks the conjuncts no
//! kernel answers on a scratch row; a row tail is interpreted row by row.
//! Probes and zone maps serve sealed chunks only.
//!
//! A tail seals when it reaches [`Table::chunk_rows`] rows (a batch load
//! seals the remainder with [`Table::seal_tail`]), and sealing does the
//! layout work, once:
//!
//! - the projection is the tail's columns, concatenated and permuted into
//!   projection order — the rows' stable sort by the time column — with
//!   one zone map per column: the sealed chunk is the unit a scan prunes.
//!   The same builder (`Columnar::seal`) seals a snapshot's rows on
//!   restore, so it is the only place a sealed projection is made;
//! - each index is one array of the chunk's positions sorted by (key,
//!   position), at the chunk's position width (2 bytes a row in a
//!   4 096-row chunk), answering equality, range and key-span
//!   questions by binary search over the chunk's own values (on a
//!   dictionary-coded column the key is the code, which orders no
//!   strings: no range there). On a projected column the keys are read
//!   from the column, which is also how a snapshot restore indexes a
//!   chunk it read as columns (`Table::load_columns`);
//! - a chunk of a table with a projection keeps no rows: the projection
//!   (every column, packed as frames of reference) plus a row →
//!   projection-position map at the position width *is* the chunk,
//!   and reads come back as [`RowView`]s decoded column by column, a
//!   string as the dictionary's own `Arc<str>`. Only a table without a
//!   projection seals chunks that keep their rows. A chunk keeps one or
//!   the other, never both.
//!
//! The payoff is the cost of [`Table::clone`] — the copy-on-write step
//! that detaches a table from a published store snapshot for the first
//! append after the publish: sealed chunks and the tail's full blocks are
//! shared by reference (refcount bumps), and only the tail's one partial
//! block is copied ([`Table::tail_bytes`]). Publication itself neither
//! seals nor copies, and for rows arriving in order a live table's chunk
//! boundaries are a batch load's. The invariants:
//!
//! - rows keep global insertion order: chunk boundaries split `0..len()`
//!   into consecutive ranges, sealed chunks first, the tail last;
//! - a sealed chunk never changes — not its rows, not its indexes, not
//!   its projection — and neither does a tail block a clone shares;
//! - a table's [`Layout`] — its index columns and its projection — is
//!   fixed when the table is created, and every chunk is built with it, so
//!   access-path selection is decided **once per table** and applied
//!   chunk by chunk.

use crate::columnar::{compile_conjuncts, ColumnTail, Columnar, ColumnarSpec, Kernel, LikeMemo};
use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::{ColumnType, Row, Schema};
use aiql_model::columns::Lanes;
use aiql_model::{SharedDict, Sym, Value, NULL_SYM};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

/// Default rows per chunk, and so per zone map.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// One row of a [`Table`], borrowed: a stored row, or a row of a sealed
/// chunk's projection or of an open tail's columns, decoded column by
/// column on demand. Scans return these, so no row is built unless a
/// caller asks.
#[derive(Clone, Copy)]
pub struct RowView<'a>(Repr<'a>);

#[derive(Clone, Copy)]
enum Repr<'a> {
    Stored(&'a Row),
    /// A sealed chunk's projection, and the row's position in it.
    Projected(&'a Columnar, u32),
    /// An open tail's columns, and the row's position in the tail.
    Open(&'a ColumnTail, u32),
}

impl<'a> RowView<'a> {
    /// Number of columns.
    pub fn len(&self) -> usize {
        match self.0 {
            Repr::Stored(r) => r.len(),
            Repr::Projected(c, _) => c.arity(),
            Repr::Open(t, _) => t.arity(),
        }
    }

    /// Whether the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `col` as an integer (`None` for NULL or another type).
    pub fn int(&self, col: usize) -> Option<i64> {
        match self.0 {
            Repr::Stored(r) => r[col].as_int(),
            Repr::Projected(c, at) => c.int(at as usize, col),
            Repr::Open(t, at) => t.int(at as usize, col),
        }
    }

    /// Column `col`, owned: a copy, or for a string a refcount bump — on a
    /// stored row and a projection alike, no payload is copied.
    pub fn get(&self, col: usize) -> Value {
        match self.0 {
            Repr::Stored(r) => r[col].clone(),
            Repr::Projected(c, at) => c.value(at as usize, col),
            Repr::Open(t, at) => t.value(at as usize, col),
        }
    }

    /// Appends the row's values to `out`.
    pub fn extend_into(&self, out: &mut Row) {
        match self.0 {
            Repr::Stored(r) => out.extend_from_slice(r),
            Repr::Projected(..) | Repr::Open(..) => {
                out.extend((0..self.len()).map(|col| self.get(col)));
            }
        }
    }

    /// The row, owned.
    pub fn to_row(&self) -> Row {
        let mut row = Vec::with_capacity(self.len());
        self.extend_into(&mut row);
        row
    }
}

impl PartialEq for RowView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|c| self.get(c) == other.get(c))
    }
}

impl fmt::Debug for RowView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|c| self.get(c)))
            .finish()
    }
}

/// Where a table's resident bytes go: stored rows, secondary indexes, and
/// columnar projections (zone maps and a chunk's row → projection map
/// included). A string payload the dictionary holds is the dictionary's
/// and is charged there, not to the rows that share it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResidentBytes {
    pub rows: u64,
    pub index: u64,
    pub projection: u64,
}

impl std::iter::Sum for ResidentBytes {
    fn sum<I: Iterator<Item = ResidentBytes>>(iter: I) -> ResidentBytes {
        iter.fold(ResidentBytes::default(), |a, b| ResidentBytes {
            rows: a.rows + b.rows,
            index: a.index + b.index,
            projection: a.projection + b.projection,
        })
    }
}

/// Heap bytes behind `rows`, a table's without a projection: the vector,
/// every row's values and their string payloads with their reference
/// counts (no dictionary holds them).
fn rows_bytes(rows: &Vec<Row>) -> u64 {
    let text = |v: &Value| match v {
        Value::Str(s) => s.len() + 2 * size_of::<usize>(),
        _ => 0,
    };
    let values: usize = rows
        .iter()
        .map(|r| r.capacity() * size_of::<Value>() + r.iter().map(text).sum::<usize>())
        .sum();
    (rows.capacity() * size_of::<Row>() + values) as u64
}

/// A sealed chunk's secondary index over one column, in chunk-local
/// positions at the chunk's position width: every position, ordered by
/// (key, position) with the keys read from the chunk itself, plus the
/// smallest and largest key (a string one shared with the chunk or the
/// dictionary). On a dictionary-coded
/// column the key is the code, which answers equality but orders no
/// strings: such an index takes no range probe ([`Table::range_indexed`]).
#[derive(Debug)]
struct Index {
    order: Lanes,
    span: Option<(Value, Value)>,
}

impl Index {
    /// The index over sorted (key, position) pairs, its span the first and
    /// last key as `value` makes them.
    fn new<K>(keyed: &[(K, u32)], value: impl Fn(&K) -> Value) -> Index {
        let span = keyed.first().zip(keyed.last());
        Index {
            order: positions(keyed),
            span: span.map(|(a, b)| (value(&a.0), value(&b.0))),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.order.heap_bytes()
    }
}

/// One sealed chunk of a [`Table`]: a consecutive run of rows with the
/// secondary indexes over exactly those rows, immutable and shared behind
/// `Arc` with every snapshot that pinned it.
///
/// All positions inside a chunk are **chunk-local**: row 0 is global
/// position `base` where `base` is the sum of the preceding chunks'
/// lengths. Invariants:
///
/// - nothing in it changes after sealing: it is built once, with its
///   table's [`Layout`], and there is no way to copy it out of its `Arc`
///   (it is not `Clone`);
/// - it keeps its rows or, in a table with a projection, its columns —
///   never both;
/// - its columns, when it keeps them, carry a zone map each, so a scan can
///   skip the chunk whole.
#[derive(Debug)]
pub struct SealedChunk {
    body: Body,
    indexes: BTreeMap<usize, Index>,
    /// What the chunk holds, measured when it sealed.
    resident: ResidentBytes,
}

/// What a sealed chunk keeps its rows as.
#[derive(Debug)]
enum Body {
    /// The rows themselves, in a table without a projection.
    Rows(Vec<Row>),
    /// The projection, and the row → projection-position map: how the
    /// chunk reads a row, or an index key, from the columns. The map is
    /// empty when the two orders agree, as they do for rows that arrived in
    /// projection (time) order.
    Columns(Columnar, Lanes),
}

impl Body {
    /// The body of `columnar`, a filled projection, with its row →
    /// projection map.
    fn columns(columnar: Columnar) -> Body {
        let at = columnar.row_map();
        Body::Columns(columnar, at)
    }
}

impl SealedChunk {
    /// Seals `body` with an index on each `indexed` column, and measures
    /// it.
    fn new(body: Body, indexed: &[usize]) -> SealedChunk {
        let mut chunk = SealedChunk {
            body,
            indexes: BTreeMap::new(),
            resident: ResidentBytes::default(),
        };
        for &col in indexed {
            chunk.build_index(col);
        }
        chunk.measure();
        chunk
    }

    /// Number of rows in the chunk.
    pub fn len(&self) -> usize {
        match &self.body {
            Body::Rows(rows) => rows.len(),
            Body::Columns(c, _) => c.len(),
        }
    }

    /// Whether the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the chunk keeps its projection rather than its rows.
    pub fn is_projected(&self) -> bool {
        matches!(self.body, Body::Columns(..))
    }

    /// Row `pos` (chunk-local).
    pub fn row(&self, pos: u32) -> RowView<'_> {
        match &self.body {
            Body::Rows(rows) => RowView(Repr::Stored(&rows[pos as usize])),
            Body::Columns(c, at) => RowView(Repr::Projected(c, proj_pos(at, pos) as u32)),
        }
    }

    /// The chunk's columnar projection, if its table's layout has one.
    pub fn columnar(&self) -> Option<&Columnar> {
        match &self.body {
            Body::Rows(_) => None,
            Body::Columns(c, _) => Some(c),
        }
    }

    /// What the chunk holds, as measured when it sealed.
    pub fn resident_bytes(&self) -> ResidentBytes {
        self.resident
    }

    /// Everything the chunk holds — rows or columns and row → projection
    /// map, indexes, measured bytes — as text that compares equal exactly
    /// when two chunks are laid out alike.
    #[cfg(test)]
    pub(crate) fn layout_debug(&self) -> String {
        let body = match &self.body {
            Body::Rows(rows) => format!("{rows:?}"),
            Body::Columns(c, at) => format!("{} {at:?}", c.layout_debug()),
        };
        format!("{body} {:?} {:?}", self.indexes, self.resident)
    }

    /// The key in `col` at row `pos`, compared with `v`: read from the flat
    /// column when the chunk keeps columns, which a binary search's
    /// scattered steps reach far more cheaply than whole rows.
    fn key_cmp(&self, col: usize, pos: u32, v: &Value) -> Ordering {
        match &self.body {
            Body::Rows(rows) => rows[pos as usize][col].cmp(v),
            Body::Columns(c, at) => c.value(proj_pos(at, pos), col).cmp(v),
        }
    }

    /// The projection and the row → projection map, when the chunk holds
    /// `col` dictionary-coded.
    fn coded(&self, col: usize) -> Option<(&Columnar, &Lanes)> {
        match &self.body {
            Body::Columns(c, at) if c.is_coded(col) => Some((c, at)),
            _ => None,
        }
    }

    /// Appends to `out` the rows whose indexed `col` equals `v` (strictly,
    /// as keys compare), in row order. `code` is `v`'s dictionary code
    /// ([`Table::dict_code`]), looked up once per probe rather than per
    /// chunk.
    fn index_eq(&self, col: usize, v: &Value, code: Option<u32>, out: &mut Vec<u32>) {
        let order = &self.indexes[&col].order;
        let run = match (self.coded(col), code) {
            (Some((c, at)), Some(code)) => {
                equal_run(order, |p| c.code(proj_pos(at, p), col).cmp(&Some(code)))
            }
            (Some(_), None) => return,
            (None, _) => equal_run(order, |p| self.key_cmp(col, p, v)),
        };
        order.extend_into(run, out);
    }

    /// Rows whose indexed `col` lies in `[lo, hi]` (either bound optional),
    /// in row order. Not asked of a dictionary-coded index.
    fn index_range(&self, col: usize, lo: Option<&Value>, hi: Option<&Value>) -> Vec<u32> {
        debug_assert!(self.coded(col).is_none(), "codes order no strings");
        let order = &self.indexes[&col].order;
        let from = lo.map_or(0, |v| {
            order.partition_point(|p| self.key_cmp(col, p, v).is_lt())
        });
        let to = hi.map_or(order.len(), |v| {
            order.partition_point(|p| self.key_cmp(col, p, v).is_le())
        });
        let mut rows = Vec::new();
        order.extend_into(from..to.max(from), &mut rows);
        rows.sort_unstable();
        rows
    }

    /// Where `sorted` (ascending under [`Value::loose_cmp`], as an
    /// [`crate::InList`] keeps its values) holds what can equal a key of the
    /// index on `col`: what lies within its smallest and largest key. A
    /// column holds one type (or NULL), over which the loose order only
    /// coarsens the key order, so nothing outside the slice has a posting
    /// here.
    fn index_clip(&self, col: usize, sorted: &[Value]) -> std::ops::Range<usize> {
        let Some((min, max)) = &self.indexes[&col].span else {
            return 0..0;
        };
        let from = sorted.partition_point(|v| v.loose_cmp(min).is_lt());
        from..sorted.partition_point(|v| v.loose_cmp(max).is_le())
    }

    /// Builds the index on `col` — the chunk's positions sorted by (key,
    /// position). On an `Int` column without NULL or a dictionary-coded
    /// column of a chunk kept as columns, the packed offsets are the keys
    /// ([`Columnar::index_order`]): by integer, or by code. Any other
    /// column is sorted by comparison: an `Int` column holding NULL by
    /// integer (NULL first), one kept as rows by value.
    fn build_index(&mut self, col: usize) {
        let n = self.len();
        let index = match self.columnar() {
            Some(c) if c.is_coded(col) => coded_index(c, col),
            Some(c) if c.is_int(col) => {
                let mut span = None;
                let order = c.index_order(col, |k| span.get_or_insert((k, k)).1 = k);
                match order {
                    Some(order) => Index {
                        order,
                        span: span.map(|(lo, hi)| (Value::Int(lo), Value::Int(hi))),
                    },
                    None => {
                        let keyed = sort_keyed((0..n).map(|i| (c.int(i, col), c.row_at(i))));
                        Index::new(&keyed, |k| k.map_or(Value::Null, Value::Int))
                    }
                }
            }
            _ => {
                let keyed = sort_keyed((0..n as u32).map(|p| (self.row(p).get(col), p)));
                Index::new(&keyed, Value::clone)
            }
        };
        self.indexes.insert(col, index);
    }

    /// Measures what the chunk keeps.
    fn measure(&mut self) {
        let (rows, projection) = match &mut self.body {
            Body::Rows(rows) => {
                rows.shrink_to_fit();
                (rows_bytes(rows), 0)
            }
            Body::Columns(c, at) => (0, c.resident_bytes() + at.heap_bytes() as u64),
        };
        self.resident = ResidentBytes {
            rows,
            index: self.indexes.values().map(Index::heap_bytes).sum::<usize>() as u64,
            projection,
        };
    }
}

/// The projection position of row `pos` under a row → projection map
/// (empty: the identity).
#[inline]
fn proj_pos(at: &Lanes, pos: u32) -> usize {
    match at.is_empty() {
        true => pos as usize,
        false => at.get(pos as usize) as usize,
    }
}

/// Distinct (key, position) pairs in (key, position) order.
fn sort_keyed<K: Ord>(keyed: impl Iterator<Item = (K, u32)>) -> Vec<(K, u32)> {
    let mut keyed: Vec<(K, u32)> = keyed.collect();
    keyed.sort_unstable();
    keyed
}

/// The positions of sorted (key, position) pairs, one per row of the
/// chunk, at its position width.
fn positions<K>(keyed: &[(K, u32)]) -> Lanes {
    Lanes::positions(keyed.len(), |i| keyed[i].1)
}

/// The index on the dictionary-coded `col` of `c`, its span the least and
/// greatest value behind the codes, as the dictionary holds them. Codes
/// follow arrival, not string order, so each distinct code's string is
/// compared once, as the sorted codes are walked; NULL ([`NULL_SYM`], the
/// greatest code) is the least value.
fn coded_index(c: &Columnar, col: usize) -> Index {
    let dict = c.dict().read();
    let (mut null, mut lo, mut hi) = (false, None::<&Arc<str>>, None::<&Arc<str>>);
    let mut last = None;
    let order = c.index_order(col, |code| {
        let code = code as u32;
        if last == Some(code) {
            return;
        }
        last = Some(code);
        if code == NULL_SYM {
            null = true;
            return;
        }
        let s = dict.shared(Sym(code)).expect("stored symbols are interned");
        lo = Some(lo.map_or(s, |lo| lo.min(s)));
        hi = Some(hi.map_or(s, |hi| hi.max(s)));
    });
    let str = |s: Option<&Arc<str>>| s.map_or(Value::Null, |s| Value::Str(s.clone()));
    Index {
        order: order.expect("a coded column's codes"),
        span: (null || hi.is_some()).then(|| (if null { Value::Null } else { str(lo) }, str(hi))),
    }
}

/// Where `order` — positions ascending by key — holds the keys that `cmp`
/// finds equal to the one sought.
fn equal_run(order: &Lanes, cmp: impl Fn(u32) -> Ordering) -> std::ops::Range<usize> {
    let from = order.partition_point(|p| cmp(p).is_lt());
    from..order.partition_point(|p| cmp(p).is_le())
}

/// Re-checks candidate rows against the conjuncts their access path did not
/// answer. A stored row is interpreted in place; a projected one on a
/// scratch row holding just the columns those conjuncts read, reused for
/// the whole table scan.
struct Recheck<'e> {
    conjuncts: Vec<&'e Expr>,
    /// The columns `conjuncts` read.
    cols: Vec<usize>,
    scratch: Row,
}

impl<'e> Recheck<'e> {
    /// Re-checks the `conjuncts` that `keep` selects by position.
    fn new(conjuncts: &'e [Expr], keep: impl Fn(usize) -> bool, arity: usize) -> Recheck<'e> {
        let conjuncts: Vec<&Expr> = (0..conjuncts.len())
            .filter(|&i| keep(i))
            .map(|i| &conjuncts[i])
            .collect();
        let mut cols = Vec::new();
        for c in &conjuncts {
            c.columns(&mut cols);
        }
        // A column past the row reads as NULL, on either side.
        cols.retain(|&c| c < arity);
        cols.sort_unstable();
        cols.dedup();
        Recheck {
            conjuncts,
            cols,
            scratch: Vec::new(),
        }
    }

    /// Keeps the `candidates` of `chunk` that satisfy every conjunct.
    fn retain(&mut self, chunk: &SealedChunk, candidates: &mut Vec<u32>) {
        match &chunk.body {
            Body::Columns(proj, at) => {
                self.retain_decoded(candidates, |p, c| proj.value(proj_pos(at, p), c))
            }
            Body::Rows(rows) if !self.conjuncts.is_empty() => candidates.retain(|&p| {
                let row = &rows[p as usize];
                self.conjuncts.iter().all(|e| e.matches(row))
            }),
            Body::Rows(_) => {}
        }
    }

    /// Keeps the `candidates` that satisfy every conjunct, each decoded
    /// onto the scratch row by `value(candidate, column)`.
    fn retain_decoded(&mut self, candidates: &mut Vec<u32>, value: impl Fn(u32, usize) -> Value) {
        if self.conjuncts.is_empty() {
            return;
        }
        let Recheck {
            conjuncts,
            cols,
            scratch,
        } = self;
        scratch.resize(cols.last().map_or(0, |&c| c + 1), Value::Null);
        candidates.retain(|&p| {
            for &c in cols.iter() {
                scratch[c] = value(p, c);
            }
            conjuncts.iter().all(|e| e.matches(scratch))
        });
    }
}

/// A table's open tail: where every insert lands, in arrival order, until
/// the tail seals. Its form mirrors [`Body`]: a table without a projection
/// keeps rows, which [`Table::clone`] deep-copies; a table with one keeps
/// columns in shared blocks ([`ColumnTail`]), which it does not.
#[derive(Debug, Clone)]
enum Tail {
    Rows(Vec<Row>),
    Columns(ColumnTail),
}

impl Tail {
    /// An empty tail for a table with `layout` as its projection, if any.
    fn new(layout: Option<&Columnar>) -> Tail {
        match layout {
            Some(layout) => Tail::Columns(ColumnTail::new(layout)),
            None => Tail::Rows(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Tail::Rows(rows) => rows.len(),
            Tail::Columns(cols) => cols.len(),
        }
    }

    /// Row `pos` of the tail.
    fn row(&self, pos: usize) -> RowView<'_> {
        match self {
            Tail::Rows(rows) => RowView(Repr::Stored(&rows[pos])),
            Tail::Columns(cols) => RowView(Repr::Open(cols, pos as u32)),
        }
    }
}

/// What a table is built with, fixed when it is created: the columns every
/// sealed chunk indexes, and the columnar projection, if any, with the
/// dictionary its strings are interned into. Every chunk of a [`Table`] —
/// and of every partition of a [`crate::PartitionedTable`] — is built with
/// its table's layout, and nothing changes a layout afterwards.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// The columns to index, by name; a column named twice is one index.
    pub indexes: Vec<String>,
    /// The projection and its dictionary; without one, sealed chunks keep
    /// their rows.
    pub columnar: Option<(ColumnarSpec, SharedDict)>,
}

impl Layout {
    /// Rows, with an index on each of `columns`.
    pub fn indexed(columns: &[&str]) -> Layout {
        Layout {
            indexes: columns.iter().map(|c| c.to_string()).collect(),
            columnar: None,
        }
    }

    /// This layout with `spec` as its projection, its strings interned
    /// into `dict`, builder style.
    pub fn with_columnar(mut self, spec: ColumnarSpec, dict: SharedDict) -> Layout {
        self.columnar = Some((spec, dict));
        self
    }
}

/// A table: schema plus a list of sealed chunks and one open tail
/// (see the [module docs](self) for the chunk lifecycle).
///
/// `Clone` is the copy-on-write step that detaches a snapshot-shared table
/// for further writes: sealed chunks are shared by reference, and so are
/// the full blocks of a columnar tail; its partial block is copied, and a
/// row tail (a table without a projection) whole.
///
/// # Examples
///
/// Sealed chunks are physically shared between a table and its clones:
///
/// ```
/// use aiql_rdb::{ColumnType, Layout, Schema, Table, Value};
///
/// let schema = Schema::new(&[("x", ColumnType::Int)]);
/// let mut t = Table::with_chunk_rows(schema, &Layout::default(), 2).unwrap();
/// for i in 0..5 {
///     t.insert(vec![Value::Int(i)]).unwrap();
/// }
/// assert_eq!(t.chunk_boundaries(), vec![2, 2, 1]);
/// let snapshot = t.clone(); // both sealed chunks shared by reference
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
    /// The open tail, in arrival order: columns when `projection` is set,
    /// rows otherwise.
    tail: Tail,
    /// The columns every sealed chunk indexes, ascending.
    indexed: Vec<usize>,
    /// The layout's projection, if it has one, as an empty projection:
    /// the projected columns, sort column and dictionary. The tail's
    /// blocks take its columns, each seal fills a copy, and kernels compile
    /// against it.
    projection: Option<Columnar>,
}

/// How a scan located its rows — reported in [`ScanProfile`] and asserted
/// on by access-path tests.
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
/// path is chosen once and applied to every sealed chunk), so
/// per-partition path counts are unchanged by chunking; only
/// `blocks_total`/`blocks_pruned` accumulate chunk by chunk.
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
    /// Sealed chunks a columnar scan considered / skipped purely by their
    /// zone maps (a chunk is the zone-map unit; the names are EXPLAIN's).
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
    /// Index lookups made by equality probes (after clipping the IN-list
    /// to each chunk's key range).
    pub in_probe_lookups: u64,
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
    /// Creates an empty table laid out as `layout`, sealing chunks at
    /// [`DEFAULT_CHUNK_ROWS`].
    pub fn new(schema: Schema, layout: &Layout) -> Result<Table, RdbError> {
        Table::with_chunk_rows(schema, layout, DEFAULT_CHUNK_ROWS)
    }

    /// Creates an empty table laid out as `layout`, sealing chunks at
    /// `chunk_rows` rows (min 1). An index or sort column the schema lacks
    /// is a [`RdbError::NoSuchColumn`]; a projection of a table with a
    /// `Float` column, or sorted on a column that is not `Int`, a
    /// [`RdbError::SchemaMismatch`].
    pub fn with_chunk_rows(
        schema: Schema,
        layout: &Layout,
        chunk_rows: usize,
    ) -> Result<Table, RdbError> {
        let mut indexed = (layout.indexes.iter())
            .map(|c| schema.require(c))
            .collect::<Result<Vec<_>, _>>()?;
        indexed.sort_unstable();
        indexed.dedup();
        let projection = match &layout.columnar {
            Some((spec, dict)) => Some(Columnar::build(&schema, spec, dict.clone(), &[])?),
            None => None,
        };
        Ok(Table {
            schema,
            chunk_rows: chunk_rows.max(1),
            sealed: Vec::new(),
            starts: Vec::new(),
            sealed_len: 0,
            tail: Tail::new(projection.as_ref()),
            indexed,
            projection,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sealed_len + self.tail.len()
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

    /// Rows in the open tail.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The open tail's rows, in arrival order (possibly none).
    pub fn tail_rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.tail.len()).map(|p| self.tail.row(p))
    }

    /// How many full blocks of the open tail are physically shared (same
    /// `Arc` allocation) with `other`'s, compared positionally — a table
    /// and its clone share every full block until the tail seals; the
    /// partial block is the clone's own copy. Diagnostic for tests.
    pub fn tail_blocks_shared_with(&self, other: &Table) -> usize {
        match (&self.tail, &other.tail) {
            (Tail::Columns(a), Tail::Columns(b)) => a.blocks_shared_with(b),
            _ => 0,
        }
    }

    /// Row counts per chunk in global order: sealed chunks first, then the
    /// tail if it holds rows. Persisted by snapshots so a restored table
    /// reproduces seal boundaries exactly.
    pub fn chunk_boundaries(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.sealed.iter().map(|c| c.len()).collect();
        if self.tail.len() > 0 {
            v.push(self.tail.len());
        }
        v
    }

    /// How many sealed chunks are physically shared (same `Arc` allocation)
    /// with `other`. Chunks are compared positionally: a table and its
    /// clone share every chunk sealed before the clone. Diagnostic for
    /// tests and benches.
    pub fn chunks_shared_with(&self, other: &Table) -> usize {
        self.sealed
            .iter()
            .zip(other.sealed.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// All rows in global insertion order, across chunks.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowView<'_>> {
        let sealed = self
            .sealed
            .iter()
            .flat_map(|c| (0..c.len() as u32).map(move |p| c.row(p)));
        sealed.chain(self.tail_rows())
    }

    /// Where the table's memory goes: each sealed chunk as measured when it
    /// sealed, plus the open tail as it stands — rows, or a projection's
    /// columns.
    pub fn resident_bytes(&self) -> ResidentBytes {
        let tail = match &self.tail {
            Tail::Rows(rows) => ResidentBytes {
                rows: rows_bytes(rows),
                ..ResidentBytes::default()
            },
            Tail::Columns(cols) => ResidentBytes {
                projection: cols.resident_bytes(),
                ..ResidentBytes::default()
            },
        };
        self.sealed.iter().map(|c| c.resident).chain([tail]).sum()
    }

    /// What [`Table::clone`] copies — sealed chunks are shared by
    /// reference, so this is the open tail's part. With a projection it is
    /// the values of the tail's partial block ([`crate::TAIL_BLOCK_ROWS`]
    /// rows at most, none while the tail ends on a full block). A row tail
    /// is copied whole: an O(1) estimate, `rows × (arity ×
    /// size_of::<Value>() + size_of::<Row>())`, string payloads ignored.
    /// This is the unit [`crate::PartitionedTable`]'s copy-on-write
    /// accounting charges per detach of a snapshot-shared table.
    pub fn tail_bytes(&self) -> u64 {
        match &self.tail {
            Tail::Rows(rows) => {
                let per_row = self.schema.arity() * size_of::<Value>() + size_of::<Row>();
                (rows.len() * per_row) as u64
            }
            Tail::Columns(cols) => cols.copy_bytes(),
        }
    }

    /// One row by global position.
    pub fn row(&self, idx: u32) -> RowView<'_> {
        let i = idx as usize;
        if i >= self.sealed_len {
            return self.tail.row(i - self.sealed_len);
        }
        let k = self.starts.partition_point(|&s| (s as usize) <= i) - 1;
        self.sealed[k].row(idx - self.starts[k])
    }

    /// The rows at `positions` — global and ascending, as every selection
    /// returns them — walking the chunks once.
    pub fn rows_at<'a, 'p>(&'a self, positions: &'p [u32]) -> impl Iterator<Item = RowView<'a>> + 'p
    where
        'a: 'p,
    {
        let mut chunks = self.sealed_with_base();
        let mut cur = chunks.next();
        positions.iter().map(move |&p| {
            if p as usize >= self.sealed_len {
                return self.row(p);
            }
            loop {
                let (chunk, base) = cur.expect("positions lie within the table");
                if p < base + chunk.len() as u32 {
                    break chunk.row(p - base);
                }
                cur = chunks.next();
            }
        })
    }

    /// Every sealed chunk with its global base position.
    fn sealed_with_base(&self) -> impl Iterator<Item = (&SealedChunk, u32)> {
        self.sealed
            .iter()
            .zip(self.starts.iter())
            .map(|(c, &s)| (c.as_ref(), s))
    }

    /// Validates `row` — owned (a [`Row`]) or borrowed (`&[Value]`) — and
    /// appends it to the open tail: a push of each value onto its tail
    /// column, a string as its dictionary code, straight from the row —
    /// or, without a projection, of the row itself, a borrowed one copied.
    /// Seals the tail into an immutable chunk when it reaches
    /// [`Table::chunk_rows`] rows.
    pub fn insert<'r>(&mut self, row: impl Into<Cow<'r, [Value]>>) -> Result<(), RdbError> {
        let row = row.into();
        self.schema.check_row(&row)?;
        self.append(row);
        Ok(())
    }

    /// [`Table::insert`] of a row its caller has checked against the
    /// schema.
    pub(crate) fn append(&mut self, row: Cow<'_, [Value]>) {
        self.push_tail(row);
        if self.tail.len() >= self.chunk_rows {
            self.seal_tail();
        }
    }

    /// Appends a checked row to the open tail.
    fn push_tail(&mut self, row: Cow<'_, [Value]>) {
        match (&mut self.tail, &self.projection) {
            (Tail::Columns(cols), Some(layout)) => cols.push(layout, &row),
            (Tail::Rows(rows), None) => rows.push(row.into_owned()),
            _ => unreachable!("a tail keeps columns exactly when the table has a projection"),
        }
    }

    /// Seals the open tail into an immutable chunk, the one place a
    /// chunk's read layout is built (see the [module docs](self)): sorted
    /// by time, permuted and indexed once from the tail's columns, or kept
    /// as rows without a projection. No-op on an empty tail. A tail seals
    /// by itself at [`Table::chunk_rows`] rows; batch loaders seal the
    /// remainder this way.
    pub fn seal_tail(&mut self) {
        if self.tail.len() > 0 {
            self.seal_with(None).expect("a derived order is valid");
        }
    }

    /// Seals the tail, its projection (when one is configured) filled in
    /// `order` (see [`Columnar::seal`]); on an error the tail stays open.
    fn seal_with(&mut self, order: Option<&[u32]>) -> Result<(), RdbError> {
        let body = match (&mut self.tail, &self.projection) {
            (Tail::Rows(rows), _) => Body::Rows(std::mem::take(rows)),
            (Tail::Columns(cols), Some(layout)) => {
                let body = Body::columns(layout.seal(cols, order)?);
                cols.clear();
                body
            }
            (Tail::Columns(_), None) => unreachable!("columns need a projection"),
        };
        self.push_sealed(body);
        Ok(())
    }

    /// Seals `body`, indexed, as the newest chunk.
    fn push_sealed(&mut self, body: Body) {
        let chunk = SealedChunk::new(body, &self.indexed);
        self.starts.push(self.sealed_len as u32);
        self.sealed_len += chunk.len();
        self.sealed.push(Arc::new(chunk));
    }

    /// Appends `rows` as one whole chunk — the snapshot-restore path of a
    /// chunk kept as rows; the open tail must be empty. With `seal` set the
    /// chunk seals, its projection (when one is configured) filled in
    /// `perm` — the chunk's persisted projection order (see
    /// [`Columnar::perm`]), which must time-order the rows and reproduces
    /// the original projection without re-sorting — or, with none, in the
    /// order a seal derives. Otherwise the rows become the open tail, which
    /// keeps no order of its own, in columns as [`Table::insert`] leaves
    /// them when the table has a projection.
    pub fn load_chunk(
        &mut self,
        rows: Vec<Row>,
        perm: Option<&[u32]>,
        seal: bool,
    ) -> Result<(), RdbError> {
        self.check_restore(rows.len())?;
        for row in &rows {
            self.schema.check_row(row)?;
        }
        let n = rows.len();
        rows.into_iter()
            .for_each(|row| self.push_tail(Cow::Owned(row)));
        if !seal || n == 0 {
            return Ok(());
        }
        let sealed = self.seal_with(perm);
        if sealed.is_err() {
            self.tail = Tail::new(self.projection.as_ref());
        }
        sealed
    }

    /// Appends a sealed chunk restored as columns — read into a copy of
    /// [`Table::columnar`] — indexed from those columns; the open tail must
    /// be empty.
    pub(crate) fn load_columns(&mut self, columnar: Columnar) -> Result<(), RdbError> {
        self.check_restore(columnar.len())?;
        self.push_sealed(Body::columns(columnar));
        Ok(())
    }

    /// Whether a restored chunk of `len` rows may follow: none after an
    /// open tail, none past the chunk size.
    fn check_restore(&self, len: usize) -> Result<(), RdbError> {
        if self.tail.len() > 0 || len > self.chunk_rows {
            return Err(RdbError::SchemaMismatch(format!(
                "a chunk of {len} rows cannot follow an open tail of {} (chunk size {})",
                self.tail.len(),
                self.chunk_rows
            )));
        }
        Ok(())
    }

    /// The table's projection, if its layout has one, as an empty
    /// projection: the sort column and dictionary every sealed chunk's
    /// projection shares (each chunk's own is reached via
    /// [`Table::sealed_chunks`]).
    pub fn columnar(&self) -> Option<&Columnar> {
        self.projection.as_ref()
    }

    /// Column positions that have indexes (identical on every sealed
    /// chunk).
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexed.clone()
    }

    /// Selects row positions satisfying all `conjuncts`. The access path is
    /// chosen **once per table**, from the sealed chunks' statistics, and
    /// applied to every sealed chunk in order:
    ///
    /// - an **index equality probe** (`col = lit` / `col IN (lits)` on an
    ///   indexed column) or a **columnar scan** (at least one conjunct
    ///   compiles into a vectorized kernel), whichever costs less: a
    ///   probe's index lookups plus the candidates they reach, against the
    ///   rows the zone maps cannot exclude ([`Columnar::surviving_rows`]).
    ///   Of several usable probes the cheapest runs;
    /// - failing both, an **index range scan** (`col >=/<=/</> lit` on an
    ///   indexed column the projection does not dictionary-code);
    /// - failing that, a **sequential scan**.
    ///
    /// The conjuncts the path does not answer itself are applied as a
    /// residual row filter. The open tail is read apart from the sealed
    /// chunks, whatever path they take: with a projection, the kernels run
    /// over each of its blocks and the residual conjuncts are re-checked on
    /// the survivors; without one, each row is interpreted against every
    /// conjunct. Returns the chosen access path alongside the (global) row
    /// positions, in row order. `scanned` is incremented by the number of
    /// rows the scan *touched* (not returned), so callers can account
    /// I/O-like cost.
    pub fn select(&self, conjuncts: &[Expr], scanned: &mut u64) -> (AccessPath, Vec<u32>) {
        let mut profile = ScanProfile::default();
        self.select_profiled(conjuncts, scanned, &mut profile)
    }

    /// [`Table::select`] with full accounting into `profile`: the chosen
    /// access path, zone-map chunk pruning, and touched/matched row counts.
    pub fn select_profiled(
        &self,
        conjuncts: &[Expr],
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> (AccessPath, Vec<u32>) {
        let before = *scanned;
        // The projected-column set and the dictionary are table-wide:
        // kernels compile once and run on every chunk and tail block, under
        // one memo.
        let compiled = self
            .projection
            .as_ref()
            .map(|col| compile_conjuncts(&self.schema, col, conjuncts));
        let mut memo = LikeMemo::default();
        let (path, mut rows) =
            self.select_sealed(conjuncts, compiled.as_ref(), &mut memo, scanned, profile);
        self.select_tail(conjuncts, compiled.as_ref(), &mut memo, scanned, &mut rows);
        profile.like_rows += memo.rows;
        profile.like_symbol_evals += memo.symbol_evals;
        profile.record_path(path);
        profile.rows_scanned += *scanned - before;
        profile.rows_matched += rows.len() as u64;
        (path, rows)
    }

    /// The open tail's part of a selection, appended to `out`: the
    /// `compiled` kernels over a columnar tail's blocks and the residual
    /// conjuncts on what they keep, or every conjunct interpreted over a
    /// row tail.
    fn select_tail(
        &self,
        conjuncts: &[Expr],
        compiled: Option<&(Vec<Kernel>, Vec<usize>)>,
        memo: &mut LikeMemo,
        scanned: &mut u64,
        out: &mut Vec<u32>,
    ) {
        let base = self.sealed_len as u32;
        match (&self.tail, compiled) {
            (Tail::Columns(cols), Some((kernels, residual))) => {
                let mut positions = Vec::new();
                *scanned += cols.select(kernels, memo, &mut positions);
                let arity = self.schema.arity();
                let mut check = Recheck::new(conjuncts, |i| residual.contains(&i), arity);
                check.retain_decoded(&mut positions, |p, c| cols.value(p as usize, c));
                out.extend(positions.into_iter().map(|p| p + base));
            }
            (Tail::Rows(rows), _) => {
                *scanned += rows.len() as u64;
                let all = |row: &Row| conjuncts.iter().all(|e| e.matches(row));
                out.extend(
                    (base..)
                        .zip(rows)
                        .filter(|(_, row)| all(row))
                        .map(|(p, _)| p),
                );
            }
            (Tail::Columns(_), None) => unreachable!("columns need a projection"),
        }
    }

    /// The sealed chunks' part of a selection, and the path it took.
    /// `compiled` is the conjuncts' kernels and residual when the table has
    /// a projection.
    fn select_sealed(
        &self,
        conjuncts: &[Expr],
        compiled: Option<&(Vec<Kernel>, Vec<usize>)>,
        memo: &mut LikeMemo,
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> (AccessPath, Vec<u32>) {
        let arity = self.schema.arity();
        // Index-usable conjuncts. The index set is identical on every
        // chunk, so this — like everything below — is decided per table.
        let probes: Vec<(usize, IndexProbe)> = conjuncts
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| Some((ci, index_probe(c, &self.schema)?)))
            .filter(|(_, p)| self.indexed.binary_search(&p.col).is_ok())
            .collect();
        let vectorized = compiled.filter(|(kernels, _)| !kernels.is_empty());

        // Equality probes, fewest index lookups first. One runs only if it
        // beats the kernel scan (and the probes before it): first on its
        // lookups alone, which cost nothing to count; then, looked up, on
        // the candidates they actually reach.
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
        let mut budget = match vectorized {
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
            // The probe conjunct is answered by the index itself.
            let mut check = Recheck::new(conjuncts, |i| i != ci, arity);
            let mut out = Vec::new();
            for ((chunk, base), mut candidates) in self.sealed_with_base().zip(postings) {
                *scanned += candidates.len() as u64;
                check.retain(chunk, &mut candidates);
                out.extend(candidates.into_iter().map(|p| p + base));
            }
            return (AccessPath::IndexEq, out);
        }
        if let Some((kernels, residual)) = vectorized {
            let residual = Recheck::new(conjuncts, |i| residual.contains(&i), arity);
            let rows = self.columnar_select(kernels, residual, memo, scanned, profile);
            return (AccessPath::Columnar, rows);
        }

        let range = probes.iter().find_map(|(_, p)| match p.kind {
            ProbeKind::Range { lo, hi } if self.range_indexed(p.col) => Some((p.col, lo, hi)),
            _ => None,
        });
        // `index_probe` encodes exclusive bounds inclusively, so a range
        // candidate is re-checked against every conjunct.
        let mut check = Recheck::new(conjuncts, |_| true, arity);
        let mut out = Vec::new();
        for (chunk, base) in self.sealed_with_base() {
            let mut candidates = match range {
                Some((col, lo, hi)) => chunk.index_range(col, lo, hi),
                None => (0..chunk.len() as u32).collect(),
            };
            *scanned += candidates.len() as u64;
            check.retain(chunk, &mut candidates);
            out.extend(candidates.into_iter().map(|p| p + base));
        }
        let path = match range {
            Some(_) => AccessPath::IndexRange,
            None => AccessPath::Seq,
        };
        (path, out)
    }

    /// Index lookups that answering `col IN (values)` takes: one per value
    /// per sealed chunk whose key range holds it.
    fn probe_lookups(&self, col: usize, values: &[Value]) -> usize {
        self.sealed
            .iter()
            .map(|chunk| chunk.index_clip(col, values).len())
            .sum()
    }

    /// Makes those lookups: per sealed chunk, the rows holding one of
    /// `values` in `col`, in row order.
    fn probe(&self, col: usize, values: &[Value], profile: &mut ScanProfile) -> Vec<Vec<u32>> {
        let codes: Vec<Option<u32>> = match self.schema.column_type(col) {
            ColumnType::Str => values.iter().map(|v| self.dict_code(v)).collect(),
            _ => Vec::new(),
        };
        self.sealed
            .iter()
            .map(|chunk| {
                // Each row sits under exactly one key, so the concatenation
                // holds no duplicates; sorting restores row order across
                // values.
                let mut rows = Vec::new();
                for i in chunk.index_clip(col, values) {
                    let code = codes.get(i).copied().flatten();
                    chunk.index_eq(col, &values[i], code, &mut rows);
                    profile.in_probe_lookups += 1;
                }
                rows.sort_unstable();
                rows
            })
            .collect()
    }

    /// `v`'s code in the table's dictionary, as a dictionary-coded column
    /// holds it (NULL included); `None` if it can be in no such column.
    fn dict_code(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Null => Some(NULL_SYM),
            Value::Str(s) => Some(self.projection.as_ref()?.dict().lookup(s)?.0),
            _ => None,
        }
    }

    /// Whether the indexes on `col` answer range probes: not where the
    /// projection dictionary-codes the column, as sealed indexes then
    /// order codes, not strings. Such a range falls through to the scan.
    fn range_indexed(&self, col: usize) -> bool {
        self.columnar().is_none_or(|c| !c.is_coded(col))
    }

    /// Estimated cost of the vectorized path, in kernel-evaluated rows: the
    /// rows of the sealed chunks no zone map excludes.
    fn kernel_cost(&self, kernels: &[Kernel]) -> usize {
        self.sealed
            .iter()
            .filter_map(|chunk| chunk.columnar())
            .map(|col| col.surviving_rows(kernels))
            .sum()
    }

    /// The vectorized path: scan every sealed chunk with `kernels`, then
    /// re-check the `residual` conjuncts per chunk.
    fn columnar_select(
        &self,
        kernels: &[Kernel],
        mut residual: Recheck<'_>,
        memo: &mut LikeMemo,
        scanned: &mut u64,
        profile: &mut ScanProfile,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for (chunk, base) in self.sealed_with_base() {
            let col = chunk
                .columnar()
                .expect("every sealed chunk carries the table's columnar configuration");
            let mut positions = col.select_stats(
                kernels,
                memo,
                scanned,
                &mut profile.blocks_pruned,
                &mut profile.blocks_total,
            );
            residual.retain(chunk, &mut positions);
            // Chunk-local row order; chunks are visited in global order, so
            // the concatenation matches the sequential scan exactly.
            positions.sort_unstable();
            out.extend(positions.into_iter().map(|p| p + base));
        }
        out
    }
}

/// What one index lookup costs, in kernel-evaluated rows: a binary search
/// over a chunk's [`Value`] keys (~150 ns) against a kernel pass over one
/// row of flat typed vectors (~10 ns).
const LOOKUP_COST: usize = 16;

/// What one probe candidate costs in the same unit: fetching its row and
/// re-checking the remaining conjuncts on the interpreter.
const CANDIDATE_COST: usize = 4;

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

/// Recognizes conjuncts an index on their column answers exactly:
/// `Col = Lit`, `Col IN (...)`, and single-sided ranges `Col </<=/>/>= Lit`,
/// with every literal a non-NULL value of the column's type. Index keys
/// compare strictly, so a NULL or another type's literal (`int_col = 2.0`)
/// stays with the interpreter's loose comparison.
fn index_probe<'e>(e: &'e Expr, schema: &Schema) -> Option<IndexProbe<'e>> {
    let probe = match e {
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
            IndexProbe { col, kind }
        }
        Expr::In(inner, list) => match inner.as_ref() {
            Expr::Col(c) => IndexProbe {
                col: *c,
                kind: ProbeKind::Eq(list.values()),
            },
            _ => return None,
        },
        _ => return None,
    };
    let ty = (probe.col < schema.arity()).then(|| schema.column_type(probe.col))?;
    let fits = |v: &Value| !v.is_null() && ty.admits(v);
    let exact = match probe.kind {
        ProbeKind::Eq(values) => values.iter().all(fits),
        ProbeKind::Range { lo, hi } => lo.into_iter().chain(hi).all(fits),
    };
    exact.then_some(probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    /// Four rows in one open tail, laid out as `layout`.
    fn table(layout: Layout) -> Table {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]);
        let mut t = Table::new(schema, &layout).unwrap();
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
        let mut t = table(Layout::default());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert(vec![Value::str("x"), Value::str("y"), Value::Int(1)])
            .is_err());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn seq_scan_when_no_index() {
        let t = table(Layout::default());
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::Seq);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(scanned, 4);
    }

    #[test]
    fn index_eq_probe() {
        let mut t = table(Layout::indexed(&["name"]));
        t.seal_tail();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(scanned, 2, "only matching rows touched");
    }

    #[test]
    fn index_in_probe_and_residual() {
        let mut t = table(Layout::indexed(&["name"]));
        t.seal_tail();
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
        let mut t = table(Layout::indexed(&["size"]));
        t.seal_tail();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(2, CmpOp::Ge, 20i64)], &mut scanned);
        assert_eq!(path, AccessPath::IndexRange);
        assert_eq!(rows, vec![1, 2, 3]);
        // Exclusive bound: strict > re-checks the predicate.
        let (_, rows) = t.select(&[Expr::cmp_lit(2, CmpOp::Gt, 20i64)], &mut scanned);
        assert_eq!(rows, vec![2, 3]);
    }

    /// A layout's index columns are checked when the table is created, and
    /// a column named twice is one index.
    #[test]
    fn index_columns_are_checked_and_deduplicated_at_creation() {
        let mut t = table(Layout::indexed(&["name", "name"]));
        assert_eq!(t.indexed_columns(), vec![1]);
        t.seal_tail();
        assert_eq!(t.sealed_chunks()[0].indexes.len(), 1);
        t.insert(vec![Value::Int(5), Value::str("alpha"), Value::Int(50)])
            .unwrap();
        let mut scanned = 0;
        let (path, rows) = t.select(&[Expr::cmp_lit(1, CmpOp::Eq, "alpha")], &mut scanned);
        assert_eq!(path, AccessPath::IndexEq);
        assert_eq!(
            rows,
            vec![0, 2, 4],
            "the sealed chunk's index plus the open tail"
        );
        assert_eq!(scanned, 3, "two postings and the one tail row");
        let bogus = Table::new(t.schema().clone(), &Layout::indexed(&["bogus"]));
        assert!(matches!(bogus, Err(RdbError::NoSuchColumn(_))));
    }

    #[test]
    fn columnar_path_matches_seq_scan() {
        let mut t = table(Layout::default().with_columnar(ColumnarSpec::all(), SharedDict::new()));
        t.seal_tail();
        let mut scanned = 0;
        let conjuncts = vec![Expr::cmp_lit(1, CmpOp::Eq, "alpha")];
        let (path, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(path, AccessPath::Columnar);
        assert_eq!(rows, vec![0, 2], "row order, like the seq scan");
        // Appended rows are visible from the open tail.
        t.insert(vec![Value::Int(5), Value::str("alpha"), Value::Int(50)])
            .unwrap();
        let (_, rows) = t.select(&conjuncts, &mut scanned);
        assert_eq!(rows, vec![0, 2, 4]);
    }

    #[test]
    fn like_runs_on_the_dictionary_and_residuals_on_rows() {
        let mut t = table(Layout::default().with_columnar(ColumnarSpec::all(), SharedDict::new()));
        t.seal_tail();
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
        let layout =
            Layout::indexed(&["id", "grp"]).with_columnar(ColumnarSpec::all(), SharedDict::new());
        let schema = Schema::new(&[("id", ColumnType::Int), ("grp", ColumnType::Int)]);
        let mut t = Table::with_chunk_rows(schema, &layout, 100).unwrap();
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
                .filter(|&p| conjuncts.iter().all(|c| c.matches(&t.row(p).to_row())))
                .collect();
            assert_eq!(rows, want, "{conjuncts:?}");
            (path, scanned, profile.in_probe_lookups)
        };
        // A point lookup: one binary search (the list is clipped to the
        // one chunk whose key range holds it) beats scanning its chunk.
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
        // Its candidates are re-checked against the other conjuncts: 777
        // is in group 7, not 6.
        assert_eq!(
            run(&[
                Expr::cmp_lit(0, CmpOp::Eq, 777i64),
                Expr::cmp_lit(1, CmpOp::Eq, 6i64)
            ]),
            (AccessPath::IndexEq, 1, 1)
        );
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
        let mut t = table(Layout::indexed(&["name"]));
        t.seal_tail();
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
        let mut t = table(Layout::indexed(&["name", "size"]));
        t.seal_tail();
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
    /// chunk) over the same 10 rows, both laid out as `layout`.
    fn chunked_and_oracle(layout: &Layout) -> (Table, Table) {
        let schema = Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("size", ColumnType::Int),
        ]);
        let mut chunked = Table::with_chunk_rows(schema.clone(), layout, 3).unwrap();
        let mut oracle = Table::with_chunk_rows(schema, layout, 1000).unwrap();
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
        let (chunked, oracle) = chunked_and_oracle(&Layout::indexed(&["name"]));
        assert_eq!(chunked.chunk_boundaries(), vec![3, 3, 3, 1]);
        assert_eq!(chunked.sealed_chunks().len(), 3);
        assert_eq!(oracle.chunk_boundaries(), vec![10]);
        assert_eq!(chunked.len(), oracle.len());
        for i in 0..10u32 {
            assert_eq!(chunked.row(i), oracle.row(i), "row {i}");
        }
        let all: Vec<RowView> = chunked.iter_rows().collect();
        let want: Vec<RowView> = oracle.iter_rows().collect();
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
            let mut layout = Layout::indexed(&["name", "size"]);
            if columnar {
                layout = layout.with_columnar(ColumnarSpec::time_sorted("id"), SharedDict::new());
            }
            let (chunked, oracle) = chunked_and_oracle(&layout);
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
        let (chunked, _) = chunked_and_oracle(&Layout::indexed(&["name"]));
        let snapshot = chunked.clone();
        assert_eq!(chunked.chunks_shared_with(&snapshot), 3);
        assert!(chunked.tail_bytes() > 0);
        assert!(chunked.tail_bytes() < chunked.resident_bytes().rows);
        // Appending detaches nothing sealed: the clone still shares all
        // three chunks with the (mutated) original.
        let mut head = chunked;
        head.insert(vec![Value::Int(99), Value::str("late"), Value::Int(0)])
            .unwrap();
        assert_eq!(head.chunks_shared_with(&snapshot), 3);
    }

    /// A clone shares a columnar tail's full blocks and copies its partial
    /// one — what `tail_bytes` charges — and neither side sees the other's
    /// later rows.
    #[test]
    fn a_clone_shares_full_tail_blocks_and_copies_the_partial_one() {
        let schema = Schema::new(&[("x", ColumnType::Int), ("s", ColumnType::Str)]);
        let layout = Layout::default().with_columnar(ColumnarSpec::all(), SharedDict::new());
        let mut head = Table::with_chunk_rows(schema, &layout, usize::MAX).unwrap();
        let row = |i: i64| vec![Value::Int(i), Value::str(format!("s{}", i % 3))];
        let block = crate::TAIL_BLOCK_ROWS;
        let n = 2 * block + 5;
        for i in 0..n as i64 {
            head.insert(row(i)).unwrap();
        }
        assert!(head.sealed_chunks().is_empty());
        assert_eq!(
            head.tail_bytes(),
            5 * (8 + 4),
            "five rows of a partial block"
        );
        let snapshot = head.clone();
        assert_eq!(head.tail_blocks_shared_with(&snapshot), 2);
        head.insert(row(-1)).unwrap();
        assert_eq!((head.len(), snapshot.len()), (n + 1, n));
        assert!(head.iter_rows().take(n).eq(snapshot.iter_rows()));
        assert_eq!(head.row(n as u32).to_row(), row(-1));
        // The head's partial block fills into a full block of its own; with
        // the tail ending on a full block, a clone copies nothing.
        for i in 0..block - 6 {
            head.insert(row(i as i64)).unwrap();
        }
        assert_eq!(head.tail_blocks_shared_with(&snapshot), 2);
        assert_eq!(head.tail_bytes(), 0);
        assert_eq!(head.clone().tail_blocks_shared_with(&head), 3);
        assert!(snapshot.iter_rows().eq(head.iter_rows().take(n)));
    }

    /// Sealing sorts once: a chunk's projection order is the stable sort of
    /// its rows by time, ties in arrival order.
    #[test]
    fn sealed_perm_is_the_stable_time_sort_of_its_rows() {
        let schema = Schema::new(&[("t", ColumnType::Int), ("i", ColumnType::Int)]);
        let layout =
            Layout::default().with_columnar(ColumnarSpec::time_sorted("t"), SharedDict::new());
        let mut t = Table::with_chunk_rows(schema, &layout, 12).unwrap();
        let times = [50, 10, 40, 10, 30, 5, 60, 25, 50, 15, 10, 5];
        for (i, &time) in times.iter().enumerate() {
            t.insert(vec![Value::Int(time), Value::Int(i as i64)])
                .unwrap();
        }
        let chunk = &t.sealed_chunks()[0];
        let c = chunk.columnar().expect("projected");
        let mut want: Vec<u32> = (0..12).collect();
        want.sort_by_key(|&p| times[p as usize]);
        assert_eq!(c.perm(), want);
        assert!((1..12).all(|at| c.int(at - 1, 0) <= c.int(at, 0)));
        assert!((0..12).all(|p| chunk.row(p).int(1) == Some(p as i64)));
    }

    /// What EXPLAIN's "blocks pruned/total" and the benchmark's
    /// `rdb.blocks_pruned_share` read: sealed columnar chunks a scan
    /// visited, and those its zone maps excluded.
    #[test]
    fn zone_map_accounting_counts_sealed_chunks() {
        let schema = Schema::new(&[("t", ColumnType::Int), ("i", ColumnType::Int)]);
        let layout =
            Layout::default().with_columnar(ColumnarSpec::time_sorted("t"), SharedDict::new());
        let mut t = Table::with_chunk_rows(schema, &layout, 4).unwrap();
        for i in 0..12 {
            t.insert(vec![Value::Int(i * 10), Value::Int(i)]).unwrap();
        }
        assert_eq!(t.sealed_chunks().len(), 3);
        let window = [
            Expr::cmp_lit(0, CmpOp::Ge, 40i64),
            Expr::cmp_lit(0, CmpOp::Le, 60i64),
        ];
        let (mut scanned, mut profile) = (0, ScanProfile::default());
        let (path, rows) = t.select_profiled(&window, &mut scanned, &mut profile);
        assert_eq!(
            (path, rows, scanned),
            (AccessPath::Columnar, vec![4, 5, 6], 3)
        );
        assert_eq!((profile.blocks_total, profile.blocks_pruned), (3, 2));
    }

    // ------------------------------------------------------------------
    // Sealed read layout
    // ------------------------------------------------------------------

    /// A table over keys that trip every ordering hazard — NULLs,
    /// duplicates, the `i64` extremes, neighbours above 2^53 that `f64`
    /// cannot tell apart — and strings with NULLs; both columns indexed.
    fn hazard_table(seal: bool, columnar: bool) -> Table {
        let big = 1i64 << 53;
        let schema = Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)]);
        let mut layout = Layout::indexed(&["k", "s"]);
        if columnar {
            // Sorted on `k`: the rows' projection order is not theirs.
            layout = layout.with_columnar(ColumnarSpec::time_sorted("k"), SharedDict::new());
        }
        let mut t = Table::with_chunk_rows(schema, &layout, usize::MAX).unwrap();
        let keys = [
            Some(5),
            None,
            Some(big + 1),
            Some(-3),
            Some(big),
            Some(5),
            Some(i64::MAX),
            None,
            Some(big + 2),
            Some(i64::MIN),
            Some(2),
            Some(big + 1),
        ];
        for (i, k) in keys.into_iter().enumerate() {
            let s = ["", "b", "a", "ab"][i % 4];
            let s = if s.is_empty() {
                Value::Null
            } else {
                Value::str(s)
            };
            t.insert(vec![k.map_or(Value::Null, Value::Int), s])
                .unwrap();
        }
        if seal {
            t.seal_tail();
        }
        t
    }

    /// An index read from a typed column — integers with NULLs among them,
    /// dictionary codes — spans what keying each row by its value spans,
    /// and an integer one orders its positions as those values do (codes
    /// order by code).
    #[test]
    fn typed_indexes_order_as_values_do() {
        let t = hazard_table(true, true);
        let chunk = &t.sealed_chunks()[0];
        let n = chunk.len() as u32;
        for col in [0, 1] {
            let values = || (0..n).map(|p| chunk.row(p).get(col));
            let index = &chunk.indexes[&col];
            assert_eq!(index.span, values().min().zip(values().max()), "{col}");
            if col == 0 {
                let keyed = sort_keyed((0..n).map(|p| (chunk.row(p).get(col), p)));
                let mut order = Vec::new();
                index.order.extend_into(0..n as usize, &mut order);
                assert_eq!(order, keyed.iter().map(|&(_, p)| p).collect::<Vec<_>>());
            }
        }
        assert!(chunk.coded(1).is_some() && chunk.columnar().unwrap().is_int(0));
    }

    /// The sealed chunk's sorted positions answer every index question the
    /// way a scan of its keys does — on stored rows and projected ones. A
    /// dictionary-coded column is asked no range: the scan answers it.
    #[test]
    fn sorted_index_answers_like_a_scan() {
        use crate::expr::InList;
        let big = 1i64 << 53;
        let ints: Vec<Value> = [
            i64::MIN,
            -3,
            0,
            2,
            5,
            big - 1,
            big,
            big + 1,
            big + 2,
            i64::MAX,
        ]
        .map(Value::Int)
        .into();
        let mut probes = ints.clone();
        probes.extend([
            Value::Null,
            Value::Float(2.0),
            Value::Float(big as f64),
            Value::Float(-0.5),
            Value::Bool(true),
            Value::str("a"),
            Value::str("ab"),
            Value::str("c"),
        ]);
        let lists = [
            ints.clone(),
            vec![
                Value::Float(2.0),
                Value::Int(2),
                Value::Float(big as f64),
                Value::Int(big + 1),
                Value::Float(-0.5),
            ],
            vec![Value::Int(i64::MIN), Value::Int(i64::MAX)],
            vec![Value::Null, Value::Int(5)],
            vec![Value::Int(big + 3), Value::Float(1e300)],
            vec![Value::str("a"), Value::Null, Value::str("b")],
            vec![],
        ];
        for columnar in [false, true] {
            let (sealed, open) = (hazard_table(true, columnar), hazard_table(false, columnar));
            let chunk = &sealed.sealed_chunks()[0];
            assert_eq!(chunk.is_projected(), columnar);
            let rows: Vec<Row> = open.tail_rows().map(|r| r.to_row()).collect();
            // The positions whose key in `col` compares to `v` as one of
            // `want`, ascending.
            let scan = |col: usize, v: &Value, want: &[Ordering]| -> Vec<u32> {
                (0..rows.len() as u32)
                    .filter(|&p| want.contains(&rows[p as usize][col].cmp(v)))
                    .collect()
            };
            let eq = [Ordering::Equal];
            let ge = [Ordering::Equal, Ordering::Greater];
            let le = [Ordering::Equal, Ordering::Less];
            for col in [0, 1] {
                for v in &probes {
                    let mut hits = Vec::new();
                    chunk.index_eq(col, v, sealed.dict_code(v), &mut hits);
                    assert_eq!(hits, scan(col, v, &eq), "{col} = {v:?}");
                    if !sealed.range_indexed(col) {
                        continue;
                    }
                    assert_eq!(
                        chunk.index_range(col, Some(v), None),
                        scan(col, v, &ge),
                        "{col} >= {v:?}"
                    );
                    assert_eq!(
                        chunk.index_range(col, None, Some(v)),
                        scan(col, v, &le),
                        "{col} <= {v:?}"
                    );
                }
                if sealed.range_indexed(col) {
                    let all: Vec<u32> = (0..rows.len() as u32).collect();
                    assert_eq!(chunk.index_range(col, None, None), all);
                }
                for list in &lists {
                    let list = InList::new(list.clone());
                    let clip = chunk.index_clip(col, list.values());
                    for (i, v) in list.values().iter().enumerate() {
                        assert!(
                            clip.contains(&i) || scan(col, v, &eq).is_empty(),
                            "{col} IN {list:?} clips {v:?}, which has postings"
                        );
                    }
                }
            }
            // Whole selections, exclusive bounds included, agree too.
            for v in &probes {
                for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    for col in [0, 1] {
                        let c = [Expr::cmp_lit(col, op, v.clone())];
                        assert_eq!(
                            sealed.select(&c, &mut 0).1,
                            open.select(&c, &mut 0).1,
                            "{c:?}"
                        );
                    }
                }
            }
        }
    }

    /// An index answers only literals of its column's type: another
    /// type's literal compares loosely (`2.0 = 2`), which strict keys
    /// cannot, so it goes to the interpreter.
    #[test]
    fn cross_type_literals_do_not_probe() {
        let mut t = table(Layout::indexed(&["size"]));
        t.seal_tail();
        for (c, want) in [
            (Expr::cmp_lit(2, CmpOp::Eq, 20.0), vec![1]),
            (Expr::cmp_lit(2, CmpOp::Ge, 25.5), vec![2, 3]),
            (
                Expr::in_list(2, vec![Value::Float(30.0), Value::Null]),
                vec![2],
            ),
        ] {
            let (path, rows) = t.select(std::slice::from_ref(&c), &mut 0);
            assert_eq!((path, rows), (AccessPath::Seq, want), "{c:?}");
        }
    }

    #[test]
    fn covered_chunks_keep_only_their_projection() {
        let layout =
            Layout::indexed(&["name"]).with_columnar(ColumnarSpec::all(), SharedDict::new());
        let (mut chunked, mut oracle) = chunked_and_oracle(&layout);
        let extra = |i: i64| vec![Value::Int(i), Value::str("late"), Value::Null];
        for i in 10..13 {
            chunked.insert(extra(i)).unwrap();
            oracle.insert(extra(i)).unwrap();
        }
        assert_eq!(chunked.sealed_chunks().len(), 4);
        for chunk in chunked.sealed_chunks() {
            assert!(chunk.is_projected());
            let r = chunk.resident_bytes();
            assert_eq!(r.rows, 0, "{r:?}");
            // A byte a position in chunks of 2 to 256 rows; none in one of
            // a single row, whose only position is 0.
            let positions = chunk.len() as u64 * (chunk.len() > 1) as u64;
            assert!(
                (positions..positions + 16).contains(&r.index),
                "one sorted index and its span: {r:?}"
            );
            assert!(r.projection > 0);
        }
        assert_eq!(chunked.tail_len(), 1);
        assert!(chunked.iter_rows().eq(oracle.iter_rows()));
        let r = chunked.resident_bytes();
        assert_eq!(r.rows, 0, "the tail is columns too: {r:?}");
    }
}
