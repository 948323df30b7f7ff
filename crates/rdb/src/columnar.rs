//! Columnar projections: frame-of-reference columns, time-sorted sealed
//! chunks, zone maps, and vectorized predicate kernels.
//!
//! The row store ([`crate::Table`]) interprets predicate ASTs row-at-a-time
//! over `Vec<Value>` rows — pointer-chasing on the hottest path in the
//! system. A [`Columnar`] projection shadows a sealed chunk with flat typed
//! vectors (integers, dictionary-interned symbols, bools), keeps its rows
//! sorted by the partition's time column, and carries one min/max **zone
//! map** per column over the whole chunk: the sealed chunk is the zone-map
//! unit. Scans then:
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
//! A sealed chunk keeps each integer and dictionary-code column as a
//! **frame of reference**: the chunk's least value plus one unsigned offset
//! a row, at the narrowest of 0 (a constant column), 1, 2, 4 or 8 bytes
//! that holds the chunk's max − min (taken in `u64`, so `i64::MIN` and
//! `i64::MAX` may share a chunk). Its position arrays — the projection
//! order here, the row → projection map and each index in
//! [`crate::table`] — take the narrowest width that holds the chunk's
//! length, and an identity order is kept empty. Kernels read the narrow
//! offsets directly: each is written once, generic over the offset type,
//! and translates its literal into the chunk's offsets once per chunk —
//! no decode step, no scratch buffer. An open tail's columns are the same
//! frames at full width from base 0 (`i64` values, `u32` codes), so the
//! tail runs the very same kernels.
//!
//! `LIKE` / `NOT LIKE` on a dictionary column is a kernel too: the
//! compiled pattern is evaluated once per *distinct symbol* the scan meets
//! and remembered in a scan-local [`LikeMemo`], so a row costs one offset
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
//! A projection is built once, when its chunk seals: its order is the
//! tail's stable sort by the time column, taken from the filled column, or
//! a persisted order on restore; each column is then packed straight from
//! the tail's blocks in that order and gets its zone map. A snapshot
//! writes the chunk as it is resident — each frame as base, width and
//! offsets — and a restore reads it back as it was, without a row in
//! between; a column an older snapshot wrote at full width is packed once
//! on the way in.

use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::schema::{ColumnType, Row, Schema};
use crate::snapshot::invalid;
use aiql_model::columns::{at, read_byte, read_le, width_of, write_le, Frame, Lane, Lanes};
use aiql_model::lanes;
use aiql_model::{Dict, LikePattern, SharedDict, Sym, Value, NULL_SYM};
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::sync::Arc;

/// NULL sentinel in a bool column (values are 0 / 1).
const NULL_BOOL: u8 = 2;

/// A persisted column's encoding tag: its values at full width — a bool
/// column's one encoding, and what older snapshots wrote of every column.
const RAW: u8 = 0;

/// A persisted column's encoding tag: a frame of reference as it is
/// resident — base, offset width, offsets.
const PACKED: u8 = 1;

/// A copy of `v` with room for `n` values.
fn room<T: Copy>(v: &[T], n: usize) -> Vec<T> {
    let mut c = Vec::with_capacity(n.max(v.len()));
    c.extend_from_slice(v);
    c
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

/// ANDs `lo <= value <= hi` of `frame`'s positions from `from` on into
/// `sel` (see [`and_window`]).
fn and_frame_window(
    frame: &Frame,
    nulls: &[bool],
    from: usize,
    lo: i64,
    hi: i64,
    sel: &mut [bool],
) {
    lanes!(&frame.lanes, v => and_window(sel, v, nulls, from, frame.base, lo, hi))
}

/// One projected column: in a sealed chunk, an `Int` or `Sym` column is a
/// packed [`Frame`]; in an open tail's block it is raw — `I64` values or
/// `U32` codes from base 0 — so an append is a push.
#[derive(Debug, Clone)]
enum ColumnData {
    /// Integers with a parallel null flag. The flags are allocated at the
    /// column's first NULL and are empty until then — events are never
    /// null, so an event column is its offsets and nothing else. A NULL
    /// takes offset 0.
    Int { frame: Frame, nulls: Vec<bool> },
    /// Dictionary codes; [`NULL_SYM`] stands for NULL.
    Sym { frame: Frame },
    /// 0 / 1 / [`NULL_BOOL`].
    Bool { vals: Vec<u8> },
}

/// Whether Int position `i` is NULL (`nulls` is empty while none is).
#[inline]
fn int_null(nulls: &[bool], i: usize) -> bool {
    !nulls.is_empty() && nulls[i]
}

/// ANDs `keep` of the offsets from `from` on into `sel`, a NULL never
/// kept. Branch-free, so the loop vectorizes.
#[inline]
fn and_lanes<L: Lane>(
    sel: &mut [bool],
    vals: &[L],
    nulls: &[bool],
    from: usize,
    keep: impl Fn(L) -> bool,
) {
    let vals = &vals[from..from + sel.len()];
    if nulls.is_empty() {
        for (s, &x) in sel.iter_mut().zip(vals) {
            *s &= keep(x);
        }
    } else {
        for ((s, &x), &null) in sel.iter_mut().zip(vals).zip(&nulls[from..]) {
            *s &= keep(x) & !null;
        }
    }
}

/// ANDs `lo <= value <= hi` into `sel` over the offsets from `from` on of
/// a frame from `base`: the bounds become offsets once, and a window no
/// offset reaches clears `sel`.
fn and_window<L: Lane>(
    sel: &mut [bool],
    vals: &[L],
    nulls: &[bool],
    from: usize,
    base: i64,
    lo: i64,
    hi: i64,
) {
    let lo = (lo as i128 - base as i128).max(L::MIN);
    let hi = (hi as i128 - base as i128).min(L::MAX);
    if lo > hi {
        return sel.fill(false);
    }
    let (lo, hi) = (L::narrow(lo), L::narrow(hi));
    and_lanes(sel, vals, nulls, from, |x| (x >= lo) & (x <= hi));
}

/// ANDs `keep` of the values from `from` on of a frame from `base` into
/// `sel`, asked only of rows still selected — worth it for a binary
/// search — a NULL never kept.
fn and_each<L: Lane>(
    sel: &mut [bool],
    vals: &[L],
    nulls: &[bool],
    from: usize,
    base: i64,
    keep: impl Fn(i64) -> bool,
) {
    for (i, s) in sel.iter_mut().enumerate() {
        *s = *s && !int_null(nulls, from + i) && keep(at(base, &vals[from + i]));
    }
}

impl ColumnData {
    /// An open tail's empty column of type `ty`.
    fn new(ty: ColumnType) -> Option<ColumnData> {
        Some(match ty {
            ColumnType::Int => ColumnData::Int {
                frame: Frame::raw(Lanes::I64(Vec::new())),
                nulls: Vec::new(),
            },
            ColumnType::Str => ColumnData::Sym {
                frame: Frame::raw(Lanes::U32(Vec::new())),
            },
            ColumnType::Bool => ColumnData::Bool { vals: Vec::new() },
            ColumnType::Float => return None,
        })
    }

    /// A copy of an open tail's raw column with room for `n` values (null
    /// flags only once it holds a NULL).
    fn copy_with_room(&self, n: usize) -> ColumnData {
        let raw = |lanes: &Lanes| match lanes {
            Lanes::I64(v) => Frame::raw(Lanes::I64(room(v, n))),
            Lanes::U32(v) => Frame::raw(Lanes::U32(room(v, n))),
            _ => unreachable!("an open tail's columns are raw"),
        };
        match self {
            ColumnData::Int { frame, nulls } => ColumnData::Int {
                frame: raw(&frame.lanes),
                nulls: match nulls.is_empty() {
                    true => Vec::new(),
                    false => room(nulls, n),
                },
            },
            ColumnData::Sym { frame } => ColumnData::Sym {
                frame: raw(&frame.lanes),
            },
            ColumnData::Bool { vals } => ColumnData::Bool {
                vals: room(vals, n),
            },
        }
    }

    /// Bytes the values take (what copying them copies).
    fn filled_bytes(&self) -> usize {
        match self {
            ColumnData::Int { frame, nulls } => {
                frame.lanes.len() * frame.lanes.width() + nulls.len()
            }
            ColumnData::Sym { frame } => frame.lanes.len() * frame.lanes.width(),
            ColumnData::Bool { vals } => vals.len(),
        }
    }

    /// Appends `v` to an open tail's raw column; a string is stored as the
    /// code `intern` gives it.
    #[inline]
    fn push(&mut self, v: &Value, intern: impl FnOnce(&Arc<str>) -> u32) {
        match self {
            ColumnData::Int {
                frame:
                    Frame {
                        lanes: Lanes::I64(vals),
                        ..
                    },
                nulls,
            } => {
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
            ColumnData::Sym {
                frame:
                    Frame {
                        lanes: Lanes::U32(vals),
                        ..
                    },
            } => vals.push(match v {
                Value::Str(s) => intern(s),
                _ => NULL_SYM,
            }),
            ColumnData::Bool { vals } => vals.push(match v {
                Value::Bool(b) => *b as u8,
                _ => NULL_BOOL,
            }),
            _ => unreachable!("only an open tail's raw columns grow"),
        }
    }

    /// The value at `i` as a key: the integer, the code (NULL's too), a
    /// bool's 0 / 1; `None` for a NULL integer or bool.
    #[inline]
    fn key(&self, i: usize) -> Option<i64> {
        match self {
            ColumnData::Int { frame, nulls } => (!int_null(nulls, i)).then(|| frame.get(i)),
            ColumnData::Sym { frame } => Some(frame.get(i)),
            ColumnData::Bool { vals } => (vals[i] != NULL_BOOL).then_some(vals[i] as i64),
        }
    }

    /// Appends `other`'s values to this raw column, of the same type.
    fn extend(&mut self, other: &ColumnData) {
        use ColumnData::{Bool, Int, Sym};
        match (self, other) {
            (
                Int { frame, nulls },
                Int {
                    frame: more,
                    nulls: flags,
                },
            ) => {
                if let (Lanes::I64(v), Lanes::I64(more)) = (&mut frame.lanes, &more.lanes) {
                    if !nulls.is_empty() || !flags.is_empty() {
                        nulls.resize(v.len(), false);
                        nulls.extend_from_slice(flags);
                        nulls.resize(v.len() + more.len(), false);
                    }
                    v.extend_from_slice(more);
                }
            }
            (Sym { frame }, Sym { frame: more }) => {
                if let (Lanes::U32(v), Lanes::U32(more)) = (&mut frame.lanes, &more.lanes) {
                    v.extend_from_slice(more);
                }
            }
            (Bool { vals }, Bool { vals: more }) => vals.extend_from_slice(more),
            _ => unreachable!("columns of one projection keep their types"),
        }
    }

    /// This raw column sealed: its values in `order` (sealed position →
    /// position here), an `Int` or `Sym` column packed.
    fn seal(&self, order: &[u32]) -> ColumnData {
        let gather = |nulls: &[bool]| order.iter().map(|&p| nulls[p as usize]).collect();
        match self {
            ColumnData::Int { frame, nulls } => ColumnData::Int {
                frame: lanes!(&frame.lanes, v => pack(v, nulls, order)),
                nulls: match nulls.is_empty() {
                    true => Vec::new(),
                    false => gather(nulls),
                },
            },
            ColumnData::Sym { frame } => ColumnData::Sym {
                frame: lanes!(&frame.lanes, v => pack(v, &[], order)),
            },
            ColumnData::Bool { vals } => ColumnData::Bool {
                vals: order.iter().map(|&p| vals[p as usize]).collect(),
            },
        }
    }

    /// Writes the sealed column as it is resident: a bool column [`RAW`],
    /// its bytes; an `Int` or `Sym` column [`PACKED`] — base, offset width,
    /// offsets — an `Int` column's followed by a flag byte and, when it
    /// holds a NULL, one null flag per value.
    fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (frame, nulls) = match self {
            ColumnData::Bool { vals } => {
                w.write_all(&[RAW])?;
                return w.write_all(vals);
            }
            ColumnData::Int { frame, nulls } => (frame, Some(nulls)),
            ColumnData::Sym { frame } => (frame, None),
        };
        w.write_all(&[PACKED])?;
        frame.write(w)?;
        if let Some(nulls) = nulls {
            w.write_all(&[!nulls.is_empty() as u8])?;
            write_le(w, nulls.iter().map(|&b| [b as u8]))?;
        }
        Ok(())
    }

    /// Reads, as this empty column's type, the `n` values
    /// [`ColumnData::write`] wrote — or, tagged [`RAW`], an older
    /// snapshot's full-width integers or codes, packed on the way in.
    /// Refuses an unknown tag, an offset width outside 0 / 1 / 2 / 4 / 8,
    /// a value past `i64`, a code the dictionary's `dict_len` entries do
    /// not hold, and any flag or bool outside its range.
    fn read<R: Read>(&self, r: &mut R, n: usize, dict_len: usize) -> io::Result<ColumnData> {
        let tag = read_byte(r)?;
        let frame = match (self, tag) {
            (ColumnData::Bool { .. }, RAW) => {
                let vals = read_le(r, n, |[b]| b)?;
                if vals.iter().any(|&b| b > NULL_BOOL) {
                    return Err(invalid("bool column value out of range"));
                }
                return Ok(ColumnData::Bool { vals });
            }
            (ColumnData::Int { .. }, RAW) => {
                Frame::raw(Lanes::I64(read_le(r, n, i64::from_le_bytes)?))
            }
            (ColumnData::Sym { .. }, RAW) => {
                Frame::raw(Lanes::U32(read_le(r, n, u32::from_le_bytes)?))
            }
            (ColumnData::Int { .. } | ColumnData::Sym { .. }, PACKED) => Frame::read(r, n)?,
            (_, tag) => return Err(invalid(format!("unknown column encoding {tag}"))),
        };
        let column = match self {
            ColumnData::Int { .. } => {
                let mut nulls = Vec::new();
                let flag = read_byte(r)?;
                if flag > 1 {
                    return Err(invalid(format!("null-flag marker {flag}")));
                }
                if flag == 1 {
                    let flags = read_le(r, n, |[b]| b)?;
                    if flags.iter().any(|&b| b > 1) || !flags.contains(&1) {
                        return Err(invalid("null flags hold no NULL or a non-flag"));
                    }
                    nulls = flags.into_iter().map(|b| b == 1).collect();
                }
                ColumnData::Int { frame, nulls }
            }
            _ => {
                let stored = |c: i128| c == NULL_SYM as i128 || (0..dict_len as i128).contains(&c);
                let base = frame.base as i128;
                let bad = lanes!(&frame.lanes, v => v.iter().map(|x| base + x.wide()).find(|&c| !stored(c)));
                if let Some(bad) = bad {
                    return Err(invalid(format!(
                        "code {bad} outside a dictionary of {dict_len} strings"
                    )));
                }
                ColumnData::Sym { frame }
            }
        };
        Ok(match tag {
            RAW => column.seal(&(0..n as u32).collect::<Vec<_>>()),
            _ => column,
        })
    }

    /// The value at `i` as the row store holds it; a string is the
    /// dictionary's.
    fn value(&self, i: usize, dict: &SharedDict) -> Value {
        match (self, self.key(i)) {
            (ColumnData::Int { .. }, Some(x)) => Value::Int(x),
            (ColumnData::Sym { .. }, Some(code)) if code as u32 != NULL_SYM => Value::Str(
                dict.read()
                    .shared(Sym(code as u32))
                    .expect("stored symbols are interned")
                    .clone(),
            ),
            (ColumnData::Bool { .. }, Some(b)) => Value::Bool(b == 1),
            _ => Value::Null,
        }
    }

    /// The value at `i` of an `Int` column (`None` for NULL or another
    /// type).
    #[inline]
    fn int(&self, i: usize) -> Option<i64> {
        match self {
            ColumnData::Int { .. } => self.key(i),
            _ => None,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Int { frame, nulls } => frame.lanes.heap_bytes() + nulls.capacity(),
            ColumnData::Sym { frame } => frame.lanes.heap_bytes(),
            ColumnData::Bool { vals } => vals.capacity(),
        }
    }

    /// Sort key of the value at `i` for time ordering (nulls first).
    fn int_key(&self, i: usize) -> i64 {
        self.int(i).unwrap_or(i64::MIN)
    }

    /// The zone map of a sealed column. An `Int` column's spans its frame,
    /// from the base to the greatest offset (a NULL's, 0, never raises
    /// it).
    fn zone(&self) -> Zone {
        match self {
            ColumnData::Int { frame, nulls } => match nulls.iter().all(|&n| n) {
                true if !nulls.is_empty() => Zone::Int {
                    min: i64::MAX,
                    max: i64::MIN,
                },
                _ => Zone::Int {
                    min: frame.base,
                    max: at(frame.base, &frame.lanes.max()),
                },
            },
            ColumnData::Sym { frame } => {
                let mut mask = 0u64;
                lanes!(&frame.lanes, v => for x in v {
                    let code = at(frame.base, x) as u32;
                    if code != NULL_SYM {
                        mask |= 1u64 << (code % 64);
                    }
                });
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

    /// ANDs this predicate into `sel`, where `sel[i]` covers position
    /// `from + i` of `data`. ([`Kernel::LikeSym`] needs the scan's memo
    /// and goes through [`LikeMemo::apply`] instead.)
    fn apply(&self, data: &ColumnData, from: usize, sel: &mut [bool]) {
        match (self, data) {
            (Kernel::EqI64 { v, .. }, ColumnData::Int { frame, nulls }) => {
                and_frame_window(frame, nulls, from, *v, *v, sel);
            }
            (Kernel::RangeI64 { lo, hi, .. }, ColumnData::Int { frame, nulls }) => {
                let (lo, hi) = (lo.unwrap_or(i64::MIN), hi.unwrap_or(i64::MAX));
                and_frame_window(frame, nulls, from, lo, hi, sel);
            }
            (Kernel::InI64 { vals: set, .. }, ColumnData::Int { frame, nulls }) => {
                let keep = |x: i64| set.binary_search(&x).is_ok();
                lanes!(&frame.lanes, v => and_each(sel, v, nulls, from, frame.base, keep));
            }
            (Kernel::EqSym { sym, .. }, ColumnData::Sym { frame }) => {
                and_frame_window(frame, &[], from, *sym as i64, *sym as i64, sel);
            }
            (Kernel::InSym { syms, .. }, ColumnData::Sym { frame }) => {
                let keep = |c: i64| syms.binary_search(&(c as u32)).is_ok();
                lanes!(&frame.lanes, v => and_each(sel, v, &[], from, frame.base, keep));
            }
            (Kernel::EqBool { v, .. }, ColumnData::Bool { vals }) => {
                let want = *v as u8;
                for (s, &b) in sel.iter_mut().zip(&vals[from..]) {
                    *s &= b == want;
                }
            }
            (Kernel::Never, _) => sel.fill(false),
            _ => debug_assert!(false, "kernel/column type mismatch"),
        }
    }
}

/// ANDs kernel `k`, at position `ki` of its scan, into `sel`, which covers
/// positions `from..` of `cols`. A `LIKE` kernel goes through the scan's
/// `memo` under one read guard of `dict`: symbols resolve by reference,
/// and interning waits for one chunk or tail block at most.
fn and_kernel(
    (ki, k): (usize, &Kernel),
    cols: &[ColumnData],
    from: usize,
    memo: &mut LikeMemo,
    dict: &SharedDict,
    sel: &mut [bool],
) {
    let col = k
        .col()
        .expect("`Never` is answered before a column is read");
    match (k, &cols[col]) {
        (
            Kernel::LikeSym {
                pattern, negated, ..
            },
            ColumnData::Sym { frame },
        ) => {
            let dict = dict.read();
            let like = (ki, pattern, *negated, &*dict, frame.base);
            lanes!(&frame.lanes, v => memo.apply(like, &v[from..], sel))
        }
        (k, data) => k.apply(data, from, sel),
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
    /// ANDs kernel `ki` (`pattern`, `NOT LIKE` when `negated`) over the
    /// codes at `offsets` from `base` into `sel`. NULL matches neither
    /// `LIKE` nor `NOT LIKE`.
    fn apply<L: Lane>(
        &mut self,
        (ki, pattern, negated, dict, base): (usize, &LikePattern, bool, &Dict, i64),
        offsets: &[L],
        sel: &mut [bool],
    ) {
        if self.outcomes.len() <= ki {
            self.outcomes.resize_with(ki + 1, Vec::new);
        }
        let memo = &mut self.outcomes[ki];
        if memo.len() < dict.len() {
            memo.resize(dict.len(), UNSEEN);
        }
        for (s, x) in sel.iter_mut().zip(offsets) {
            if !*s {
                continue;
            }
            let sym = at(base, x) as u32;
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
/// `Clone` deep-copies the flat vectors, so only an empty one — a table's
/// configuration, copied with its table — is cloned: a sealed chunk's is
/// shared by reference and never copied (see [`crate::table`]).
#[derive(Debug, Clone)]
pub struct Columnar {
    time_idx: Option<usize>,
    dict: SharedDict,
    /// The columns, by schema position.
    cols: Vec<ColumnData>,
    /// Projection order → row position in the chunk; empty when the two
    /// agree, as they do for rows that arrived in time order.
    perm: Lanes,
    /// Number of rows.
    len: usize,
    /// Zone maps, one per column, aligned with `cols`.
    zones: Vec<Zone>,
}

/// The error of a persisted order that does not lay out its `n` rows.
fn no_order(n: usize) -> RdbError {
    RdbError::SchemaMismatch(format!(
        "columnar order is no time-ordered permutation of {n} rows"
    ))
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
            perm: Lanes::none(),
            len: 0,
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
    /// place a sealed projection is made. The order is `order` — a
    /// persisted one, refused unless it is a permutation of the rows that
    /// runs in time order — or, with none, the rows' stable sort by the
    /// time column (NULL first), taken from the filled column. Each column
    /// is then packed from the tail's blocks in that order and given its
    /// zone map.
    pub(crate) fn seal(
        &self,
        tail: &ColumnTail,
        order: Option<&[u32]>,
    ) -> Result<Columnar, RdbError> {
        let n = tail.len;
        let given = order.is_some();
        // Each column of the tail's blocks, concatenated.
        let raw: Vec<ColumnData> = (self.cols.iter().enumerate())
            .map(|(col, data)| {
                let mut raw = data.copy_with_room(n);
                tail.blocks().for_each(|block| raw.extend(&block[col]));
                raw
            })
            .collect();
        let derived;
        let order = match order {
            Some(order) if order.len() != n || order.iter().any(|&p| p as usize >= n) => {
                return Err(no_order(n))
            }
            Some(order) => order,
            None => {
                derived = match self.time_idx {
                    Some(t) => time_order(&raw[t]),
                    None => (0..n as u32).collect(),
                };
                &derived
            }
        };
        let mut c = self.clone();
        c.cols = raw.iter().map(|raw| raw.seal(order)).collect();
        if order.iter().enumerate().any(|(i, &p)| p as usize != i) {
            c.perm = Lanes::positions(n, |i| order[i]);
        }
        c.len = n;
        c.zones = c.cols.iter().map(ColumnData::zone).collect();
        if given {
            c.check()?;
        }
        Ok(c)
    }

    /// Checks a filled projection's layout (every column holds one value
    /// per row): the order a permutation, the time column non-decreasing.
    fn check(&self) -> Result<(), RdbError> {
        let n = self.len;
        let mut seen = vec![false; if self.perm.is_empty() { 0 } else { n }];
        let permutation = self.perm.is_empty()
            || (self.perm.len() == n
                && (0..n).all(|i| {
                    let p = self.perm.get(i) as usize;
                    seen.get_mut(p).is_some_and(|s| !std::mem::replace(s, true))
                }));
        let ordered = self.time_idx.is_none_or(|t| {
            let data = &self.cols[t];
            (1..n).all(|i| data.int_key(i - 1) <= data.int_key(i))
        });
        (permutation && ordered)
            .then_some(())
            .ok_or_else(|| no_order(n))
    }

    /// Writes the filled projection as it is resident: each column (see
    /// [`ColumnData::write`]), then the projection order — its width and
    /// its positions, width 0 for an identity order, which is kept empty.
    pub(crate) fn write_chunk<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for data in &self.cols {
            data.write(w)?;
        }
        w.write_all(&[self.perm.width() as u8])?;
        self.perm.write(w)
    }

    /// Reads, into a copy of this empty projection, the `n`-row chunk
    /// [`Columnar::write_chunk`] wrote — or, `wide_order` set, one an
    /// older snapshot wrote, its order `n` four-byte positions: each column
    /// as it was resident (one written raw is packed), every code checked
    /// against the dictionary, the layout checked as a persisted order is,
    /// then the zone maps.
    pub(crate) fn read_chunk<R: Read>(
        &self,
        r: &mut R,
        n: usize,
        wide_order: bool,
    ) -> io::Result<Columnar> {
        let mut c = self.clone();
        let dict_len = self.dict.len();
        c.cols = Vec::with_capacity(self.cols.len());
        for data in &self.cols {
            c.cols.push(data.read(r, n, dict_len)?);
        }
        c.perm = match wide_order {
            true => Lanes::U32(read_le(r, n, u32::from_le_bytes)?),
            false => match read_byte(r)? {
                0 => Lanes::none(),
                width => Lanes::read(r, n, width)?,
            },
        };
        c.len = n;
        c.check().map_err(|e| invalid(e.to_string()))?;
        let perm = &c.perm;
        if (0..perm.len()).all(|i| perm.get(i) == i as u64) {
            c.perm = Lanes::none();
        } else if perm.width() != width_of(n.saturating_sub(1) as u64) {
            c.perm = Lanes::positions(n, |i| perm.get(i) as u32);
        }
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

    /// [`Columnar::value`] of an `Int` column, without building a value
    /// (`None` for NULL or another type).
    pub fn int(&self, at: usize, col: usize) -> Option<i64> {
        self.cols[col].int(at)
    }

    /// The dictionary code of `col` at projection position `at`, when it
    /// is a string column ([`NULL_SYM`] for NULL).
    pub(crate) fn code(&self, at: usize, col: usize) -> Option<u32> {
        match &self.cols[col] {
            ColumnData::Sym { frame } => Some(frame.get(at) as u32),
            _ => None,
        }
    }

    /// The index order of `col` — an `Int` column without NULL, or a
    /// string column's codes: the row positions sorted by (key, position),
    /// at the chunk's position width. The packed offsets are the keys,
    /// scattered to row position and radix-sorted ([`radix_order`]);
    /// `sorted` is handed each key, in that order.
    pub(crate) fn index_order(&self, col: usize, sorted: impl FnMut(i64)) -> Option<Lanes> {
        let frame = match &self.cols[col] {
            ColumnData::Int { frame, nulls } if nulls.is_empty() => frame,
            ColumnData::Sym { frame } => frame,
            _ => return None,
        };
        Some(lanes!(&frame.lanes, v => self.order_by(v, frame.base, sorted)))
    }

    /// [`Columnar::index_order`] over the `offsets` from `base` of one
    /// column.
    fn order_by<K: Lane>(&self, offsets: &[K], base: i64, mut sorted: impl FnMut(i64)) -> Lanes {
        fn run<K: Lane, P: Lane>(keys: &[K], base: i64, sorted: &mut impl FnMut(i64)) -> Vec<P> {
            let order: Vec<P> = radix_order(keys);
            for p in &order {
                sorted(at(base, &keys[p.wide() as usize]));
            }
            order
        }
        let by_row;
        let keys = match self.perm.is_empty() {
            true => offsets,
            false => {
                let mut keys = vec![K::default(); offsets.len()];
                lanes!(&self.perm, rows => for (&x, r) in offsets.iter().zip(rows) {
                    keys[r.wide() as usize] = x;
                });
                by_row = keys;
                &by_row
            }
        };
        match width_of(self.len.saturating_sub(1) as u64) {
            0 => Lanes::Zero(run(keys, base, &mut sorted)),
            1 => Lanes::U8(run(keys, base, &mut sorted)),
            2 => Lanes::U16(run(keys, base, &mut sorted)),
            _ => Lanes::U32(run(keys, base, &mut sorted)),
        }
    }

    /// Whether `col` is a string column, held as dictionary codes.
    pub(crate) fn is_coded(&self, col: usize) -> bool {
        matches!(self.cols.get(col), Some(ColumnData::Sym { .. }))
    }

    /// Whether `col` is an `Int` column.
    pub(crate) fn is_int(&self, col: usize) -> bool {
        matches!(self.cols.get(col), Some(ColumnData::Int { .. }))
    }

    /// Bytes an offset of `col` takes — 0, 1, 2, 4 or 8 in a sealed
    /// chunk — when it is an `Int` or string column.
    pub fn offset_width(&self, col: usize) -> Option<usize> {
        match &self.cols[col] {
            ColumnData::Int { frame, .. } | ColumnData::Sym { frame } => Some(frame.lanes.width()),
            ColumnData::Bool { .. } => None,
        }
    }

    /// Heap bytes held: the column vectors, the projection order, the zone
    /// maps (the shared dictionary is the store's, not the projection's).
    pub fn resident_bytes(&self) -> u64 {
        let cols: usize = self.cols.iter().map(ColumnData::heap_bytes).sum();
        (cols
            + self.zones.capacity() * size_of::<Zone>()
            + self.perm.heap_bytes()
            + self.cols.capacity() * size_of::<ColumnData>()) as u64
    }

    /// Number of rows (the chunk's).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the projection holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row-store position of the row at projection position `at`.
    #[inline]
    pub fn row_at(&self, at: usize) -> u32 {
        match self.perm.is_empty() {
            true => at as u32,
            false => self.perm.get(at) as u32,
        }
    }

    /// The projection order, built: entry `i` is [`Columnar::row_at`]`(i)`
    /// — the projection's whole layout metadata, which a snapshot persists
    /// so a restore rebuilds the same projection without re-sorting.
    pub fn perm(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.row_at(i)).collect()
    }

    /// The row → projection-position map, the order's inverse: empty for
    /// an identity order, else at the chunk's position width.
    pub(crate) fn row_map(&self) -> Lanes {
        if self.perm.is_empty() {
            return Lanes::none();
        }
        let mut at = vec![0u32; self.len];
        for i in 0..self.len {
            at[self.perm.get(i) as usize] = i as u32;
        }
        Lanes::positions(self.len, |row| at[row])
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
            self.len
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
        let n = self.len;
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
        let narrowed = kernels.iter().enumerate().filter(|(_, k)| {
            time_nulls
                || !matches!(k, Kernel::EqI64 { col, .. } | Kernel::RangeI64 { col, .. }
                if Some(*col) == self.time_idx)
        });
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
        for k in narrowed {
            and_kernel(k, &self.cols, lo, memo, &self.dict, &mut sel);
        }
        let hits = (lo..).zip(sel).filter(|&(_, s)| s).map(|(i, _)| i);
        match &self.perm {
            perm if perm.is_empty() => hits.map(|i| i as u32).collect(),
            perm => lanes!(perm, p => hits.map(|i| Lane::wide(&p[i]) as u32).collect()),
        }
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

/// One block of an open tail: a raw column per projected column, each
/// with room for [`TAIL_BLOCK_ROWS`] values.
type Block = Vec<ColumnData>;

/// The open tail of a table with a projection: its rows in arrival order,
/// as raw columns of the table's projection, in blocks of
/// [`TAIL_BLOCK_ROWS`] rows — full blocks behind `Arc`, then the one
/// partial block appends fill, owned.
///
/// `Clone` bumps the full blocks' refcounts and copies the partial block
/// ([`ColumnTail::copy_bytes`]), nothing else: a table detached from a
/// published snapshot for its first append after the publish shares every
/// full block with it. Sealing reads the blocks — packing what a batch
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
        let open = self.open.iter().map(|c| c.copy_with_room(TAIL_BLOCK_ROWS));
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
                .map(|c| c.copy_with_room(TAIL_BLOCK_ROWS))
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
            for k in kernels.iter().enumerate() {
                and_kernel(k, block, 0, memo, &self.dict, &mut sel);
            }
            let rows = (start as u32..).zip(&sel);
            out.extend(rows.filter(|&(_, &s)| s).map(|(p, _)| p));
        }
        self.len as u64
    }
}

/// The stable sort of the arrival-ordered `times` (NULL first):
/// positions. The keys are each time less the least (a NULL's
/// `i64::MIN`), packed at the width their span needs and radix-sorted.
fn time_order(times: &ColumnData) -> Vec<u32> {
    let ColumnData::Int {
        frame: Frame {
            lanes: Lanes::I64(vals),
            ..
        },
        nulls,
    } = times
    else {
        unreachable!("an open tail's time column is raw integers")
    };
    let key = |i: usize| match int_null(nulls, i) {
        true => i64::MIN,
        false => vals[i],
    };
    let (min, max) = span((0..vals.len()).map(key));
    let off = |i: usize| (key(i) as u64).wrapping_sub(min as u64);
    let keys = Lanes::pack((max as u64).wrapping_sub(min as u64), vals.len(), off);
    lanes!(&keys, v => radix_order(v))
}

/// The comparison sort [`radix_order`] replaced, kept as the oracle the
/// radix kernel is checked against: positions ordered by (key, position).
#[cfg(test)]
fn reference_order(keys: impl Iterator<Item = i128>) -> Vec<u32> {
    let mut keyed: Vec<(i128, u32)> = keys.zip(0..).collect();
    keyed.sort_unstable();
    keyed.iter().map(|&(_, p)| p).collect()
}

/// The positions of `keys`, stably sorted by key — equal keys in position
/// order — at the position type `P`, which must hold the last position.
/// An LSD radix sort on 8-bit digits: one read pass takes every digit's
/// histogram, and a digit that puts all the keys in one bucket is
/// skipped, so a pass is spent only on a digit that tells keys apart. An
/// `i64` key sorts as a signed integer.
fn radix_order<K: Lane, P: Lane>(keys: &[K]) -> Vec<P> {
    let n = keys.len();
    let digits = size_of::<K>();
    let key = |k: &K| (k.wide() - K::MIN) as u64;
    let mut counts = [[0u32; 256]; 8];
    for k in keys {
        let k = key(k);
        for (d, count) in counts[..digits].iter_mut().enumerate() {
            count[(k >> (8 * d)) as u8 as usize] += 1;
        }
    }
    // Empty while the order is the identity.
    let (mut order, mut spare) = (Vec::<P>::new(), Vec::<P>::new());
    for (d, count) in counts[..digits].iter_mut().enumerate() {
        if count.contains(&(n as u32)) {
            continue;
        }
        let mut sum = 0;
        for c in count.iter_mut() {
            (*c, sum) = (sum, sum + *c);
        }
        if spare.len() != n {
            spare = vec![P::default(); n];
        }
        let mut place = |p: usize| {
            let slot = &mut count[(key(&keys[p]) >> (8 * d)) as u8 as usize];
            spare[*slot as usize] = P::narrow(p as i128);
            *slot += 1;
        };
        match order.is_empty() {
            true => (0..n).for_each(&mut place),
            false => order.iter().for_each(|p| place(p.wide() as usize)),
        }
        std::mem::swap(&mut order, &mut spare);
    }
    match order.len() == n {
        true => order,
        false => (0..n).map(|p| P::narrow(p as i128)).collect(),
    }
}

/// The least and greatest of `vals` (an inverted pair when there is none).
fn span(vals: impl Iterator<Item = i64>) -> (i64, i64) {
    vals.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// Raw values `vals` (from base 0; NULL where `nulls` says) packed in
/// `order`: the least non-NULL value as base, each value's offset from it
/// at the width that holds the greatest's, a NULL's offset 0.
fn pack<L: Lane>(vals: &[L], nulls: &[bool], order: &[u32]) -> Frame {
    let all = vals.iter().map(|x| at(0, x));
    let (mut min, mut max) = match nulls.is_empty() {
        true => span(all),
        false => span(all.zip(nulls).filter(|(_, &n)| !n).map(|(v, _)| v)),
    };
    if min > max {
        (min, max) = (0, 0);
    }
    let off = |p: usize| match int_null(nulls, p) {
        true => 0,
        false => (at(0, &vals[p]) as u64).wrapping_sub(min as u64),
    };
    let top = (max as u64).wrapping_sub(min as u64);
    let lanes = Lanes::pack(top, order.len(), |i| off(order[i] as usize));
    Frame { base: min, lanes }
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
    use crate::table::{Layout, ScanProfile, Table};
    use std::any::type_name;

    /// The projection position of row `p` under a row → projection map.
    fn proj_pos(at: &Lanes, p: usize) -> usize {
        if at.is_empty() {
            p
        } else {
            at.get(p) as usize
        }
    }

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
        let layout = Layout::default().with_columnar(spec.clone(), SharedDict::new());
        let mut t = Table::with_chunk_rows(schema(), &layout, chunk).unwrap();
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
        // The table is refused when it is created; without a projection it
        // keeps the float as a row.
        let layout = Layout::default().with_columnar(spec, SharedDict::new());
        let refused = Table::new(with_float.clone(), &layout);
        assert!(matches!(refused, Err(RdbError::SchemaMismatch(_))));
        let mut t = Table::new(with_float, &Layout::default()).unwrap();
        t.insert(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.seal_tail();
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
        let perms: Vec<Vec<u32>> = t
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
        refill(&c.perm()).unwrap();
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

    /// `n` pseudo-random draws (xorshift), as the oracle tests' keys.
    fn draws(n: usize, mut x: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// Key sets of `n` values below `top`: drawn, all equal, few distinct
    /// (duplicates), descending, ascending, and drawn with the extremes.
    fn key_sets(n: usize, top: u64) -> Vec<Vec<u64>> {
        let wrap = |x: u64| if top == u64::MAX { x } else { x % (top + 1) };
        let drawn: Vec<u64> = draws(n, 0x9E37_79B9_7F4A_7C15)
            .into_iter()
            .map(wrap)
            .collect();
        let mut extremes = drawn.clone();
        for (i, x) in extremes.iter_mut().enumerate().step_by(97) {
            *x = if i % 2 == 0 { 0 } else { top };
        }
        vec![
            drawn.clone(),
            vec![top; n],
            drawn.iter().map(|x| x % 5).collect(),
            (0..n as u64).rev().map(wrap).collect(),
            (0..n as u64).map(wrap).collect(),
            extremes,
        ]
    }

    /// `keys` as lanes of type `K`, which holds each.
    fn lanes_of<K: Lane>(keys: &[u64]) -> Vec<K> {
        keys.iter()
            .map(|&x| K::narrow(x as i128 + K::MIN))
            .collect()
    }

    /// The radix kernel orders positions as the comparison sort does, at
    /// every key width, position width and shape of input: one pass or
    /// many, digits skipped or not, no key or one.
    #[test]
    fn radix_order_matches_a_comparison_sort() {
        fn check<K: Lane>(keys: &[u64]) {
            let lanes: Vec<K> = lanes_of(keys);
            let want = reference_order(lanes.iter().map(Lane::wide));
            assert_eq!(radix_order::<K, u32>(&lanes), want, "{}", type_name::<K>());
            let narrow: Vec<u16> = radix_order(&lanes);
            assert!(narrow.iter().map(|&p| p as u32).eq(want.iter().copied()));
        }
        for n in [0, 1, 2, 4096] {
            for keys in key_sets(n, 0) {
                check::<()>(&keys);
            }
            for keys in key_sets(n, u8::MAX as u64) {
                check::<u8>(&keys);
            }
            for keys in key_sets(n, u16::MAX as u64) {
                check::<u16>(&keys);
            }
            for keys in key_sets(n, u32::MAX as u64) {
                check::<u32>(&keys);
            }
            for keys in key_sets(n, u64::MAX) {
                check::<u64>(&keys);
                check::<i64>(&keys);
            }
            // Keys that vary only in their high digits, or only in their
            // low ones, skip the others.
            for keys in key_sets(n, 0xFF) {
                let high: Vec<u64> = keys.iter().map(|x| x << 56 | 0xAB_CDEF).collect();
                check::<u64>(&high);
                check::<u64>(&keys.iter().map(|x| x | 0x1234 << 40).collect::<Vec<_>>());
            }
        }
    }

    /// A time-sorted projection's index orders — an `Int` column at each
    /// offset width, a string column with NULL among its codes — are the
    /// comparison sort of (value, row position), over rows whose
    /// projection order is no identity, and the keys handed over come in
    /// that order.
    #[test]
    fn index_orders_match_a_comparison_sort() {
        let tops = [
            0,
            u8::MAX as u64,
            u16::MAX as u64,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut cols = vec![("t", ColumnType::Int), ("name", ColumnType::Str)];
        let names: Vec<String> = (0..tops.len()).map(|w| format!("x{w}")).collect();
        cols.extend(names.iter().map(|n| (n.as_str(), ColumnType::Int)));
        let schema = Schema::new(&cols);
        for n in [0usize, 1, 4096] {
            let times = draws(n, 7);
            let sets: Vec<Vec<u64>> = tops
                .iter()
                .map(|&top| key_sets(n, top)[5].clone())
                .collect();
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    let mut row = vec![
                        Value::Int((times[i] % 1000) as i64),
                        match i % 11 {
                            0 => Value::Null,
                            k => Value::str(format!("s{}", (k * 7919 + i) % 40)),
                        },
                    ];
                    let at_top =
                        |k: &Vec<u64>| Value::Int(k[i].wrapping_add(i64::MIN as u64) as i64);
                    row.extend(sets.iter().map(at_top));
                    row
                })
                .collect();
            let spec = ColumnarSpec::time_sorted("t");
            let c = Columnar::build(&schema, &spec, SharedDict::new(), &rows).unwrap();
            assert_eq!(c.perm.is_empty(), n <= 1, "a non-identity order");
            let at = c.row_map();
            for col in 1..c.arity() {
                let by_row: Vec<i128> = match col {
                    1 => (0..n)
                        .map(|p| c.code(proj_pos(&at, p), 1).unwrap() as i128)
                        .collect(),
                    _ => rows
                        .iter()
                        .map(|r| r[col].as_int().unwrap() as i128)
                        .collect(),
                };
                let want = reference_order(by_row.iter().copied());
                let mut keys = Vec::new();
                let order = c.index_order(col, |k| keys.push(k as i128)).unwrap();
                let mut got = Vec::new();
                order.extend_into(0..n, &mut got);
                assert_eq!(got, want, "column {col}");
                assert!(keys.iter().eq(want.iter().map(|&p| &by_row[p as usize])));
                assert_eq!(order.width(), width_of(n.saturating_sub(1) as u64));
            }
            if n == 4096 {
                let widths: Vec<_> = (2..cols.len()).map(|col| c.offset_width(col)).collect();
                assert_eq!(widths, [0, 1, 2, 4, 8].map(Some), "every offset width");
            }
        }
    }

    /// A tail's time order is the stable sort by time, NULL first, over
    /// times that span all of `i64`.
    #[test]
    fn time_order_matches_a_comparison_sort() {
        for n in [0usize, 1, 4096] {
            for keys in key_sets(n, u64::MAX) {
                let times = keys.iter().map(|&k| k as i64);
                let mut col = ColumnData::new(ColumnType::Int).unwrap();
                for (i, t) in times.enumerate() {
                    col.push(
                        &if i % 31 == 3 {
                            Value::Null
                        } else {
                            Value::Int(t)
                        },
                        |_| 0,
                    );
                }
                let want = reference_order((0..n).map(|i| col.int_key(i) as i128));
                assert_eq!(time_order(&col), want);
            }
        }
    }
}
