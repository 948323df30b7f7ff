//! The column page: how the rows of a [`Response::Page`](super::Response::Page)
//! travel.
//!
//! ```text
//! page    = rows u32 · frame(rows) of the row widths · column*
//! column  = kind u8 · [null bitmap, ⌈len/8⌉ bytes, if kind has NULLS] · body
//!   Int     frame of the non-null values
//!   Str     u32 count · that many new strings (u32 length + UTF-8) · frame of codes
//!   Bool    frame of the non-null values as 0 / 1
//!   Float   frame of the non-null values' bits
//!   Mixed   len tagged values (`codec::write_value`), NULLs among them
//! frame(n) = base i64 · width u8 · n offsets of `width` bytes
//! ```
//!
//! A frame is the frame of reference of [`aiql_model::columns`]: the least
//! value, then each value's offset from it at the narrowest of 0, 1, 2, 4
//! or 8 bytes that holds the greatest ([`Lanes`]). Column `j` holds the
//! `j`-th value of every row wider than `j`, in row order, so a
//! rectangular page's widths take width 0 and a ragged page still
//! round-trips. A NULL is a bit in the column's bitmap and takes no slot in
//! its frame, so it neither widens nor shifts the frame. A column whose
//! non-null values have more than one type is `Mixed`.
//!
//! Strings are coded page-wide: a `Str` column lists the strings the page
//! has not sent yet, and its codes index every string sent so far. The
//! encoder keys them by their `Arc`: a result's strings are the
//! dictionary's, one `Arc` per distinct string, so each is sent — and
//! built by the decoder — once per page.
//!
//! Zero-width frames decode to values no byte of the page pays for, so
//! the decoder refuses a page that would take more than [`EXPANSION`]
//! times its bytes (or [`FLOOR`]) in rows and values, and it checks that
//! before it allocates them. The encoder holds itself to the same bound:
//! a page that compresses past it is sent dense — every lane at least one
//! byte, every column `Mixed`, so each row and value costs a byte.

use super::{bad, read_count, WireRow, MAX_ITEMS};
use aiql_model::codec::{read_len, read_u32, read_u8, read_value};
use aiql_model::codec::{write_str, write_u32, write_u8, write_value};
use aiql_model::columns::{at, Frame, Lanes};
use aiql_model::lanes;
use aiql_model::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::mem::size_of;
use std::sync::Arc;

const INT: u8 = 1;
const STR: u8 = 2;
const BOOL: u8 = 3;
const FLOAT: u8 = 4;
const MIXED: u8 = 5;
/// Set on a kind byte when a null bitmap follows it.
const NULLS: u8 = 0x80;

/// Decoded bytes a page may take per byte it arrived in.
const EXPANSION: usize = 64;
/// Decoded bytes any page may take, however few bytes it arrived in.
const FLOOR: usize = 1 << 20;

/// Whether `rows` rows holding `values` values in all may be decoded from
/// a page of `bytes` bytes.
fn affordable(rows: usize, values: usize, bytes: usize) -> bool {
    let decoded = rows
        .saturating_mul(size_of::<WireRow>())
        .saturating_add(values.saturating_mul(size_of::<Value>()));
    decoded <= FLOOR.max(EXPANSION.saturating_mul(bytes))
}

/// Appends the page body for `rows`.
pub(super) fn write_page(out: &mut Vec<u8>, rows: &[WireRow]) -> io::Result<()> {
    let start = out.len();
    write_columns(out, rows, false)?;
    let values = rows.iter().map(Vec::len).sum();
    if !affordable(rows.len(), values, out.len() - start) {
        out.truncate(start);
        write_columns(out, rows, true)?;
    }
    Ok(())
}

fn write_columns(out: &mut Vec<u8>, rows: &[WireRow], dense: bool) -> io::Result<()> {
    let cap = MAX_ITEMS as usize;
    if rows.len() > cap || rows.iter().any(|r| r.len() > cap) {
        return Err(bad("page row or width exceeds cap"));
    }
    write_u32(out, rows.len() as u32)?;
    let widths: Vec<i64> = rows.iter().map(|r| r.len() as i64).collect();
    write_frame(out, &widths, dense)?;
    let mut strings = Strings::default();
    for j in 0..widths.iter().copied().max().unwrap_or(0) as usize {
        write_column(
            out,
            rows.iter().filter_map(|r| r.get(j)),
            &mut strings,
            dense,
        )?;
    }
    Ok(())
}

/// Writes `vals` as a frame from their least; `dense` packs the offsets
/// at one byte at least.
fn write_frame(out: &mut Vec<u8>, vals: &[i64], dense: bool) -> io::Result<()> {
    let base = vals.iter().copied().min().unwrap_or(0);
    let off = |i: usize| vals[i].wrapping_sub(base) as u64;
    let span = (0..vals.len()).map(off).max().unwrap_or(0);
    let lanes = Lanes::pack(span.max(dense as u64), vals.len(), off);
    Frame { base, lanes }.write(out)
}

/// A value's column kind. A NULL takes no slot and counts as `Int`, the
/// kind an all-NULL column is sent as.
fn kind_of(v: &Value) -> u8 {
    match v {
        Value::Int(_) | Value::Null => INT,
        Value::Str(_) => STR,
        Value::Bool(_) => BOOL,
        Value::Float(_) => FLOAT,
    }
}

fn write_column<'a>(
    out: &mut Vec<u8>,
    column: impl Iterator<Item = &'a Value> + Clone,
    strings: &mut Strings<'a>,
    dense: bool,
) -> io::Result<()> {
    let (mut len, mut nulls, mut kind, mut mixed) = (0usize, 0, None, dense);
    for v in column.clone() {
        len += 1;
        if v.is_null() {
            nulls += 1;
        } else {
            mixed |= *kind.get_or_insert(kind_of(v)) != kind_of(v);
        }
    }
    if mixed {
        write_u8(out, MIXED)?;
        for v in column {
            write_value(out, v)?;
        }
        return Ok(());
    }
    let kind = kind.unwrap_or(INT);
    if nulls == 0 {
        write_u8(out, kind)?;
    } else {
        write_u8(out, kind | NULLS)?;
        let mut bitmap = vec![0u8; len.div_ceil(8)];
        for (i, v) in column.clone().enumerate() {
            bitmap[i / 8] |= (v.is_null() as u8) << (i % 8);
        }
        out.extend_from_slice(&bitmap);
    }
    let sent = strings.list.len();
    let bits: Vec<i64> = column
        .filter_map(|v| match v {
            Value::Null => None,
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            Value::Float(x) => Some(x.to_bits() as i64),
            Value::Str(s) => Some(strings.code(s)),
        })
        .collect();
    if kind == STR {
        write_u32(out, (strings.list.len() - sent) as u32)?;
        for s in &strings.list[sent..] {
            write_str(out, s)?;
        }
    }
    write_frame(out, &bits, false)
}

/// The strings a page has coded, keyed by the address of their `Arc`
/// payload (a live allocation's address is its own), so a lookup hashes
/// one word, not the text.
#[derive(Default)]
struct Strings<'a> {
    codes: HashMap<usize, u32, BuildHasherDefault<AddrHasher>>,
    list: Vec<&'a str>,
}

impl<'a> Strings<'a> {
    fn code(&mut self, s: &'a Arc<str>) -> i64 {
        let next = self.list.len() as u32;
        let code = *self.codes.entry(s.as_ptr() as usize).or_insert(next);
        if code == next {
            self.list.push(s);
        }
        code as i64
    }
}

/// Multiply-xorshift over an address: the keys are this process's own
/// pointers, never input, so a fast hash needs no defence against
/// crafted collisions.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Reads a page body. Malformed input — a frame width outside
/// {0, 1, 2, 4, 8}, a string code past the page's strings, a frame, bitmap
/// or string shorter than it claims, an unknown column kind, a page
/// decoding to more than its bytes allow — is `InvalidData`.
pub(super) fn read_page(r: &mut &[u8]) -> io::Result<Vec<WireRow>> {
    read_columns(r).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad("page ends early"),
        _ => e,
    })
}

fn read_columns(r: &mut &[u8]) -> io::Result<Vec<WireRow>> {
    let bytes = r.len();
    let n = read_count(r, "row")? as usize;
    let widths = Frame::read(r, n)?;
    let mut values = 0usize;
    for i in 0..n {
        let w = widths.get(i);
        if !(0..=MAX_ITEMS as i64).contains(&w) {
            return Err(bad(format!("row width {w} outside the cap")));
        }
        values += w as usize;
    }
    if !affordable(n, values, bytes) {
        return Err(bad(format!(
            "{n} rows of {values} values in all from a {bytes}-byte page"
        )));
    }
    let width = |i: usize| widths.get(i) as usize;
    let mut rows: Vec<WireRow> = (0..n).map(|i| Vec::with_capacity(width(i))).collect();
    // Column `j` holds a value of each row wider than `j`: `wider` lists
    // those rows, so reading every column visits each value once.
    let mut wider: Vec<usize> = (0..n).filter(|&i| width(i) > 0).collect();
    let mut strings = Vec::new();
    let mut j = 0;
    while !wider.is_empty() {
        let mut slots = wider.iter();
        read_column(r, wider.len(), &mut strings, |v| {
            let row = slots
                .next()
                .expect("a value for each row wider than the column");
            rows[*row].push(v);
        })?;
        j += 1;
        wider.retain(|&i| width(i) > j);
    }
    Ok(rows)
}

/// Reads a column of `len` values, handing each to `sink` in order.
fn read_column(
    r: &mut &[u8],
    len: usize,
    strings: &mut Vec<Arc<str>>,
    mut sink: impl FnMut(Value),
) -> io::Result<()> {
    let kind = read_u8(r)?;
    if kind == MIXED {
        for _ in 0..len {
            sink(read_value(r)?);
        }
        return Ok(());
    }
    if ![INT, STR, BOOL, FLOAT].contains(&(kind & !NULLS)) {
        return Err(bad(format!("unknown column kind {kind:#04x}")));
    }
    let nulls = match kind & NULLS {
        0 => None,
        _ => Some(take(r, len.div_ceil(8))?),
    };
    let is_null = |i: usize| nulls.is_some_and(|b| b[i / 8] >> (i % 8) & 1 == 1);
    let present = (0..len).filter(|&i| !is_null(i)).count();
    if kind & !NULLS == STR {
        let fresh = read_u32(r)? as usize;
        if fresh > r.len() / 4 {
            return Err(bad(format!("{fresh} strings in a {}-byte rest", r.len())));
        }
        strings.reserve(fresh);
        for _ in 0..fresh {
            strings.push(read_text(r)?);
        }
    }
    let frame = Frame::read(r, present)?;
    // Each value goes to the next slot whose bit is clear.
    let mut slot = 0;
    let mut put = |v: Value| {
        while is_null(slot) {
            sink(Value::Null);
            slot += 1;
        }
        sink(v);
        slot += 1;
    };
    match kind & !NULLS {
        INT => each(&frame, |bits| Ok(Value::Int(bits)), &mut put)?,
        FLOAT => each(
            &frame,
            |bits| Ok(Value::Float(f64::from_bits(bits as u64))),
            &mut put,
        )?,
        BOOL => each(
            &frame,
            |bits| match bits {
                0 | 1 => Ok(Value::Bool(bits == 1)),
                _ => Err(bad(format!("bool value {bits}"))),
            },
            &mut put,
        )?,
        _ => each(
            &frame,
            |code| match usize::try_from(code).ok().and_then(|c| strings.get(c)) {
                Some(s) => Ok(Value::Str(s.clone())),
                None => Err(bad(format!("string code {code} past the page's strings"))),
            },
            &mut put,
        )?,
    }
    for _ in slot..len {
        sink(Value::Null);
    }
    Ok(())
}

/// One length-prefixed string, built once.
fn read_text(r: &mut &[u8]) -> io::Result<Arc<str>> {
    let len = read_len(r)?;
    let text = std::str::from_utf8(take(r, len)?).map_err(|_| bad("invalid UTF-8 in string"))?;
    Ok(text.into())
}

fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if r.len() < n {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

/// Hands `value` of each of `frame`'s values to `put`, in order: one
/// loop per offset width.
fn each(
    frame: &Frame,
    value: impl Fn(i64) -> io::Result<Value>,
    mut put: impl FnMut(Value),
) -> io::Result<()> {
    lanes!(&frame.lanes, v => for x in v {
        put(value(at(frame.base, x))?);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(rows: &[WireRow]) -> Vec<u8> {
        let mut out = Vec::new();
        write_page(&mut out, rows).unwrap();
        out
    }

    fn decode(bytes: &[u8]) -> io::Result<Vec<WireRow>> {
        let mut r = bytes;
        let rows = read_page(&mut r)?;
        assert!(r.is_empty(), "the page reads to its end");
        Ok(rows)
    }

    #[test]
    fn a_small_int_column_with_a_null_packs_at_one_byte() {
        let rows: Vec<WireRow> = [Some(3), None, Some(250), Some(7)]
            .into_iter()
            .map(|v| vec![v.map_or(Value::Null, Value::Int)])
            .collect();
        let bytes = encode(&rows);
        // rows · widths (base 1, width 0) · kind · bitmap · base 3 · width 1 · 3 offsets
        let column = &bytes[4 + 9..];
        assert_eq!(column[0], INT | NULLS);
        assert_eq!(column[1], 0b0010, "the NULL is a bit");
        assert_eq!(i64::from_le_bytes(column[2..10].try_into().unwrap()), 3);
        assert_eq!(column[10], 1, "a NULL does not widen the frame");
        assert_eq!(&column[11..], [0, 247, 4], "nor take a slot in it");
        assert_eq!(decode(&bytes).unwrap(), rows);
    }

    #[test]
    fn each_distinct_string_is_sent_and_built_once_a_page() {
        let (a, b): (Arc<str>, Arc<str>) = ("cmd.exe".into(), "/etc/passwd".into());
        let rows: Vec<WireRow> = (0..40)
            .map(|i| {
                let first = if i % 3 == 0 { &a } else { &b };
                vec![Value::Str(first.clone()), Value::Str(a.clone())]
            })
            .collect();
        let bytes = encode(&rows);
        let sent = |s: &str| {
            bytes
                .windows(s.len())
                .filter(|w| *w == s.as_bytes())
                .count()
        };
        assert_eq!((sent(&a), sent(&b)), (1, 1));
        let got = decode(&bytes).unwrap();
        assert_eq!(got, rows);
        let (Value::Str(x), Value::Str(y)) = (&got[0][0], &got[39][1]) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(x, y), "one string across rows and columns");
    }

    #[test]
    fn ragged_and_mixed_pages_round_trip() {
        let rows: Vec<WireRow> = vec![
            vec![Value::Int(1), Value::str("x"), Value::Bool(true)],
            vec![],
            vec![Value::str("y"), Value::Null],
            vec![
                Value::Float(f64::NAN),
                Value::str("x"),
                Value::Bool(false),
                Value::Null,
            ],
            vec![Value::Null],
        ];
        let bytes = encode(&rows);
        let got = decode(&bytes).unwrap();
        assert_eq!(
            format!("{got:?}"),
            format!("{rows:?}"),
            "NaN compares by bits"
        );
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<WireRow>::new());
    }

    #[test]
    fn a_page_past_its_bytes_decodes_to_an_error_before_it_allocates() {
        // MAX_ITEMS rows, each 0 wide: 13 bytes claiming ≈ 96 MB of rows.
        let mut bytes = MAX_ITEMS.to_le_bytes().to_vec();
        bytes.extend_from_slice(&0i64.to_le_bytes());
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // The most rows the floor affords still decode.
        let most = FLOOR / size_of::<WireRow>();
        bytes[..4].copy_from_slice(&(most as u32).to_le_bytes());
        assert_eq!(decode(&bytes).unwrap().len(), most);
        bytes[..4].copy_from_slice(&(most as u32 + 1).to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn a_page_that_compresses_past_the_bound_is_sent_dense() {
        let s: Arc<str> = "same".into();
        let rows: Vec<WireRow> = vec![
            vec![
                Value::Int(7),
                Value::Str(s.clone()),
                Value::Null,
                Value::Bool(true)
            ];
            20_000
        ];
        let bytes = encode(&rows);
        let values = rows.len() * 4;
        assert!(
            !affordable(rows.len(), values, 64),
            "would need the dense form"
        );
        assert!(affordable(rows.len(), values, bytes.len()));
        assert_eq!(decode(&bytes).unwrap(), rows);
        // The same page a tenth as long compresses within the bound: dense,
        // it would take five bytes a row.
        let small = encode(&rows[..2_000]);
        assert!(small.len() < 2_000, "{} bytes", small.len());
    }
}
