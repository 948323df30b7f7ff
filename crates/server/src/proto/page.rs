//! The column page: how the rows of a [`Response::Page`](super::Response::Page)
//! travel.
//!
//! ```text
//! page    = rows u32 · frame(rows) of the row widths · column*
//! ```
//!
//! Each column is a value column of [`aiql_model::columns`]: a kind byte,
//! a null bitmap when the column holds NULLs, then a frame of reference —
//! the least value, then each value's offset from it at the narrowest of
//! 0, 1, 2, 4 or 8 bytes that holds the greatest — or a string table plus
//! codes, or `Mixed` tagged values. Column `j` holds the `j`-th value of
//! every row wider than `j`, in row order, so a rectangular page's widths
//! take width 0 and a ragged page still round-trips.
//!
//! Strings are coded page-wide: one [`Strings`] table serves every column
//! of a page. The encoder keys it by the string's `Arc`: a result's
//! strings are the dictionary's, one `Arc` per distinct string, so each is
//! sent — and built by the decoder — once per page.
//!
//! Zero-width frames decode to values no byte of the page pays for, so
//! the decoder refuses a page that would take more than [`EXPANSION`]
//! times its bytes (or [`FLOOR`]) in rows and values, and it checks that
//! before it allocates them. The encoder holds itself to the same bound:
//! a page that compresses past it is sent dense — every lane at least one
//! byte, every column `Mixed`, so each row and value costs a byte.

use super::{bad, read_count, WireRow, MAX_ITEMS};
use aiql_model::codec::write_u32;
use aiql_model::columns::{read_column, write_column, write_frame, Frame, StrKey, Strings};
use aiql_model::Value;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::mem::size_of;
use std::sync::Arc;

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
    write_frame(out, &widths, dense);
    let mut strings = Strings::<Addr>::default();
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

/// A string keyed by the address of its `Arc` payload (a live
/// allocation's address is its own), so a lookup hashes one word, not the
/// text.
#[derive(PartialEq, Eq, Hash)]
struct Addr(usize);

impl<'a> StrKey<'a> for Addr {
    type Hasher = BuildHasherDefault<AddrHasher>;
    fn of(s: &'a Arc<str>) -> Addr {
        Addr(s.as_ptr() as usize)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A value column's kind byte for `Int`, and its NULLs flag.
    const INT: u8 = 1;
    const NULLS: u8 = 0x80;

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
