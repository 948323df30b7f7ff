//! Narrow integer vectors and their byte form: the offsets of a
//! frame-of-reference column ([`Frame`]), and position arrays, at the
//! narrowest of 0, 1, 2, 4 or 8 bytes that holds their greatest value,
//! with the fixed-width little-endian reads and writes that keep them;
//! and value columns ([`write_column`], [`read_column`]) built on them.
//!
//! One codec serves the workspace: a sealed chunk's columns and position
//! arrays in `aiql-rdb` (resident and in snapshots), the column pages of
//! the `aiql-server` wire protocol, and the column frames of the
//! `aiql-wal` write-ahead log.
//!
//! Code that reads them is written once, generic over the offset type
//! ([`Lane`]), and instantiated per width through [`lanes!`](crate::lanes!):
//! a kernel compares its literal, translated once, against the narrow
//! values themselves, with no decode step.
//!
//! A value column holds [`Value`]s of any type, NULLs among them:
//!
//! ```text
//! column  = kind u8 · [null bitmap, ⌈len/8⌉ bytes, if kind has NULLS] · body
//!   Int     frame of the non-null values
//!   Str     u32 count · that many new strings (u32 length + UTF-8) · frame of codes
//!   Bool    frame of the non-null values as 0 / 1
//!   Float   frame of the non-null values' bits
//!   Mixed   len tagged values (`codec::write_value`), NULLs among them
//! frame(n) = base i64 · width u8 · n offsets of `width` bytes
//! ```
//!
//! A NULL is a bit in the column's bitmap and takes no slot in its frame,
//! so it neither widens nor shifts the frame. A column whose non-null
//! values have more than one type is `Mixed`. Strings are coded across
//! the columns that share a [`Strings`] table: a `Str` column lists the
//! strings the table has not sent yet, and its codes index every string
//! sent so far.

use crate::codec::{read_len, read_u32, read_u8, read_value};
use crate::codec::{write_str, write_u32, write_u8, write_value};
use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{BuildHasher, Hash};
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// Cap on the capacity a decoded count may reserve up front: a corrupt
/// count fails on its first missing entry instead of allocating for all
/// of them.
pub const MAX_RESERVE: usize = 1 << 16;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes fixed-width little-endian values through a stack buffer.
#[inline]
pub fn write_le<W: Write, const N: usize>(
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

/// Fills `buf` from `r`; packed columns that end early are invalid data.
pub fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("packed columns end early"),
        _ => e,
    })
}

/// Reads one byte; an input that ends first is invalid data.
pub fn read_byte<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8];
    read_exact(r, &mut b)?;
    Ok(b[0])
}

/// Reads `n` fixed-width little-endian values. A count past the input
/// fails when the input ends, having reserved at most [`MAX_RESERVE`]
/// values.
pub fn read_le<R: Read, T, const N: usize>(
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

/// An offset type of [`Lanes`]: an unsigned width a sealed column packs
/// at — `()` for a constant column, which takes no bytes — or the `i64`
/// of an open tail's raw integer column.
pub trait Lane: Copy + Ord + Default + Debug {
    /// The least and greatest offset the type holds.
    const MIN: i128;
    const MAX: i128;
    /// The offset, widened.
    fn wide(&self) -> i128;
    /// Offset `x`, which lies in `MIN..=MAX`.
    fn narrow(x: i128) -> Self;
}

macro_rules! lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            const MIN: i128 = <$t>::MIN as i128;
            const MAX: i128 = <$t>::MAX as i128;
            #[inline]
            fn wide(&self) -> i128 {
                *self as i128
            }
            #[inline]
            fn narrow(x: i128) -> $t {
                x as $t
            }
        }
    )*};
}
lane!(u8, u16, u32, u64, i64);

impl Lane for () {
    const MIN: i128 = 0;
    const MAX: i128 = 0;
    #[inline]
    fn wide(&self) -> i128 {
        0
    }
    #[inline]
    fn narrow(_: i128) {}
}

/// The value at offset `x` from `base` (wrapping: an 8-byte offset may
/// pass `i64::MAX`).
#[inline]
pub fn at<L: Lane>(base: i64, x: &L) -> i64 {
    base.wrapping_add(x.wide() as i64)
}

/// Offsets at one width. A sealed column or position array takes the
/// narrowest that holds its greatest offset; an open tail's columns are
/// `I64` (integers) and `U32` (codes).
#[derive(Debug, Clone)]
pub enum Lanes {
    Zero(Vec<()>),
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    I64(Vec<i64>),
}

/// Evaluates `$e` with `$v` bound to the vector of `$lanes`: the code is
/// written once and instantiated per offset type.
#[macro_export]
macro_rules! lanes {
    ($lanes:expr, $v:ident => $e:expr) => {
        match $lanes {
            $crate::columns::Lanes::Zero($v) => $e,
            $crate::columns::Lanes::U8($v) => $e,
            $crate::columns::Lanes::U16($v) => $e,
            $crate::columns::Lanes::U32($v) => $e,
            $crate::columns::Lanes::U64($v) => $e,
            $crate::columns::Lanes::I64($v) => $e,
        }
    };
}
/// Bytes an offset of at most `max` takes: the narrowest of 0, 1, 2, 4, 8.
#[inline]
pub fn width_of(max: u64) -> usize {
    match max {
        0 => 0,
        1..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

impl Lanes {
    /// `n` offsets `off(i)`, none past `max`, at the width that holds `max`.
    pub fn pack(max: u64, n: usize, off: impl Fn(usize) -> u64) -> Lanes {
        let all = 0..n;
        match width_of(max) {
            0 => Lanes::Zero(vec![(); n]),
            1 => Lanes::U8(all.map(|i| off(i) as u8).collect()),
            2 => Lanes::U16(all.map(|i| off(i) as u16).collect()),
            4 => Lanes::U32(all.map(|i| off(i) as u32).collect()),
            _ => Lanes::U64(all.map(off).collect()),
        }
    }

    /// The positions `pos(i)` of a chunk of `n` rows, at the width that
    /// holds the chunk's last.
    pub fn positions(n: usize, pos: impl Fn(usize) -> u32) -> Lanes {
        Lanes::pack(n.saturating_sub(1) as u64, n, |i| pos(i) as u64)
    }

    /// No offsets: how an identity position map is kept.
    pub fn none() -> Lanes {
        Lanes::Zero(Vec::new())
    }

    #[inline]
    pub fn len(&self) -> usize {
        lanes!(self, v => v.len())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset `i` (a raw `i64`'s bits).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        lanes!(self, v => Lane::wide(&v[i]) as u64)
    }

    /// Bytes an offset takes.
    #[inline]
    pub fn width(&self) -> usize {
        fn of<T>(_: &[T]) -> usize {
            size_of::<T>()
        }
        lanes!(self, v => of(v))
    }

    pub fn heap_bytes(&self) -> usize {
        lanes!(self, v => v.capacity() * self.width())
    }

    /// The greatest offset of unsigned lanes (0 when there is none).
    pub fn max(&self) -> u64 {
        lanes!(self, v => v.iter().max().map_or(0, |x| x.wide() as u64))
    }

    /// Where positions sorted by `pred` (true, then false) turn false.
    #[inline]
    pub fn partition_point(&self, pred: impl Fn(u32) -> bool) -> usize {
        lanes!(self, v => v.partition_point(|&p| pred(p.wide() as u32)))
    }

    /// Appends the positions in `range` to `out`.
    #[inline]
    pub fn extend_into(&self, range: Range<usize>, out: &mut Vec<u32>) {
        lanes!(self, v => out.extend(v[range].iter().map(|&p| p.wide() as u32)))
    }

    /// Writes each offset's `width()` low bytes, little-endian.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let width = self.width();
        let mut buf = [0u8; 4096];
        let mut at = 0;
        lanes!(self, v => for x in v {
            if at + width > buf.len() {
                w.write_all(&buf[..at])?;
                at = 0;
            }
            let bytes = (x.wide() as u64).to_le_bytes();
            buf[at..at + width].copy_from_slice(&bytes[..width]);
            at += width;
        });
        w.write_all(&buf[..at])
    }

    /// Reads `n` offsets of `width` bytes, as [`Lanes::write`] wrote them.
    pub fn read<R: Read>(r: &mut R, n: usize, width: u8) -> io::Result<Lanes> {
        Ok(match width {
            0 => Lanes::Zero(vec![(); n]),
            1 => Lanes::U8(read_le(r, n, |[b]| b)?),
            2 => Lanes::U16(read_le(r, n, u16::from_le_bytes)?),
            4 => Lanes::U32(read_le(r, n, u32::from_le_bytes)?),
            8 => Lanes::U64(read_le(r, n, u64::from_le_bytes)?),
            w => return Err(invalid(format!("offset width {w}"))),
        })
    }
}

/// Integers — values or dictionary codes — as a frame of reference:
/// value `i` is `base` plus offset `i`. Its byte form is the base
/// (`i64`), the offset width (`u8`), then the offsets ([`Lanes::write`]).
#[derive(Debug, Clone)]
pub struct Frame {
    /// What every offset counts from.
    pub base: i64,
    /// One offset a value.
    pub lanes: Lanes,
}

impl Frame {
    /// A frame at base 0: its values are the `lanes` themselves.
    pub fn raw(lanes: Lanes) -> Frame {
        Frame { base: 0, lanes }
    }

    /// Value `i`.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        at(self.base, &self.lanes.get(i))
    }

    /// Writes the base, the offset width and the offsets.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.base.to_le_bytes())?;
        w.write_all(&[self.lanes.width() as u8])?;
        self.lanes.write(w)
    }

    /// Reads `n` values as [`Frame::write`] wrote them. Refuses an offset
    /// width outside 0 / 1 / 2 / 4 / 8, offsets that end early, and a
    /// value past `i64`.
    pub fn read<R: Read>(r: &mut R, n: usize) -> io::Result<Frame> {
        let mut base = [0u8; 8];
        read_exact(r, &mut base)?;
        let base = i64::from_le_bytes(base);
        let width = read_byte(r)?;
        let lanes = Lanes::read(r, n, width)?;
        if base as i128 + lanes.max() as i128 > i64::MAX as i128 {
            return Err(invalid("a frame's values pass i64"));
        }
        Ok(Frame { base, lanes })
    }

    /// Appends every value to `out`, in order.
    pub fn extend_into(&self, out: &mut Vec<i64>) {
        lanes!(&self.lanes, v => out.extend(v.iter().map(|x| at(self.base, x))));
    }
}

/// Writes `vals` as a frame from their least; `dense` packs the offsets
/// at one byte at least. One pass finds the least and the greatest, one
/// writes each value at the width `max - min` needs; the bytes are those
/// of [`Frame::write`] over [`Lanes::pack`].
pub fn write_frame(out: &mut Vec<u8>, vals: &[i64], dense: bool) {
    let span = |(lo, hi): (i64, i64), &v: &i64| (lo.min(v), hi.max(v));
    let (min, max) = match vals.iter().fold((i64::MAX, i64::MIN), span) {
        _ if vals.is_empty() => (0, 0),
        ends => ends,
    };
    let width = width_of((max.wrapping_sub(min) as u64).max(dense as u64));
    out.extend_from_slice(&min.to_le_bytes());
    out.push(width as u8);
    out.reserve(vals.len() * width);
    let off = |v: &i64| v.wrapping_sub(min) as u64;
    match width {
        0 => {}
        1 => out.extend(vals.iter().map(|v| off(v) as u8)),
        2 => (vals.iter()).for_each(|v| out.extend_from_slice(&(off(v) as u16).to_le_bytes())),
        4 => (vals.iter()).for_each(|v| out.extend_from_slice(&(off(v) as u32).to_le_bytes())),
        _ => (vals.iter()).for_each(|v| out.extend_from_slice(&off(v).to_le_bytes())),
    }
}

const INT: u8 = 1;
const STR: u8 = 2;
const BOOL: u8 = 3;
const FLOAT: u8 = 4;
const MIXED: u8 = 5;
/// Set on a kind byte when a null bitmap follows it.
const NULLS: u8 = 0x80;

/// A value's column kind. A NULL takes no slot and counts as `Int`, the
/// kind an all-NULL column is written as. Inlined: it runs twice a value
/// in [`write_column`], which other crates instantiate.
#[inline]
fn kind_of(v: &Value) -> u8 {
    match v {
        Value::Int(_) | Value::Null => INT,
        Value::Str(_) => STR,
        Value::Bool(_) => BOOL,
        Value::Float(_) => FLOAT,
    }
}

/// How a [`Strings`] table tells two strings apart.
pub trait StrKey<'a>: Eq + Hash {
    /// The hasher of the table's keys.
    type Hasher: BuildHasher + Default;
    /// The key of `s`.
    fn of(s: &'a Arc<str>) -> Self;
}

/// Strings keyed by their text: equal strings share a code whatever
/// allocation holds them.
impl<'a> StrKey<'a> for &'a str {
    type Hasher = RandomState;
    fn of(s: &'a Arc<str>) -> &'a str {
        s
    }
}

/// The strings a run of columns has coded, in first-use order: a
/// string's code is its position. The codes depend on the order strings
/// are met in, never on the key's hash.
pub struct Strings<'a, K: StrKey<'a>> {
    codes: HashMap<K, u32, K::Hasher>,
    list: Vec<&'a str>,
}

impl<'a, K: StrKey<'a>> Default for Strings<'a, K> {
    fn default() -> Self {
        Strings {
            codes: HashMap::default(),
            list: Vec::new(),
        }
    }
}

impl<'a, K: StrKey<'a>> Strings<'a, K> {
    /// The code of `s`, coding it if it is new.
    pub fn code(&mut self, s: &'a Arc<str>) -> i64 {
        let next = self.list.len() as u32;
        let code = *self.codes.entry(K::of(s)).or_insert(next);
        if code == next {
            self.list.push(s);
        }
        code as i64
    }
}

/// Writes the values of `column` as one value column (see the module
/// docs), coding its strings in `strings`; `dense` writes it `Mixed`, so
/// each value costs a byte at least. Fails only on a string over
/// [`codec::MAX_LEN`](crate::codec::MAX_LEN).
pub fn write_column<'a, K: StrKey<'a>>(
    out: &mut Vec<u8>,
    column: impl Iterator<Item = &'a Value> + Clone,
    strings: &mut Strings<'a, K>,
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
    write_frame(out, &bits, false);
    Ok(())
}

/// Reads a value column of `len` values, handing each to `sink` in order;
/// `strings` holds the strings the columns before it sent, and gains the
/// ones it sends. Malformed input — a frame width outside
/// {0, 1, 2, 4, 8}, a string code past the strings sent, a frame, bitmap
/// or string shorter than it claims, an unknown column kind — is
/// `InvalidData`, or `UnexpectedEof` where the input ends first.
pub fn read_column(
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
        return Err(invalid(format!("unknown column kind {kind:#04x}")));
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
            return Err(invalid(format!(
                "{fresh} strings in a {}-byte rest",
                r.len()
            )));
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
                _ => Err(invalid(format!("bool value {bits}"))),
            },
            &mut put,
        )?,
        _ => each(
            &frame,
            |code| match usize::try_from(code).ok().and_then(|c| strings.get(c)) {
                Some(s) => Ok(Value::Str(s.clone())),
                None => Err(invalid(format!("string code {code} past the strings sent"))),
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
    let text =
        std::str::from_utf8(take(r, len)?).map_err(|_| invalid("invalid UTF-8 in string"))?;
    Ok(text.into())
}

/// The next `n` bytes of `r`; `UnexpectedEof` when fewer are left.
#[inline]
pub fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
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

    /// The bytes offsets are kept in — in a snapshot's sealed chunks and in
    /// a wire page's frames: each offset's `width()` low bytes,
    /// little-endian, nothing else.
    #[test]
    fn lanes_and_frames_write_their_golden_bytes() {
        #[rustfmt::skip]
        let golden: [(u64, &[u8]); 5] = [
            (0, &[]),
            (0xAB, &[0x00, 0x55, 0xAB]),
            (0xABCD, &[0x00, 0x00, 0xE6, 0x55, 0xCD, 0xAB]),
            (0xABCD_EF01, &[
                0x00, 0x00, 0x00, 0x00, 0x80, 0xF7, 0xE6, 0x55, 0x01, 0xEF, 0xCD, 0xAB,
            ]),
            (0x0123_4567_89AB_CDEF, &[
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0xF7, 0xE6, 0xD5, 0xC4, 0xB3, 0xA2, 0x91, 0x00,
                0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
            ]),
        ];
        for (max, bytes) in golden {
            let lanes = Lanes::pack(max, 3, |i| [0, max / 2, max][i]);
            let mut out = Vec::new();
            lanes.write(&mut out).unwrap();
            assert_eq!(out, bytes, "max {max:#x}");
            let back = Lanes::read(&mut &out[..], 3, lanes.width() as u8).unwrap();
            assert_eq!(
                (0..3).map(|i| back.get(i)).collect::<Vec<_>>(),
                [0, max / 2, max]
            );
        }
        // A frame: its base, its offset width, its offsets.
        let mut out = Vec::new();
        let lanes = Lanes::pack(0xAB, 3, |i| [0, 0x55, 0xAB][i]);
        Frame { base: -2, lanes }.write(&mut out).unwrap();
        assert_eq!(
            out,
            [0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0x00, 0x55, 0xAB]
        );
        let back = Frame::read(&mut &out[..], 3).unwrap();
        assert_eq!(
            (0..3).map(|i| back.get(i)).collect::<Vec<_>>(),
            [-2, 83, 169]
        );
        // Positions take the width that holds the last one.
        let mut out = Vec::new();
        Lanes::positions(300, |i| 299 - i as u32)
            .write(&mut out)
            .unwrap();
        assert_eq!((out.len(), &out[..4]), (600, &[0x2B, 0x01, 0x2A, 0x01][..]));
    }
}
