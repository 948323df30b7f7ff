//! Narrow integer vectors: the offsets of a sealed chunk's
//! frame-of-reference columns (see [`crate::columnar`]) and its position
//! arrays — the projection order, the row → projection map and each index
//! (see [`crate::table`]) — at the narrowest of 0, 1, 2, 4 or 8 bytes that
//! holds their greatest value, and the fixed-width little-endian reads and
//! writes a snapshot keeps them with.
//!
//! Code that reads them is written once, generic over the offset type
//! ([`Lane`]), and instantiated per width through [`lanes!`]: a kernel
//! compares its literal, translated once, against the narrow values
//! themselves, with no decode step.

use crate::snapshot::MAX_RESERVE;
use std::fmt::Debug;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::ops::Range;

pub(crate) fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes fixed-width little-endian values through a stack buffer.
pub(crate) fn write_le<W: Write, const N: usize>(
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
pub(crate) fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => invalid("a chunk's columns end early"),
        _ => e,
    })
}

pub(crate) fn read_byte<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8];
    read_exact(r, &mut b)?;
    Ok(b[0])
}

/// Reads `n` fixed-width little-endian values. A count past the input
/// fails when the input ends, having reserved at most [`MAX_RESERVE`]
/// values.
pub(crate) fn read_le<R: Read, T, const N: usize>(
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
pub(crate) trait Lane: Copy + Ord + Default + Debug {
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
pub(crate) fn at<L: Lane>(base: i64, x: &L) -> i64 {
    base.wrapping_add(x.wide() as i64)
}

/// Offsets at one width. A sealed column or position array takes the
/// narrowest that holds its greatest offset; an open tail's columns are
/// `I64` (integers) and `U32` (codes).
#[derive(Debug, Clone)]
pub(crate) enum Lanes {
    Zero(Vec<()>),
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
    I64(Vec<i64>),
}

/// Evaluates `$e` with `$v` bound to the vector of `$lanes`: the code is
/// written once and instantiated per offset type.
macro_rules! lanes {
    ($lanes:expr, $v:ident => $e:expr) => {
        match $lanes {
            $crate::lanes::Lanes::Zero($v) => $e,
            $crate::lanes::Lanes::U8($v) => $e,
            $crate::lanes::Lanes::U16($v) => $e,
            $crate::lanes::Lanes::U32($v) => $e,
            $crate::lanes::Lanes::U64($v) => $e,
            $crate::lanes::Lanes::I64($v) => $e,
        }
    };
}
pub(crate) use lanes;

/// Bytes an offset of at most `max` takes: the narrowest of 0, 1, 2, 4, 8.
pub(crate) fn width_of(max: u64) -> usize {
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
    pub(crate) fn pack(max: u64, n: usize, off: impl Fn(usize) -> u64) -> Lanes {
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
    pub(crate) fn positions(n: usize, pos: impl Fn(usize) -> u32) -> Lanes {
        Lanes::pack(n.saturating_sub(1) as u64, n, |i| pos(i) as u64)
    }

    /// No offsets: how an identity position map is kept.
    pub(crate) fn none() -> Lanes {
        Lanes::Zero(Vec::new())
    }

    pub(crate) fn len(&self) -> usize {
        lanes!(self, v => v.len())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offset `i` (a raw `i64`'s bits).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        lanes!(self, v => Lane::wide(&v[i]) as u64)
    }

    /// Bytes an offset takes.
    pub(crate) fn width(&self) -> usize {
        fn of<T>(_: &[T]) -> usize {
            size_of::<T>()
        }
        lanes!(self, v => of(v))
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        lanes!(self, v => v.capacity() * self.width())
    }

    /// The greatest offset of unsigned lanes (0 when there is none).
    pub(crate) fn max(&self) -> u64 {
        lanes!(self, v => v.iter().max().map_or(0, |x| x.wide() as u64))
    }

    /// Where positions sorted by `pred` (true, then false) turn false.
    pub(crate) fn partition_point(&self, pred: impl Fn(u32) -> bool) -> usize {
        lanes!(self, v => v.partition_point(|&p| pred(p.wide() as u32)))
    }

    /// Appends the positions in `range` to `out`.
    pub(crate) fn extend_into(&self, range: Range<usize>, out: &mut Vec<u32>) {
        lanes!(self, v => out.extend(v[range].iter().map(|&p| p.wide() as u32)))
    }

    /// Writes each offset's `width()` low bytes, little-endian.
    pub(crate) fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
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
    pub(crate) fn read<R: Read>(r: &mut R, n: usize, width: u8) -> io::Result<Lanes> {
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
