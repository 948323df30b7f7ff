//! Length-prefixed binary codecs for the durable store.
//!
//! The snapshot files of `aiql-storage` persist model objects in a
//! compact little-endian binary form, and so did the write-ahead log's
//! version-1 segments, one record per frame, which `aiql-wal` still reads.
//! The log no longer writes with this codec: today it keeps a flush as
//! one frame of columns ([`crate::columns`]), and borrows only the string,
//! value and code helpers here. Everything here is deliberately boring:
//! fixed-width integers, `u32`-length-prefixed byte strings, and one tag
//! byte per variant, so a record can be decoded without any schema
//! negotiation and a truncated buffer fails cleanly with
//! [`std::io::ErrorKind::UnexpectedEof`].
//!
//! Malformed input (an unknown tag, invalid UTF-8, an out-of-range code)
//! decodes to [`std::io::ErrorKind::InvalidData`] — corruption is an error,
//! never a panic.

use crate::entity::{Entity, EntityKind};
use crate::event::{Event, OpType, ALL_OPS};
use crate::ids::{AgentId, EntityId, EventId};
use crate::time::Timestamp;
use crate::value::Value;
use std::io::{self, Read, Write};

/// Hard cap on any length prefix (strings, attribute maps), guarding decode
/// against allocating from a corrupt length field.
pub const MAX_LEN: u32 = 1 << 28;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a `u8`.
pub fn write_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

/// Reads a `u8`.
pub fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

/// Writes a `u32` (little-endian).
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u32` (little-endian).
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Writes a `u64` (little-endian).
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a `u64` (little-endian).
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes an `i64` (little-endian).
pub fn write_i64<W: Write>(w: &mut W, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads an `i64` (little-endian).
pub fn read_i64<R: Read>(r: &mut R) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

/// Writes a string as `u32` length + UTF-8 bytes. Enforces the same
/// [`MAX_LEN`] cap as [`read_str`] — a record the reader would reject must
/// never be written (and acknowledged) in the first place.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u32::try_from(s.len())
        .ok()
        .filter(|len| *len <= MAX_LEN)
        .ok_or_else(|| bad(format!("string length {} exceeds cap", s.len())))?;
    write_u32(w, len)?;
    w.write_all(s.as_bytes())
}

/// Reads a string's length prefix, refusing one past the cap.
pub fn read_len<R: Read>(r: &mut R) -> io::Result<usize> {
    match read_u32(r)? {
        len if len > MAX_LEN => Err(bad(format!("string length {len} exceeds cap"))),
        len => Ok(len as usize),
    }
}

/// Reads a length-prefixed UTF-8 string.
pub fn read_str<R: Read>(r: &mut R) -> io::Result<String> {
    let mut buf = vec![0u8; read_len(r)?];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid UTF-8 in string"))
}

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_STR: u8 = 4;

/// Writes a [`Value`] as one tag byte plus its payload.
pub fn write_value<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => write_u8(w, VAL_NULL),
        Value::Bool(b) => {
            write_u8(w, VAL_BOOL)?;
            write_u8(w, *b as u8)
        }
        Value::Int(i) => {
            write_u8(w, VAL_INT)?;
            write_i64(w, *i)
        }
        Value::Float(x) => {
            write_u8(w, VAL_FLOAT)?;
            write_u64(w, x.to_bits())
        }
        Value::Str(s) => {
            write_u8(w, VAL_STR)?;
            write_str(w, s)
        }
    }
}

/// Reads a [`Value`].
pub fn read_value<R: Read>(r: &mut R) -> io::Result<Value> {
    Ok(match read_u8(r)? {
        VAL_NULL => Value::Null,
        VAL_BOOL => Value::Bool(read_u8(r)? != 0),
        VAL_INT => Value::Int(read_i64(r)?),
        VAL_FLOAT => Value::Float(f64::from_bits(read_u64(r)?)),
        VAL_STR => Value::from(read_str(r)?),
        tag => return Err(bad(format!("unknown value tag {tag}"))),
    })
}

/// The stable integer code of an operation type (its position in
/// [`ALL_OPS`]).
pub fn op_code(op: OpType) -> u8 {
    ALL_OPS
        .iter()
        .position(|o| *o == op)
        .expect("op in ALL_OPS") as u8
}

/// The operation type behind a code.
pub fn op_from_code(code: u8) -> Option<OpType> {
    ALL_OPS.get(code as usize).copied()
}

/// The stable integer code of an entity kind.
pub fn kind_code(kind: EntityKind) -> u8 {
    match kind {
        EntityKind::File => 0,
        EntityKind::Process => 1,
        EntityKind::NetConn => 2,
    }
}

/// The entity kind behind a code.
pub fn kind_from_code(code: u8) -> Option<EntityKind> {
    Some(match code {
        0 => EntityKind::File,
        1 => EntityKind::Process,
        2 => EntityKind::NetConn,
        _ => return None,
    })
}

/// Writes an [`Event`] (fixed-width fields, no length prefix needed).
pub fn write_event<W: Write>(w: &mut W, ev: &Event) -> io::Result<()> {
    write_u64(w, ev.id.0)?;
    write_u32(w, ev.agent.0)?;
    write_u64(w, ev.subject.0)?;
    write_u8(w, op_code(ev.op))?;
    write_u64(w, ev.object.0)?;
    write_u8(w, kind_code(ev.object_kind))?;
    write_i64(w, ev.start.0)?;
    write_i64(w, ev.end.0)?;
    write_u64(w, ev.seq)?;
    write_i64(w, ev.amount)?;
    write_i64(w, ev.failure as i64)
}

/// Reads an [`Event`].
pub fn read_event<R: Read>(r: &mut R) -> io::Result<Event> {
    let id = EventId(read_u64(r)?);
    let agent = AgentId(read_u32(r)?);
    let subject = EntityId(read_u64(r)?);
    let op = op_from_code(read_u8(r)?).ok_or_else(|| bad("unknown op code"))?;
    let object = EntityId(read_u64(r)?);
    let object_kind = kind_from_code(read_u8(r)?).ok_or_else(|| bad("unknown entity kind code"))?;
    let start = Timestamp(read_i64(r)?);
    let end = Timestamp(read_i64(r)?);
    let seq = read_u64(r)?;
    let amount = read_i64(r)?;
    let failure = read_i64(r)? as i32;
    Ok(Event {
        id,
        agent,
        subject,
        op,
        object,
        object_kind,
        start,
        end,
        seq,
        amount,
        failure,
    })
}

/// Writes an [`Entity`] (ids, kind, then the attribute map).
pub fn write_entity<W: Write>(w: &mut W, e: &Entity) -> io::Result<()> {
    write_u64(w, e.id.0)?;
    write_u32(w, e.agent.0)?;
    write_u8(w, kind_code(e.kind))?;
    let n = u32::try_from(e.attrs.len())
        .ok()
        .filter(|n| *n <= MAX_LEN)
        .ok_or_else(|| bad("too many attributes"))?;
    write_u32(w, n)?;
    for (name, value) in &e.attrs {
        write_str(w, name)?;
        write_value(w, value)?;
    }
    Ok(())
}

/// Reads an [`Entity`].
pub fn read_entity<R: Read>(r: &mut R) -> io::Result<Entity> {
    let id = EntityId(read_u64(r)?);
    let agent = AgentId(read_u32(r)?);
    let kind = kind_from_code(read_u8(r)?).ok_or_else(|| bad("unknown entity kind code"))?;
    let n = read_u32(r)?;
    if n > MAX_LEN {
        return Err(bad("attribute count exceeds cap"));
    }
    let mut e = Entity::new(id, agent, kind);
    for _ in 0..n {
        let name = read_str(r)?;
        let value = read_value(r)?;
        e.attrs.insert(name, value);
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_value(v: Value) {
        let mut buf = Vec::new();
        write_value(&mut buf, &v).unwrap();
        let got = read_value(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn values_round_trip() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Int(i64::MIN));
        round_trip_value(Value::Float(-0.0));
        round_trip_value(Value::Float(f64::NAN)); // bit-exact via to_bits
        round_trip_value(Value::str("π/паth/c:\\x"));
        round_trip_value(Value::str(""));
    }

    #[test]
    fn events_round_trip() {
        let ev = Event::new(
            7.into(),
            AgentId(3),
            10.into(),
            OpType::Connect,
            11.into(),
            EntityKind::NetConn,
            Timestamp(-5),
        )
        .with_amount(4096)
        .with_seq(u64::MAX)
        .with_end(Timestamp(9));
        let mut failed = ev.clone();
        failed.failure = -2;
        for e in [ev, failed] {
            let mut buf = Vec::new();
            write_event(&mut buf, &e).unwrap();
            assert_eq!(read_event(&mut Cursor::new(&buf)).unwrap(), e);
        }
    }

    #[test]
    fn entities_round_trip() {
        let ents = [
            Entity::process(1.into(), AgentId(2), "cmd.exe", 42)
                .with_attr("signed", true)
                .with_attr("score", 0.5),
            Entity::file(2.into(), AgentId(2), "/etc/passwd"),
            Entity::netconn(3.into(), AgentId(9), "10.0.0.1", 1000, "10.0.0.2", 443),
            Entity::new(4.into(), AgentId(0), EntityKind::File),
        ];
        for e in ents {
            let mut buf = Vec::new();
            write_entity(&mut buf, &e).unwrap();
            assert_eq!(read_entity(&mut Cursor::new(&buf)).unwrap(), e);
        }
    }

    #[test]
    fn op_and_kind_codes_round_trip() {
        for op in ALL_OPS {
            assert_eq!(op_from_code(op_code(op)), Some(op));
        }
        assert_eq!(op_from_code(200), None);
        for k in [EntityKind::File, EntityKind::Process, EntityKind::NetConn] {
            assert_eq!(kind_from_code(kind_code(k)), Some(k));
        }
        assert_eq!(kind_from_code(9), None);
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        // Unknown tag.
        assert!(read_value(&mut Cursor::new(&[99u8])).is_err());
        // Truncated payload.
        let mut buf = Vec::new();
        write_value(&mut buf, &Value::str("hello")).unwrap();
        assert!(read_value(&mut Cursor::new(&buf[..buf.len() - 2])).is_err());
        // Absurd length prefix.
        let mut buf = vec![VAL_STR];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_value(&mut Cursor::new(&buf)).is_err());
        // Invalid UTF-8.
        let mut buf = vec![VAL_STR];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(read_value(&mut Cursor::new(&buf)).is_err());
        // Bad op code inside an event.
        let ev = Event::new(
            1.into(),
            AgentId(0),
            1.into(),
            OpType::Read,
            2.into(),
            EntityKind::File,
            Timestamp(0),
        );
        let mut buf = Vec::new();
        write_event(&mut buf, &ev).unwrap();
        buf[20] = 200; // the op tag follows id(8) + agent(4) + subject(8)
        assert!(read_event(&mut Cursor::new(&buf)).is_err());
    }
}
