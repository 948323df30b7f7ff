//! Log record types, and the body of a version-1 segment's record.
//!
//! Today's segments hold column frames ([`crate::frame`]); the records of
//! a version-1 segment — one frame per record, `[u32 length][u32 CRC]
//! [u64 sequence number][tag u8][body]` — are still read, so a log written
//! before the column frames replays.

use aiql_model::codec;
use aiql_model::{AgentId, Entity, Event};
use std::io::{self, Read};

/// One logical append to the durable store.
///
/// Events and entities are logged *after* server-side timestamp correction
/// (the log is the source of truth for what the store accepted, not for
/// raw agent clocks). Clock samples and synchronizer state are logged so a
/// recovered ingestion pipeline resumes with the same per-agent offset
/// estimates it crashed with.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A system event, timestamps already corrected.
    Event(Event),
    /// A system entity.
    Entity(Entity),
    /// One raw clock sample reported by an agent.
    ClockSample {
        agent: AgentId,
        agent_time: i64,
        server_time: i64,
    },
    /// A folded per-agent offset estimate (`sum of server-agent diffs`,
    /// sample count) — written at checkpoint so truncating the log does not
    /// forget pre-checkpoint clock samples.
    SyncState {
        agent: AgentId,
        sum_diff: i64,
        count: i64,
    },
}

const TAG_EVENT: u8 = 1;
const TAG_ENTITY: u8 = 2;
const TAG_CLOCK: u8 = 3;
const TAG_SYNC: u8 = 4;

impl WalRecord {
    /// Decodes a version-1 record body (tag + payload).
    pub(crate) fn decode_v1<R: Read>(r: &mut R) -> io::Result<WalRecord> {
        Ok(match codec::read_u8(r)? {
            TAG_EVENT => WalRecord::Event(codec::read_event(r)?),
            TAG_ENTITY => WalRecord::Entity(codec::read_entity(r)?),
            TAG_CLOCK => WalRecord::ClockSample {
                agent: AgentId(codec::read_u32(r)?),
                agent_time: codec::read_i64(r)?,
                server_time: codec::read_i64(r)?,
            },
            TAG_SYNC => WalRecord::SyncState {
                agent: AgentId(codec::read_u32(r)?),
                sum_diff: codec::read_i64(r)?,
                count: codec::read_i64(r)?,
            },
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown WAL record tag {tag}"),
                ))
            }
        })
    }
}

/// Encodes a version-1 record body (tag + payload): how the log wrote
/// records before the column frames, kept to write version-1 segments in
/// tests.
#[cfg(test)]
pub(crate) fn encode_v1(w: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Event(ev) => {
            w.push(TAG_EVENT);
            codec::write_event(w, ev).unwrap();
        }
        WalRecord::Entity(e) => {
            w.push(TAG_ENTITY);
            codec::write_entity(w, e).unwrap();
        }
        WalRecord::ClockSample {
            agent,
            agent_time,
            server_time,
        } => {
            w.push(TAG_CLOCK);
            w.extend_from_slice(&agent.0.to_le_bytes());
            w.extend_from_slice(&agent_time.to_le_bytes());
            w.extend_from_slice(&server_time.to_le_bytes());
        }
        WalRecord::SyncState {
            agent,
            sum_diff,
            count,
        } => {
            w.push(TAG_SYNC);
            w.extend_from_slice(&agent.0.to_le_bytes());
            w.extend_from_slice(&sum_diff.to_le_bytes());
            w.extend_from_slice(&count.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{EntityKind, OpType, Timestamp};
    use std::io::Cursor;

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::Event(Event::new(
                1.into(),
                AgentId(4),
                2.into(),
                OpType::Write,
                3.into(),
                EntityKind::File,
                Timestamp(1_000),
            )),
            WalRecord::Entity(Entity::process(9.into(), AgentId(4), "bash", 42)),
            WalRecord::ClockSample {
                agent: AgentId(7),
                agent_time: -5,
                server_time: 1_000,
            },
            WalRecord::SyncState {
                agent: AgentId(7),
                sum_diff: 3_000,
                count: 3,
            },
        ];
        for rec in records {
            let mut buf = Vec::new();
            encode_v1(&mut buf, &rec);
            assert_eq!(WalRecord::decode_v1(&mut Cursor::new(&buf)).unwrap(), rec);
        }
    }

    #[test]
    fn unknown_tag_is_invalid_data() {
        let err = WalRecord::decode_v1(&mut Cursor::new(&[0u8])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
