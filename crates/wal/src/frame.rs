//! The column frame: the rows of one flush as columns, numbered from the
//! frame's first sequence number.
//!
//! ```text
//! frame    = len u32 · crc u32 · payload          (CRC-32 of the payload)
//! payload  = first seq u64 · clocks u32 · entities u32 · events u32
//!            · clock section · entity section · event section
//! clock    = frame(kind) · frame(agent) · frame(a) · frame(b)
//!              kind 0, a sample: a = agent_time, b = server_time
//!              kind 1, a synchronizer state: a = sum_diff, b = count
//! entity   = frame(id) · frame(agent) · frame(kind)
//!            · names u32 · that many strings (u32 length + UTF-8)
//!            · sets u32 · per set: u32 count · that many u32 name codes
//!            · frame(set code) · one value column per name
//! event    = frame(id) · frame(agent) · frame(subject) · frame(op)
//!            · frame(object) · frame(object kind) · frame(start)
//!            · frame(end − start) · frame(seq) · frame(amount) · frame(failure)
//! frame(n) = base i64 · width u8 · n offsets of `width` bytes
//! ```
//!
//! A section with no rows is absent. Row `i` of a frame — clock rows,
//! then entities, then events, each section in the order its rows were
//! appended — has sequence number `first + i`. Every integer column is a
//! frame of reference ([`aiql_model::columns`]): its least value, then
//! each value's offset from it at the narrowest width that holds the
//! greatest. Identifiers and sequence numbers travel as the `i64` with
//! their bits; `end − start` wraps, so any pair of times round-trips.
//!
//! An entity's attributes are value columns in the wire page's layout.
//! Each entity names a *set* of attribute names; value column `j` holds
//! the value of name `j` for every entity whose set names it, in entity
//! order, so an explicit `NULL` and an absent attribute stay apart. The
//! columns share one string table, keyed by text in first-use order, so a
//! frame's bytes are a function of its rows alone.

use crate::record::WalRecord;
use aiql_model::codec::{self, read_str, read_u32, read_u64, write_str, MAX_LEN};
use aiql_model::columns::{read_column, write_column, write_frame, Frame, Strings};
use aiql_model::{AgentId, Entity, EntityId, EntityKind, Event, EventId, Timestamp, Value};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Hard cap on one frame's payload, guarding recovery against a corrupt
/// length field.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes of framing per frame (length + CRC).
pub(crate) const FRAME_HEADER: usize = 8;

/// Bytes a frame takes beyond its rows' [`Row::bytes`]: the header, the
/// first sequence number, the counts and every column's base and width.
pub(crate) const FRAME_FIXED: usize = 256;

/// Most rows one frame holds. The log cuts a frame at ≈ 1 MiB of row
/// bytes, and no row is bounded below 32, so no frame it writes comes
/// near; a count past it is corruption, refused before anything is
/// allocated for it.
const MAX_FRAME_ROWS: u64 = 1 << 16;

/// Bytes a clock row or an event may take in a frame: eight per column.
const CLOCK_BYTES: usize = 4 * 8;
const EVENT_BYTES: usize = 11 * 8;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One row of a frame, borrowed from the caller.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Row<'a> {
    Clock(Clock),
    Entity(&'a Entity),
    Event(&'a Event),
}

/// A clock row: a raw sample (`sync` false: `a` is the agent's time, `b`
/// the server's) or a folded synchronizer state (`a` the sum of
/// differences, `b` the sample count).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    sync: bool,
    agent: AgentId,
    a: i64,
    b: i64,
}

impl<'a> From<&'a WalRecord> for Row<'a> {
    fn from(rec: &'a WalRecord) -> Row<'a> {
        match *rec {
            WalRecord::Event(ref ev) => Row::Event(ev),
            WalRecord::Entity(ref e) => Row::Entity(e),
            WalRecord::ClockSample {
                agent,
                agent_time,
                server_time,
            } => Row::Clock(Clock {
                sync: false,
                agent,
                a: agent_time,
                b: server_time,
            }),
            WalRecord::SyncState {
                agent,
                sum_diff,
                count,
            } => Row::Clock(Clock {
                sync: true,
                agent,
                a: sum_diff,
                b: count,
            }),
        }
    }
}

impl Row<'_> {
    /// The row's section: clock rows, then entities, then events.
    fn section(&self) -> u8 {
        match self {
            Row::Clock(_) => 0,
            Row::Entity(_) => 1,
            Row::Event(_) => 2,
        }
    }

    /// The most bytes the row may add to a frame — its share of the
    /// pending bound — or the reason the log refuses it: a string or
    /// attribute count over the codec's caps, or a row no frame could
    /// hold.
    pub fn bytes(&self) -> io::Result<usize> {
        let e = match self {
            Row::Clock(_) => return Ok(CLOCK_BYTES),
            Row::Event(_) => return Ok(EVENT_BYTES),
            Row::Entity(e) => e,
        };
        if e.attrs.len() > MAX_LEN as usize {
            return Err(invalid("too many attributes"));
        }
        let mut bytes = 40usize;
        for (name, value) in &e.attrs {
            let text = match value {
                Value::Str(s) => s.len(),
                _ => 0,
            };
            if name.len().max(text) > MAX_LEN as usize {
                return Err(invalid(format!(
                    "string length {} exceeds cap",
                    name.len().max(text)
                )));
            }
            // Name table, set entry, column header, bitmap, value.
            bytes = bytes.saturating_add(40 + name.len() + text);
        }
        if bytes > MAX_PAYLOAD as usize - FRAME_FIXED {
            return Err(invalid(format!(
                "entity of {bytes} bytes exceeds the {MAX_PAYLOAD}-byte frame cap"
            )));
        }
        Ok(bytes)
    }
}

/// One column frame: its rows in the lanes the frame keeps them in,
/// numbered from [`ColumnFrame::first`] — clock rows, then entities, then
/// events. The log's open frame is one: an append pushes its row straight
/// into the lanes, and `sync` encodes them. A segment scan decodes each
/// frame into one it hands on. Either way the lanes' room is reused from
/// frame to frame.
#[derive(Debug, Default)]
pub struct ColumnFrame {
    first: u64,
    /// Clock rows: kind (0 a sample, 1 a synchronizer state), agent, a, b.
    clocks: [Vec<i64>; 4],
    /// The entity rows.
    pub entities: EntityLanes,
    /// The event rows, a lane per field in the frame's order: id, agent,
    /// subject, op ([`codec::op_code`]), object, object kind
    /// ([`codec::kind_code`]), start, `end − start` (wrapping), seq,
    /// amount, failure. Decoding checked that each agent fits a `u32`,
    /// each op and kind is a known code, and each failure fits an `i32`.
    pub events: [Vec<i64>; 11],
    /// The sum of the pushed rows' [`Row::bytes`]: an open frame's share
    /// of the log's pending bound.
    bytes: usize,
}

impl ColumnFrame {
    /// The first row's sequence number.
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Number of clock rows.
    pub fn clocks(&self) -> usize {
        self.clocks[0].len()
    }

    /// Number of events.
    pub fn event_rows(&self) -> usize {
        self.events[0].len()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.clocks() + self.entities.len() + self.event_rows()
    }

    /// The last row's sequence number (`first − 1` for a frame with no
    /// row).
    pub fn last(&self) -> u64 {
        self.first + self.rows() as u64 - 1
    }

    /// The sum of the pushed rows' [`Row::bytes`].
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Empties the frame, its next row numbered `first`. The lanes keep
    /// their room.
    pub fn restart(&mut self, first: u64) {
        self.clocks.iter_mut().for_each(Vec::clear);
        self.entities.clear();
        self.events.iter_mut().for_each(Vec::clear);
        self.first = first;
        self.bytes = 0;
    }

    /// Pushes an entity, unchecked: for a frame that is applied and never
    /// encoded (a flush without a log). The log's appends check each row
    /// against the codec's caps first.
    pub fn push_entity(&mut self, e: &Entity) {
        self.push(Row::Entity(e), 0);
    }

    /// Pushes an event, as [`ColumnFrame::push_entity`] pushes an entity.
    pub fn push_event(&mut self, ev: &Event) {
        self.push(Row::Event(ev), EVENT_BYTES);
    }

    /// Whether `row`, of `bytes` bytes, may join the frame: its section is
    /// not before one that already holds rows (a frame numbers its rows
    /// section by section), and the frame stays under the payload cap.
    pub(crate) fn takes(&self, row: &Row<'_>, bytes: usize) -> bool {
        let last = match () {
            _ if self.event_rows() > 0 => 2,
            _ if !self.entities.is_empty() => 1,
            _ => 0,
        };
        row.section() >= last && self.bytes + bytes <= MAX_PAYLOAD as usize - FRAME_FIXED
    }

    /// Pushes `row`, of `bytes` bytes, into its section's lanes.
    pub(crate) fn push(&mut self, row: Row<'_>, bytes: usize) {
        match row {
            Row::Clock(c) => push_lanes(
                &mut self.clocks,
                [c.sync as i64, c.agent.0 as i64, c.a, c.b],
            ),
            Row::Entity(e) => self.entities.push(e),
            Row::Event(ev) => push_lanes(
                &mut self.events,
                [
                    ev.id.0 as i64,
                    ev.agent.0 as i64,
                    ev.subject.0 as i64,
                    codec::op_code(ev.op) as i64,
                    ev.object.0 as i64,
                    codec::kind_code(ev.object_kind) as i64,
                    ev.start.0,
                    ev.end.0.wrapping_sub(ev.start.0),
                    ev.seq as i64,
                    ev.amount,
                    ev.failure as i64,
                ],
            ),
        }
        self.bytes += bytes;
    }

    /// Appends the frame to `out` — header, payload and the payload's
    /// CRC — and returns its bytes.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) -> io::Result<usize> {
        debug_assert!(self.rows() as u64 <= MAX_FRAME_ROWS);
        let start = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER]); // patched below
        out.extend_from_slice(&self.first.to_le_bytes());
        for n in [self.clocks(), self.entities.len(), self.event_rows()] {
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        // A section with no rows is absent.
        for lane in self.clocks.iter().filter(|lane| !lane.is_empty()) {
            write_frame(out, lane, false);
        }
        if !self.entities.is_empty() {
            self.entities.encode(out)?;
        }
        for lane in self.events.iter().filter(|lane| !lane.is_empty()) {
            write_frame(out, lane, false);
        }
        let payload = &out[start + FRAME_HEADER..];
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|len| *len <= MAX_PAYLOAD)
            .ok_or_else(|| invalid("frame payload exceeds the cap"))?;
        let crc = crate::crc32(payload);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        Ok(out.len() - start)
    }

    /// Clock row `i`: a [`WalRecord::ClockSample`] or a
    /// [`WalRecord::SyncState`].
    pub fn clock(&self, i: usize) -> WalRecord {
        let [kind, agent, a, b] = &self.clocks;
        let agent = AgentId(agent[i] as u32);
        match kind[i] {
            0 => WalRecord::ClockSample {
                agent,
                agent_time: a[i],
                server_time: b[i],
            },
            _ => WalRecord::SyncState {
                agent,
                sum_diff: a[i],
                count: b[i],
            },
        }
    }

    /// Appends each row whose sequence number `keep` takes — asked of
    /// every row, in sequence order — as a record with its sequence
    /// number, to `out`.
    pub fn records(&self, mut keep: impl FnMut(u64) -> bool, out: &mut Vec<(u64, WalRecord)>) {
        let mut seqs = self.first..;
        let mut push = |rec: &dyn Fn() -> WalRecord| {
            let seq = seqs.next().expect("unbounded");
            if keep(seq) {
                out.push((seq, rec()));
            }
        };
        (0..self.clocks()).for_each(|i| push(&|| self.clock(i)));
        let ents = &self.entities;
        ents.each(|i, attrs| push(&|| WalRecord::Entity(ents.entity(i, attrs))));
        (0..self.event_rows()).for_each(|i| push(&|| WalRecord::Event(self.event(i))));
    }

    /// Event `i`.
    fn event(&self, i: usize) -> Event {
        let [id, agent, subject, op, object, kind, start, span, seq, amount, failure] =
            &self.events;
        Event {
            id: EventId(id[i] as u64),
            agent: AgentId(agent[i] as u32),
            subject: EntityId(subject[i] as u64),
            op: codec::op_from_code(op[i] as u8).expect("a checked op code"),
            object: EntityId(object[i] as u64),
            object_kind: entity_kind(kind[i]).expect("a checked kind code"),
            start: Timestamp(start[i]),
            end: Timestamp(start[i].wrapping_add(span[i])),
            seq: seq[i] as u64,
            amount: amount[i],
            failure: failure[i] as i32,
        }
    }

    /// Decodes one frame's payload into `self`. Malformed input is an
    /// error, never a panic: counts past the cap or the bytes, an unknown
    /// code, a value out of its field's range, a column that ends early,
    /// or bytes left over.
    pub(crate) fn decode(&mut self, mut r: &[u8]) -> io::Result<()> {
        let r = &mut r;
        let first = read_u64(r)?;
        self.restart(first);
        let counts = [read_u32(r)?, read_u32(r)?, read_u32(r)?].map(|n| n as usize);
        let rows = counts.iter().sum::<usize>() as u64;
        if rows == 0 || rows > MAX_FRAME_ROWS || first == 0 || first.checked_add(rows).is_none() {
            return Err(invalid(format!("{rows} rows from sequence {first}")));
        }
        let [clocks, entities, events] = counts;
        if clocks > 0 {
            for lane in &mut self.clocks {
                read_lane(r, clocks, lane)?;
            }
            check(&self.clocks[0], "clock row kind", |k| k == 0 || k == 1)?;
            check(&self.clocks[1], "agent", |v| u32::try_from(v).is_ok())?;
        }
        if entities > 0 {
            self.entities.decode(r, entities)?;
        }
        if events > 0 {
            for lane in &mut self.events {
                read_lane(r, events, lane)?;
            }
            let [_, agent, _, op, _, kind, _, _, _, _, failure] = &self.events;
            check(agent, "agent", |v| u32::try_from(v).is_ok())?;
            check(op, "op code", |v| {
                u8::try_from(v).ok().and_then(codec::op_from_code).is_some()
            })?;
            check(kind, "entity kind code", |v| entity_kind(v).is_ok())?;
            check(failure, "failure code", |v| i32::try_from(v).is_ok())?;
        }
        if !r.is_empty() {
            return Err(invalid(format!("{} bytes past the frame's rows", r.len())));
        }
        Ok(())
    }

    /// Decodes a version-1 frame's payload — a sequence number and one
    /// record — into `self`, as a frame of that one row.
    pub(crate) fn decode_v1(&mut self, mut payload: &[u8]) -> io::Result<()> {
        let seq = codec::read_u64(&mut payload)?;
        let rec = WalRecord::decode_v1(&mut payload)?;
        if seq == 0 || seq == u64::MAX {
            return Err(invalid(format!("1 row from sequence {seq}")));
        }
        self.restart(seq);
        self.push(Row::from(&rec), 0);
        Ok(())
    }
}

/// The entity rows of a frame: the id, agent and kind lanes, and each
/// entity's attributes as the frame keeps them — a name set per entity,
/// and one value column per name. Names and sets are coded in first-use
/// order, so a frame's bytes are a function of its rows alone. Decoding
/// checked that each agent fits a `u32`, each kind is a known
/// [`codec::kind_code`] code, and each entity's set exists.
#[derive(Debug, Default)]
pub struct EntityLanes {
    pub id: Vec<i64>,
    pub agent: Vec<i64>,
    /// [`codec::kind_code`] codes.
    pub kind: Vec<i64>,
    /// Each entity's name set.
    set: Vec<i64>,
    names: Vec<String>,
    /// Each set's name codes, end to end; set `s` ends at `set_ends[s]`.
    set_names: Vec<u32>,
    set_ends: Vec<usize>,
    /// Per name, its value for each entity whose set names it, in entity
    /// order; columns past the names are spare, kept for their room.
    columns: Vec<Vec<Value>>,
    /// A decoded frame's string table: each string value shares its text.
    strings: Vec<Arc<str>>,
    /// A pushed frame's name and set codes.
    name_codes: HashMap<String, u32>,
    set_codes: HashMap<Vec<u32>, u32>,
    /// Per entity kind, the set its last pushed entity named: the next
    /// entity of the kind most often names it too, and is coded without a
    /// hash.
    last_set: [Option<u32>; 3],
}

impl EntityLanes {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Whether the frame holds no entity.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// The attribute names, by name code.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The name codes of set `s`.
    fn set_names(&self, s: usize) -> &[u32] {
        let from = s.checked_sub(1).map_or(0, |p| self.set_ends[p]);
        &self.set_names[from..self.set_ends[s]]
    }

    /// Hands `visit` each entity in order — its index and its attributes,
    /// as name codes and values in its set's order.
    pub fn each(&self, mut visit: impl FnMut(usize, &[(u32, &Value)])) {
        let mut next = vec![0; self.names.len()];
        let mut attrs = Vec::new();
        for (i, &set) in self.set.iter().enumerate() {
            attrs.clear();
            for &code in self.set_names(set as usize) {
                let at = &mut next[code as usize];
                attrs.push((code, &self.columns[code as usize][*at]));
                *at += 1;
            }
            visit(i, &attrs);
        }
    }

    fn clear(&mut self) {
        for lane in [&mut self.id, &mut self.agent, &mut self.kind, &mut self.set] {
            lane.clear();
        }
        self.names.clear();
        self.set_names.clear();
        self.set_ends.clear();
        self.columns.iter_mut().for_each(Vec::clear);
        self.strings.clear();
        self.name_codes.clear();
        self.set_codes.clear();
        self.last_set = [None; 3];
    }

    fn push(&mut self, e: &Entity) {
        let kind = codec::kind_code(e.kind);
        self.id.push(e.id.0 as i64);
        self.agent.push(e.agent.0 as i64);
        self.kind.push(kind as i64);
        let names = &self.names;
        let same = |set: &[u32]| {
            set.len() == e.attrs.len()
                && (set.iter())
                    .zip(e.attrs.keys())
                    .all(|(c, n)| names[*c as usize] == *n)
        };
        let set = match self.last_set[kind as usize] {
            Some(set) if same(self.set_names(set as usize)) => set,
            _ => self.code_set(e),
        };
        self.last_set[kind as usize] = Some(set);
        self.set.push(set as i64);
        let from = (set as usize)
            .checked_sub(1)
            .map_or(0, |p| self.set_ends[p]);
        let codes = &self.set_names[from..self.set_ends[set as usize]];
        for (code, value) in codes.iter().zip(e.attrs.values()) {
            self.columns[*code as usize].push(value.clone());
        }
    }

    /// The code of `e`'s name set, coding its new names and the set if it
    /// is new.
    fn code_set(&mut self, e: &Entity) -> u32 {
        let from = self.set_names.len();
        for name in e.attrs.keys() {
            let code = match self.name_codes.get(name.as_str()) {
                Some(code) => *code,
                None => {
                    let code = self.names.len() as u32;
                    self.name_codes.insert(name.clone(), code);
                    self.names.push(name.clone());
                    if self.columns.len() == code as usize {
                        self.columns.push(Vec::new());
                    }
                    code
                }
            };
            self.set_names.push(code);
        }
        if let Some(code) = self.set_codes.get(&self.set_names[from..]) {
            self.set_names.truncate(from);
            return *code;
        }
        let code = self.set_ends.len() as u32;
        self.set_codes.insert(self.set_names[from..].to_vec(), code);
        self.set_ends.push(self.set_names.len());
        code
    }

    fn encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        for lane in [&self.id, &self.agent, &self.kind] {
            write_frame(out, lane, false);
        }
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for name in &self.names {
            write_str(out, name)?;
        }
        out.extend_from_slice(&(self.set_ends.len() as u32).to_le_bytes());
        for s in 0..self.set_ends.len() {
            let set = self.set_names(s);
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for code in set {
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
        write_frame(out, &self.set, false);
        let mut strings = Strings::<&str>::default();
        for column in &self.columns[..self.names.len()] {
            write_column(out, column.iter(), &mut strings, false)?;
        }
        Ok(())
    }

    /// Entity `i`, its attributes as `attrs` names them.
    fn entity(&self, i: usize, attrs: &[(u32, &Value)]) -> Entity {
        let mut e = Entity::new(
            EntityId(self.id[i] as u64),
            AgentId(self.agent[i] as u32),
            entity_kind(self.kind[i]).expect("a checked kind code"),
        );
        for &(code, value) in attrs {
            let name = self.names[code as usize].clone();
            e.attrs.insert(name, value.clone());
        }
        e
    }

    fn decode(&mut self, r: &mut &[u8], n: usize) -> io::Result<()> {
        for lane in [&mut self.id, &mut self.agent, &mut self.kind] {
            read_lane(r, n, lane)?;
        }
        check(&self.agent, "agent", |v| u32::try_from(v).is_ok())?;
        check(&self.kind, "entity kind code", |v| entity_kind(v).is_ok())?;
        for _ in 0..count(r, "names")? {
            self.names.push(read_str(r)?);
        }
        for _ in 0..count(r, "name sets")? {
            for _ in 0..count(r, "set names")? {
                match read_u32(r)? {
                    code if (code as usize) < self.names.len() => self.set_names.push(code),
                    code => return Err(invalid(format!("name code {code} past the names"))),
                }
            }
            self.set_ends.push(self.set_names.len());
        }
        read_lane(r, n, &mut self.set)?;
        let sets = self.set_ends.len();
        check(&self.set, "name set", |s| {
            usize::try_from(s).is_ok_and(|s| s < sets)
        })?;
        // Column `j` holds a value for each entity whose set names `j`.
        let mut uses = vec![0usize; sets];
        self.set.iter().for_each(|s| uses[*s as usize] += 1);
        let mut lens = vec![0usize; self.names.len()];
        for (s, uses) in uses.iter().enumerate() {
            self.set_names(s)
                .iter()
                .for_each(|c| lens[*c as usize] += uses);
        }
        for (j, len) in lens.into_iter().enumerate() {
            if self.columns.len() == j {
                self.columns.push(Vec::new());
            }
            let column = &mut self.columns[j];
            column.reserve(len);
            read_column(r, len, &mut self.strings, |v| column.push(v))?;
        }
        Ok(())
    }
}

/// Pushes one row's values, one onto each lane.
fn push_lanes<const N: usize>(lanes: &mut [Vec<i64>; N], vals: [i64; N]) {
    for (lane, v) in lanes.iter_mut().zip(vals) {
        lane.push(v);
    }
}

/// Reads one integer column of `n` values into `lane`.
fn read_lane(r: &mut &[u8], n: usize, lane: &mut Vec<i64>) -> io::Result<()> {
    Frame::read(r, n)?.extend_into(lane);
    Ok(())
}

/// Fails on the first value of `lane` that `ok` refuses.
fn check(lane: &[i64], what: &str, ok: impl Fn(i64) -> bool) -> io::Result<()> {
    match lane.iter().find(|v| !ok(**v)) {
        Some(v) => Err(invalid(format!("{what} {v} out of range"))),
        None => Ok(()),
    }
}

fn entity_kind(code: i64) -> io::Result<EntityKind> {
    u8::try_from(code)
        .ok()
        .and_then(codec::kind_from_code)
        .ok_or_else(|| invalid(format!("entity kind code {code} out of range")))
}

/// A count of items at least four bytes each, refused past what `r` holds.
fn count(r: &mut &[u8], what: &str) -> io::Result<usize> {
    let n = read_u32(r)? as usize;
    if n > r.len() / 4 {
        return Err(invalid(format!("{n} {what} in a {}-byte rest", r.len())));
    }
    Ok(n)
}
