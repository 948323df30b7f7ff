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
use aiql_model::columns::{read_column, write_column, write_frame_spanning, Frame, Strings};
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

/// A lane of `i64`s with its least and greatest value, kept as they are
/// pushed.
#[derive(Debug)]
struct Lane {
    vals: Vec<i64>,
    min: i64,
    max: i64,
}

impl Default for Lane {
    fn default() -> Lane {
        Lane {
            vals: Vec::new(),
            min: i64::MAX,
            max: i64::MIN,
        }
    }
}

impl Lane {
    fn clear(&mut self) {
        self.vals.clear();
        (self.min, self.max) = (i64::MAX, i64::MIN);
    }

    #[inline]
    fn push(&mut self, v: i64) {
        self.vals.push(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn write(&self, out: &mut Vec<u8>) {
        write_frame_spanning(out, &self.vals, self.min, self.max, false);
    }
}

/// The rows of the open frame, and the scratch lanes that encode them.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    clocks: Vec<Clock>,
    entities: Entities,
    events: Vec<Event>,
    /// The sum of the rows' [`Row::bytes`].
    bytes: usize,
    lanes: [Lane; 11],
}

impl Rows {
    pub fn len(&self) -> usize {
        self.clocks.len() + self.entities.len() + self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sum of the rows' [`Row::bytes`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether `row`, of `bytes` bytes, may join these rows: its section
    /// is not before one that already holds rows (a frame numbers its
    /// rows section by section), and the frame stays under the payload
    /// cap.
    pub fn takes(&self, row: &Row<'_>, bytes: usize) -> bool {
        let last = match () {
            _ if !self.events.is_empty() => 2,
            _ if !self.entities.is_empty() => 1,
            _ => 0,
        };
        row.section() >= last && self.bytes + bytes <= MAX_PAYLOAD as usize - FRAME_FIXED
    }

    pub fn push(&mut self, row: Row<'_>, bytes: usize) {
        match row {
            Row::Clock(c) => self.clocks.push(c),
            Row::Entity(e) => self.entities.push(e),
            Row::Event(ev) => self.events.push(ev.clone()),
        }
        self.bytes += bytes;
    }

    pub fn clear(&mut self) {
        self.clocks.clear();
        self.entities.clear();
        self.events.clear();
        self.bytes = 0;
    }

    /// Appends the frame of the rows, numbered from `first`, to `out` —
    /// header, payload and the payload's CRC — and clears the rows.
    /// Returns the frame's bytes.
    pub fn encode(&mut self, first: u64, out: &mut Vec<u8>) -> io::Result<usize> {
        debug_assert!(self.len() as u64 <= MAX_FRAME_ROWS);
        let start = out.len();
        out.extend_from_slice(&[0u8; FRAME_HEADER]); // patched below
        out.extend_from_slice(&first.to_le_bytes());
        for n in [self.clocks.len(), self.entities.len(), self.events.len()] {
            out.extend_from_slice(&(n as u32).to_le_bytes());
        }
        if !self.clocks.is_empty() {
            self.encode_clocks(out);
        }
        if !self.entities.is_empty() {
            self.entities.encode(out)?;
        }
        if !self.events.is_empty() {
            self.encode_events(out);
        }
        let payload = &out[start + FRAME_HEADER..];
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|len| *len <= MAX_PAYLOAD)
            .ok_or_else(|| invalid("frame payload exceeds the cap"))?;
        let crc = crate::crc32(payload);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        self.clear();
        Ok(out.len() - start)
    }

    fn encode_clocks(&mut self, out: &mut Vec<u8>) {
        let [kind, agent, a, b, ..] = &mut self.lanes;
        for lane in [&mut *kind, &mut *agent, &mut *a, &mut *b] {
            lane.clear();
        }
        for c in &self.clocks {
            kind.push(c.sync as i64);
            agent.push(c.agent.0 as i64);
            a.push(c.a);
            b.push(c.b);
        }
        for lane in [kind, agent, a, b] {
            lane.write(out);
        }
    }

    /// One pass transposes the events into the scratch lanes, each lane
    /// tracking its span; then each lane is written at its width.
    fn encode_events(&mut self, out: &mut Vec<u8>) {
        let n = self.events.len();
        for lane in self.lanes.iter_mut() {
            lane.clear();
            lane.vals.reserve(n);
        }
        let [id, agent, subject, op, object, kind, start, span, seq, amount, failure] =
            &mut self.lanes;
        for ev in &self.events {
            id.push(ev.id.0 as i64);
            agent.push(ev.agent.0 as i64);
            subject.push(ev.subject.0 as i64);
            op.push(codec::op_code(ev.op) as i64);
            object.push(ev.object.0 as i64);
            kind.push(codec::kind_code(ev.object_kind) as i64);
            start.push(ev.start.0);
            span.push(ev.end.0.wrapping_sub(ev.start.0));
            seq.push(ev.seq as i64);
            amount.push(ev.amount);
            failure.push(ev.failure as i64);
        }
        for lane in self.lanes.iter() {
            lane.write(out);
        }
    }
}

/// The entity section of the open frame, transposed as each entity is
/// pushed — the rows are never kept whole: the id, agent, kind and
/// name-set columns, the names and name sets in first-use order, and one
/// value column per name.
#[derive(Debug, Default)]
struct Entities {
    len: usize,
    id: Lane,
    agent: Lane,
    kind: Lane,
    set: Lane,
    names: Vec<String>,
    name_codes: HashMap<String, u32>,
    /// Each set's names, as name codes in the attribute map's order.
    sets: Vec<Vec<u32>>,
    set_codes: HashMap<Vec<u32>, u32>,
    /// Per entity kind, the set its last entity named: the next entity
    /// of the kind most often names it too, and is coded without a hash.
    last_set: [Option<u32>; 3],
    columns: Vec<Vec<Value>>,
}

impl Entities {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.len = 0;
        for lane in [&mut self.id, &mut self.agent, &mut self.kind, &mut self.set] {
            lane.clear();
        }
        self.names.clear();
        self.name_codes.clear();
        self.sets.clear();
        self.set_codes.clear();
        self.last_set = [None; 3];
        self.columns.clear();
    }

    fn push(&mut self, e: &Entity) {
        let kind = codec::kind_code(e.kind);
        self.id.push(e.id.0 as i64);
        self.agent.push(e.agent.0 as i64);
        self.kind.push(kind as i64);
        let names = &self.names;
        let same = |set: &Vec<u32>| {
            set.len() == e.attrs.len()
                && (set.iter())
                    .zip(e.attrs.keys())
                    .all(|(c, n)| names[*c as usize] == *n)
        };
        let set = match self.last_set[kind as usize] {
            Some(set) if same(&self.sets[set as usize]) => set,
            _ => self.code_set(e),
        };
        self.last_set[kind as usize] = Some(set);
        self.set.push(set as i64);
        for (code, value) in self.sets[set as usize].iter().zip(e.attrs.values()) {
            self.columns[*code as usize].push(value.clone());
        }
        self.len += 1;
    }

    /// The code of `e`'s name set, coding its new names and the set if it
    /// is new.
    fn code_set(&mut self, e: &Entity) -> u32 {
        let mut key = Vec::with_capacity(e.attrs.len());
        for name in e.attrs.keys() {
            let code = match self.name_codes.get(name) {
                Some(code) => *code,
                None => {
                    let code = self.names.len() as u32;
                    self.name_codes.insert(name.clone(), code);
                    self.names.push(name.clone());
                    self.columns.push(Vec::new());
                    code
                }
            };
            key.push(code);
        }
        match self.set_codes.get(&key) {
            Some(code) => *code,
            None => {
                let code = self.sets.len() as u32;
                self.set_codes.insert(key.clone(), code);
                self.sets.push(key);
                code
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) -> io::Result<()> {
        for lane in [&self.id, &self.agent, &self.kind] {
            lane.write(out);
        }
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for name in &self.names {
            write_str(out, name)?;
        }
        out.extend_from_slice(&(self.sets.len() as u32).to_le_bytes());
        for set in &self.sets {
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for code in set {
                out.extend_from_slice(&code.to_le_bytes());
            }
        }
        self.set.write(out);
        let mut strings = Strings::<&str>::default();
        for column in &self.columns {
            write_column(out, column.iter(), &mut strings, false)?;
        }
        Ok(())
    }
}

/// One column frame, decoded: its rows in the lanes the frame keeps them
/// in, numbered from [`ColumnFrame::first`] — clock rows, then entities,
/// then events. A segment scan decodes each frame into the one it hands
/// on, so the lanes' room is reused from frame to frame.
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

    /// The last row's sequence number (a decoded frame holds one row at
    /// least).
    pub fn last(&self) -> u64 {
        let rows = self.clocks() + self.entities.len() + self.event_rows();
        self.first + rows as u64 - 1
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

    /// Appends every row, as a record with its sequence number, to `out`.
    pub(crate) fn records(&self, out: &mut Vec<(u64, WalRecord)>) {
        let mut seqs = self.first..;
        let mut push = |rec| out.push((seqs.next().expect("unbounded"), rec));
        (0..self.clocks()).for_each(|i| push(self.clock(i)));
        let ents = &self.entities;
        ents.each(|i, attrs| push(WalRecord::Entity(ents.entity(i, attrs))));
        (0..self.event_rows()).for_each(|i| push(WalRecord::Event(self.event(i))));
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

    fn clear(&mut self) {
        self.clocks.iter_mut().for_each(Vec::clear);
        self.entities.clear();
        self.events.iter_mut().for_each(Vec::clear);
    }

    /// Decodes one frame's payload into `self`. Malformed input is an
    /// error, never a panic: counts past the cap or the bytes, an unknown
    /// code, a value out of its field's range, a column that ends early,
    /// or bytes left over.
    pub(crate) fn decode(&mut self, mut r: &[u8]) -> io::Result<()> {
        self.clear();
        let r = &mut r;
        let first = read_u64(r)?;
        let counts = [read_u32(r)?, read_u32(r)?, read_u32(r)?].map(|n| n as usize);
        let rows = counts.iter().sum::<usize>() as u64;
        if rows == 0 || rows > MAX_FRAME_ROWS || first == 0 || first.checked_add(rows).is_none() {
            return Err(invalid(format!("{rows} rows from sequence {first}")));
        }
        self.first = first;
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
    /// record — into `self`, as a frame of that one row: the record is
    /// encoded as today's frame and decoded as one.
    pub(crate) fn decode_v1(&mut self, mut payload: &[u8]) -> io::Result<()> {
        let seq = codec::read_u64(&mut payload)?;
        let rec = WalRecord::decode_v1(&mut payload)?;
        let mut rows = Rows::default();
        rows.push(Row::from(&rec), 0);
        let mut frame = Vec::new();
        rows.encode(seq, &mut frame)?;
        self.decode(&frame[FRAME_HEADER..])
    }
}

/// The entity rows of a frame: the id, agent and kind lanes, and each
/// entity's attributes as the frame keeps them — a name set per entity,
/// and one value column per name. Decoding checked that each agent fits a
/// `u32`, each kind is a known [`codec::kind_code`] code, and each
/// entity's set exists.
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
    /// order.
    columns: Vec<Vec<Value>>,
    /// The frame's string table: each string value shares its text.
    strings: Vec<Arc<str>>,
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
        self.columns.clear();
        self.strings.clear();
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
        for len in lens {
            let mut column = Vec::with_capacity(len);
            read_column(r, len, &mut self.strings, |v| column.push(v))?;
            self.columns.push(column);
        }
        Ok(())
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
