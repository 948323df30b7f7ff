//! Where a store's memory goes, pinned without a clock: on the partitioned
//! columnar store every sealed chunk — `events` and entity tables alike —
//! keeps only its projection and one sorted position array per index, and
//! every open tail only its column blocks: no rows anywhere, while the
//! row-store configuration keeps its rows; every sealed `events` column is
//! packed as a frame of reference at the narrowest offset width its values
//! need, positions at the narrowest width the chunk's length needs, and a
//! batch-loaded store accounts at most 50 bytes an event; and a snapshot
//! written from that layout, reopened and written again, is the same file
//! byte for byte.

use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
use aiql::rdb::{ColumnType, Prune, SealedChunk, Table, TAIL_BLOCK_ROWS};
use aiql::storage::{schema, EventStore, StoreConfig};

const DAY: i64 = 86_400 * 1_000_000_000;

/// Ten agents (two partition groups) over two days, each with ten idle
/// processes besides the one its events name, so the processes table
/// seals; events arrive out of time order, strided through the two-day
/// span.
fn dataset(n: u64) -> Dataset {
    let mut d = Dataset::new();
    let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let mut entities = Vec::new();
    for agent in 0..10u32 {
        let a = AgentId(agent);
        let base = (agent as u64 + 1) * 1_000;
        let p = d.add_entity(Entity::process(base.into(), a, format!("p{agent}.exe"), 7));
        let f = d.add_entity(Entity::file((base + 1).into(), a, format!("/f/{agent}")));
        for k in 0..10 {
            let exe = format!("idle{}.exe", k % 4);
            d.add_entity(Entity::process((base + 10 + k).into(), a, exe, 8));
        }
        entities.push((a, p, f));
    }
    for i in 0..n {
        let (a, p, f) = entities[(i % 10) as usize];
        let slot = (i * 7_919) % n;
        d.add_event(Event::new(
            (1_000_000 + i).into(),
            a,
            p,
            [OpType::Read, OpType::Write][(i % 2) as usize],
            f,
            EntityKind::File,
            Timestamp(t0 + (slot as i64) * (2 * DAY / n as i64)),
        ));
    }
    d
}

/// Loads `data`, sealing every tail once a quarter of the events are in
/// (as a batch load ends), so tables hold short sealed chunks, full ones
/// sealed at their chunk size, and open tails.
fn load(data: &Dataset, config: StoreConfig) -> EventStore {
    let mut s = EventStore::empty(config).unwrap();
    for e in &data.entities {
        s.append_entity(e).unwrap();
    }
    for (i, ev) in data.events.iter().enumerate() {
        s.append_event(ev).unwrap();
        if i + 1 == data.events.len() / 4 {
            s.seal_tails();
        }
    }
    s
}

/// Bytes an offset takes when it must hold `span`: the narrowest of 0, 1,
/// 2, 4 or 8.
fn width(span: u64) -> u64 {
    match span {
        0 => 0,
        1..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// Bytes the positions of `c`'s index orders take at most: one position a
/// row, at the width that holds the chunk's last, per indexed column, and
/// a little slack for the index list.
fn index_bytes(c: &SealedChunk, indexed: u64) -> u64 {
    let rows = c.len() as u64;
    width(rows.saturating_sub(1)) * rows * indexed + 64
}

fn event_partitions(s: &EventStore) -> Vec<&Table> {
    s.events_partitioned()
        .partitions_for(&Prune::all())
        .into_iter()
        .map(|(_, t)| t)
        .collect()
}

fn entity_tables(s: &EventStore) -> Vec<&Table> {
    let names = [schema::PROCESSES, schema::FILES, schema::NETCONNS];
    names.iter().map(|t| s.db().plain(t).unwrap()).collect()
}

#[test]
fn sealed_event_chunks_keep_no_rows() {
    let data = dataset(40_000);
    let store = load(&data, StoreConfig::partitioned());
    let indexed = store.events_partitioned().indexed_columns().len() as u64;
    assert_eq!(indexed, 2, "subject_id and object_id");
    let (mut sealed, mut full) = (0, 0);
    for t in event_partitions(&store) {
        for c in t.sealed_chunks() {
            let r = c.resident_bytes();
            assert!(c.is_projected(), "{r:?}");
            assert_eq!(r.rows, 0, "{r:?}");
            assert!(r.index <= index_bytes(c, indexed), "{r:?}");
            assert!(r.projection > 0);
            sealed += 1;
            full += (c.len() == t.chunk_rows()) as usize;
        }
    }
    assert!(
        full >= 2 && sealed > full,
        "full and frozen chunks: {sealed}, {full}"
    );

    // The row-store configuration keeps every row and projects nothing.
    let rows = load(&data, StoreConfig::partitioned().with_columnar(false));
    for t in event_partitions(&rows) {
        for c in t.sealed_chunks() {
            let r = c.resident_bytes();
            assert!(!c.is_projected());
            assert!(r.rows > 0 && r.projection == 0, "{r:?}");
            assert!(r.index <= index_bytes(c, indexed), "{r:?}");
        }
    }
    // Entity tables seal alike: columns only on the columnar store, rows
    // on the row store.
    let sealed_entities = |s: &EventStore| -> Vec<(bool, u64)> {
        let tables = entity_tables(s).into_iter();
        let chunks = tables.flat_map(|t| t.sealed_chunks());
        chunks
            .map(|c| (c.is_projected(), c.resident_bytes().rows))
            .collect()
    };
    let (col_entities, row_entities) = (sealed_entities(&store), sealed_entities(&rows));
    assert!(!col_entities.is_empty() && col_entities.len() == row_entities.len());
    assert!(
        col_entities.iter().all(|&c| c == (true, 0)),
        "{col_entities:?}"
    );
    assert!(
        row_entities.iter().all(|&(p, r)| !p && r > 0),
        "{row_entities:?}"
    );

    // Store-wide, the columnar store holds no row at all: its open tails
    // are columns too, charged to the projection. Each tail block reserves
    // room for `TAIL_BLOCK_ROWS` values per column — 8 bytes an integer
    // (up to 2 more for null flags, grown as NULLs arrive), 4 a string's
    // code — and adds its column list (at most 64 bytes a column) and a
    // slot in the tail's block list (8 bytes, the list at most twice the
    // blocks and at least four).
    let (col, row) = (store.resident_bytes(), rows.resident_bytes());
    assert_eq!(col.tables.rows, 0, "{col:?}");
    let tables = || {
        event_partitions(&store)
            .into_iter()
            .chain(entity_tables(&store))
    };
    let mut open = 0;
    for t in tables() {
        let sealed: u64 = t
            .sealed_chunks()
            .iter()
            .map(|c| c.resident_bytes().projection)
            .sum();
        let tail = t.resident_bytes().projection - sealed;
        let width = |null_flags: u64| -> u64 {
            let types = t.schema().iter();
            types
                .map(|(_, ty)| {
                    if ty == ColumnType::Int {
                        8 + null_flags
                    } else {
                        4
                    }
                })
                .sum()
        };
        let rows = TAIL_BLOCK_ROWS as u64;
        let blocks = t.tail_len().div_ceil(TAIL_BLOCK_ROWS) as u64;
        let at_least = blocks * rows * width(0);
        let lists = 64 * t.schema().arity() as u64;
        let at_most = blocks * (rows * width(2) + lists) + 8 * (2 * blocks).max(4);
        assert!(
            (at_least..=at_most).contains(&tail),
            "a tail of {} rows holds {tail} bytes, not {at_least}..={at_most}",
            t.tail_len()
        );
        open += t.tail_len();
    }
    assert!(open > 0, "the store keeps open tails");
    assert!(
        col.tables.projection < row.tables.rows,
        "{col:?} vs {row:?}"
    );
    assert!(col.dict > 0 && row.dict == 0);
}

/// Every sealed `events` chunk holds each column as a frame of reference
/// at the narrowest offset width that holds its values' span — no chunk
/// falls back to full-width columns — and a batch-loaded store, every
/// tail sealed, accounts at most 50 bytes an event.
#[test]
fn sealed_event_columns_are_packed() {
    let data = dataset(40_000);
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    let mut narrower = 0;
    for t in event_partitions(&store) {
        assert_eq!(t.tail_len(), 0);
        for c in t.sealed_chunks() {
            let p = c.columnar().expect("projected");
            for col in 0..p.arity() {
                let vals = (0..p.len()).map(|at| p.int(at, col).expect("events hold no NULL"));
                let (lo, hi) = (vals.clone().min().unwrap(), vals.max().unwrap());
                let want = width((hi as u64).wrapping_sub(lo as u64));
                assert_eq!(p.offset_width(col), Some(want as usize), "column {col}");
                narrower += (want < 8) as usize;
            }
        }
    }
    assert!(narrower > 0, "some columns pack below 8 bytes");
    let bytes = store.resident_bytes();
    let r = bytes.tables;
    let per_event = (r.rows + r.index + r.projection + bytes.dict) as f64 / 40_000.0;
    assert!(per_event <= 50.0, "{per_event:.1} B an event: {bytes:?}");
}

#[test]
fn persist_open_persist_is_byte_identical() {
    let data = dataset(24_000);
    let base = std::env::temp_dir().join(format!("aiql-resident-layout-{}", std::process::id()));
    for (i, config) in [
        StoreConfig::partitioned(),
        StoreConfig::partitioned().with_columnar(false),
    ]
    .into_iter()
    .enumerate()
    {
        let (first, second) = (base.join(format!("{i}-a")), base.join(format!("{i}-b")));
        let _ = std::fs::remove_dir_all(&base);
        let live = load(&data, config);
        let written = live.persist_to(&first).unwrap();
        let reopened = EventStore::open(&first).unwrap();
        let rewritten = reopened.persist_to(&second).unwrap();
        assert!(
            std::fs::read(&written).unwrap() == std::fs::read(&rewritten).unwrap(),
            "config {i}: the snapshot changed across a reopen"
        );
        // The reopened store is laid out as the live one was.
        let (before, after) = (event_partitions(&live), event_partitions(&reopened));
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.chunk_boundaries(), b.chunk_boundaries());
            let sealed = |t: &Table| {
                let chunks = t.sealed_chunks().iter();
                chunks
                    .map(|c| (c.is_projected(), c.resident_bytes()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sealed(a), sealed(b), "config {i}");
            assert!(a.iter_rows().eq(b.iter_rows()));
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}
