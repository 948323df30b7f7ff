//! End-to-end time synchronization (paper Sec. 3.2): a cross-host temporal
//! query only returns the true chain after server-side drift correction.

use aiql::engine::Session;
use aiql::storage::timesync::{ClockSample, Synchronizer};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};

/// Host A's clock runs 10 minutes ahead. Physically, `scp` on host A sends
/// the file at 10:00, and `sshd` on host B writes it at 10:01 — but host A
/// stamps its event 10 minutes fast, so the uncorrected order looks
/// reversed.
fn drifted_dataset() -> Dataset {
    let mut d = Dataset::new();
    let a = AgentId(1);
    let b = AgentId(2);
    let t = |h: u32, m: u32| Timestamp::from_ymd_hms(2017, 1, 1, h, m, 0).unwrap();
    let drift = 10 * 60 * 1_000_000_000i64; // 10 minutes fast.

    let scp = d.add_entity(Entity::process(1.into(), a, "scp", 10));
    let sshd = d.add_entity(Entity::process(2.into(), b, "sshd", 20));
    let payload_b = d.add_entity(Entity::file(3.into(), b, "/incoming/payload.bin"));

    // Cross-host connect: scp (host A) → sshd (host B), stamped by host A's
    // fast clock.
    d.add_event(Event::new(
        1.into(),
        a,
        scp,
        OpType::Connect,
        sshd,
        EntityKind::Process,
        Timestamp(t(10, 0).0 + drift),
    ));
    // sshd writes the payload a minute later (host B's clock is correct).
    d.add_event(Event::new(
        2.into(),
        b,
        sshd,
        OpType::Write,
        payload_b,
        EntityKind::File,
        t(10, 1),
    ));
    d
}

const QUERY: &str = r#"
    proc p1["%scp"] connect proc p2 as e1
    proc p2 write file f1["%payload%"] as e2
    with e1 before e2
    return p1, p2, f1
"#;

#[test]
fn uncorrected_clocks_hide_the_chain() {
    let data = drifted_dataset();
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    let r = Session::open(&SharedStore::new(store.clone()))
        .run(QUERY)
        .unwrap();
    assert!(
        r.rows.is_empty(),
        "with a 10-minute drift, the connect appears after the write"
    );
}

#[test]
fn synchronizer_restores_the_chain() {
    let mut data = drifted_dataset();
    // Host A reported clock samples 10 minutes ahead of the server.
    let mut sync = Synchronizer::new();
    sync.record(
        AgentId(1),
        ClockSample {
            agent_time: 10 * 60 * 1_000_000_000,
            server_time: 0,
        },
    );
    sync.apply(&mut data);

    let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    let r = Session::open(&SharedStore::new(store.clone()))
        .run(QUERY)
        .unwrap();
    assert_eq!(r.rows.len(), 1, "corrected order matches the true chain");
    assert_eq!(r.rows[0][0].to_string(), "scp");
    assert_eq!(r.rows[0][2].to_string(), "/incoming/payload.bin");
}

#[test]
fn correction_is_per_agent() {
    let mut data = drifted_dataset();
    let mut sync = Synchronizer::new();
    sync.record(
        AgentId(1),
        ClockSample {
            agent_time: 10 * 60 * 1_000_000_000,
            server_time: 0,
        },
    );
    sync.apply(&mut data);
    // Host B's event is untouched.
    let wb = data.events.iter().find(|e| e.agent == AgentId(2)).unwrap();
    assert_eq!(
        wb.start,
        Timestamp::from_ymd_hms(2017, 1, 1, 10, 1, 0).unwrap()
    );
    // Host A's event moved back by the drift.
    let ca = data.events.iter().find(|e| e.agent == AgentId(1)).unwrap();
    assert_eq!(
        ca.start,
        Timestamp::from_ymd_hms(2017, 1, 1, 10, 0, 0).unwrap()
    );
}
