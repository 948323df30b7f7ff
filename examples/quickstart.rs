//! Quickstart: build a tiny monitored host, ask an AIQL question.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use aiql::prelude::*;

fn main() {
    // 1. Some system monitoring data: a shell reads the user's command
    //    history, then talks to an unknown host.
    let mut data = Dataset::new();
    let agent = AgentId(1);
    let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap();

    let sshd = data.add_entity(Entity::process(1.into(), agent, "sshd", 800));
    let bash = data.add_entity(Entity::process(2.into(), agent, "bash", 801));
    let hist = data.add_entity(Entity::file(3.into(), agent, "/home/alice/.bash_history"));
    let c2 = data.add_entity(Entity::netconn(
        4.into(),
        agent,
        "10.0.0.5",
        50011,
        "203.0.113.9",
        443,
    ));

    let mut t = t0.0;
    let mut next = |secs: i64| {
        t += secs * 1_000_000_000;
        Timestamp(t)
    };
    data.add_event(Event::new(
        1.into(),
        agent,
        sshd,
        OpType::Start,
        bash,
        EntityKind::Process,
        next(1),
    ));
    data.add_event(Event::new(
        2.into(),
        agent,
        bash,
        OpType::Read,
        hist,
        EntityKind::File,
        next(5),
    ));
    data.add_event(
        Event::new(
            3.into(),
            agent,
            bash,
            OpType::Write,
            c2,
            EntityKind::NetConn,
            next(2),
        )
        .with_amount(4096),
    );

    // 2. Ingest into the partitioned event store.
    let store =
        SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"));

    // 3. Ask: which process read a command-history file and then sent data
    //    to the network? (The paper's "command history probing" behaviour.)
    let query = r#"
        proc p1 read file f1["%.bash_history"] as e1
        proc p1 write ip i1 as e2
        with e1 before e2
        return p1, f1, i1
    "#;
    let session = Session::open(&store);
    let result = session.run(query).expect("query runs");

    println!("AIQL> {}", query.trim());
    println!();
    print!("{result}");
    assert_eq!(result.rows.len(), 1);
    println!("\nFound it: `bash` probed the history file and then contacted 203.0.113.9.");
}
