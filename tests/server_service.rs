//! Serving-layer behavior: each multi-tenancy guarantee of aiql-server
//! has a dedicated test — session quotas and statement caps reject with
//! typed frames (never hang), statement timeouts cancel inside the
//! engine and again at cursor-page boundaries, a join past the engine's
//! tuple budget is a typed answer, slow consumers get
//! back-pressure instead of unbounded buffering, idle sessions are
//! reaped, graceful shutdown drains requests already received, a
//! connection killed mid-page (via fault injection under the socket
//! write) returns every session, cursor, and quota slot it held, and
//! many concurrent clients get exactly the in-process answers.
//!
//! Every test holds the fault controller (`fault::control()`) while it
//! runs: the mid-page test arms a failure on the next socket write of any
//! server in the process, so no other test's server may write meanwhile.

use aiql::bench::harness::{dataset, Scale};
use aiql::bench::service::{family, QUERY7_TEMPLATE};
use aiql::client::{Client, ClientError};
use aiql::engine::{Params, Session};
use aiql::fault::{self, FaultKind, FaultPlan};
use aiql::server::proto::{ErrorCode, FrameBuffer, Request, Response, PROTO_VERSION};
use aiql::server::{Server, ServerConfig, ServerHandle};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A store with one process that read `files` distinct files — the query
/// `proc p read file f return p, f` yields exactly `files` rows.
fn store_with(files: u64) -> SharedStore {
    let mut data = aiql::model::Dataset::new();
    let a = aiql::model::AgentId(1);
    let p = data.add_entity(aiql::model::Entity::process(1.into(), a, "bash", 7));
    for i in 0..files {
        let f = data.add_entity(aiql::model::Entity::file(
            (i + 2).into(),
            a,
            format!("/tmp/f{i}"),
        ));
        data.add_event(aiql::model::Event::new(
            (i + 1).into(),
            a,
            p,
            aiql::model::OpType::Read,
            f,
            aiql::model::EntityKind::File,
            aiql::model::Timestamp::from_ymd(2017, 1, 1).unwrap(),
        ));
    }
    SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap())
}

fn spawn_with(files: u64, config: ServerConfig) -> ServerHandle {
    Server::bind(&store_with(files), config, "127.0.0.1:0").expect("spawn server")
}

const QUERY: &str = "proc p read file f return p, f";

fn wait_until(what: &str, f: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

// ---------------------------------------------------------------------------
// Quotas
// ---------------------------------------------------------------------------

#[test]
fn session_quota_rejects_typed_and_leaves_other_tenants_alone() {
    let _ctl = fault::control();
    let server = spawn_with(
        1,
        ServerConfig {
            max_sessions_per_tenant: 2,
            ..ServerConfig::default()
        },
    );
    let mut a = Client::connect(server.addr(), "tenant-a").unwrap();
    let s1 = a.open_session().unwrap();
    let _s2 = a.open_session().unwrap();
    match a.open_session() {
        Err(ClientError::Server {
            code: ErrorCode::QuotaExceeded,
            ..
        }) => {}
        other => panic!("third session should hit the quota, got {other:?}"),
    }
    // The quota is per tenant, not global.
    let mut b = Client::connect(server.addr(), "tenant-b").unwrap();
    b.open_session().expect("tenant-b has its own quota");
    // Closing a session returns the slot.
    a.close_session(s1).unwrap();
    a.open_session().expect("slot freed by close");
    assert!(server.stats().quota_rejections >= 1);
}

#[test]
fn statement_cap_rejects_typed_without_hanging() {
    let _ctl = fault::control();
    // A zero cap rejects every execute — the degenerate case proves the
    // gate sits in front of the engine, and the typed answer comes back
    // immediately instead of queueing.
    let server = spawn_with(
        1,
        ServerConfig {
            max_concurrent_statements: 0,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr(), "capped").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c.prepare(session, QUERY).unwrap();
    let started = Instant::now();
    match c.execute(session, stmt.stmt, &Params::new(), None) {
        Err(ClientError::Server {
            code: ErrorCode::QuotaExceeded,
            ..
        }) => {}
        other => panic!("capped execute should be rejected, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection must not queue behind anything"
    );
    assert!(server.stats().quota_rejections >= 1);
    assert_eq!(server.stats().executes, 0);
}

// ---------------------------------------------------------------------------
// Timeouts
// ---------------------------------------------------------------------------

#[test]
fn server_statement_timeout_cancels_execution_with_typed_frame() {
    let _ctl = fault::control();
    let server = spawn_with(
        1,
        ServerConfig {
            statement_timeout: Duration::from_nanos(1),
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr(), "hurried").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c.prepare(session, QUERY).unwrap();
    // The client asks for 10 s but can only tighten the server's cap,
    // never widen it.
    match c.execute(
        session,
        stmt.stmt,
        &Params::new(),
        Some(Duration::from_secs(10)),
    ) {
        Err(ClientError::Server {
            code: ErrorCode::Timeout,
            ..
        }) => {}
        other => panic!("expected a typed Timeout frame, got {other:?}"),
    }
    assert!(server.stats().timeouts >= 1);
    // The connection and session survive a statement timeout.
    c.ping().unwrap();
    c.prepare(session, QUERY).expect("session still usable");
}

/// A join past the engine's tuple budget: 1 500 reads, then 1 500 writes
/// by another process, each pair of them ordered by `before` — 2.25 M
/// tuples, past `MAX_TUPLES` (the boundary `tuple_budget_boundary` pins in
/// the engine). The client gets a typed `Resource` frame, and the
/// connection and session stay usable.
#[test]
fn a_join_past_the_tuple_budget_is_a_typed_resource_error() {
    use aiql::model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
    let _ctl = fault::control();
    let mut data = Dataset::new();
    let a = AgentId(1);
    let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
    let reader = data.add_entity(Entity::process(1.into(), a, "reader", 7));
    let writer = data.add_entity(Entity::process(2.into(), a, "writer", 8));
    for i in 0..3_000u64 {
        let (p, op) = match i < 1_500 {
            true => (reader, OpType::Read),
            false => (writer, OpType::Write),
        };
        let f = data.add_entity(Entity::file((i + 3).into(), a, format!("/tmp/f{i}")));
        let at = Timestamp(t0 + i as i64 * 1_000);
        data.add_event(Event::new(
            (i + 1).into(),
            a,
            p,
            op,
            f,
            EntityKind::File,
            at,
        ));
    }
    let store = SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap());
    let server = Server::bind(&store, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr(), "greedy").unwrap();
    let session = c.open_session().unwrap();
    let join = "proc p1 read file f1 as evt1\n\
                proc p2 write file f2 as evt2\n\
                with evt1 before evt2\n\
                return p1, f1, f2";
    let stmt = c.prepare(session, join).unwrap();
    match c.execute(session, stmt.stmt, &Params::new(), None) {
        Err(ClientError::Server {
            code: ErrorCode::Resource,
            ..
        }) => {}
        other => panic!("expected a typed Resource frame, got {other:?}"),
    }
    c.ping().unwrap();
    let stmt = c.prepare(session, QUERY).expect("session still usable");
    let cursor = c.execute(session, stmt.stmt, &Params::new(), None).unwrap();
    assert_eq!(cursor.rows_total, 1_500);
}

#[test]
fn statement_budget_cancels_at_cursor_page_boundaries() {
    let _ctl = fault::control();
    // No server cap: the client's own 50 ms budget governs the whole
    // statement, cursor included.
    let server = spawn_with(
        8,
        ServerConfig {
            statement_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr(), "pager").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c.prepare(session, QUERY).unwrap();
    let cur = c
        .execute(
            session,
            stmt.stmt,
            &Params::new(),
            Some(Duration::from_millis(50)),
        )
        .unwrap();
    assert_eq!(cur.rows_total, 8);
    let (rows, done) = c.fetch(cur.cursor, 1).unwrap();
    assert_eq!((rows.len(), done), (1, false));
    std::thread::sleep(Duration::from_millis(300));
    match c.fetch(cur.cursor, 1) {
        Err(ClientError::Server {
            code: ErrorCode::Timeout,
            ..
        }) => {}
        other => panic!("page past the deadline should time out, got {other:?}"),
    }
    // The timed-out cursor was closed server-side, not leaked.
    wait_until("cursor closed after timeout", || {
        server.stats().active_cursors == 0
    });
    match c.fetch(cur.cursor, 1) {
        Err(ClientError::Server {
            code: ErrorCode::NotFound,
            ..
        }) => {}
        other => panic!("cursor should be gone, got {other:?}"),
    }
    assert!(server.stats().timeouts >= 1);
}

// ---------------------------------------------------------------------------
// Back-pressure
// ---------------------------------------------------------------------------

#[test]
fn slow_consumer_gets_backpressure_then_every_response() {
    let _ctl = fault::control();
    // Enough response bytes (~10 MB) to overrun the loopback socket
    // buffers in the server-to-client direction however the kernel sizes
    // them (tcp_wmem autotunes to 4 MB) — the stall below is then
    // guaranteed, not scheduling luck.
    const PINGS: u64 = 600_000;
    let server = spawn_with(
        1,
        ServerConfig {
            outbox_limit: 1024,
            ..ServerConfig::default()
        },
    );
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.write_all(
        &Request::Hello {
            version: PROTO_VERSION,
            tenant: "flood".to_string(),
        }
        .to_frame()
        .unwrap(),
    )
    .unwrap();
    let hello = read_responses(&mut s, 1);
    assert!(matches!(hello[0], Response::HelloOk { .. }));

    // Flood pings from a second thread while this one refuses to read:
    // the socket buffers fill, the bounded outbox tops out, and the
    // server stops reading from us instead of buffering without bound.
    let mut wstream = s.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let mut batch = Vec::with_capacity(32 * 1024);
        for token in 0..PINGS {
            batch.extend_from_slice(&Request::Ping { token }.to_frame().unwrap());
            if batch.len() >= 16 * 1024 || token == PINGS - 1 {
                wstream.write_all(&batch).unwrap();
                batch.clear();
            }
        }
    });
    wait_until("a back-pressure stall", || {
        server.stats().backpressure_stalls >= 1
    });

    // Start consuming: the stall must resolve and every single response
    // arrive, in order — nothing dropped, nothing duplicated, no
    // deadlock.
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 64 * 1024];
    let mut expect = 0u64;
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    while expect < PINGS {
        let n = s.read(&mut buf).expect("server keeps flushing");
        assert!(n > 0, "server closed mid-flood");
        fb.extend(&buf[..n]);
        while let Ok(Some(p)) = fb.next_frame() {
            match Response::decode(&p).unwrap() {
                Response::Pong { token } => {
                    assert_eq!(token, expect, "pongs must come back in order");
                    expect += 1;
                }
                other => panic!("unexpected frame mid-flood: {other:?}"),
            }
        }
    }
    writer.join().unwrap();
    assert!(server.stats().backpressure_stalls >= 1);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_requests_already_received() {
    let _ctl = fault::control();
    let server = spawn_with(3, ServerConfig::default());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();

    // Walk the lifecycle synchronously up to an open cursor.
    send(
        &mut s,
        &Request::Hello {
            version: PROTO_VERSION,
            tenant: "drained".to_string(),
        },
    );
    assert!(matches!(
        read_responses(&mut s, 1)[0],
        Response::HelloOk { .. }
    ));
    send(&mut s, &Request::OpenSession);
    let Response::SessionOpened { session } = read_responses(&mut s, 1)[0].clone() else {
        panic!("expected SessionOpened");
    };
    send(
        &mut s,
        &Request::Prepare {
            session,
            source: QUERY.to_string(),
        },
    );
    let Response::Prepared { stmt, .. } = read_responses(&mut s, 1)[0].clone() else {
        panic!("expected Prepared");
    };
    send(
        &mut s,
        &Request::Execute {
            session,
            stmt,
            params: Vec::new(),
            timeout_ms: 0,
        },
    );
    let Response::Executed { cursor, .. } = read_responses(&mut s, 1)[0].clone() else {
        panic!("expected Executed");
    };

    // The in-flight statement: a fetch written (and on loopback,
    // delivered to the server's kernel buffer) but not yet answered when
    // shutdown begins. Drain must serve it before the socket closes.
    send(
        &mut s,
        &Request::FetchPage {
            cursor,
            max_rows: 100,
        },
    );
    server.shutdown();

    let (responses, closed) = read_to_close(&mut s);
    assert!(closed, "drained connections end in EOF");
    match responses.as_slice() {
        [Response::Page { rows, done, .. }] => {
            assert_eq!(rows.len(), 3);
            assert!(done);
        }
        other => panic!("the buffered fetch must be served during drain, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(
        (
            stats.active_connections,
            stats.active_sessions,
            stats.active_cursors
        ),
        (0, 0, 0),
        "drain returns every resource"
    );
}

// ---------------------------------------------------------------------------
// Idle reaping
// ---------------------------------------------------------------------------

#[test]
fn idle_sessions_are_reaped_and_their_quota_returned() {
    let _ctl = fault::control();
    let server = spawn_with(
        1,
        ServerConfig {
            idle_session_timeout: Duration::from_millis(50),
            max_sessions_per_tenant: 1,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr(), "sleepy").unwrap();
    let session = c.open_session().unwrap();
    assert_eq!(server.stats().active_sessions, 1);
    wait_until("idle session reaped", || {
        server.stats().active_sessions == 0
    });
    // The reaped session is gone for its owner too...
    match c.prepare(session, QUERY) {
        Err(ClientError::Server {
            code: ErrorCode::NotFound,
            ..
        }) => {}
        other => panic!("reaped session should be NotFound, got {other:?}"),
    }
    // ...and its quota slot (cap 1) is back.
    c.open_session()
        .expect("reaping returned the tenant's only slot");
}

// ---------------------------------------------------------------------------
// Fault injection under the socket write
// ---------------------------------------------------------------------------

#[test]
fn mid_page_connection_drop_leaks_nothing() {
    let ctl = fault::control();
    let server = spawn_with(6, ServerConfig::default());
    let mut c = Client::connect(server.addr(), "doomed").unwrap();
    let session = c.open_session().unwrap();
    let stmt = c.prepare(session, QUERY).unwrap();
    let cur = c.execute(session, stmt.stmt, &Params::new(), None).unwrap();
    let (rows, done) = c.fetch(cur.cursor, 2).unwrap();
    assert_eq!((rows.len(), done), (2, false));
    let before = server.stats();
    assert_eq!((before.active_sessions, before.active_cursors), (1, 1));

    // The next socket write — the Page response for the fetch below —
    // fails with EIO, as if the peer vanished mid-page.
    ctl.arm(FaultPlan::new().fail(
        "server.conn.write",
        1,
        FaultKind::Errno(io::ErrorKind::Other),
    ));
    let r = c.fetch(cur.cursor, 2);
    assert!(r.is_err(), "the page can never arrive: {r:?}");
    wait_until("dropped connection returns everything", || {
        let st = server.stats();
        st.active_connections == 0 && st.active_sessions == 0 && st.active_cursors == 0
    });
    assert!(
        !ctl.injected().is_empty(),
        "the planned write fault never fired"
    );
    ctl.disarm();

    // The server itself is unharmed: a fresh connection works end to end.
    let mut c2 = Client::connect(server.addr(), "doomed").unwrap();
    let s2 = c2.open_session().unwrap();
    let p2 = c2.prepare(s2, QUERY).unwrap();
    let (_cols, rows) = c2.query(s2, p2.stmt, &Params::new()).unwrap();
    assert_eq!(rows.len(), 6);
}

// ---------------------------------------------------------------------------
// Many clients
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_get_in_process_rows_and_leave_nothing_open() {
    let _ctl = fault::control();
    const CLIENTS: usize = 64;
    const STATEMENTS_PER_CLIENT: usize = 8;
    let (data, _) = dataset(Scale::Small);
    let store = SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap());
    let bindings = family(&data);
    // The oracle: the in-process session's rows for every family member.
    let oracle: Vec<Vec<Vec<aiql::model::Value>>> = {
        let stmt = Session::open(&store).prepare(QUERY7_TEMPLATE).unwrap();
        bindings
            .iter()
            .map(|b| {
                stmt.bind(b.to_params())
                    .unwrap()
                    .execute()
                    .unwrap()
                    .collect()
            })
            .collect()
    };
    assert!(
        oracle.iter().any(|rows| !rows.is_empty()),
        "the chain is found"
    );

    let server = Server::bind(
        &store,
        ServerConfig {
            max_sessions_per_tenant: CLIENTS,
            max_concurrent_statements: CLIENTS,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn server");
    let addr = server.addr();
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let (bindings, oracle) = (&bindings, &oracle);
            scope.spawn(move || {
                let mut c = Client::connect(addr, "closed-loop").expect("connect");
                let session = c.open_session().expect("open session");
                let stmt = c.prepare(session, QUERY7_TEMPLATE).expect("prepare");
                for k in 0..STATEMENTS_PER_CLIENT {
                    let at = (i + k) % bindings.len();
                    let (_, rows) = c
                        .query(session, stmt.stmt, &bindings[at].to_params())
                        .expect("query");
                    assert_eq!(rows, oracle[at], "client {i} diverged on member {at}");
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.sessions_opened, CLIENTS as u64);
    assert_eq!(stats.protocol_errors, 0);
    wait_until("every client's session and cursor to close", || {
        let st = server.stats();
        st.active_connections == 0 && st.active_sessions == 0 && st.active_cursors == 0
    });
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn send(stream: &mut TcpStream, req: &Request) {
    stream.write_all(&req.to_frame().unwrap()).unwrap();
}

/// Reads exactly `n` responses (10 s cap).
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut fb = FrameBuffer::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while out.len() < n {
        let read = stream.read(&mut buf).expect("response arrives in time");
        assert!(read > 0, "server closed while {n} responses awaited");
        fb.extend(&buf[..read]);
        while let Ok(Some(p)) = fb.next_frame() {
            out.push(Response::decode(&p).expect("server frames decode"));
        }
    }
    out
}

/// Reads frames until EOF (true) or read timeout (false).
fn read_to_close(stream: &mut TcpStream) -> (Vec<Response>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut fb = FrameBuffer::new();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                while let Ok(Some(p)) = fb.next_frame() {
                    out.push(Response::decode(&p).expect("server frames decode"));
                }
                return (out, true);
            }
            Ok(n) => {
                fb.extend(&buf[..n]);
                while let Ok(Some(p)) = fb.next_frame() {
                    out.push(Response::decode(&p).expect("server frames decode"));
                }
            }
            Err(_) => return (out, false),
        }
    }
}
