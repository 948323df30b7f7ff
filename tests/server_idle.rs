//! What a serving loop that *blocks* can get wrong, and a polling one
//! could not: spinning on an idle or stalled connection set, sleeping
//! through a shutdown, through a newly accepted connection, or through
//! the idle-session reaper's deadline. This file is its own test process
//! so that the CPU time of the `aiql-serve-*` threads is attributable;
//! its tests take turns for the same reason.

use aiql::client::Client;
use aiql::server::proto::{Request, PROTO_VERSION};
use aiql::server::{Server, ServerConfig, ServerHandle};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn spawn(config: ServerConfig) -> ServerHandle {
    let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
    Server::spawn(&store, config).expect("spawn server")
}

/// A server whose every thread is blocked with nothing to do: 199 greeted
/// connections that say nothing more, and one that flooded pings without
/// ever reading a pong, so its outbox is over the cap and the socket under
/// it full in both directions. The clients stay open while they are held.
fn parked_server() -> (ServerHandle, Vec<Client>, TcpStream) {
    let server = spawn(ServerConfig {
        outbox_limit: 1024,
        // The stalled connection can never flush; shutdown gives up on it.
        drain_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let parked: Vec<Client> = (0..199)
        .map(|_| Client::connect(server.addr(), "parked").expect("connect"))
        .collect();

    let mut stalled = TcpStream::connect(server.addr()).unwrap();
    let hello = Request::Hello {
        version: PROTO_VERSION,
        tenant: "stalled".to_string(),
    };
    stalled.write_all(&hello.to_frame().unwrap()).unwrap();
    let batch: Vec<u8> = (0..1024)
        .flat_map(|token| Request::Ping { token }.to_frame().unwrap())
        .collect();
    // Stalled for good: the server has counted the stall, and a write has
    // made no progress for 200 ms, so nothing is left in flight to move.
    stalled
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match stalled.write(&batch) {
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if server.stats().backpressure_stalls >= 1 {
                    break;
                }
                assert!(Instant::now() < deadline, "the flood never stalled");
            }
            Err(e) => panic!("flooding the stalled connection: {e}"),
        }
    }
    assert_eq!(server.stats().active_connections, 200);
    (server, parked, stalled)
}

/// Milliseconds of CPU the `aiql-serve-*` threads have used so far, from
/// `/proc/self/task/*/{comm,stat}`; `None` where there is no such thing.
fn serve_threads_cpu_ms() -> Option<u64> {
    let mut ticks = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if !comm.starts_with("aiql-serve-") {
            continue;
        }
        // The fields after the parenthesised name start at the third, the
        // state; utime and stime are the 14th and 15th.
        let stat = std::fs::read_to_string(task.path().join("stat")).ok()?;
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        ticks += fields[11].parse::<u64>().ok()? + fields[12].parse::<u64>().ok()?;
    }
    // USER_HZ is 100 on every Linux ABI.
    Some(ticks * 10)
}

#[test]
fn parked_and_stalled_connections_cost_no_cpu() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (_server, _parked, _stalled) = parked_server();
    let Some(before) = serve_threads_cpu_ms() else {
        return; // not Linux
    };
    std::thread::sleep(Duration::from_secs(1));
    let used = serve_threads_cpu_ms().expect("read a moment ago") - before;
    assert!(
        used < 20,
        "200 idle connections cost {used} ms of CPU per second"
    );
}

#[test]
fn shutdown_wakes_blocked_threads() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, _parked, _stalled) = parked_server();
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
    assert_eq!(server.stats().active_connections, 0);
}

#[test]
fn a_new_connection_wakes_a_blocked_worker() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, _parked, _stalled) = parked_server();
    let started = Instant::now();
    let mut fresh = Client::connect(server.addr(), "fresh").expect("connect");
    fresh.ping().expect("ping");
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "connect + ping took {took:?}"
    );
}

#[test]
fn the_reaper_wakes_a_worker_nobody_talks_to() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = spawn(ServerConfig {
        idle_session_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let mut silent = Client::connect(server.addr(), "silent").unwrap();
    silent.open_session().unwrap();
    assert_eq!(server.stats().active_sessions, 1);
    // Nothing is sent from here on: only the poll timeout can end the wait.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.stats().active_sessions > 0 {
        assert!(
            Instant::now() < deadline,
            "the idle session was never reaped"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
