//! aiql-server: a multi-tenant query service over the session API.
//!
//! The server fronts a [`SharedStore`] with the length-prefixed,
//! CRC-checked binary protocol of [`proto`]: clients greet with their
//! tenant name, open investigation sessions, prepare parameterized AIQL
//! statements, execute bindings, and pull result pages through cursors —
//! the same lifecycle [`aiql_engine::Session`] offers in-process, made
//! remote.
//!
//! # Concurrency model
//!
//! Readiness-driven and std-only (the build is offline; no tokio/mio): an
//! acceptor thread deals connections round-robin to a small, fixed pool of
//! workers; each worker owns its connections outright and blocks in
//! `poll(2)` over their nonblocking sockets plus a waker, pumping only the
//! ones that came back ready (having served one, it first looks again for
//! 80 µs without blocking). `poll.rs` declares that one libc symbol itself
//! (`extern "C"`; std links libc anyway), so the zero-dependency policy
//! holds, and the crate is unix-only: no sleep-loop fallback is kept.
//! Statements execute inline on the worker: results materialize fully and
//! every statement carries a wall-clock budget, so one occupies its worker
//! for a bounded slice. docs/ARCHITECTURE.md (“Serving layer”) has the
//! interest rules, what the poll timeout is for, and the reasoning.
//!
//! # Tenancy and robustness
//!
//! Per-tenant session quotas and concurrent-statement caps reject with
//! typed `QuotaExceeded` frames (never queue, never hang); statement
//! timeouts cancel cooperatively inside the engine and again at every
//! cursor-page boundary; slow consumers get back-pressure (a bounded
//! per-connection outbox — when full, the server stops reading from that
//! socket); idle sessions are reaped; shutdown drains in-flight requests
//! before the workers exit. Everything is observable through
//! `aiql_telemetry` (`aiql_server_*`, see docs/METRICS.md) and, for
//! deterministic tests, through the per-handle [`ServerStats`].
//!
//! # Examples
//!
//! ```
//! use aiql_server::{Server, ServerConfig};
//! use aiql_storage::{EventStore, SharedStore, StoreConfig};
//!
//! let store = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
//! let handle = Server::spawn(&store, ServerConfig::default()).unwrap();
//! let addr = handle.addr(); // connect aiql-client here
//! assert_eq!(handle.stats().active_sessions, 0);
//! handle.shutdown();
//! # let _ = addr;
//! ```

mod conn;
pub(crate) mod metrics;
mod poll;
pub mod proto;
mod tenant;

use conn::Conn;
use metrics::metrics;
use poll::{PollFd, Waker, POLLIN};
use std::io::{self, ErrorKind::Interrupted, ErrorKind::WouldBlock};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use aiql_storage::SharedStore;

/// How a [`Server`] behaves: pool size, quotas, budgets, limits.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads multiplexing connections. `0` = auto:
    /// `min(4, available_parallelism)`.
    pub workers: usize,
    /// Open sessions one tenant may hold across all its connections.
    pub max_sessions_per_tenant: usize,
    /// Statements one tenant may have executing at once.
    pub max_concurrent_statements: usize,
    /// Server-side wall-clock cap per statement (execute through last
    /// fetch). Zero = no server cap; clients can only tighten it.
    pub statement_timeout: Duration,
    /// Sessions untouched this long are reaped (zero disables reaping).
    pub idle_session_timeout: Duration,
    /// Outbox bytes per connection before the server stops reading new
    /// requests from it (back-pressure on slow consumers).
    pub outbox_limit: usize,
    /// Upper bound on rows per `FetchPage` regardless of the request.
    pub page_rows_max: u32,
    /// On shutdown, how long workers may spend draining buffered
    /// requests and flushing outboxes before closing forcibly.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            max_sessions_per_tenant: 64,
            max_concurrent_statements: 8,
            statement_timeout: Duration::from_secs(30),
            idle_session_timeout: Duration::from_secs(300),
            outbox_limit: 1 << 20,
            page_rows_max: 4096,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        match self.workers {
            0 => thread::available_parallelism().map_or(1, Into::into).min(4),
            n => n,
        }
    }
}

/// Per-server counters mirrored out of the hot path for deterministic
/// assertions (the global telemetry registry aggregates across servers
/// and test runs; these are this instance's alone).
#[derive(Default)]
pub(crate) struct Counts {
    pub active_connections: AtomicI64,
    pub active_sessions: AtomicI64,
    pub active_cursors: AtomicI64,
    pub sessions_opened: AtomicU64,
    pub executes: AtomicU64,
    pub quota_rejections: AtomicU64,
    pub timeouts: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub backpressure_stalls: AtomicU64,
}

/// A point-in-time snapshot of one server's counters, from
/// [`ServerHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    pub active_connections: i64,
    pub active_sessions: i64,
    pub active_cursors: i64,
    pub sessions_opened: u64,
    pub executes: u64,
    pub quota_rejections: u64,
    pub timeouts: u64,
    pub protocol_errors: u64,
    pub backpressure_stalls: u64,
}

/// State shared by the acceptor, the workers, and the handle.
pub(crate) struct Shared {
    pub store: SharedStore,
    pub config: ServerConfig,
    /// Set once by shutdown: stop accepting, drain, exit.
    pub draining: AtomicBool,
    pub tenants: tenant::TenantGate,
    /// Session / statement / cursor id source (ids are server-unique).
    pub next_id: AtomicU64,
    pub counts: Counts,
}

/// The server: spawn with [`Server::spawn`], control through the
/// returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `127.0.0.1:0` (an ephemeral loopback port) and starts the
    /// acceptor and worker threads. See [`Server::bind`] to choose the
    /// address.
    pub fn spawn(store: &SharedStore, config: ServerConfig) -> io::Result<ServerHandle> {
        Server::bind(store, config, "127.0.0.1:0")
    }

    /// Binds `addr` and starts the service.
    pub fn bind(
        store: &SharedStore,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store: store.clone(),
            config,
            draining: AtomicBool::new(false),
            tenants: tenant::TenantGate::new(),
            next_id: AtomicU64::new(1),
            counts: Counts::default(),
        });

        // One waker per serving thread, the acceptor's last; all made
        // before any thread starts so a failure here leaves none behind.
        let workers = config.effective_workers();
        let wakers = (0..=workers)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let mut handles = Vec::with_capacity(workers + 1);
        let mut inboxes = Vec::with_capacity(workers);
        for (w, waker) in wakers[..workers].iter().cloned().enumerate() {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            inboxes.push((tx, waker.clone()));
            let shared = shared.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("aiql-serve-w{w}"))
                    .spawn(move || worker_loop(&shared, &rx, &waker))
                    .expect("spawn worker"),
            );
        }

        let (shared_acc, waker) = (shared.clone(), wakers[workers].clone());
        handles.push(
            thread::Builder::new()
                .name("aiql-serve-accept".to_string())
                .spawn(move || accept_loop(&shared_acc, &listener, &waker, &inboxes))
                .expect("spawn acceptor"),
        );

        Ok(ServerHandle {
            addr: local,
            shared,
            wakers,
            threads: Mutex::new(handles),
        })
    }
}

/// `poll(2)` over descriptors the calling thread keeps open fails only on
/// a bug here (`EFAULT`, `EINVAL`) or kernel memory exhaustion.
const POLL_OWN_FDS: &str = "poll(2) over this thread's own descriptors";

/// Accepts connections until shutdown, blocked on `[waker, listener]` in
/// between; deals them round-robin to the workers and wakes the one dealt
/// to. Dropping the inbox senders on exit tells every worker no more
/// connections are coming.
fn accept_loop(
    shared: &Shared,
    listener: &TcpListener,
    waker: &Waker,
    inboxes: &[(mpsc::Sender<TcpStream>, Arc<Waker>)],
) {
    let mut fds = [waker.pollfd(), PollFd::new(listener, POLLIN)];
    let mut next = 0usize;
    loop {
        poll::wait(&mut fds, None).expect(POLL_OWN_FDS);
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // A worker only disappears at shutdown; a failed send just
                // drops the connection, which is the right drain behavior.
                let (inbox, worker) = &inboxes[next % inboxes.len()];
                let _ = inbox.send(stream);
                worker.wake();
                next += 1;
            }
            // The peer gave up before we got to it, or a signal: wait again.
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
            // Out of descriptors or the like: the listener stays readable,
            // so back off on the waker alone instead of spinning on it.
            Err(_) => {
                poll::wait(&mut fds[..1], Some(Duration::from_millis(5))).expect(POLL_OWN_FDS);
            }
        }
    }
}

/// How often a worker checks sessions for idleness while any exist.
const REAP_TICK: Duration = Duration::from_millis(100);

/// How long a worker that just served a request keeps looking for the next
/// before it blocks: above the ~40 µs in which a closed-loop client follows
/// a reply (blocking in between halts the CPU, and what waking it costs is
/// the host's to decide), below the ≥ 110 µs a client spends on a page.
const LINGER: Duration = Duration::from_micros(80);

/// Multiplexes this worker's connections until shutdown drains them:
/// blocks in `poll(2)` over `[waker, conn₀, conn₁, …]` and pumps the
/// connections that came back ready.
fn worker_loop(shared: &Shared, rx: &mpsc::Receiver<TcpStream>, waker: &Waker) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let reaping = !shared.config.idle_session_timeout.is_zero();
    let (mut reaped, mut busy_since, mut served) = (Instant::now(), Instant::now(), false);
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Only two things here are driven by time: the drain deadline,
        // and the reap tick while any session exists.
        let timeout = match drain_deadline {
            Some(deadline) => Some(deadline.saturating_duration_since(Instant::now())),
            None if reaping && shared.counts.active_sessions.load(Ordering::Relaxed) > 0 => {
                Some(REAP_TICK.saturating_sub(reaped.elapsed()))
            }
            None => None,
        };
        fds.clear();
        fds.push(waker.pollfd());
        fds.extend(conns.iter().map(|c| c.pollfd(drain_deadline.is_some())));
        // Having just served a request, look for the next without blocking.
        let (mut ready, lingering) = (0, Instant::now());
        while served && ready == 0 && lingering.elapsed() < LINGER {
            ready = poll::wait(&mut fds, Some(Duration::ZERO)).expect(POLL_OWN_FDS);
        }
        if ready == 0 {
            metrics()
                .worker_busy_micros
                .add(busy_since.elapsed().as_micros() as u64);
            ready = poll::wait(&mut fds, timeout).expect(POLL_OWN_FDS);
            busy_since = Instant::now();
        }
        let woken = fds[0].ready();
        if woken {
            waker.drain();
        }
        metrics().poll_wakeups.inc();
        let ready_conns = (ready - woken as usize) as u64;
        metrics().poll_ready_conns.record(ready_conns);
        served = ready_conns > 0;

        // The pass that first sees shutdown pumps every connection, ready
        // or not: each takes its one final read and the idle ones close.
        // Past the drain deadline, whatever is left is closed as it is.
        let draining = shared.draining.load(Ordering::Acquire);
        let pump_all = draining && drain_deadline.is_none();
        if pump_all {
            drain_deadline = Some(Instant::now() + shared.config.drain_timeout);
        }
        let force_close = drain_deadline.is_some_and(|d| Instant::now() >= d);
        // `fds[1 + k]` is connection `k` as polled: `retain_mut` visits in
        // order, and adoption (below) only appends.
        let mut polled = fds[1..].iter();
        conns.retain_mut(|c| {
            let ready = polled.next().is_some_and(PollFd::ready) || pump_all;
            let close = force_close || (ready && c.pump(shared, draining).close);
            if close {
                c.cleanup(shared);
            }
            !close
        });

        // Adopt newly accepted connections; their first bytes show up as
        // readiness in the next wait. Arrivals during drain are dropped.
        while let Ok(stream) = rx.try_recv() {
            if !draining {
                conns.push(Conn::new(stream, shared));
            }
        }
        if reaping && reaped.elapsed() >= REAP_TICK {
            reaped = Instant::now();
            conns.iter_mut().for_each(|c| c.reap_idle(shared, reaped));
        }
        if draining && conns.is_empty() {
            return;
        }
    }
}

/// Owner handle for a running server: address, live stats, shutdown.
///
/// Dropping the handle shuts the server down (and joins its threads), so
/// tests and benches can't leak listeners.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// One per serving thread, to end its untimed wait at shutdown.
    wakers: Vec<Arc<Waker>>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with the ephemeral port of
    /// [`Server::spawn`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This instance's live counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counts;
        ServerStats {
            active_connections: c.active_connections.load(Ordering::Relaxed),
            active_sessions: c.active_sessions.load(Ordering::Relaxed),
            active_cursors: c.active_cursors.load(Ordering::Relaxed),
            sessions_opened: c.sessions_opened.load(Ordering::Relaxed),
            executes: c.executes.load(Ordering::Relaxed),
            quota_rejections: c.quota_rejections.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            backpressure_stalls: c.backpressure_stalls.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, serve every request already
    /// received, flush outboxes, then join all threads. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.wakers.iter().for_each(|w| w.wake());
        let mut threads = self.threads.lock().expect("server threads poisoned");
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
