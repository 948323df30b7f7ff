//! Per-connection state machine: frame reassembly, request dispatch,
//! bounded outbox, and resource cleanup.
//!
//! A [`Conn`] is owned by exactly one worker thread and pumped in passes:
//! read whatever bytes arrived (unless the outbox is over its cap —
//! back-pressure), process complete frames into responses, flush the
//! outbox as far as the socket accepts. All socket I/O is nonblocking;
//! `WouldBlock` just ends the phase. Sessions, prepared statements, and
//! cursors all live on the connection, so a dead socket can never leak
//! them: [`Conn::cleanup`] returns every quota slot and gauge increment
//! the connection ever took.

use crate::metrics::metrics;
use crate::poll::{PollFd, POLLIN, POLLOUT};
use crate::proto::{ErrorCode, FrameBuffer, Request, Response, PROTO_VERSION};
use crate::Shared;
use aiql_engine::{Cursor, EngineError, Params, Session};
use std::collections::HashMap;
#[cfg(test)]
use std::io::Read; // the hand-pumped test reads its client socket
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One open session on this connection.
struct ServerSession {
    engine: Session,
    tenant: String,
    stmts: HashMap<u64, aiql_engine::Prepared>,
    /// Cursor ids owned by this session, for cascade close.
    cursor_ids: Vec<u64>,
    last_used: Instant,
}

/// One open cursor on this connection.
struct ServerCursor {
    session: u64,
    cursor: Cursor,
    /// Wall-clock budget for the whole statement, enforced again at every
    /// page boundary: a slow consumer cannot hold rows hostage forever.
    deadline: Option<Instant>,
}

/// Bytes a pump reads off its socket before serving them: bounds what a
/// peer faster than the worker can make it buffer ahead of back-pressure.
const READ_BURST: u64 = 256 * 1024;

/// What a pump pass concluded about the connection.
pub(crate) struct Pump {
    /// The connection is finished and must be cleaned up.
    pub close: bool,
}

/// Moves a counter or gauge under the one name it has in the registry and
/// in this server's own counts (statistics: they publish nothing else).
macro_rules! tally {
    ($shared:expr, $name:ident, $by:expr) => {{
        metrics().$name.add($by);
        $shared.counts.$name.fetch_add($by, Ordering::Relaxed);
    }};
}

pub(crate) struct Conn {
    stream: TcpStream,
    fb: FrameBuffer,
    /// Outbox: encoded frames waiting for the socket, `out[out_at..]`
    /// pending. Bounded by `ServerConfig::outbox_limit` via back-pressure.
    out: Vec<u8>,
    out_at: usize,
    /// Tenant name once `Hello` succeeded.
    tenant: Option<String>,
    sessions: HashMap<u64, ServerSession>,
    cursors: HashMap<u64, ServerCursor>,
    /// Flush what's queued, then close (protocol violation or peer EOF).
    closing: bool,
    /// Currently stalled on a full outbox (edge-counted).
    stalled: bool,
    /// Drain mode has taken its one final read of the socket: requests
    /// fully written before shutdown sit in the kernel buffer and are
    /// slurped and served; anything later is not.
    drain_slurped: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, shared: &Shared) -> Conn {
        metrics().connections_opened.inc();
        tally!(shared, active_connections, 1);
        Conn {
            stream,
            fb: FrameBuffer::new(),
            out: Vec::new(),
            out_at: 0,
            tenant: None,
            sessions: HashMap::new(),
            cursors: HashMap::new(),
            closing: false,
            stalled: false,
            drain_slurped: false,
        }
    }

    fn outbox_len(&self) -> usize {
        self.out.len() - self.out_at
    }

    fn queue(&mut self, resp: &Response) {
        // Compact the consumed prefix before growing.
        self.out.drain(..std::mem::take(&mut self.out_at));
        let start = self.out.len();
        resp.encode_frame_into(&mut self.out)
            .expect("responses always encode");
        metrics().bytes_out.add((self.out.len() - start) as u64);
    }

    fn queue_error(&mut self, code: ErrorCode, message: impl Into<String>) {
        self.queue(&Response::Error {
            code,
            message: message.into(),
        });
    }

    fn protocol_violation(&mut self, shared: &Shared, message: String) {
        tally!(shared, protocol_errors, 1);
        self.queue_error(ErrorCode::Protocol, message);
    }

    /// Whether the next pump may read: not while closing, not while the
    /// outbox is over its cap (the kernel's receive buffer then pushes back
    /// on the client: back-pressure), not after drain mode's one final read.
    fn wants_read(&self, draining: bool) -> bool {
        !(self.closing || self.stalled || (draining && self.drain_slurped))
    }

    /// What the worker waits for before pumping again: bytes to read
    /// when a pump would read them, room to write iff bytes wait.
    pub fn pollfd(&self, draining: bool) -> PollFd {
        let read = if self.wants_read(draining) { POLLIN } else { 0 };
        let write = if self.outbox_len() > 0 { POLLOUT } else { 0 };
        PollFd::new(&self.stream, read | write)
    }

    /// One scheduling pass: read → process → flush. On return nothing is
    /// left that only another pump could move: every complete frame is
    /// answered unless the outbox waits for the socket (`POLLOUT`).
    pub fn pump(&mut self, shared: &Shared, draining: bool) -> Pump {
        let failed = self.pump_io(shared, draining).is_err();
        // Edge-counted here, where the worker stops asking for reads: a
        // peer that never reads again never causes another pump.
        let full = self.outbox_len() >= shared.config.outbox_limit;
        if full && !self.stalled {
            tally!(shared, backpressure_stalls, 1);
        }
        self.stalled = full;
        // A closing connection dies once its queued responses are out; a
        // drained one once its final slurp is fully processed and flushed
        // (leftover bytes are an incomplete frame that can never complete).
        let done = self.closing || (draining && self.drain_slurped);
        let close = failed || (self.outbox_len() == 0 && done);
        Pump { close }
    }

    /// The socket work of a pump; an error means the connection is dead.
    fn pump_io(&mut self, shared: &Shared, draining: bool) -> io::Result<()> {
        // Read phase. Drain mode reads exactly once more, to pick up
        // requests fully sent before shutdown, then never again.
        let read = self.wants_read(draining);
        self.drain_slurped |= draining;
        if read {
            // One burst per pump: what a fast peer sends beyond it waits in
            // the socket (the next wait reports it) while this much is served.
            let burst = if draining { u64::MAX } else { READ_BURST };
            let before = self.fb.pending();
            let end = self.fb.read_available(&mut self.stream, burst);
            metrics().bytes_in.add((self.fb.pending() - before) as u64);
            match end {
                Ok(eof) => self.closing = eof,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }

        loop {
            // Process phase: complete frames become responses until the
            // outbox fills. While draining, requests already received are
            // still served (the "drain in-flight statements" guarantee).
            while !self.closing && self.outbox_len() < shared.config.outbox_limit {
                let request = match self.fb.next_frame() {
                    Ok(Some(payload)) => Request::decode(&payload).map_err(|e| e.to_string()),
                    Ok(None) => break,
                    Err(e) => Err(e.to_string()),
                };
                match request {
                    Ok(req) => self.handle_request(shared, draining, req),
                    // Corrupt framing, or valid framing around an unknown
                    // opcode or malformed body: the stream can no longer
                    // be trusted, so answer typed, then hang up.
                    Err(why) => {
                        self.protocol_violation(shared, why);
                        self.closing = true;
                    }
                }
            }
            let capped = !self.closing && self.outbox_len() >= shared.config.outbox_limit;

            // Flush phase.
            while self.outbox_len() > 0 {
                let pending = &self.out[self.out_at..];
                match aiql_fault::point("server.conn.write")
                    .and_then(|_| self.stream.write(pending))
                {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => self.out_at += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Frames may remain behind the cap the flush just lifted; no
            // socket event would announce them.
            if !capped {
                return Ok(());
            }
        }
    }

    fn handle_request(&mut self, shared: &Shared, draining: bool, req: Request) {
        // Everything but the handshake itself requires a completed Hello.
        if self.tenant.is_none() && !matches!(req, Request::Hello { .. }) {
            self.protocol_violation(
                shared,
                "Hello required before any other request".to_string(),
            );
            return;
        }
        match req {
            Request::Hello { version, tenant } => {
                if version != PROTO_VERSION {
                    self.protocol_violation(
                        shared,
                        format!(
                            "protocol version {version} unsupported (server speaks {PROTO_VERSION})"
                        ),
                    );
                    self.closing = true;
                } else if tenant.is_empty() {
                    self.protocol_violation(shared, "tenant name must be non-empty".to_string());
                } else if self.tenant.is_some() {
                    self.protocol_violation(shared, "already greeted".to_string());
                } else {
                    self.tenant = Some(tenant);
                    self.queue(&Response::HelloOk {
                        version: PROTO_VERSION,
                        server: format!("aiql-server/{}", env!("CARGO_PKG_VERSION")),
                    });
                }
            }
            Request::OpenSession => self.open_session(shared, draining),
            Request::Prepare { session, source } => self.prepare(shared, session, &source),
            Request::Execute {
                session,
                stmt,
                params,
                timeout_ms,
            } => self.execute(shared, session, stmt, params, timeout_ms),
            Request::FetchPage { cursor, max_rows } => self.fetch_page(shared, cursor, max_rows),
            Request::CloseCursor { cursor } => {
                if self.close_cursor(shared, cursor) {
                    self.queue(&Response::CursorClosed { cursor });
                } else {
                    self.queue_error(ErrorCode::NotFound, format!("no cursor {cursor}"));
                }
            }
            Request::CloseSession { session } => {
                if self.sessions.contains_key(&session) {
                    self.close_session(shared, session);
                    self.queue(&Response::SessionClosed { session });
                } else {
                    self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
                }
            }
            Request::Ping { token } => self.queue(&Response::Pong { token }),
        }
    }

    fn open_session(&mut self, shared: &Shared, draining: bool) {
        let tenant = self.tenant.clone().expect("greeted");
        if draining {
            self.queue_error(ErrorCode::ShuttingDown, "server is draining");
            return;
        }
        if !shared
            .tenants
            .try_open_session(&tenant, shared.config.max_sessions_per_tenant)
        {
            tally!(shared, quota_rejections, 1);
            self.queue_error(
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {tenant:?} at its session quota ({})",
                    shared.config.max_sessions_per_tenant
                ),
            );
            return;
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions.insert(
            id,
            ServerSession {
                engine: Session::open(&shared.store),
                tenant,
                stmts: HashMap::new(),
                cursor_ids: Vec::new(),
                last_used: Instant::now(),
            },
        );
        tally!(shared, sessions_opened, 1);
        tally!(shared, active_sessions, 1);
        self.queue(&Response::SessionOpened { session: id });
    }

    fn prepare(&mut self, shared: &Shared, session: u64, source: &str) {
        let Some(sess) = self.sessions.get_mut(&session) else {
            self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
            return;
        };
        sess.last_used = Instant::now();
        match sess.engine.prepare(source) {
            Ok(prepared) => {
                let params = prepared.params().iter().map(|p| p.name.clone()).collect();
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                sess.stmts.insert(id, prepared);
                metrics().prepares.inc();
                self.queue(&Response::Prepared { stmt: id, params });
            }
            Err(e) => self.queue_error(ErrorCode::Compile, e.to_string()),
        }
    }

    fn execute(
        &mut self,
        shared: &Shared,
        session: u64,
        stmt: u64,
        params: Vec<(String, aiql_core::ast::Lit)>,
        timeout_ms: u64,
    ) {
        let (prepared, engine, tenant) = {
            let Some(sess) = self.sessions.get_mut(&session) else {
                self.queue_error(ErrorCode::NotFound, format!("no session {session}"));
                return;
            };
            sess.last_used = Instant::now();
            let Some(prepared) = sess.stmts.get(&stmt) else {
                self.queue_error(ErrorCode::NotFound, format!("no statement {stmt}"));
                return;
            };
            // Prepared and Session are Arc-backed: clones share the plan.
            (prepared.clone(), sess.engine.clone(), sess.tenant.clone())
        };
        if !shared
            .tenants
            .try_begin_statement(&tenant, shared.config.max_concurrent_statements)
        {
            tally!(shared, quota_rejections, 1);
            self.queue_error(
                ErrorCode::QuotaExceeded,
                format!(
                    "tenant {tenant:?} at its concurrent-statement cap ({})",
                    shared.config.max_concurrent_statements
                ),
            );
            return;
        }

        // Effective budget: the server cap, tightened by the client's own
        // request if any (a client can never widen the server's cap; a
        // zero cap means the server imposes none).
        let cap = shared.config.statement_timeout;
        let requested = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
        let budget = match (cap.is_zero(), requested) {
            (false, Some(r)) => Some(cap.min(r)),
            (false, None) => Some(cap),
            (true, r) => r,
        };
        engine.set_statement_timeout(budget);

        let started = Instant::now();
        let ran = prepared
            .bind(params_from_wire(params))
            .and_then(|b| b.execute());
        shared.tenants.end_statement(&tenant);

        match ran {
            Ok(cursor) => {
                let elapsed_micros = cursor.elapsed().as_micros() as u64;
                tally!(shared, executes, 1);
                let micros = started.elapsed().as_micros() as u64;
                metrics().execute_micros.record(micros);
                crate::metrics::tenant_executes(&tenant).inc();
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let columns = cursor.columns().to_vec();
                let rows_total = cursor.remaining() as u64;
                self.cursors.insert(
                    id,
                    ServerCursor {
                        session,
                        cursor,
                        deadline: budget.map(|b| started + b),
                    },
                );
                self.sessions
                    .get_mut(&session)
                    .expect("session checked above")
                    .cursor_ids
                    .push(id);
                tally!(shared, active_cursors, 1);
                self.queue(&Response::Executed {
                    cursor: id,
                    columns,
                    rows_total,
                    elapsed_micros,
                });
            }
            Err(EngineError::Timeout) => {
                tally!(shared, timeouts, 1);
                self.queue_error(
                    ErrorCode::Timeout,
                    "statement exceeded its wall-clock budget",
                );
            }
            Err(e @ EngineError::Compile(_)) => self.queue_error(ErrorCode::Compile, e.to_string()),
            Err(e @ EngineError::Resource) => self.queue_error(ErrorCode::Resource, e.to_string()),
            Err(e) => self.queue_error(ErrorCode::Internal, e.to_string()),
        }
    }

    fn fetch_page(&mut self, shared: &Shared, cursor: u64, max_rows: u32) {
        let Some(sc) = self.cursors.get_mut(&cursor) else {
            self.queue_error(ErrorCode::NotFound, format!("no cursor {cursor}"));
            return;
        };
        let session = sc.session;
        // Page-boundary cancellation: the statement's budget covers its
        // whole cursor lifetime, checked cooperatively per page.
        if sc.deadline.is_some_and(|d| Instant::now() > d) {
            tally!(shared, timeouts, 1);
            self.close_cursor(shared, cursor);
            self.queue_error(ErrorCode::Timeout, "cursor exceeded its statement budget");
            return;
        }
        let started = Instant::now();
        let n = max_rows.clamp(1, shared.config.page_rows_max) as usize;
        let rows = sc.cursor.fetch(n);
        let done = sc.cursor.remaining() == 0;
        metrics().fetches.inc();
        let micros = started.elapsed().as_micros() as u64;
        metrics().fetch_micros.record(micros);
        if let Some(sess) = self.sessions.get_mut(&session) {
            sess.last_used = Instant::now();
        }
        if done {
            self.close_cursor(shared, cursor);
        }
        self.queue(&Response::Page { cursor, rows, done });
    }

    /// Closes one cursor, returning whether it existed.
    fn close_cursor(&mut self, shared: &Shared, id: u64) -> bool {
        let Some(sc) = self.cursors.remove(&id) else {
            return false;
        };
        if let Some(sess) = self.sessions.get_mut(&sc.session) {
            sess.cursor_ids.retain(|c| *c != id);
        }
        tally!(shared, active_cursors, -1);
        true
    }

    /// Closes a session and everything it owns (statements, cursors,
    /// quota slot). The caller has verified it exists.
    fn close_session(&mut self, shared: &Shared, id: u64) {
        let sess = self.sessions.remove(&id).expect("caller checked");
        for c in sess.cursor_ids {
            if self.cursors.remove(&c).is_some() {
                tally!(shared, active_cursors, -1);
            }
        }
        shared.tenants.close_session(&sess.tenant);
        tally!(shared, active_sessions, -1);
    }

    /// Reaps sessions idle past the configured horizon (zero: none).
    pub fn reap_idle(&mut self, shared: &Shared, now: Instant) {
        let horizon = shared.config.idle_session_timeout;
        let idle: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| !horizon.is_zero() && now.duration_since(s.last_used) > horizon)
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.close_session(shared, id);
            metrics().idle_reaped.inc();
        }
    }

    /// Returns every resource the connection holds: called exactly once,
    /// when the worker drops the connection for any reason (EOF, error,
    /// protocol violation, drain, fault injection).
    pub fn cleanup(&mut self, shared: &Shared) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            self.close_session(shared, id);
        }
        // Cursors whose session was already gone would otherwise leak
        // invisibly.
        for _ in self.cursors.drain() {
            tally!(shared, active_cursors, -1);
        }
        tally!(shared, active_connections, -1);
        metrics().connections_closed.inc();
    }
}

/// Rebuilds engine [`Params`] from the wire pairs.
fn params_from_wire(pairs: Vec<(String, aiql_core::ast::Lit)>) -> Params {
    pairs
        .into_iter()
        .fold(Params::new(), |p, (name, lit)| p.set(&name, lit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counts, ServerConfig, Shared};
    use aiql_storage::{EventStore, SharedStore, StoreConfig};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    /// A connection pair with the server side wrapped in a [`Conn`],
    /// pumped by the test itself — interleavings (like "request arrives,
    /// then drain begins") become deterministic.
    fn harness() -> (Arc<Shared>, Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nodelay(true).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nodelay(true).unwrap();
        served.set_nonblocking(true).unwrap();
        let shared = Arc::new(Shared {
            store: SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap()),
            config: ServerConfig::default(),
            draining: AtomicBool::new(false),
            tenants: crate::tenant::TenantGate::new(),
            next_id: AtomicU64::new(1),
            counts: Counts::default(),
        });
        let conn = Conn::new(served, &shared);
        (shared, conn, client)
    }

    fn response(client: &mut TcpStream) -> Response {
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(p) = fb.next_frame().unwrap() {
                return Response::decode(&p).unwrap();
            }
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "connection closed while awaiting a response");
            fb.extend(&buf[..n]);
        }
    }

    #[test]
    fn draining_refuses_new_sessions_with_a_typed_frame() {
        let (shared, mut conn, mut client) = harness();
        client
            .write_all(
                &Request::Hello {
                    version: PROTO_VERSION,
                    tenant: "late".to_string(),
                }
                .to_frame()
                .unwrap(),
            )
            .unwrap();
        conn.pump(&shared, false);
        assert!(matches!(response(&mut client), Response::HelloOk { .. }));

        // The OpenSession is fully delivered (loopback) before the drain
        // pass slurps it: it must be answered ShuttingDown, not dropped,
        // and the connection must then finish.
        client
            .write_all(&Request::OpenSession.to_frame().unwrap())
            .unwrap();
        let pump = conn.pump(&shared, true);
        assert!(matches!(
            response(&mut client),
            Response::Error {
                code: ErrorCode::ShuttingDown,
                ..
            }
        ));
        assert!(pump.close, "nothing left to drain after the answer");
        conn.cleanup(&shared);
        assert_eq!(shared.counts.active_sessions.load(Ordering::Relaxed), 0);
        assert_eq!(shared.counts.active_connections.load(Ordering::Relaxed), 0);
    }
}
