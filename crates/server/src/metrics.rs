//! aiql-server's telemetry handles, resolved once against the global
//! [`aiql_telemetry::Registry`] and recorded lock-free afterwards.

aiql_telemetry::metrics! {
    pub(crate) struct ServerMetrics via metrics(), prefix "aiql_server_";

    connections_opened: Counter("aiql_server_connections_opened_total", "connections",
        "TCP connections accepted"),
    connections_closed: Counter("aiql_server_connections_closed_total", "connections",
        "Connections fully cleaned up (graceful or dropped)"),
    active_connections: Gauge("aiql_server_active_connections", "connections",
        "Connections currently owned by workers"),
    sessions_opened: Counter("aiql_server_sessions_opened_total", "sessions",
        "`OpenSession` requests admitted"),
    active_sessions: Gauge("aiql_server_active_sessions", "sessions",
        "Sessions currently open across all tenants"),
    active_cursors: Gauge("aiql_server_active_cursors", "cursors",
        "Cursors held open server-side"),
    prepares: Counter("aiql_server_prepares_total", "statements",
        "`Prepare` requests that compiled"),
    executes: Counter("aiql_server_executes_total", "statements",
        "`Execute` requests that ran"),
    fetches: Counter("aiql_server_fetches_total", "pages",
        "`FetchPage` requests served"),
    execute_micros: Histogram("aiql_server_execute_micros", "µs",
        "Server-side wall time of one `Execute`: bind plus engine run (request decode and \
         the `Executed` frame's encoding excluded)"),
    fetch_micros: Histogram("aiql_server_fetch_micros", "µs",
        "Server-side wall time of one `FetchPage`: the rows pulled from the cursor (the \
         `Page` frame's encoding excluded)"),
    bytes_in: Counter("aiql_server_bytes_in_total", "bytes",
        "Frame bytes read off sockets"),
    bytes_out: Counter("aiql_server_bytes_out_total", "bytes",
        "Frame bytes queued into connection outboxes (counted at encode time, whether or not \
         the socket has taken them yet)"),
    quota_rejections: Counter("aiql_server_quota_rejections_total", "requests",
        "Session/statement admissions rejected with `QuotaExceeded`"),
    timeouts: Counter("aiql_server_timeouts_total", "statements",
        "Statements cancelled with `Timeout` (execute or page boundary)"),
    protocol_errors: Counter("aiql_server_protocol_errors_total", "frames",
        "Requests answered with a `Protocol` error: malformed frames (bad CRC, oversize, \
         unknown opcode or body) and bad handshakes (no `Hello` first, a second `Hello`, an \
         unsupported version, an empty tenant)"),
    backpressure_stalls: Counter("aiql_server_backpressure_stalls_total", "stalls",
        "Times a full outbox made a worker stop reading a connection"),
    idle_reaped: Counter("aiql_server_idle_reaped_total", "sessions",
        "Sessions closed by the idle reaper"),
    poll_wakeups: Counter("aiql_server_poll_wakeups_total", "wakeups",
        "Times a worker's wait ended — blocked or lingering (readiness, a waker, or a \
         timeout)"),
    poll_ready_conns: Histogram("aiql_server_poll_ready_conns", "connections",
        "Connections ready per worker wakeup; 0 is a waker or timer wake"),
    worker_busy_micros: Counter("aiql_server_worker_busy_micros_total", "µs",
        "Worker time between a blocking `poll` returning and the next blocking `poll` call \
         — serving, plus the ≤ 80 µs it lingers for a follow-up request before blocking — \
         summed over workers; utilisation = busy / (wall × workers)"),
    tenant_executes: CounterFamily("aiql_server_tenant_executes_total_<tenant>", "statements",
        "Per-tenant execute count (name sanitized into the metric name)"),
}

/// The executing tenant's counter in the `tenant_executes` family, its
/// name sanitized to metric-safe characters.
pub(crate) fn tenant_executes(tenant: &str) -> aiql_telemetry::Counter {
    let safe: String = tenant
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    metrics().tenant_executes.member(&safe)
}
