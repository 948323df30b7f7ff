//! aiql-engine's telemetry handles, resolved once against the global
//! [`aiql_telemetry::Registry`] and recorded lock-free afterwards.

use aiql_telemetry::trace::SpanNode;

aiql_telemetry::metrics! {
    pub(crate) struct EngineMetrics via metrics(), prefix "aiql_engine_";

    statements: Counter("aiql_engine_statements_total", "statements",
        "Statements executed (`Bound::execute` and `Bound::explain`)"),
    prepare_micros: Histogram("aiql_engine_prepare_micros", "µs",
        "`Session::prepare` wall time (hits and misses alike)"),
    execute_micros: Histogram("aiql_engine_execute_micros", "µs",
        "Full statement execution wall time"),
    plan_micros: Histogram("aiql_engine_plan_micros", "µs",
        "Scheduler planning (pattern scoring) per statement"),
    scan_micros: Histogram("aiql_engine_scan_micros", "µs",
        "Per-pattern data-query scan time"),
    join_micros: Histogram("aiql_engine_join_micros", "µs",
        "Tuple-set create/extend/merge time per join step"),
    score_micros: Histogram("aiql_engine_score_micros", "µs",
        "Result assembly (projection, aggregation, sort)"),
    slow_queries: Counter("aiql_engine_slow_queries_total", "executions",
        "Executions at or above the slow-query threshold (default 100 ms)"),
    cursor_rows: Counter("aiql_engine_cursor_rows_total", "rows",
        "Rows streamed out of cursors"),
    cursor_fetches: Counter("aiql_engine_cursor_fetches_total", "batches",
        "`Cursor::fetch` batches served"),
    pool_tasks: Counter("aiql_engine_pool_tasks", "tasks",
        "Partition-scan tasks submitted to the scatter worker pool (none for a scan that runs inline)"),
    pool_queue_wait_micros: Histogram("aiql_engine_pool_queue_wait_micros", "µs",
        "Per-task wait between scatter submit and a worker picking it up"),
    pool_workers: Gauge("aiql_engine_pool_workers", "threads",
        "Worker threads alive in the process-wide scatter pool (grown lazily, capped at 16)"),
    partition_scan_micros: Histogram("aiql_engine_partition_scan_micros", "µs",
        "Wall time of one admitted partition's scan task"),
    partition_scan_rows: Histogram("aiql_engine_partition_scan_rows", "rows",
        "Rows matched by one admitted partition's scan task"),
}

/// Folds a finished execution trace into the per-phase histograms: every
/// direct child of the root is one recorded phase sample.
pub(crate) fn record_phases(m: &EngineMetrics, tree: &SpanNode) {
    for c in &tree.children {
        match c.name.as_str() {
            "plan" => m.plan_micros.record(c.micros),
            "join" => m.join_micros.record(c.micros),
            "score" => m.score_micros.record(c.micros),
            s if s.starts_with("scan:") => m.scan_micros.record(c.micros),
            _ => {}
        }
    }
}
