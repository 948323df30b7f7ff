//! The ingestion pipeline's handles into the process-wide telemetry
//! registry.

aiql_telemetry::metrics! {
    pub(crate) struct IngestMetrics via metrics(), prefix "aiql_ingest_";

    queue_rows: Gauge("aiql_ingest_queue_rows", "rows",
        "Rows (events + entities) currently queued — the level the high-water mark bounds"),
    backpressure_rejections: Counter("aiql_ingest_backpressure_rejections_total", "submits",
        "Submits refused at the high-water mark (or while degraded)"),
    flush_micros: Histogram("aiql_ingest_flush_micros", "µs",
        "Full flush latency, including the acknowledging fsync on durable ingestors"),
    flush_rows: Histogram("aiql_ingest_flush_rows", "rows",
        "Rows applied per flush"),
    dead_letter_rows: Counter("aiql_ingest_dead_letter_rows_total", "rows",
        "Rows the storage layer rejected; counted, skipped, moved past"),
    dead_letter_queue_depth: Gauge("aiql_ingest_dead_letter_queue_depth", "rows",
        "Dead letters currently retained for inspection (bounded at 1024)"),
    flush_retries: Counter("aiql_ingest_flush_retries_total", "attempts",
        "Flush attempts re-run after a transient durability fault"),
    degraded_transitions: Counter("aiql_ingest_degraded_transitions_total", "entries",
        "Entries into degraded (out-of-space) mode"),
    state: Gauge("aiql_ingest_state", "enum",
        "Current `IngestState`: 0 healthy, 1 degraded, 2 poisoned"),
}
