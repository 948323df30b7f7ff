//! The WAL's handles into the process-wide telemetry registry.
//!
//! An append records nothing; each column frame records its size
//! (`aiql_wal_append_bytes`) and its encode time (`aiql_wal_encode_micros`)
//! when it is encoded, and its decode time (`aiql_wal_decode_micros`) when
//! a scan decodes it; everything else is recorded per `write(2)` or per
//! fsync.

aiql_telemetry::metrics! {
    pub(crate) struct WalMetrics via metrics(), prefix "aiql_wal_";

    appends: Counter("aiql_wal_appends_total", "records",
        "Records (rows) handed to `write(2)` (durable only after the next sync); added once \
         per write, so `appends / writes` is records per write"),
    append_bytes: Histogram("aiql_wal_append_bytes", "bytes",
        "Framed size of each column frame, one sample per frame (≈ one per flush) taken when \
         it is encoded; the `sum` is the denominator of publish amplification"),
    encode_micros: Histogram("aiql_wal_encode_micros", "µs",
        "Time to encode one column frame — write its lanes (filled at append) as columns, CRC \
         the payload — one sample per frame; the log-encode share of an acknowledgement"),
    decode_micros: Histogram("aiql_wal_decode_micros", "µs",
        "Time to decode one column frame into its lanes during a scan — reads and CRCs \
         excluded — one sample per frame (a version-1 segment's frame holds one record); \
         the log-decode share of a recovery's replay"),
    writes: Counter("aiql_wal_writes_total", "writes",
        "`write(2)` calls on the active segment: one per flush, plus one per ≈ 1 MiB a caller \
         appends without syncing"),
    write_bytes: Histogram("aiql_wal_write_bytes", "bytes",
        "Bytes per `write(2)`, one sample per call (a shipment-sized flush is ≈ 30 KB)"),
    fsync_micros: Histogram("aiql_wal_fsync_micros", "µs",
        "Latency of the `sync_data` inside `Wal::sync` (the write before it excluded) — the \
         acknowledgement point of durable ingestion"),
    rollovers: Counter("aiql_wal_segment_rollovers_total", "segments",
        "Segments started after the first (size cap, checkpoint rotation, or a version-1 \
         active segment at open)"),
    poisoned: Counter("aiql_wal_poisoned_total", "handles",
        "Handles poisoned by a failed fsync (segment or directory) or a failed \
         truncate-to-synced after a failed write"),
    dir_sync_unsupported: Counter("aiql_wal_dir_sync_unsupported_total", "syncs",
        "Directory fsyncs skipped because the platform cannot fsync directories"),
}
