//! The WAL's handles into the process-wide telemetry registry.
//!
//! Resolved once (first use) and recorded into lock-free afterwards. The
//! per-record append path records one histogram sample
//! (`aiql_wal_append_bytes`); everything else is recorded per `write(2)`
//! or per fsync.

use aiql_telemetry::{global, Counter, Histogram};
use std::sync::OnceLock;

pub(crate) struct WalMetrics {
    /// `aiql_wal_appends_total` — records handed to `write(2)` (durable
    /// only after the next sync); added once per write.
    pub appends: Counter,
    /// `aiql_wal_append_bytes` — framed record sizes, bytes; one sample per
    /// record, taken when the frame is encoded.
    pub append_bytes: Histogram,
    /// `aiql_wal_writes_total` — `write(2)` calls on the active segment.
    pub writes: Counter,
    /// `aiql_wal_write_bytes` — bytes per `write(2)`; one sample per call.
    pub write_bytes: Histogram,
    /// `aiql_wal_fsync_micros` — latency of the `sync_data` inside
    /// [`crate::Wal::sync`], the write before it excluded.
    pub fsync_micros: Histogram,
    /// `aiql_wal_segment_rollovers_total` — segments started after the
    /// first, whether by size cap or checkpoint rotation.
    pub rollovers: Counter,
    /// `aiql_wal_poisoned_total` — handles poisoned by a failed fsync or a
    /// failed truncate-to-synced (each one forces a reopen to keep
    /// writing).
    pub poisoned: Counter,
    /// `aiql_wal_dir_sync_unsupported_total` — directory fsyncs skipped
    /// because the platform cannot open directories for fsync (degraded
    /// durability, see [`crate::fsync_dir`]).
    pub dir_sync_unsupported: Counter,
}

pub(crate) fn metrics() -> &'static WalMetrics {
    static METRICS: OnceLock<WalMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WalMetrics {
        appends: global().counter("aiql_wal_appends_total"),
        append_bytes: global().histogram("aiql_wal_append_bytes"),
        writes: global().counter("aiql_wal_writes_total"),
        write_bytes: global().histogram("aiql_wal_write_bytes"),
        fsync_micros: global().histogram("aiql_wal_fsync_micros"),
        rollovers: global().counter("aiql_wal_segment_rollovers_total"),
        poisoned: global().counter("aiql_wal_poisoned_total"),
        dir_sync_unsupported: global().counter("aiql_wal_dir_sync_unsupported_total"),
    })
}
