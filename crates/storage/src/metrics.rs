//! The storage layer's handles into the process-wide telemetry registry.

use aiql_rdb::ScanProfile;
use aiql_telemetry::{global, Counter, Gauge, Histogram};
use std::sync::OnceLock;

pub(crate) struct StorageMetrics {
    /// `aiql_storage_publishes_total` — snapshots actually swapped in
    /// (no-op publishes with nothing new are not counted).
    pub publishes: Counter,
    /// `aiql_storage_publish_micros` — time to clone the head and swap
    /// the published `Arc`.
    pub publish_micros: Histogram,
    /// `aiql_storage_publish_bytes_copied` — bytes deep-copied by
    /// copy-on-write detaches since the previous publish. With chunked
    /// tables each detach copies only the open tail (sealed chunks stay
    /// shared), and the publish path seals tails first, so this now
    /// measures tail-sized copies — O(tail), no longer O(partition)
    /// (ROADMAP item 1, resolved).
    pub publish_bytes_copied: Histogram,
    /// `aiql_storage_sealed_chunks_shared` — sealed chunks the head
    /// physically shares with the outgoing snapshot at publish time: how
    /// much immutable history each publish reuses instead of copying.
    pub sealed_chunks_shared: Gauge,
    /// `aiql_storage_checkpoint_micros` — full checkpoint duration
    /// (snapshot write + WAL rotate + prune).
    pub checkpoint_micros: Histogram,
    /// `aiql_storage_recovery_micros` — durable-store open time
    /// (snapshot load + WAL tail replay).
    pub recovery_micros: Histogram,
    /// `aiql_storage_like_rows_total` — rows a `LIKE` predicate decided
    /// by dictionary code instead of by matching their string.
    pub like_rows: Counter,
    /// `aiql_storage_like_symbol_evals_total` — pattern evaluations those
    /// rows cost: one per distinct symbol per table scan.
    pub like_symbol_evals: Counter,
    /// `aiql_storage_in_probe_lookups_total` — B-tree lookups made by
    /// index equality probes (`=` / IN-lists, clipped per chunk).
    pub in_probe_lookups: Counter,
}

pub(crate) fn metrics() -> &'static StorageMetrics {
    static METRICS: OnceLock<StorageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StorageMetrics {
        publishes: global().counter("aiql_storage_publishes_total"),
        publish_micros: global().histogram("aiql_storage_publish_micros"),
        publish_bytes_copied: global().histogram("aiql_storage_publish_bytes_copied"),
        sealed_chunks_shared: global().gauge("aiql_storage_sealed_chunks_shared"),
        checkpoint_micros: global().histogram("aiql_storage_checkpoint_micros"),
        recovery_micros: global().histogram("aiql_storage_recovery_micros"),
        like_rows: global().counter("aiql_storage_like_rows_total"),
        like_symbol_evals: global().counter("aiql_storage_like_symbol_evals_total"),
        in_probe_lookups: global().counter("aiql_storage_in_probe_lookups_total"),
    })
}

/// Records what one finished scan's prepared predicates did — `profile` as
/// the scan (all its partitions merged) left it. The query engine calls
/// this once per scan it issues; `aiql-rdb`, where the counts are taken,
/// has no registry handle.
pub fn record_scan(profile: &ScanProfile) {
    let m = metrics();
    m.like_rows.add(profile.like_rows);
    m.like_symbol_evals.add(profile.like_symbol_evals);
    m.in_probe_lookups.add(profile.in_probe_lookups);
}
