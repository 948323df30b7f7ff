//! The storage layer's handles into the process-wide telemetry registry.

use aiql_rdb::ScanProfile;

aiql_telemetry::metrics! {
    pub(crate) struct StorageMetrics via metrics(), prefix "aiql_storage_";

    publishes: Counter("aiql_storage_publishes_total", "publishes",
        "Snapshots actually swapped in (no-op publishes are not counted)"),
    publish_micros: Histogram("aiql_storage_publish_micros", "µs",
        "Time of a whole publish: clone the head (every table by refcount; nothing is \
         sealed), swap the published `Arc`, and set the resident-bytes gauges"),
    publish_bytes_copied: Histogram("aiql_storage_publish_bytes_copied", "bytes",
        "Bytes deep-copied by copy-on-write detaches between publishes. Sealed chunks and full \
         blocks of an open tail are refcount-shared, so a detach copies only a tail's \
         **partial block** (at most `TAIL_BLOCK_ROWS` = 64 rows), a row tail (a table \
         without a projection) whole"),
    sealed_chunks_shared: Gauge("aiql_storage_sealed_chunks_shared", "chunks",
        "Sealed chunks the head physically shares with the outgoing snapshot at publish time \
         — how much immutable history each publish reuses instead of copying"),
    checkpoint_micros: Histogram("aiql_storage_checkpoint_micros", "µs",
        "Full checkpoint duration (snapshot write + WAL rotate + prune)"),
    recovery_micros: Histogram("aiql_storage_recovery_micros", "µs",
        "Durable-store open time (snapshot load + WAL tail replay)"),
    snapshot_load_micros: Histogram("aiql_storage_snapshot_load_micros", "µs",
        "One snapshot file's load during recovery: read, CRC, dictionary, and every table \
         (a columnar store's sealed chunks read as columns, then each chunk's indexes built \
         by radix-sorting its packed offsets; open tails as rows)"),
    replay_micros: Histogram("aiql_storage_replay_micros", "µs",
        "Recovery's WAL tail pass: scanning the log's segments, decoding each frame into its \
         column lanes (`aiql_wal_decode_micros` is that share) and applying its rows past the \
         snapshot straight from the lanes into the tables (`EventStore::apply_frame`: no \
         record, event or attribute map built per row)"),
    like_rows: Counter("aiql_storage_like_rows_total", "rows",
        "Rows a `LIKE` / `NOT LIKE` predicate decided by dictionary code (the `LikeSym` \
         kernel) instead of by matching the row's string; per scan in `EXPLAIN` and the \
         slow-query log as `like R rows/E evals`"),
    like_symbol_evals: Counter("aiql_storage_like_symbol_evals_total", "evaluations",
        "Pattern evaluations behind those rows: one per distinct symbol per table scan (the \
         scan-local memo) — `1 − evals / rows` is the memo's hit rate"),
    in_probe_lookups: Counter("aiql_storage_in_probe_lookups_total", "lookups",
        "Index lookups made by equality probes (`=` and IN-lists) — a binary search of a \
         sealed chunk's sorted positions; open tails have no index — counted after each list \
         is clipped to a chunk's key range; per scan as `N probe lookups`"),
    resident_rows: Gauge("aiql_storage_resident_rows_bytes", "bytes",
        "Stored rows of the published store, string payloads included \
         (`EventStore::resident_bytes`), set at every publish and when a store is first \
         shared. Only a table without a projection keeps rows: a columnar store's sealed \
         chunks and open tails are columns, so there this is 0"),
    resident_index: Gauge("aiql_storage_resident_index_bytes", "bytes",
        "Secondary indexes: a position a row per index on sealed chunks, at the chunk's \
         position width (2 B in a 4 096-row chunk); open tails have none"),
    resident_projection: Gauge("aiql_storage_resident_projection_bytes", "bytes",
        "Columnar projections: sealed columns as frames of reference (each column's offsets \
         at the narrowest of 0, 1, 2, 4 or 8 bytes; ≈ 33 B per event on `events`, 16 of it the two timestamps), zone \
         maps, projection orders and row → projection maps where they are not the identity, \
         and open tails' full-width column blocks"),
    resident_dict: Gauge("aiql_storage_resident_dict_bytes", "bytes",
        "The shared string dictionary: every interned string once, its code vector and its \
         lookup table"),
}

/// Sets the resident-bytes gauges from the store being published.
pub(crate) fn record_resident(store: &crate::EventStore) {
    let (m, r) = (metrics(), store.resident_bytes());
    m.resident_rows.set(r.tables.rows as i64);
    m.resident_index.set(r.tables.index as i64);
    m.resident_projection.set(r.tables.projection as i64);
    m.resident_dict.set(r.dict as i64);
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
