//! AIQL — efficient attack investigation from system monitoring data.
//!
//! This crate is the facade of a from-scratch Rust reproduction of
//! *AIQL: Enabling Efficient Attack Investigation from System Monitoring
//! Data* (Gao et al., USENIX ATC 2018). It re-exports the public API of the
//! workspace crates:
//!
//! - [`model`] — entities, events, values, timestamps (paper Sec. 3.1).
//! - [`storage`] — time/space-partitioned event store (paper Sec. 3.2),
//!   chunked for O(tail) snapshot publication under live ingest.
//! - [`lang`] — the AIQL language: lexer, parser, semantic analysis
//!   (paper Sec. 4).
//! - [`engine`] — the optimized query execution engine: relationship-based
//!   scheduling, parallel partitions, anomaly windows (paper Sec. 5), and
//!   the investigation session API — prepared parameterized statements,
//!   plan caching, `EXPLAIN`, streaming cursors.
//! - [`ingest`] — live streaming ingestion: bounded append queue with
//!   back-pressure, on-the-fly time synchronization, partition rollover,
//!   incremental index maintenance, optional write-ahead durability.
//! - [`wal`] — the append-only, CRC-checksummed, segmented write-ahead
//!   log beneath the durable store.
//! - [`fault`] — deterministic fault injection under the storage stack:
//!   failpoints, scriptable fault plans, fault-aware file operations —
//!   the substrate of the crash-at-every-step chaos harness in `tests/`.
//! - [`rdb`] / [`graphdb`] — the relational substrate of the event store
//!   and the property-graph substrate standing in for Neo4j.
//! - [`baselines`] — the comparison systems of the paper's evaluation,
//!   with the SQL engine and MPP segments standing in for
//!   PostgreSQL/Greenplum.
//! - [`translate`] — AIQL → SQL / Cypher / SPL translators and conciseness
//!   metrics (paper Sec. 6.4).
//! - [`datagen`] — the deterministic enterprise workload simulator and
//!   attack-scenario catalog used in place of the paper's 150-host
//!   deployment.
//! - [`server`] / [`client`] — the serving layer: a multi-tenant query
//!   service speaking a length-prefixed, CRC-checked wire protocol over
//!   the session API (quotas, statement timeouts, back-pressure,
//!   graceful drain), and the blocking client the REPL, tests, and
//!   repository benchmark drive it with.
//! - [`telemetry`] — process-wide metrics registry, per-query trace
//!   spans, and the slow-query log, wired through every layer above; each
//!   layer declares its metrics once with `telemetry::metrics!`.
//! - [`bench`](mod@bench) — the experiment harness reproducing every
//!   evaluation table and figure, and the query catalogue and Query-7
//!   family the repository benchmark (`benchmark/`) runs.
//!
//! The repository-level reference lives in `docs/ARCHITECTURE.md` (crate
//! graph, the write path end to end, the chunked storage layout, the
//! concurrency and fault models) and `docs/METRICS.md` (every telemetry
//! metric and what a regression in it means, checked against the
//! declarations).
//!
//! # Examples
//!
//! ```
//! use aiql::prelude::*;
//!
//! // Generate a small monitored enterprise and load it.
//! let data = aiql::datagen::EnterpriseSim::builder()
//!     .hosts(2)
//!     .days(1)
//!     .seed(7)
//!     .build()
//!     .generate();
//! let store = SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap());
//!
//! // Ask an AIQL multievent question.
//! let query = r#"
//!     proc p1 read file f1[".bash_history"] as evt1
//!     return p1, f1
//! "#;
//! let session = Session::open(&store);
//! let result = session.run(query).unwrap();
//! println!("{result}");
//! ```

pub use aiql_baselines as baselines;
pub use aiql_bench as bench;
pub use aiql_client as client;
pub use aiql_core as lang;
pub use aiql_datagen as datagen;
pub use aiql_engine as engine;
pub use aiql_fault as fault;
pub use aiql_graphdb as graphdb;
pub use aiql_ingest as ingest;
pub use aiql_model as model;
pub use aiql_rdb as rdb;
pub use aiql_server as server;
pub use aiql_storage as storage;
pub use aiql_telemetry as telemetry;
pub use aiql_translate as translate;
pub use aiql_wal as wal;

/// Commonly used types, for glob import in examples and tests.
pub mod prelude {
    pub use aiql_core::{parse_query, PreparedQuery, QueryContext};
    pub use aiql_engine::{EngineConfig, Params, Session};
    pub use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
    pub use aiql_model::{
        AgentId, Dataset, Entity, EntityId, EntityKind, Event, EventId, OpType, Timestamp, Value,
    };
    pub use aiql_storage::{DurableStore, EventStore, SharedStore, StoreConfig};
}
