//! Live ingestion for the AIQL event store.
//!
//! The paper's deployment setting is a server continuously fed by monitoring
//! agents on ~150 hosts; the batch loader
//! ([`EventStore::ingest`](aiql_storage::EventStore::ingest)) only covers
//! the one-shot evaluation setting. This crate turns the store into a live
//! system:
//!
//! - **[`Ingestor`]** accepts out-of-order [`EventBatch`]es through a
//!   bounded append queue; a configurable high-water mark applies
//!   back-pressure ([`IngestError::Backpressure`]) instead of buffering
//!   without bound.
//! - **Time synchronization on the fly**: each batch may carry clock
//!   samples; at apply time every event's timestamps are shifted by the
//!   submitting agent's current offset estimate — the same server-side
//!   correction the batch path applies via
//!   [`Synchronizer::apply`](aiql_storage::timesync::Synchronizer::apply).
//! - **Partition rollover**: rows are routed to their `(day, agent group)`
//!   partition as they arrive; when a batch crosses a day boundary the
//!   store materializes the next day's partitions automatically, and the
//!   [`FlushReport`] names every partition created.
//! - **Incremental index maintenance**: new rows and new partitions pick up
//!   exactly the secondary indexes the batch loader builds
//!   ([`schema::index_plan`](aiql_storage::schema::index_plan)), so queries
//!   against a live store run the same plans as against a batch-loaded one
//!   — `tests/proptest_ingest.rs` at the workspace root proves result
//!   equivalence for pattern, dependency, and anomaly queries.
//! - **Snapshot-consistent reads**: the store lives behind a
//!   [`SharedStore`](aiql_storage::SharedStore) — an epoch-swapped
//!   snapshot store. A flush applies the whole queue to the writer's
//!   private head and publishes one new immutable snapshot at the end, so
//!   queries (e.g. an `aiql_engine::Session`) pin a point-in-time view
//!   and see flush boundaries, never half-applied batches — without
//!   readers and the flush ever waiting on each other.
//!
//! # Example
//!
//! ```
//! use aiql_ingest::{EventBatch, IngestConfig, Ingestor};
//! use aiql_model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};
//!
//! let mut ing = Ingestor::new(IngestConfig::live()).unwrap();
//! let agent = AgentId(1);
//! let mut batch = EventBatch::new();
//! let p = batch.add_entity(Entity::process(1.into(), agent, "bash", 42));
//! let f = batch.add_entity(Entity::file(2.into(), agent, "/etc/passwd"));
//! batch.add_event(Event::new(
//!     1.into(), agent, p, OpType::Read, f, EntityKind::File,
//!     Timestamp::from_ymd(2017, 1, 1).unwrap(),
//! ));
//! ing.submit(batch).unwrap();
//! let report = ing.flush().unwrap();
//! assert_eq!(report.events, 1);
//! assert_eq!(ing.shared().read().event_count(), 1);
//! ```

pub mod batch;
pub mod error;
pub mod ingestor;
mod metrics;

pub use batch::EventBatch;
pub use error::IngestError;
pub use ingestor::{
    DeadLetter, DeadRow, FlushReport, IngestConfig, IngestState, IngestStats, Ingestor,
    RetryPolicy, DEAD_LETTER_CAP,
};
