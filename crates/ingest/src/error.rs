//! Ingestion errors.

use crate::batch::EventBatch;
use aiql_rdb::RdbError;
use aiql_storage::PersistError;
use std::fmt;

/// Why a submit or flush failed.
#[derive(Debug)]
pub enum IngestError {
    /// The bounded append queue is full: accepting the batch would push the
    /// queued-event count past the high-water mark. The rejected batch is
    /// handed back untouched (the `mpsc::TrySendError` pattern) — the
    /// caller should flush (or slow down) and resubmit it.
    Backpressure {
        /// The shipment that was not enqueued, returned for resubmission.
        batch: EventBatch,
        /// Rows (events + entities) already queued.
        queued_rows: usize,
        /// The configured limit.
        high_water_mark: usize,
    },
    /// The storage layer rejected a row.
    Storage(RdbError),
    /// The durability layer failed: the write-ahead log could not be
    /// written/synced, or recovery/checkpointing failed. Unlike a
    /// dead-lettered row this aborts the flush — none of its rows was
    /// acknowledged or applied, and all of them stay queued. Transient log
    /// I/O faults are retried (bounded,
    /// with backoff — see [`crate::RetryPolicy`]) before surfacing here.
    Durable(PersistError),
    /// The storage stack reported it is out of space (`ENOSPC`) and the
    /// ingestor entered degraded mode: the unacknowledged flush stays
    /// queued, new submits are back-pressured, and the next successful
    /// flush — after the operator frees space — returns to healthy.
    /// Readable without an error in hand via
    /// [`Ingestor::state`](crate::Ingestor::state).
    Degraded {
        /// Rows still queued, unacknowledged, awaiting space.
        queued_rows: usize,
        /// The out-of-space fault that forced the transition.
        cause: PersistError,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Backpressure {
                batch,
                queued_rows,
                high_water_mark,
            } => write!(
                f,
                "back-pressure: {queued_rows} rows queued + {} submitted \
                 exceeds high-water mark {high_water_mark}",
                batch.weight()
            ),
            IngestError::Storage(e) => write!(f, "storage error during ingest: {e}"),
            IngestError::Durable(e) => write!(f, "durability error during ingest: {e}"),
            IngestError::Degraded { queued_rows, cause } => write!(
                f,
                "ingestion degraded (out of space, {queued_rows} rows queued \
                 unacknowledged): {cause}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<RdbError> for IngestError {
    fn from(e: RdbError) -> IngestError {
        IngestError::Storage(e)
    }
}

impl From<PersistError> for IngestError {
    fn from(e: PersistError) -> IngestError {
        IngestError::Durable(e)
    }
}
