//! Shared handles for stores that grow while being queried.
//!
//! Batch evaluation builds an [`EventStore`] once and borrows it immutably
//! for the lifetime of the experiment. A live deployment interleaves
//! appends (the ingestor) with reads (investigators running queries), so
//! the store sits behind a [`SharedStore`] — an **epoch-swapped snapshot
//! store**:
//!
//! - one **head** store is owned by the writer (guarded by a mutex that
//!   only writers ever take); appends mutate it privately and are
//!   invisible to readers until published;
//! - a **published** snapshot — an `Arc<EventStore>` — is swapped in
//!   atomically when the writer [`StoreWriter::publish`]es. The caller
//!   of [`SharedStore::write`] decides when: a plain flush publishes once
//!   its rows are applied, a durable one only after the WAL fsync;
//! - readers call [`SharedStore::read`] and get a [`StoreSnapshot`]: an
//!   `Arc` clone of the published store. Taking it is a pointer copy —
//!   readers never wait on a flush, and a flush never waits on readers.
//!   The snapshot pins one immutable point-in-time store for as long as
//!   the reader holds it, regardless of how many flushes land meanwhile.
//!
//! Publishing costs one [`EventStore::clone`], which is cheap by
//! construction: every table and partition is `Arc`-shared with the head
//! (copy-on-write in `aiql-rdb`), so the clone copies pointers, not rows.
//! The writer pays the real copy lazily and only where it writes — the
//! first post-publish append into a partition detaches that partition
//! ("unseals" it) while every partition the stream has moved past stays
//! physically shared with all snapshots forever.
//!
//! Within a hot partition the same trick repeats one level down: a table
//! is a list of immutable, `Arc`-shared **sealed chunks** plus one open
//! tail whose columns sit in fixed-size blocks, the full ones also behind
//! `Arc`. So even the detach of a partition the writer is actively
//! appending into shares all of that and copies at most the tail's one
//! partial block ([`aiql_rdb::TAIL_BLOCK_ROWS`] rows) — not the partition,
//! not the tail. [`StoreWriter::publish`] therefore neither seals nor
//! copies: it is the clone and the swap. A tail seals by itself when it
//! reaches its chunk size, as a batch load's would, so a stream arriving
//! in time order is chunked exactly as a batch load of it.
//! `aiql_storage_publish_bytes_copied` measures what the partial-block
//! copies cost between publishes; the `aiql_storage_sealed_chunks_shared`
//! gauge reports how much sealed history the head still shares with the
//! snapshot it replaces. Sealed chunks, blocks and partitions are owned
//! jointly by the snapshots that pinned them; the last snapshot to drop
//! frees them.
//!
//! Every mutation bumps the store's [`StoreStamp`]; a snapshot's stamp
//! identifies exactly which prefix of the stream it reflects.

use crate::EventStore;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// A point-in-time version of a store: mutation epoch plus row counts.
///
/// Stamps are totally ordered by `epoch` (each append bumps it), so two
/// equal stamps guarantee no append happened in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct StoreStamp {
    /// Number of mutations applied since the store was created.
    pub epoch: u64,
    /// Events visible at this stamp.
    pub events: usize,
    /// Entities visible at this stamp.
    pub entities: usize,
}

/// A cloneable, thread-safe handle to a growing [`EventStore`].
#[derive(Debug, Clone)]
pub struct SharedStore {
    /// The writer's mutable head; the mutex serializes writers only.
    head: Arc<Mutex<EventStore>>,
    /// The published snapshot readers clone. The lock is held just long
    /// enough to copy or swap one `Arc` pointer — never for a query, never
    /// for a flush.
    published: Arc<RwLock<Arc<EventStore>>>,
}

/// A pinned, immutable point-in-time view of a [`SharedStore`].
///
/// Obtained from [`SharedStore::read`]; derefs to [`EventStore`]. The view
/// is stable for as long as the snapshot is held: concurrent flushes
/// publish *new* snapshots and never mutate this one. Cloning is an `Arc`
/// bump, so a snapshot can be handed to worker threads freely.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    inner: Arc<EventStore>,
}

impl Deref for StoreSnapshot {
    type Target = EventStore;

    fn deref(&self) -> &EventStore {
        &self.inner
    }
}

impl SharedStore {
    /// Wraps a store for shared live access. The initial published
    /// snapshot is the store as given.
    pub fn new(store: EventStore) -> SharedStore {
        crate::metrics::record_resident(&store);
        let published = Arc::new(RwLock::new(Arc::new(store.clone())));
        SharedStore {
            head: Arc::new(Mutex::new(store)),
            published,
        }
    }

    /// Pins the currently published snapshot — a wait-free `Arc` clone.
    /// Queries running against it see no concurrent appends, and no append
    /// ever waits for the snapshot to be dropped.
    pub fn read(&self) -> StoreSnapshot {
        StoreSnapshot {
            inner: self.published.read().expect("store lock poisoned").clone(),
        }
    }

    /// A write session for appending. Appends go to the private head store
    /// and stay invisible to readers until the caller
    /// [`StoreWriter::publish`]es; a session dropped without publishing
    /// leaves them for the next publish. The durable store publishes only
    /// after the WAL fsync, so a reader can never observe a row whose
    /// durability is still in flight.
    pub fn write(&self) -> StoreWriter<'_> {
        StoreWriter {
            head: self.head.lock().expect("store lock poisoned"),
            published: &self.published,
        }
    }

    /// The stamp of the currently published snapshot (what readers see —
    /// not the head, which may hold unpublished appends).
    pub fn stamp(&self) -> StoreStamp {
        self.published.read().expect("store lock poisoned").stamp()
    }

    /// Unwraps the head store if this is the last handle; returns `self`
    /// otherwise. Unpublished appends are part of the head and survive the
    /// unwrap; outstanding [`StoreSnapshot`]s keep their pinned view alive
    /// independently (sealed tables are unshared lazily, on next write).
    pub fn try_unwrap(self) -> Result<EventStore, SharedStore> {
        let SharedStore { head, published } = self;
        match Arc::try_unwrap(head) {
            Ok(lock) => Ok(lock.into_inner().expect("store lock poisoned")),
            Err(head) => Err(SharedStore { head, published }),
        }
    }
}

/// An exclusive write session on a [`SharedStore`]'s head store.
///
/// Derefs to [`EventStore`], so the append hooks are available directly.
/// Mutations are private to the session until [`StoreWriter::publish`]
/// (for the durable store, its post-fsync acknowledgement point).
#[derive(Debug)]
pub struct StoreWriter<'a> {
    head: MutexGuard<'a, EventStore>,
    published: &'a RwLock<Arc<EventStore>>,
}

impl StoreWriter<'_> {
    /// Publishes the head as the new reader-visible snapshot and returns
    /// its stamp: one copy-on-write [`EventStore::clone`] — pointer copies;
    /// every table stays shared until the next append into it detaches
    /// it — and the swap.
    /// Nothing is sealed here. The clone does not hold the readers' lock,
    /// which is taken only to swap one `Arc`: writers are serialized by the
    /// head mutex, so the published snapshot cannot change in between.
    /// Publishing with nothing new is a no-op.
    pub fn publish(&mut self) -> StoreStamp {
        let stamp = self.head.stamp();
        let outgoing = self.published.read().expect("store lock poisoned").clone();
        if outgoing.stamp() != stamp {
            let start = std::time::Instant::now();
            // The head's copy-on-write counter minus the outgoing
            // snapshot's (frozen at its own publish) is exactly the bytes
            // detaches copied since then — the write amplification this
            // publish interval paid.
            let copied = self
                .head
                .db()
                .copied_bytes()
                .saturating_sub(outgoing.db().copied_bytes());
            // Sealed history the head still shares with the snapshot it is
            // about to replace: what this publish reuses instead of copies.
            let shared = self.head.sealed_chunks_shared_with(&outgoing);
            let next = Arc::new(self.head.clone());
            *self.published.write().expect("store lock poisoned") = next;
            crate::metrics::record_resident(&self.head);
            let m = crate::metrics::metrics();
            m.publishes.inc();
            m.publish_bytes_copied.record(copied);
            m.sealed_chunks_shared.set(shared as i64);
            m.publish_micros.record_duration(start.elapsed());
        }
        stamp
    }

    /// The head's stamp — includes appends this session has not yet
    /// published.
    pub fn stamp(&self) -> StoreStamp {
        self.head.stamp()
    }
}

impl Deref for StoreWriter<'_> {
    type Target = EventStore;

    fn deref(&self) -> &EventStore {
        &self.head
    }
}

impl DerefMut for StoreWriter<'_> {
    fn deref_mut(&mut self) -> &mut EventStore {
        &mut self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use aiql_model::{AgentId, Entity, EntityKind, Event, OpType, Timestamp};

    fn event(id: u64, t: i64) -> Event {
        Event::new(
            id.into(),
            AgentId(1),
            1.into(),
            OpType::Write,
            2.into(),
            EntityKind::File,
            Timestamp(t),
        )
    }

    fn append_and_publish(shared: &SharedStore, ev: &Event) {
        let mut w = shared.write();
        w.append_event(ev).unwrap();
        w.publish();
    }

    #[test]
    fn stamps_advance_with_appends() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let s0 = shared.stamp();
        assert_eq!(
            s0,
            StoreStamp {
                epoch: 0,
                events: 0,
                entities: 0
            }
        );
        {
            let mut w = shared.write();
            w.append_entity(&Entity::process(1.into(), AgentId(1), "p", 1))
                .unwrap();
            w.append_event(&event(1, 0)).unwrap();
            w.publish();
        }
        let s1 = shared.stamp();
        assert!(s1 > s0);
        assert_eq!((s1.events, s1.entities), (1, 1));
    }

    #[test]
    fn snapshot_pins_a_stable_view_while_writers_proceed() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        append_and_publish(&shared, &event(1, 0));

        let clone = shared.clone();
        let snap = shared.read();
        let before = snap.stamp();
        // A writer on another thread does NOT block behind the snapshot —
        // it appends, publishes, and finishes while the snapshot is held.
        let writer = std::thread::spawn(move || append_and_publish(&clone, &event(2, 1)));
        writer.join().unwrap();
        // The published store moved on; the pinned snapshot did not.
        assert_eq!(shared.stamp().events, 2);
        assert_eq!(snap.stamp(), before);
        assert_eq!(snap.event_count(), 1);
    }

    #[test]
    fn unpublished_appends_are_invisible_until_publish() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let mut w = shared.write();
        w.append_event(&event(1, 0)).unwrap();
        assert_eq!(shared.stamp().events, 0, "not yet published");
        assert_eq!(w.stamp().events, 1, "but in the head");
        w.publish();
        assert_eq!(shared.stamp().events, 1);
        drop(w);
        // A session dropped without publishing leaves readers on the old
        // snapshot; the appends surface with the next publish.
        let mut w = shared.write();
        w.append_event(&event(2, 1)).unwrap();
        drop(w);
        assert_eq!(shared.stamp().events, 1);
        shared.write().publish();
        assert_eq!(shared.stamp().events, 2);
    }

    #[test]
    fn snapshots_share_sealed_partitions_with_the_head() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let day = aiql_rdb::partition::NANOS_PER_DAY;
        // Two day partitions.
        {
            let mut w = shared.write();
            w.append_event(&event(1, 10)).unwrap();
            w.append_event(&event(2, day + 10)).unwrap();
            w.publish();
        }
        let snap = shared.read();
        // Appending into day 1 unseals (copies) only that partition; the
        // day-0 partition and all three entity tables stay shared.
        append_and_publish(&shared, &event(3, day + 20));
        let after = shared.read();
        assert_eq!(snap.db().tables_shared_with(after.db()), 4);
        // A fresh publish with no appends swaps nothing at all.
        shared.write().publish();
        let again = shared.read();
        assert_eq!(after.db().tables_shared_with(again.db()), 5);
    }

    #[test]
    fn publish_shares_open_tails_and_a_detach_copies_one_block() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let block = aiql_rdb::TAIL_BLOCK_ROWS as u64;
        let n = 3 * block + 10;
        {
            let mut w = shared.write();
            for i in 0..n {
                w.append_event(&event(i, i as i64)).unwrap();
            }
            w.publish();
        }
        let snap = shared.read();
        assert_eq!(
            snap.db().copied_bytes(),
            0,
            "nothing was snapshot-shared before the first publish"
        );
        // Nothing sealed: the tail is shared as it is, and the post-publish
        // append detaches the hot partition by copying the tail's partial
        // block — ten rows of eleven 8-byte columns — and nothing else.
        {
            let mut w = shared.write();
            w.append_event(&event(1000, 5)).unwrap();
            w.publish();
        }
        let after = shared.read();
        assert_eq!(after.db().copied_bytes(), 10 * 11 * 8);
        let pt = after.events_partitioned();
        let parts = pt.partitions_for(&aiql_rdb::partition::Prune::all());
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.chunk_boundaries(), vec![n as usize + 1]);
        let before = snap
            .events_partitioned()
            .partitions_for(&aiql_rdb::partition::Prune::all());
        assert_eq!(parts[0].1.tail_blocks_shared_with(before[0].1), 3);
        assert_eq!(
            before[0].1.len(),
            n as usize,
            "the pinned snapshot is unchanged"
        );
    }

    #[test]
    fn try_unwrap_recovers_the_store() {
        let shared = SharedStore::new(EventStore::empty(StoreConfig::partitioned()).unwrap());
        let clone = shared.clone();
        let shared = shared.try_unwrap().expect_err("clone still alive");
        drop(clone);
        let store = shared.try_unwrap().expect("sole handle");
        assert_eq!(store.event_count(), 0);
    }
}
