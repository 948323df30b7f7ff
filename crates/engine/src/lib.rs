//! The AIQL query execution engine (paper Sec. 5).
//!
//! The engine executes [`aiql_core::QueryContext`]s against an
//! [`aiql_storage::EventStore`] snapshot:
//!
//! 1. per event pattern it **synthesizes a data query** (`synth`),
//! 2. a **scheduler** orders and constrains the data queries —
//!    relationship-based (paper Algorithm 1) or fetch-and-filter
//!    (`schedule`) — and joins their matches into tuple sets of match
//!    indices (`tupleset`),
//! 3. events scans **parallelize across the store's time/space
//!    partitions** — one pool task per admitted `(day, agent group)`
//!    partition, largest first (`pattern`, `exec`); a match is three row
//!    references, read field by field (`layout`),
//! 4. **dependency** queries arrive pre-compiled to multievent form (the
//!    rewrite lives in `aiql-core`),
//! 5. **anomaly** queries run through the sliding-window executor with
//!    history states and moving averages (`anomaly`), and
//! 6. result assembly builds values only for what a statement returns
//!    (`result`).
//!
//! Statements run through a [`Session`]: prepare once, bind and execute
//! many times, each execution against one pinned snapshot.
//!
//! # Examples
//!
//! ```
//! use aiql_engine::Session;
//! use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
//! use aiql_storage::{EventStore, SharedStore, StoreConfig};
//!
//! let mut data = Dataset::new();
//! let a = AgentId(1);
//! let bash = data.add_entity(Entity::process(1.into(), a, "bash", 7));
//! let hist = data.add_entity(Entity::file(2.into(), a, "/home/u/.bash_history"));
//! data.add_event(Event::new(
//!     1.into(), a, bash, OpType::Read, hist, EntityKind::File,
//!     Timestamp::from_ymd(2017, 1, 1).unwrap(),
//! ));
//! let store = SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap());
//!
//! let result = Session::open(&store)
//!     .run(r#"proc p read file f["%.bash_history"] return p, f"#)
//!     .unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

mod anomaly;
pub mod error;
pub mod exec;
mod layout;
mod metrics;
mod pattern;
mod result;
mod schedule;
pub mod scoring;
pub mod session;
mod synth;
mod tupleset;

pub use error::EngineError;
pub use exec::ScatterProfile;
pub use pattern::{Deadline, EngineStats, ScanRecord, ScanTarget};
pub use result::EngineResult;
pub use schedule::Scheduler;
pub use scoring::ScoreModel;
pub use session::{Bound, Cursor, Explain, Params, PatternPlan, Prepared, Session};

use aiql_core::{QueryContext, QueryKind};
use aiql_storage::EventStore;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Engine configuration.
///
/// The default is [`EngineConfig::aiql`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Data-query scheduling strategy.
    pub scheduler: Scheduler,
    /// Pruning-score model for relationship-based scheduling (paper
    /// Algorithm 1 default, or the Sec. 7 statistical refinement).
    pub scorer: ScoreModel,
    /// Event-scan width in threads, coordinator included, resolved once
    /// when a [`Session`] opens: `0` is the machine's parallelism; `1` is
    /// the sequential scan, with no scatter and no pool; `2` or more
    /// scatters each events scan over the process-wide execution pool, one
    /// task per admitted partition (time-window partition parallelism,
    /// paper Sec. 5.2). This is the only setting of scan parallelism.
    /// Capped at [`exec::MAX_WORKERS`].
    pub workers: usize,
}

impl EngineConfig {
    /// AIQL's full configuration: relationship scheduling, scans as wide
    /// as the machine.
    pub fn aiql() -> EngineConfig {
        EngineConfig {
            scheduler: Scheduler::Relationship,
            scorer: ScoreModel::ConstraintCount,
            workers: 0,
        }
    }

    /// The fetch-and-filter baseline configuration ("AIQL FF"): sequential
    /// scans.
    pub fn fetch_filter() -> EngineConfig {
        EngineConfig {
            scheduler: Scheduler::FetchFilter,
            scorer: ScoreModel::ConstraintCount,
            workers: 1,
        }
    }

    /// The Sec. 7 ablation: relationship scheduling driven by statistical
    /// cardinality estimates instead of constraint counts.
    pub fn aiql_statistical() -> EngineConfig {
        EngineConfig {
            scorer: ScoreModel::DataStatistics,
            ..EngineConfig::aiql()
        }
    }

    /// Sets the scan width, builder style (`0` = the machine's, `1` =
    /// sequential).
    pub fn with_workers(mut self, workers: usize) -> EngineConfig {
        self.workers = workers;
        self
    }
}

/// A cached physical plan for one statement: the relationship scheduler's
/// pattern-ordering scores.
///
/// Scores decide only the *order* patterns execute in (any order is
/// correct), so reusing them across bindings of a prepared statement is
/// the classic generic-plan tradeoff: skip per-call planning — which under
/// [`ScoreModel::DataStatistics`] measures real selectivities against the
/// store — at the cost of an ordering tuned to the first binding.
#[derive(Debug, Default)]
pub(crate) struct PlanSlot(Mutex<Option<Vec<u32>>>);

impl PlanSlot {
    /// Whether a plan has been cached.
    pub(crate) fn is_planned(&self) -> bool {
        self.0.lock().expect("plan slot poisoned").is_some()
    }
}

/// The executor behind [`Bound::execute`] and [`Bound::explain`]: one
/// statement against one pinned store, planning through the statement's
/// [`PlanSlot`], its event scans `width` threads wide, cancelled once
/// `timeout` has passed.
pub(crate) struct Engine<'a> {
    pub(crate) store: &'a EventStore,
    pub(crate) config: EngineConfig,
    pub(crate) width: usize,
    pub(crate) timeout: Option<Duration>,
    pub(crate) plan: &'a PlanSlot,
}

/// A query outcome: result plus execution statistics and elapsed time.
#[derive(Debug, Clone)]
pub(crate) struct Outcome {
    pub result: EngineResult,
    pub stats: EngineStats,
    pub elapsed: Duration,
}

impl Engine<'_> {
    /// The scheduler scores for `ctx`: the cached plan when the slot holds
    /// one for this statement, computed (and cached) otherwise.
    fn plan_scores(&self, ctx: &QueryContext) -> Vec<u32> {
        let mut guard = self.plan.0.lock().expect("plan slot poisoned");
        match &*guard {
            Some(s) if s.len() == ctx.patterns.len() => s.clone(),
            _ => {
                let s = scoring::scores(self.config.scorer, self.store, ctx);
                *guard = Some(s.clone());
                s
            }
        }
    }

    /// Runs a compiled query context.
    pub(crate) fn run_ctx(&self, ctx: &QueryContext) -> Result<Outcome, EngineError> {
        metrics::metrics().statements.inc();
        let started = Instant::now();
        let deadline = Deadline(self.timeout.map(|t| started + t));
        let mut stats = EngineStats::default();
        let result = match ctx.kind {
            QueryKind::Anomaly => {
                let _anomaly = aiql_telemetry::trace::span("anomaly");
                anomaly::run_anomaly(self.store, ctx, self.width, deadline, &mut stats)?
            }
            QueryKind::Multievent | QueryKind::Dependency => {
                let joined = match self.config.scheduler {
                    Scheduler::Relationship => {
                        let scores = {
                            let _plan = aiql_telemetry::trace::span("plan");
                            self.plan_scores(ctx)
                        };
                        schedule::relationship_based_scored(
                            self.store, ctx, &scores, self.width, deadline, &mut stats,
                        )?
                    }
                    Scheduler::FetchFilter => schedule::fetch_and_filter(
                        self.store, ctx, self.width, deadline, &mut stats,
                    )?,
                };
                let _score = aiql_telemetry::trace::span("score");
                result::assemble(ctx, &joined)?
            }
        };
        Ok(Outcome {
            result,
            stats,
            elapsed: started.elapsed(),
        })
    }
}

/// Opens the store persisted at `dir` — newest snapshot plus write-ahead
/// log tail, tolerating a torn final record — ready to query.
///
/// The open-from-disk entrypoint: wrap the result in a
/// [`aiql_storage::SharedStore`] and open a [`Session`] on it to
/// investigate a store directory left behind by a stopped or crashed
/// ingestion pipeline. Open/recovery failures name the directory — an
/// investigator pointed at the wrong path (or a corrupted store) sees
/// *which* store refused to open, not a bare errno.
pub fn open_store(dir: impl AsRef<std::path::Path>) -> Result<EventStore, EngineError> {
    let dir = dir.as_ref();
    EventStore::open(dir)
        .map_err(|e| EngineError::Recovery(format!("opening store at `{}`: {e}", dir.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp, Value};
    use aiql_storage::{SharedStore, StoreConfig};

    /// The paper's c5 exfiltration chain plus beaconing traffic for anomaly
    /// detection, over two hosts and two days.
    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(9);
        let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let s = 1_000_000_000i64;

        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 10));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 11));
        let sql = d.add_entity(Entity::process(3.into(), a, "sqlservr.exe", 12));
        let sbblv = d.add_entity(Entity::process(4.into(), a, "sbblv.exe", 13));
        let dump = d.add_entity(Entity::file(5.into(), a, "C:\\db\\BACKUP1.DMP"));
        let evil = d.add_entity(Entity::netconn(
            6.into(),
            a,
            "10.1.1.2",
            49999,
            "10.10.1.129",
            443,
        ));

        let mut eid = 0u64;
        let mut ev = |d: &mut Dataset, s_, op, o, k, t: i64, amount: i64| {
            eid += 1;
            d.add_event(Event::new(eid.into(), a, s_, op, o, k, Timestamp(t)).with_amount(amount));
        };
        ev(
            &mut d,
            cmd,
            OpType::Start,
            osql,
            EntityKind::Process,
            t0 + 10 * s,
            0,
        );
        ev(
            &mut d,
            sql,
            OpType::Write,
            dump,
            EntityKind::File,
            t0 + 20 * s,
            1 << 20,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Read,
            dump,
            EntityKind::File,
            t0 + 30 * s,
            1 << 20,
        );
        // Beaconing: small transfers every 10 s, then a big exfil spike.
        for i in 0..60i64 {
            ev(
                &mut d,
                sbblv,
                OpType::Write,
                evil,
                EntityKind::NetConn,
                t0 + 40 * s + i * 10 * s,
                1_000,
            );
        }
        ev(
            &mut d,
            sbblv,
            OpType::Write,
            evil,
            EntityKind::NetConn,
            t0 + 700 * s,
            50_000_000,
        );
        // Background noise on another agent/day.
        let b = AgentId(3);
        let t1 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let bash = d.add_entity(Entity::process(100.into(), b, "bash", 500));
        for i in 0..40u64 {
            let f = d.add_entity(Entity::file((200 + i).into(), b, format!("/var/tmp/n{i}")));
            d.add_event(Event::new(
                (1000 + i).into(),
                b,
                bash,
                OpType::Write,
                f,
                EntityKind::File,
                Timestamp(t1 + i as i64 * s),
            ));
        }
        d
    }

    fn store() -> EventStore {
        EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap()
    }

    fn session(store: EventStore, config: EngineConfig) -> Session {
        Session::with_config(&SharedStore::new(store), config)
    }

    #[test]
    fn paper_query7_finds_exfiltration_chain() {
        for config in [EngineConfig::aiql(), EngineConfig::fetch_filter()] {
            let r = session(store(), config)
                .run(
                    r#"
                    (at "01/02/2017")
                    agentid = 9
                    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
                    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
                    proc p4["%sbblv.exe"] read file f1 as evt3
                    proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
                    with evt1 before evt2, evt2 before evt3, evt3 before evt4
                    return distinct p1, p2, p3, f1, p4, i1
                    "#,
                )
                .unwrap();
            assert_eq!(r.rows.len(), 1);
            assert_eq!(
                r.rows[0],
                vec![
                    Value::str("cmd.exe"),
                    Value::str("osql.exe"),
                    Value::str("sqlservr.exe"),
                    Value::str("C:\\db\\BACKUP1.DMP"),
                    Value::str("sbblv.exe"),
                    Value::str("10.10.1.129"),
                ]
            );
        }
    }

    #[test]
    fn anomaly_query5_flags_only_the_spike() {
        let engine = session(store(), EngineConfig::aiql());
        let r = engine
            .run(
                r#"
                (at "01/02/2017")
                agentid = 9
                window = 1 min, step = 10 sec
                proc p write ip i[dstip = "10.10.1.129"] as evt
                return p, avg(evt.amount) as amt
                group by p
                having amt > 2 * (amt + amt[1] + amt[2]) / 3
                "#,
            )
            .unwrap();
        assert!(!r.rows.is_empty(), "the 50 MB burst must alert");
        assert!(r.rows.iter().all(|row| row[0] == Value::str("sbblv.exe")));
        // Alerted averages are far above the 1 kB beacon noise.
        assert!(r
            .rows
            .iter()
            .all(|row| row[1].as_f64().unwrap() > 100_000.0));
        // And the number of alerting windows is small (the spike region
        // only: 6 sliding windows cover any instant at step 10 s / 1 min).
        assert!(r.rows.len() <= 8, "got {} alert rows", r.rows.len());
    }

    #[test]
    fn dependency_query_tracks_dump_provenance() {
        let engine = session(store(), EngineConfig::aiql());
        let r = engine
            .run(
                r#"
                (at "01/02/2017")
                forward: proc p1["%sqlservr.exe"] ->[write] file f1["%backup1.dmp"]
                <-[read] proc p2 ->[write] ip i1
                return p1, f1, p2, i1
                "#,
            )
            .unwrap();
        assert!(!r.rows.is_empty());
        assert_eq!(r.rows[0][2], Value::str("sbblv.exe"));
        assert_eq!(r.rows[0][3], Value::str("10.10.1.129"));
    }

    #[test]
    fn count_and_group_by_aggregates() {
        let engine = session(store(), EngineConfig::aiql());
        let r = engine
            .run(r#"(at "01/01/2017") agentid = 3 proc p write file f return count distinct p, f"#)
            .unwrap();
        assert_eq!(r.columns, vec!["count"]);
        assert_eq!(r.rows, vec![vec![Value::Int(40)]]);

        let r = engine
            .run(
                r#"(at "01/01/2017") agentid = 3 proc p write file f
                   return p, count(f) as n group by p"#,
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("bash"), Value::Int(40)]]);
    }

    #[test]
    fn sort_and_top() {
        let engine = session(store(), EngineConfig::aiql());
        let r = engine
            .run(
                r#"(at "01/01/2017") proc p write file f return distinct f
                   sort by f desc top 3"#,
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::str("/var/tmp/n9"));
    }

    #[test]
    fn timeout_budget_enforced() {
        // A pathological pair of unconstrained patterns with a non-equi
        // relation on a larger store.
        let mut d = dataset();
        let a = AgentId(9);
        let s = 1_000_000_000i64;
        let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let p = d.add_entity(Entity::process(9000.into(), a, "noise.exe", 1));
        for i in 0..3000u64 {
            let f = d.add_entity(Entity::file((10_000 + i).into(), a, format!("/n/{i}")));
            d.add_event(Event::new(
                (50_000 + i).into(),
                a,
                p,
                OpType::Read,
                f,
                EntityKind::File,
                Timestamp(t0 + i as i64 * s / 100),
            ));
        }
        let engine = session(
            EventStore::ingest(&d, StoreConfig::partitioned()).unwrap(),
            EngineConfig::fetch_filter(),
        )
        .with_timeout(Duration::from_millis(5));
        let r = engine.run(
            "proc p1 read file f1 as e1 proc p2 read file f2 as e2 \
             proc p3 read file f3 as e3 with e1 before e2, e2 before e3 \
             return count p1",
        );
        assert!(
            matches!(r, Err(EngineError::Timeout) | Err(EngineError::Resource)),
            "got {r:?}"
        );
    }

    #[test]
    fn compile_errors_surface() {
        let engine = session(store(), EngineConfig::aiql());
        assert!(matches!(
            engine.run("proc p frobnicate file f return p"),
            Err(EngineError::Compile(_))
        ));
    }

    #[test]
    fn session_sees_growing_store_between_queries() {
        let shared = SharedStore::new(store());
        let session = Session::open(&shared);
        let stmt = session
            .prepare(
                r#"(at "01/02/2017") agentid = 9 proc p4["%sbblv.exe"] read file f1 return p4, f1"#,
            )
            .unwrap();
        let first = stmt.execute().unwrap();
        let first_stamp = first.stamp();
        assert_eq!(first.count(), 1);

        // Append a second qualifying read; the next execution sees it, and
        // the stamps prove the two ran at different store versions.
        {
            let mut w = shared.write();
            let t = Timestamp::from_ymd(2017, 1, 2).unwrap();
            w.append_event(&Event::new(
                9_999.into(),
                AgentId(9),
                4.into(),
                OpType::Read,
                5.into(),
                EntityKind::File,
                Timestamp(t.0 + 60 * 1_000_000_000),
            ))
            .unwrap();
            w.publish();
        }
        let second = stmt.execute().unwrap();
        assert!(second.stamp() > first_stamp);
        assert_eq!(second.count(), 2);
    }

    #[test]
    fn open_store_errors_name_the_directory() {
        let missing = std::env::temp_dir().join("aiql-engine-no-such-store");
        let _ = std::fs::remove_dir_all(&missing);
        let err = open_store(&missing).expect_err("nothing persisted there");
        match err {
            EngineError::Recovery(msg) => assert!(
                msg.contains("aiql-engine-no-such-store"),
                "error must name the directory: {msg}"
            ),
            other => panic!("expected a recovery error, got {other:?}"),
        }
    }
}
