//! Per-pattern data-query execution against the store.
//!
//! A pattern execution scans the subject/object entity tables (index-
//! accelerated), scans the `events` table with partition pruning — one
//! task per admitted partition at scan width 2 or more (the paper's
//! time-window partition parallelism, Sec. 5.2, and its by-host MPP
//! placement, Sec. 6.3.3) — and emits its matches as row references
//! ([`PatternMatches`]).

use crate::error::EngineError;
use crate::exec::{self, ScatterProfile};
use crate::layout::PatternMatches;
use crate::synth::{apply_extra, synthesize, DataQuery, ExtraCstr};
use aiql_core::PatternCtx;
use aiql_model::EntityKind;
use aiql_rdb::{Expr, PartKey, Prune, RowView, Value};
use aiql_storage::{schema, EventStore};
use std::collections::HashMap;
use std::time::Instant;

/// Execution statistics for one query.
#[derive(Debug, Default, Clone)]
pub struct EngineStats {
    /// Number of data queries issued (one per pattern execution).
    pub data_queries: u32,
    /// Rows touched by storage scans.
    pub rows_scanned: u64,
    /// Match counts per executed pattern (by pattern index).
    pub matches: Vec<(usize, usize)>,
    /// Tuples considered during joins.
    pub join_work: u64,
    /// Per-scan access-path and pruning accounting, in execution order —
    /// the raw material of the session API's `EXPLAIN`.
    pub scans: Vec<ScanRecord>,
    /// Anomaly queries: windows slid, groups tracked, and match rows that
    /// entered a window (each enters at most once).
    pub anomaly_windows: u64,
    pub anomaly_groups: u64,
    pub anomaly_rows_entered: u64,
}

/// Which side of a pattern's data query a scan served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTarget {
    /// The events-table scan.
    Events,
    /// The subject entity table (constrained scan or batch ID lookup).
    Subject,
    /// The object entity table (constrained scan or batch ID lookup).
    Object,
}

impl ScanTarget {
    /// Display name used in EXPLAIN output.
    pub fn name(self) -> &'static str {
        match self {
            ScanTarget::Events => "events",
            ScanTarget::Subject => "subject",
            ScanTarget::Object => "object",
        }
    }
}

/// One storage scan issued while executing a pattern's data query.
#[derive(Debug, Clone)]
pub struct ScanRecord {
    /// Pattern index the scan served.
    pub pattern: usize,
    /// Which side of the data query it was.
    pub target: ScanTarget,
    /// The table scanned.
    pub table: String,
    /// Access paths, partition pruning, zone-map skips, rows touched.
    pub profile: aiql_rdb::ScanProfile,
    /// How the scan scattered across partitions (None for entity scans
    /// and for event scans at width 1, which take the sequential scan).
    pub scatter: Option<ScatterProfile>,
}

/// Deadline wrapper shared across the engine.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(pub Option<Instant>);

impl Deadline {
    /// No deadline.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// Errors when the deadline has passed.
    #[inline]
    pub fn check(&self) -> Result<(), EngineError> {
        match self.0 {
            Some(d) if Instant::now() >= d => Err(EngineError::Timeout),
            _ => Ok(()),
        }
    }
}

/// Scans the events table: sequentially at width 1, one pool task per
/// admitted partition at width 2 or more. Rows stay borrowed from the
/// store either way.
#[allow(clippy::too_many_arguments)]
fn scan_events<'a>(
    store: &'a EventStore,
    conjuncts: &[Expr],
    prune: &Prune,
    width: usize,
    deadline: Deadline,
    scanned: &mut u64,
    profile: &mut aiql_rdb::ScanProfile,
    scatter: &mut Option<ScatterProfile>,
) -> Result<Vec<RowView<'a>>, EngineError> {
    deadline.check()?;
    if width <= 1 {
        return Ok(store.scan_events_profiled(conjuncts, prune, scanned, profile));
    }
    let (rows, sp) = scatter_partition_scan(
        store.events_partitioned(),
        conjuncts,
        prune,
        width,
        deadline,
        scanned,
        profile,
    )?;
    *scatter = Some(sp);
    Ok(rows)
}

/// Scatters the admitted partitions of the event table across the
/// execution pool and gathers the borrowed rows back in sequential order.
///
/// Each admitted partition is one task. Tasks are dispatched **largest
/// estimated partition first** so stragglers start earliest, and the
/// gather merges the per-partition results sorted by `PartKey` — exactly
/// the order the sequential `PartitionedTable::select` walk produces,
/// which is what lets the proptest oracle demand row-identical output.
/// When pruning admits a single partition, it is scanned inline on the
/// coordinator (no pool round-trip) — a host-constrained query on a
/// by-host placement touches one partition a day, not all of them.
///
/// Rows stay borrowed throughout: tasks collect [`RowView`]s, so no event
/// row is built regardless of parallelism. A task panic surfaces as
/// [`EngineError::Worker`] (see `crate::exec`), never a process abort.
fn scatter_partition_scan<'a>(
    pt: &'a aiql_rdb::PartitionedTable,
    conjuncts: &[Expr],
    prune: &Prune,
    width: usize,
    deadline: Deadline,
    scanned: &mut u64,
    profile: &mut aiql_rdb::ScanProfile,
) -> Result<(Vec<RowView<'a>>, ScatterProfile), EngineError> {
    let merged = prune.intersect(&pt.prune_from_conjuncts(conjuncts));
    let mut parts = pt.partitions_for(&merged);
    profile.partitions_total += pt.partition_count() as u32;
    profile.partitions_scanned += parts.len() as u32;

    // Dispatch order: estimated rows (the partition's size — the same
    // statistic the scheduler's scorer uses) descending.
    parts.sort_by_key(|(_, t)| std::cmp::Reverse(t.len()));
    let tasks: Vec<_> = parts
        .iter()
        .map(|&(key, t)| {
            move || {
                let t0 = Instant::now();
                let mut local = 0u64;
                let mut prof = aiql_rdb::ScanProfile::default();
                let (_, pos) = t.select_profiled(conjuncts, &mut local, &mut prof);
                let rows: Vec<RowView<'a>> = t.rows_at(&pos).collect();
                let m = crate::metrics::metrics();
                m.partition_scan_micros
                    .record(t0.elapsed().as_micros() as u64);
                m.partition_scan_rows.record(rows.len() as u64);
                (key, local, prof, rows)
            }
        })
        .collect();

    let width = width.min(tasks.len().max(1));
    let run = exec::scatter(tasks, width)?;
    deadline.check()?;
    let mut sp = ScatterProfile {
        workers: width as u32,
        dispatch: Vec::with_capacity(run.results.len()),
        queue_wait_micros: run.queue_wait_micros,
    };

    // Gather: merge per-partition results by key — sequential scan order.
    let mut tagged: Vec<(PartKey, Vec<RowView<'a>>)> = Vec::with_capacity(run.results.len());
    for (key, local, prof, rows) in run.results {
        *scanned += local;
        profile.merge(&prof);
        sp.dispatch.push((key, rows.len() as u64));
        tagged.push((key, rows));
    }
    tagged.sort_by_key(|(k, _)| *k);
    let out: Vec<RowView<'a>> = tagged.into_iter().flat_map(|(_, r)| r).collect();
    Ok((out, sp))
}

/// When an entity filter yields at most this many IDs, the executor pushes
/// an IN-list onto the events scan so the `subject_id`/`object_id` indexes
/// can drive it.
const ID_PUSHDOWN_LIMIT: usize = 20_000;

/// Executes one pattern's data query at scan width `width` (see
/// [`scan_events`]); returns its matches.
pub fn execute_pattern<'a>(
    store: &'a EventStore,
    p: &PatternCtx,
    extra: &ExtraCstr,
    width: usize,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<PatternMatches<'a>, EngineError> {
    // Trace the whole data query as one `scan:<pattern>` phase, named by
    // the event variable when the query declared one (`as evt1`).
    let _scan = aiql_telemetry::trace::span(&match &p.evt_var {
        Some(v) => format!("scan:{v}"),
        None => format!("scan:p{}", p.idx),
    });
    let mut q: DataQuery = synthesize(p);
    apply_extra(&mut q, extra);
    stats.data_queries += 1;

    // 1. Entity-side scans, subject then object (only when constrained —
    //    otherwise resolved lazily from the event rows).
    let sides = [
        (EntityKind::Process, &q.subject, ScanTarget::Subject),
        (p.object_kind, &q.object, ScanTarget::Object),
    ];
    let mut maps = sides.map(|(kind, cstr, target)| {
        (!cstr.is_empty()).then(|| scan_entity_map(store, kind, cstr, p.idx, target, stats))
    });
    deadline.check()?;

    // Early exit: a constrained entity side with no matches.
    if maps.iter().flatten().any(ById::is_empty) {
        stats.matches.push((p.idx, 0));
        return Ok(PatternMatches::default());
    }

    // 2. Push small ID sets into the events scan.
    const ID_COLS: [usize; 2] = [schema::ev::SUBJECT, schema::ev::OBJECT];
    let mut event_conjuncts = q.event.clone();
    for (m, col) in maps.iter().zip(ID_COLS) {
        if let Some(m) = m.as_ref().filter(|m| m.len() <= ID_PUSHDOWN_LIMIT) {
            let ids = m.keys().map(|&k| Value::Int(k)).collect();
            event_conjuncts.push(Expr::in_list(col, ids));
        }
    }

    // 3. Events scan. Rows stay borrowed from the store: a match is
    //    references to them.
    let mut scanned = 0u64;
    let mut profile = aiql_rdb::ScanProfile::default();
    let mut scatter = None;
    let events = scan_events(
        store,
        &event_conjuncts,
        &q.prune,
        width,
        deadline,
        &mut scanned,
        &mut profile,
        &mut scatter,
    )?;
    aiql_storage::record_scan(&profile);
    stats.scans.push(ScanRecord {
        pattern: p.idx,
        target: ScanTarget::Events,
        table: schema::EVENTS.to_string(),
        profile,
        scatter,
    });
    stats.rows_scanned += scanned;

    // 4. Filter by entity maps and resolve missing entity rows in batches.
    let mut kept: Vec<(RowView, [i64; 2])> = Vec::with_capacity(events.len());
    let mut need: [Vec<i64>; 2] = Default::default();
    'events: for ev in events {
        let ids = ID_COLS.map(|c| ev.int(c).unwrap_or(-1));
        for ((m, need), &id) in maps.iter().zip(&mut need).zip(&ids) {
            match m {
                Some(m) if !m.contains_key(&id) => continue 'events,
                Some(_) => {}
                None => need.push(id),
            }
        }
        kept.push((ev, ids));
    }
    for ((m, (kind, _, target)), need) in maps.iter_mut().zip(sides).zip(need) {
        if m.is_none() {
            *m = Some(batch_lookup(store, kind, need, p.idx, target, stats));
        }
    }
    let [Some(subj_map), Some(obj_map)] = maps else {
        unreachable!("both sides resolved")
    };
    deadline.check()?;

    // 5. Match: the kept event and its two entity rows.
    let mut out = PatternMatches::with_capacity(kept.len());
    for (ev, [sid, oid]) in kept {
        let (Some(&s), Some(&o)) = (subj_map.get(&sid), obj_map.get(&oid)) else {
            // Entity row missing (dangling reference) — drop the event.
            continue;
        };
        out.push(ev, s, o);
    }
    stats.matches.push((p.idx, out.len()));
    Ok(out)
}

/// Entity rows by id.
type ById<'a> = HashMap<i64, RowView<'a>>;

fn scan_entity_map<'a>(
    store: &'a EventStore,
    kind: EntityKind,
    conjuncts: &[Expr],
    pattern: usize,
    target: ScanTarget,
    stats: &mut EngineStats,
) -> ById<'a> {
    let mut scanned = 0u64;
    let mut profile = aiql_rdb::ScanProfile::default();
    let rows = store.scan_entities_profiled(kind, conjuncts, &mut scanned, &mut profile);
    stats.rows_scanned += scanned;
    aiql_storage::record_scan(&profile);
    stats.scans.push(ScanRecord {
        pattern,
        target,
        table: schema::entity_table(kind).to_string(),
        profile,
        scatter: None,
    });
    rows.into_iter()
        .filter_map(|r| r.int(0).map(|id| (id, r)))
        .collect()
}

fn batch_lookup<'a>(
    store: &'a EventStore,
    kind: EntityKind,
    mut ids: Vec<i64>,
    pattern: usize,
    target: ScanTarget,
    stats: &mut EngineStats,
) -> ById<'a> {
    ids.sort_unstable();
    ids.dedup();
    if ids.is_empty() {
        return ById::default();
    }
    let conjuncts = vec![Expr::in_list(
        0,
        ids.iter().map(|&i| Value::Int(i)).collect(),
    )];
    scan_entity_map(store, kind, &conjuncts, pattern, target, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_model::{AgentId, Dataset, Entity, Event, OpType, Timestamp};
    use aiql_rdb::Row;
    use aiql_storage::StoreConfig;

    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 100));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 101));
        let svchost = d.add_entity(Entity::process(3.into(), a, "svchost.exe", 102));
        let dump = d.add_entity(Entity::file(4.into(), a, "c:\\backup1.dmp"));
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        d.add_event(Event::new(
            1.into(),
            a,
            cmd,
            OpType::Start,
            osql,
            EntityKind::Process,
            Timestamp(t0 + 100),
        ));
        d.add_event(Event::new(
            2.into(),
            a,
            osql,
            OpType::Write,
            dump,
            EntityKind::File,
            Timestamp(t0 + 200),
        ));
        d.add_event(Event::new(
            3.into(),
            a,
            svchost,
            OpType::Read,
            dump,
            EntityKind::File,
            Timestamp(t0 + 300),
        ));
        d
    }

    /// Each match's (event, subject, object) rows, owned.
    fn run(src: &str, width: usize) -> Vec<(Row, Row, Row)> {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(src).unwrap();
        let mut stats = EngineStats::default();
        let m = execute_pattern(
            &store,
            &ctx.patterns[0],
            &ExtraCstr::default(),
            width,
            Deadline::none(),
            &mut stats,
        )
        .unwrap();
        (0..m.len())
            .map(|i| {
                let row = |rows: &[RowView]| rows[i].to_row();
                (row(&m.events), row(&m.subjects), row(&m.objects))
            })
            .collect()
    }

    #[test]
    fn constrained_subject_and_object() {
        let rows = run(
            r#"proc p["%osql%"] write file f["%backup1.dmp"] return p, f"#,
            1,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[schema::proc::EXE_NAME], Value::str("osql.exe"));
        assert_eq!(rows[0].2[schema::file::NAME], Value::str("c:\\backup1.dmp"));
    }

    #[test]
    fn unconstrained_sides_lazy_resolved() {
        let rows = run("proc p read || write file f return p, f", 1);
        assert_eq!(rows.len(), 2, "write + read of the dump");
        // Subject rows resolved by batch lookup.
        assert!(rows
            .iter()
            .any(|r| r.1[schema::proc::EXE_NAME] == Value::str("svchost.exe")));
    }

    #[test]
    fn no_matches_when_entity_filter_empty() {
        let rows = run(r#"proc p["%powershell%"] write file f return p"#, 1);
        assert!(rows.is_empty());
    }

    #[test]
    fn parallel_equals_sequential() {
        let src = r#"(at "01/01/2017") proc p read || write || start file f return p, f"#;
        let mut a = run(src, 1);
        let mut b = run(src, 2);
        let key = |r: &(Row, Row, Row)| r.0[schema::ev::ID].clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn scatter_rows_identical_to_sequential_across_partitions() {
        // Stronger than `parallel_equals_sequential`: no sorting — the
        // gather must reproduce the sequential row order exactly, for
        // every partition count and scatter width (width 1 is the
        // sequential scan itself). The dataset's three events, copied onto
        // hosts 2 and 3 and onto a second day, fill 2 to 6 partitions.
        let mut d = dataset();
        let day = 86_400 * 1_000_000_000;
        let mut id = 100u64;
        for ev in d.events.clone() {
            for (agent, days) in [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1)] {
                id += 1;
                let start = Timestamp(ev.start.0 + days * day);
                let (subject, object, kind) = (ev.subject, ev.object, ev.object_kind);
                let copy = Event::new(
                    id.into(),
                    AgentId(agent),
                    subject,
                    ev.op,
                    object,
                    kind,
                    start,
                );
                d.add_event(copy);
            }
        }
        let src = r#"proc p read || write || start file f return p, f"#;
        let ctx = compile(src).unwrap();
        for group in [1u32, 2, 5] {
            let store =
                EventStore::ingest(&d, StoreConfig::partitioned().with_agent_group(group)).unwrap();
            let partitions = store.events_partitioned().partition_count();
            assert!(partitions >= 2, "group {group}: {partitions} partitions");
            let mut s1 = EngineStats::default();
            let seq = execute_pattern(
                &store,
                &ctx.patterns[0],
                &ExtraCstr::default(),
                1,
                Deadline::none(),
                &mut s1,
            )
            .unwrap();
            assert!(s1.scans.iter().all(|s| s.scatter.is_none()));
            for workers in [2usize, 4, 8] {
                let mut s2 = EngineStats::default();
                let par = execute_pattern(
                    &store,
                    &ctx.patterns[0],
                    &ExtraCstr::default(),
                    workers,
                    Deadline::none(),
                    &mut s2,
                )
                .unwrap();
                assert_eq!(par, seq, "group={group} workers={workers}");
                // The events scan carries the scatter shape for EXPLAIN:
                // every partition once, largest first, on at most as many
                // threads as there are partitions.
                let ev_scan = s2
                    .scans
                    .iter()
                    .find(|s| s.target == ScanTarget::Events)
                    .unwrap();
                let sp = ev_scan.scatter.as_ref().expect("scatter profile");
                assert_eq!(sp.dispatch.len(), partitions);
                assert_eq!(ev_scan.profile.partitions_scanned as usize, partitions);
                assert_eq!(sp.workers as usize, workers.min(partitions));
                let size: HashMap<PartKey, usize> = (store.events_partitioned())
                    .partitions_for(&Prune::all())
                    .into_iter()
                    .map(|(k, t)| (k, t.len()))
                    .collect();
                let sizes: Vec<usize> = sp.dispatch.iter().map(|(k, _)| size[k]).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
            }
        }
    }

    #[test]
    fn window_prunes_everything_outside() {
        let rows = run(r#"(at "06/01/2019") proc p write file f return p"#, 1);
        assert!(rows.is_empty());
    }

    #[test]
    fn extra_in_list_constrains() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile("proc p read || write file f return p, f").unwrap();
        let extra = ExtraCstr {
            in_lists: vec![(
                aiql_core::FieldTarget::Event,
                schema::ev::SUBJECT,
                vec![Value::Int(3)],
            )],
            time_lo: None,
            time_hi: None,
        };
        let mut stats = EngineStats::default();
        let rows = execute_pattern(
            &store,
            &ctx.patterns[0],
            &extra,
            1,
            Deadline::none(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows.len(), 1, "only svchost's read");
    }

    /// The Fig. 7 configuration — a row store (as Greenplum's segments
    /// are) scanned at width 2 — matches the single-node columnar store.
    #[test]
    fn segmented_store_matches_single() {
        let d = dataset();
        let single = EventStore::ingest(&d, StoreConfig::partitioned()).unwrap();
        let segmented =
            EventStore::ingest(&d, StoreConfig::partitioned().with_columnar(false)).unwrap();
        let ctx = compile("proc p read || write || start file f return p, f").unwrap();
        let p = &ctx.patterns[0];
        let scan = |store, width| {
            let mut stats = EngineStats::default();
            let none = Deadline::none();
            execute_pattern(store, p, &ExtraCstr::default(), width, none, &mut stats).unwrap()
        };
        let rows = scan(&single, 1);
        assert_eq!(rows.len(), 2, "the dump's write and read");
        assert_eq!(scan(&segmented, 2), rows);
    }
}
