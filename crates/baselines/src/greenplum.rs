//! The Greenplum-style baseline: big-join SQL over MPP segments with
//! scatter/gather execution.
//!
//! A [`SegmentedStore`] holds K independent [`Database`] segments and
//! places rows round-robin in arrival order: row i goes to segment i mod K.
//! That is Greenplum's default behaviour on the paper's data *without* the
//! semantics-aware model: any host/time-constrained query touches every
//! segment, and joins cannot run segment-locally.
//!
//! Queries run by gather execution, the way an MPP engine must when
//! placement does not co-locate the join (the Greenplum column of the
//! paper's Fig. 7): scan each referenced table on all segments in parallel
//! (with single-table predicate pushdown), gather the matching rows to a
//! coordinator, and run the join there single-threaded.

use crate::exec::{self, ExecCtx, ResultSet};
use crate::{plan, sql, BaselineError, Rows};
use aiql_core::QueryContext;
use aiql_model::Dataset;
use aiql_rdb::{Database, Layout, RdbError};
use aiql_storage::{entity_row, event_row, schema};
use aiql_translate::sql::to_sql;
use std::time::Instant;

/// The MPP event store of the paper's Sec. 6.3.3 comparison: K segments
/// holding the store's tables, rows spread round-robin in arrival order —
/// Greenplum's placement on this data, which co-locates no host's events.
pub struct SegmentedStore {
    segments: Vec<Database>,
    event_count: usize,
}

impl SegmentedStore {
    /// Builds a `segments`-way store from a dataset, with the store's
    /// secondary indexes on every segment and every tail sealed.
    pub fn ingest(data: &Dataset, segments: usize) -> Result<SegmentedStore, RdbError> {
        assert!(segments > 0, "need at least one segment");
        let mut dbs = Vec::with_capacity(segments);
        for _ in 0..segments {
            let mut db = Database::new();
            // Segments keep the store's day partitioning locally (both
            // systems get the paper's storage optimizations in Sec. 6.3.3).
            crate::create_store_tables(&mut db, true)?;
            dbs.push(db);
        }
        let entities = data
            .entities
            .iter()
            .map(|e| (schema::entity_table(e.kind), entity_row(e)));
        let events = (data.events.iter()).map(|ev| (schema::EVENTS, event_row(ev).to_vec()));
        for (i, (table, row)) in entities.chain(events).enumerate() {
            dbs[i % segments].insert(table, row)?;
        }
        for db in &mut dbs {
            db.seal_tails();
        }
        Ok(SegmentedStore {
            segments: dbs,
            event_count: data.events.len(),
        })
    }

    /// Number of ingested events.
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Gather execution: pushes each table's single-table conjuncts down to
    /// every segment in parallel, gathers matching rows into a coordinator
    /// database, and runs the full query there. This is the honest cost
    /// model for non-co-located placement: the gathered rows are physically
    /// copied, and the join runs single-threaded at the coordinator.
    fn query_gather(
        &self,
        sql_text: &str,
        deadline: Option<Instant>,
    ) -> Result<ResultSet, BaselineError> {
        let stmt = sql::parse_select(sql_text)?;
        // Learn per-table pushdown by planning against segment 0 (schemas are
        // identical on all segments).
        let plan0 = plan::plan_select(&self.segments[0], &stmt)?;
        let scans = std::iter::once(&plan0.first).chain(plan0.joins.iter().map(|j| &j.scan));

        // Parallel scatter per scan node; each segment applies indexes and
        // partition pruning locally.
        let mut coordinator = Database::new();
        for (alias_idx, node) in scans.enumerate() {
            let rows_per_seg = self
                .run_on_all(|seg| exec::scan(seg, node, &mut ExecCtx::with_deadline(deadline)))?;
            // The same base table may appear under several aliases; gather
            // it once per alias under a unique staging name.
            let staged = format!("__gather_{alias_idx}_{}", node.table);
            let schema = self.segments[0].schema_of(&node.table)?.clone();
            coordinator.create_table(&staged, schema, &Layout::default())?;
            for rows in rows_per_seg {
                for r in rows {
                    coordinator.insert(&staged, r)?;
                }
            }
        }

        // Rewrite FROM to the staged tables and run at the coordinator.
        let mut stmt2 = stmt;
        for (i, tref) in stmt2.from.iter_mut().enumerate() {
            tref.table = format!("__gather_{i}_{}", tref.table);
        }
        let mut ctx = ExecCtx::with_deadline(deadline);
        let plan2 = plan::plan_select(&coordinator, &stmt2)?;
        exec::execute(&coordinator, &plan2, &mut ctx)
    }

    /// Runs `f` on every segment in parallel (scoped threads), collecting
    /// results in segment order.
    fn run_on_all<T, F>(&self, f: F) -> Result<Vec<T>, BaselineError>
    where
        T: Send,
        F: Fn(&Database) -> Result<T, BaselineError> + Sync,
    {
        let results: Vec<Result<T, BaselineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .segments
                .iter()
                .map(|seg| scope.spawn(|| f(seg)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("segment worker panicked"))
                .collect()
        });
        results.into_iter().collect()
    }
}

/// Executes the big-join SQL on the segmented store: per-table scans are
/// pushed to all segments in parallel, matching rows are gathered to a
/// coordinator, and the join runs there — the execution shape of an MPP
/// engine whose placement does not co-locate the join (paper Sec. 6.3.3).
pub fn run(
    store: &SegmentedStore,
    ctx: &QueryContext,
    deadline: Option<Instant>,
) -> Result<Rows, BaselineError> {
    let sql = to_sql(ctx)?;
    let rs = store.query_gather(&sql, deadline)?;
    let mut rows = rs.rows;
    if ctx.ret.count {
        rows = vec![vec![aiql_rdb::Value::Int(rows.len() as i64)]];
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use aiql_core::compile;
    use aiql_datagen::EnterpriseSim;
    use aiql_model::{AgentId, EntityKind, Event, OpType, Timestamp, Value};

    /// Thirty events: event i from agent i mod 5, 2i seconds into one day.
    fn thirty_events() -> Dataset {
        let mut d = Dataset::new();
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        for i in 0..30u64 {
            d.add_event(Event::new(
                i.into(),
                AgentId(i as u32 % 5),
                1.into(),
                OpType::Read,
                2.into(),
                EntityKind::File,
                Timestamp(t0 + 2 * i as i64 * 1_000_000_000),
            ));
        }
        d
    }

    #[test]
    fn gather_execution_matches_single_node() {
        let data = EnterpriseSim::builder()
            .hosts(10)
            .days(2)
            .seed(5)
            .events_per_host_per_day(200)
            .build()
            .generate();
        let seg = SegmentedStore::ingest(&data, 5).unwrap();
        let single = crate::postgres::load(&data).unwrap();
        let ctx = compile(
            r#"
            (at "01/02/2017")
            agentid = 9
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            proc p4["%sbblv.exe"] read file f1 as evt3
            with evt2 before evt3
            return distinct p3, f1, p4
            "#,
        )
        .unwrap();
        let gp = crate::normalize(run(&seg, &ctx, None).unwrap());
        let (pg, _) = crate::postgres::run(&single, &ctx, None).unwrap();
        assert_eq!(gp, crate::normalize(pg));
        assert_eq!(gp.len(), 1);
    }

    #[test]
    fn segmented_store_spreads_events_round_robin() {
        let data = EnterpriseSim::builder()
            .hosts(4)
            .days(1)
            .seed(5)
            .events_per_host_per_day(10)
            .build()
            .generate();
        let seg = SegmentedStore::ingest(&data, 2).unwrap();
        assert_eq!(seg.event_count(), data.events.len());
        // Arrival order alternates segments, whatever the host.
        let per_segment: Vec<usize> = seg
            .segments
            .iter()
            .map(|db| db.slot(schema::EVENTS).unwrap().len())
            .collect();
        assert_eq!(per_segment[0] + per_segment[1], data.events.len());
        assert!(
            per_segment[0].abs_diff(per_segment[1]) <= 1,
            "{per_segment:?}"
        );
    }

    #[test]
    fn round_robin_spreads_rows() {
        // Thirty events over three segments: ten each.
        let seg = SegmentedStore::ingest(&thirty_events(), 3).unwrap();
        for db in &seg.segments {
            assert_eq!(db.slot(schema::EVENTS).unwrap().len(), 10);
        }
    }

    #[test]
    fn gather_query_handles_joins_and_aggregates() {
        let seg = SegmentedStore::ingest(&thirty_events(), 3).unwrap();
        let rs = seg
            .query_gather(
                "SELECT e.agentid, COUNT(*) AS n FROM events e GROUP BY e.agentid \
                 ORDER BY e.agentid",
                None,
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 5);
        assert!(rs.rows.iter().all(|r| r[1] == Value::Int(6)));
    }

    #[test]
    fn gather_self_join_is_correct() {
        let seg = SegmentedStore::ingest(&thirty_events(), 3).unwrap();
        // Pairs of events of the same agent in time order.
        let rs = seg
            .query_gather(
                "SELECT e1.id, e2.id FROM events e1, events e2 \
                 WHERE e1.agentid = e2.agentid AND e1.start_time < e2.start_time \
                 AND e1.agentid = 2",
                None,
            )
            .unwrap();
        // Agent 2 has events 2,7,12,17,22,27 → C(6,2)=15 ordered pairs.
        assert_eq!(rs.rows.len(), 15);
    }

    #[test]
    fn gather_matches_single_node_database() {
        // Round-robin placement spreads agent 1's six events over all three
        // segments; the gather returns exactly what one node holding every
        // row returns.
        let data = thirty_events();
        let seg = SegmentedStore::ingest(&data, 3).unwrap();
        let sql = "SELECT e.id FROM events e WHERE e.agentid = 1 ORDER BY e.id";
        for db in &seg.segments {
            assert_eq!(query(db, sql).unwrap().rows.len(), 2);
        }
        let gathered = seg.query_gather(sql, None).unwrap();
        let single = query(&crate::postgres::load(&data).unwrap(), sql).unwrap();
        assert_eq!(gathered.rows, single.rows);
        assert_eq!(single.rows.len(), 6);
    }
}
