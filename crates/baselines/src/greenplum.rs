//! The Greenplum-style baseline: big-join SQL over MPP segments with
//! scatter/gather execution.

use crate::{BaselineError, Rows};
use aiql_core::QueryContext;
use aiql_model::Dataset;
use aiql_rdb::{PartitionSpec, Placement, RdbError, SegmentedDb};
use aiql_storage::{entity_row, event_row, schema};
use aiql_translate::sql::to_sql;
use std::time::Instant;

/// The MPP event store of the paper's Sec. 6.3.3 comparison: K segments
/// holding the store's tables, rows spread round-robin in arrival order —
/// Greenplum's placement on this data, which co-locates no host's events.
pub struct SegmentedStore {
    sdb: SegmentedDb,
    event_count: usize,
}

impl SegmentedStore {
    /// Builds a `segments`-way store from a dataset, with the store's
    /// secondary indexes on every segment and every tail sealed.
    pub fn ingest(data: &Dataset, segments: usize) -> Result<SegmentedStore, RdbError> {
        let mut sdb = SegmentedDb::new(segments, Placement::RoundRobin);
        // Segments keep day partitioning locally (both systems get the
        // paper's storage optimizations in Sec. 6.3.3).
        sdb.create_partitioned_table(
            schema::EVENTS,
            schema::events_schema(),
            PartitionSpec::new("start_time", "agentid", 5),
        )?;
        sdb.create_table(schema::PROCESSES, schema::processes_schema())?;
        sdb.create_table(schema::FILES, schema::files_schema())?;
        sdb.create_table(schema::NETCONNS, schema::netconns_schema())?;
        for (table, col) in schema::index_plan() {
            sdb.create_index(table, col)?;
        }
        for e in &data.entities {
            sdb.insert(schema::entity_table(e.kind), entity_row(e))?;
        }
        for ev in &data.events {
            sdb.insert(schema::EVENTS, event_row(ev))?;
        }
        sdb.seal_tails();
        Ok(SegmentedStore {
            sdb,
            event_count: data.events.len(),
        })
    }

    /// Number of ingested events.
    pub fn event_count(&self) -> usize {
        self.event_count
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
    let rs = store.sdb.query_gather(&sql, deadline)?;
    let mut rows = rs.rows;
    if ctx.ret.count {
        rows = vec![vec![aiql_rdb::Value::Int(rows.len() as i64)]];
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_datagen::EnterpriseSim;

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
        let single =
            aiql_storage::EventStore::ingest(&data, aiql_storage::StoreConfig::monolithic())
                .unwrap();
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
        let per_segment: Vec<usize> = (0..2)
            .map(|i| seg.sdb.segment(i).slot(schema::EVENTS).unwrap().len())
            .collect();
        assert_eq!(per_segment[0] + per_segment[1], data.events.len());
        assert!(
            per_segment[0].abs_diff(per_segment[1]) <= 1,
            "{per_segment:?}"
        );
    }
}
