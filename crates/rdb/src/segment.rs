//! MPP (massively parallel processing) segments — the Greenplum analogue.
//!
//! A [`SegmentedDb`] holds K independent [`Database`] segments. Rows are
//! routed by a [`Placement`] policy:
//!
//! - [`Placement::RoundRobin`] models Greenplum's default behaviour on the
//!   paper's data *without* the semantics-aware model: events are distributed
//!   by arrival order, so any host/time-constrained query touches every
//!   segment and joins cannot run segment-locally.
//! - [`Placement::ByAgent`] models AIQL's data model on Greenplum: all rows
//!   of one host land on one segment, host workloads spread evenly across
//!   segments, and per-host joins are co-located.
//!
//! [`SegmentedDb::query_gather`] executes the way an MPP engine must when
//! placement does not co-locate the join (the Greenplum column of the
//! paper's Fig. 7): scan each referenced table on all segments in parallel
//! (with single-table predicate pushdown), gather the matching rows to a
//! coordinator, and run the join there single-threaded.

use crate::error::RdbError;
use crate::exec::{ExecCtx, ResultSet};
use crate::plan;
use crate::schema::{Row, Schema};
use crate::sql;
use crate::{Database, PartitionSpec};
use std::time::Instant;

/// Row-to-segment placement policy.
#[derive(Debug, Clone)]
pub enum Placement {
    /// Arrival order: row i goes to segment i mod K.
    RoundRobin,
    /// By agent column: all rows with the same agent value share a segment.
    ByAgent {
        /// Column name holding the agent ID in every routed table.
        agent_col: String,
    },
}

/// A set of database segments with a shared schema and placement policy.
pub struct SegmentedDb {
    segments: Vec<Database>,
    placement: Placement,
    inserted: u64,
}

impl SegmentedDb {
    /// Creates `k` empty segments under `placement`.
    pub fn new(k: usize, placement: Placement) -> SegmentedDb {
        assert!(k > 0, "need at least one segment");
        SegmentedDb {
            segments: (0..k).map(|_| Database::new()).collect(),
            placement,
            inserted: 0,
        }
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Read access to one segment (for tests and diagnostics).
    pub fn segment(&self, i: usize) -> &Database {
        &self.segments[i]
    }

    /// Creates a monolithic table on every segment.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), RdbError> {
        for s in &mut self.segments {
            s.create_table(name, schema.clone())?;
        }
        Ok(())
    }

    /// Creates a partitioned table on every segment.
    pub fn create_partitioned_table(
        &mut self,
        name: &str,
        schema: Schema,
        spec: PartitionSpec,
    ) -> Result<(), RdbError> {
        for s in &mut self.segments {
            s.create_partitioned_table(name, schema.clone(), spec.clone())?;
        }
        Ok(())
    }

    /// Creates an index on every segment.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), RdbError> {
        for s in &mut self.segments {
            s.create_index(table, column)?;
        }
        Ok(())
    }

    /// Seals every table tail on every segment.
    pub fn seal_tails(&mut self) {
        for s in &mut self.segments {
            s.freeze_tails(1);
        }
    }

    /// Routes a row to its segment per the placement policy.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), RdbError> {
        let k = self.segments.len();
        let seg = match &self.placement {
            Placement::RoundRobin => (self.inserted as usize) % k,
            Placement::ByAgent { agent_col } => {
                let schema = self.segments[0].schema_of(table)?;
                let idx = schema.require(agent_col)?;
                let agent = row[idx].as_int().ok_or_else(|| {
                    RdbError::SchemaMismatch(format!("placement column {agent_col} must be Int"))
                })?;
                agent.rem_euclid(k as i64) as usize
            }
        };
        self.inserted += 1;
        self.segments[seg].insert(table, row)
    }

    /// Gather execution: pushes each table's single-table conjuncts down to
    /// every segment in parallel, gathers matching rows into a coordinator
    /// database, and runs the full query there. This is the honest cost
    /// model for non-co-located placement: the gathered rows are physically
    /// copied, and the join runs single-threaded at the coordinator.
    pub fn query_gather(
        &self,
        sql_text: &str,
        deadline: Option<Instant>,
    ) -> Result<ResultSet, RdbError> {
        let stmt = sql::parse_select(sql_text)?;
        // Learn per-table pushdown by planning against segment 0 (schemas are
        // identical on all segments).
        let plan0 = plan::plan_select(&self.segments[0], &stmt)?;
        let mut scans = vec![(plan0.first.table.clone(), plan0.first.conjuncts.clone())];
        for j in &plan0.joins {
            scans.push((j.scan.table.clone(), j.scan.conjuncts.clone()));
        }

        // Parallel scatter per scan node; each segment applies indexes and
        // partition pruning locally.
        let mut coordinator = Database::new();
        for (alias_idx, (table, conjuncts)) in scans.iter().enumerate() {
            let rows_per_seg = self.run_on_all(|seg| {
                let ctx = ExecCtx::with_deadline(deadline);
                ctx.check_now()?;
                let mut scanned = 0u64;
                let rows = match seg.slot(table)? {
                    crate::TableSlot::Plain(t) => {
                        let (_, pos) = t.select(conjuncts, &mut scanned);
                        t.rows_at(&pos).map(|r| r.to_row()).collect::<Vec<Row>>()
                    }
                    crate::TableSlot::Partitioned(pt) => {
                        let prune = pt.prune_from_conjuncts(conjuncts);
                        pt.select(conjuncts, &prune, &mut scanned)
                    }
                };
                Ok(rows)
            })?;
            // The same base table may appear under several aliases; gather
            // it once per alias under a unique staging name.
            let staged = format!("__gather_{alias_idx}_{table}");
            let schema = self.segments[0].schema_of(table)?.clone();
            coordinator.create_table(&staged, schema)?;
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
        crate::exec::execute(&coordinator, &plan2, &mut ctx)
    }

    /// Runs `f` on every segment in parallel (scoped threads), collecting
    /// results in segment order.
    fn run_on_all<T, F>(&self, f: F) -> Result<Vec<T>, RdbError>
    where
        T: Send,
        F: Fn(&Database) -> Result<T, RdbError> + Sync,
    {
        let results: Vec<Result<T, RdbError>> = std::thread::scope(|scope| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use aiql_model::Value;

    fn seed(placement: Placement) -> SegmentedDb {
        let mut db = SegmentedDb::new(3, placement);
        db.create_table(
            "events",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("agentid", ColumnType::Int),
                ("val", ColumnType::Int),
            ]),
        )
        .unwrap();
        for i in 0..30i64 {
            db.insert(
                "events",
                vec![Value::Int(i), Value::Int(i % 5), Value::Int(i * 2)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn round_robin_spreads_rows() {
        let db = seed(Placement::RoundRobin);
        for i in 0..3 {
            assert_eq!(db.segment(i).slot("events").unwrap().len(), 10);
        }
    }

    #[test]
    fn by_agent_colocates_rows() {
        let db = seed(Placement::ByAgent {
            agent_col: "agentid".into(),
        });
        // Agent a lands on segment a mod 3; each segment sees only its agents.
        for seg in 0..3 {
            let t = db.segment(seg).plain("events").unwrap();
            for row in t.iter_rows() {
                let agent = row.int(1).unwrap();
                assert_eq!(agent.rem_euclid(3) as usize, seg);
            }
        }
    }

    #[test]
    fn gather_query_handles_joins_and_aggregates() {
        let db = seed(Placement::RoundRobin);
        let rs = db
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
        let db = seed(Placement::ByAgent {
            agent_col: "agentid".into(),
        });
        // Pairs of events of the same agent with increasing val.
        let rs = db
            .query_gather(
                "SELECT e1.id, e2.id FROM events e1, events e2 \
                 WHERE e1.agentid = e2.agentid AND e1.val < e2.val AND e1.agentid = 2",
                None,
            )
            .unwrap();
        // Agent 2 has events 2,7,12,17,22,27 → C(6,2)=15 ordered pairs.
        assert_eq!(rs.rows.len(), 15);
    }

    #[test]
    fn gather_matches_local_on_colocated_query() {
        // By-agent placement co-locates agent 1 on segment 1: gathering
        // from every segment returns exactly that segment's rows.
        let db = seed(Placement::ByAgent {
            agent_col: "agentid".into(),
        });
        let gathered = db
            .query_gather(
                "SELECT e.id FROM events e WHERE e.agentid = 1 ORDER BY e.id",
                None,
            )
            .unwrap();
        let local: Vec<Row> = db
            .segment(1)
            .plain("events")
            .unwrap()
            .iter_rows()
            .filter(|r| r.int(1) == Some(1))
            .map(|r| vec![r.get(0).into_owned()])
            .collect();
        assert_eq!(gathered.rows, local);
        assert_eq!(local.len(), 6);
    }
}
