//! Materialized plan execution with deadline support and statistics.

use crate::plan::{JoinStep, OutputExpr, ScanNode, SelectPlan};
use crate::sql::AggFunc;
use crate::BaselineError;
use aiql_model::Value;
use aiql_rdb::{Database, Expr, Row};
use std::collections::HashMap;
use std::time::Instant;

/// Execution statistics, accumulated across the operators of one query (or
/// across several queries when the caller reuses the context).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows touched by scans (sequential rows read + index rows fetched).
    pub rows_scanned: u64,
    /// Nested-loop iterations (pairs considered).
    pub loop_iterations: u64,
    /// Hash-join probe operations.
    pub hash_probes: u64,
    /// Rows produced by the final operator.
    pub rows_output: u64,
}

/// Deadline + statistics threaded through execution.
#[derive(Debug)]
pub struct ExecCtx {
    /// Absolute deadline; `None` means run to completion.
    pub deadline: Option<Instant>,
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// Maximum rows any single operator may materialize.
    pub max_rows: usize,
    checked: u64,
}

impl ExecCtx {
    /// A context with no deadline and the default row budget.
    pub fn unbounded() -> ExecCtx {
        ExecCtx {
            deadline: None,
            stats: ExecStats::default(),
            max_rows: 500_000,
            checked: 0,
        }
    }

    /// A context that times out `budget` from now.
    pub fn with_budget(budget: std::time::Duration) -> ExecCtx {
        ExecCtx::with_deadline(Some(Instant::now() + budget))
    }

    /// A context with an absolute (optional) deadline.
    pub fn with_deadline(deadline: Option<Instant>) -> ExecCtx {
        ExecCtx {
            deadline,
            ..ExecCtx::unbounded()
        }
    }

    /// Cheap periodic deadline check: consults the clock every 4096 calls.
    #[inline]
    pub fn tick(&mut self) -> Result<(), BaselineError> {
        self.checked += 1;
        if self.checked & 0xFFF == 0 {
            self.check_now()?;
        }
        Ok(())
    }

    /// Immediate deadline check.
    pub fn check_now(&self) -> Result<(), BaselineError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(BaselineError::Timeout),
            _ => Ok(()),
        }
    }
}

/// A query result: named columns plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl std::fmt::Display for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for r in &self.rows {
            let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Scans one table of `db` with the node's pushed-down conjuncts — an
/// access-path select on a plain table, partition pruning plus a select on
/// a partitioned one — into owned rows. Single-node execution and every
/// Greenplum segment scan through here.
pub(crate) fn scan(
    db: &Database,
    node: &ScanNode,
    ctx: &mut ExecCtx,
) -> Result<Vec<Row>, BaselineError> {
    ctx.check_now()?;
    let mut scanned = 0u64;
    let rows = match db.slot(&node.table)? {
        aiql_rdb::TableSlot::Plain(t) => {
            let (_, positions) = t.select(&node.conjuncts, &mut scanned);
            t.rows_at(&positions).map(|r| r.to_row()).collect()
        }
        aiql_rdb::TableSlot::Partitioned(pt) => {
            let prune = pt.prune_from_conjuncts(&node.conjuncts);
            let mut profile = aiql_rdb::ScanProfile::default();
            pt.select(&node.conjuncts, &prune, &mut scanned, &mut profile)
                .iter()
                .map(|r| r.to_row())
                .collect()
        }
    };
    ctx.stats.rows_scanned += scanned;
    Ok(rows)
}

fn join(
    acc: Vec<Row>,
    new_rows: Vec<Row>,
    step: &JoinStep,
    ctx: &mut ExecCtx,
) -> Result<Vec<Row>, BaselineError> {
    let mut out: Vec<Row> = Vec::new();
    macro_rules! push_guarded {
        ($row:expr) => {
            if out.len() >= ctx.max_rows {
                return Err(BaselineError::ResourceLimit);
            }
            out.push($row);
        };
    }
    if step.hash_keys.is_empty() {
        // Nested loop with residual predicates.
        for a in &acc {
            for b in &new_rows {
                ctx.stats.loop_iterations += 1;
                ctx.tick()?;
                if step.residual.iter().all(|p| matches_concat(p, a, b)) {
                    let mut row = a.clone();
                    row.extend_from_slice(b);
                    push_guarded!(row);
                }
            }
        }
    } else {
        // Hash join: build on the new (right) side, probe with accumulated.
        let mut built: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
        for b in &new_rows {
            let key: Vec<Value> = step
                .hash_keys
                .iter()
                .map(|(_, nc)| b[*nc].clone())
                .collect();
            built.entry(key).or_default().push(b);
        }
        for a in &acc {
            ctx.stats.hash_probes += 1;
            ctx.tick()?;
            let key: Vec<Value> = step
                .hash_keys
                .iter()
                .map(|(ac, _)| a[*ac].clone())
                .collect();
            if let Some(matches) = built.get(&key) {
                for b in matches {
                    if step.residual.iter().all(|p| matches_concat(p, a, b)) {
                        let mut row = a.clone();
                        row.extend_from_slice(b);
                        push_guarded!(row);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Evaluates a predicate over the concatenation of `a` and `b` without
/// materializing the concatenated row.
fn matches_concat(p: &Expr, a: &Row, b: &Row) -> bool {
    // Fast path: materialize only when the predicate references both sides.
    // For simplicity and correctness we materialize a small stack buffer.
    let mut row = Vec::with_capacity(a.len() + b.len());
    row.extend_from_slice(a);
    row.extend_from_slice(b);
    p.matches(&row)
}

struct AggState {
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: std::collections::HashSet<Value>,
}

impl AggState {
    fn new() -> AggState {
        AggState {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            distinct: std::collections::HashSet::new(),
        }
    }

    fn update(&mut self, v: &Value, need_distinct: bool) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        if need_distinct {
            self.distinct.insert(v.clone());
        }
    }

    fn result(&self, f: AggFunc, distinct: bool) -> Value {
        match f {
            AggFunc::Count => {
                if distinct {
                    Value::Int(self.distinct.len() as i64)
                } else {
                    Value::Int(self.count as i64)
                }
            }
            AggFunc::Sum => {
                if distinct {
                    Value::Float(self.distinct.iter().filter_map(Value::as_f64).sum())
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if distinct && !self.distinct.is_empty() {
                    let s: f64 = self.distinct.iter().filter_map(Value::as_f64).sum();
                    Value::Float(s / self.distinct.len() as f64)
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Executes a plan to completion.
pub fn execute(
    db: &Database,
    plan: &SelectPlan,
    ctx: &mut ExecCtx,
) -> Result<ResultSet, BaselineError> {
    // 1. Scan + join pipeline.
    let mut rows = scan(db, &plan.first, ctx)?;
    for step in &plan.joins {
        let new_rows = scan(db, &step.scan, ctx)?;
        rows = join(rows, new_rows, step, ctx)?;
    }

    // 2. Projection / aggregation to the output layout.
    let mut out: Vec<Row> = if plan.has_aggs {
        let mut groups: HashMap<Vec<Value>, (Row, Vec<AggState>)> = HashMap::new();
        let agg_positions: Vec<usize> = plan
            .items
            .iter()
            .enumerate()
            .filter(|(_, (e, _))| matches!(e, OutputExpr::Agg(..)))
            .map(|(i, _)| i)
            .collect();
        for r in &rows {
            ctx.tick()?;
            let key: Vec<Value> = plan.group_by.iter().map(|&c| r[c].clone()).collect();
            let entry = groups.entry(key).or_insert_with(|| {
                (
                    r.clone(),
                    agg_positions.iter().map(|_| AggState::new()).collect(),
                )
            });
            for (slot, &item_idx) in agg_positions.iter().enumerate() {
                if let OutputExpr::Agg(_, col, distinct) = &plan.items[item_idx].0 {
                    let v = match col {
                        Some(c) => r[*c].clone(),
                        None => Value::Int(1), // COUNT(*) counts every row.
                    };
                    entry.1[slot].update(&v, *distinct);
                }
            }
        }
        // Deterministic group order: sort groups by key.
        let mut grouped: Vec<_> = groups.into_iter().collect();
        grouped.sort_by(|a, b| a.0.cmp(&b.0));
        grouped
            .into_iter()
            .map(|(_, (first_row, states))| {
                let mut slot = 0;
                plan.items
                    .iter()
                    .map(|(e, _)| match e {
                        OutputExpr::Col(c) => first_row[*c].clone(),
                        OutputExpr::Agg(f, _, distinct) => {
                            let v = states[slot].result(*f, *distinct);
                            slot += 1;
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    } else {
        rows.iter()
            .map(|r| {
                plan.items
                    .iter()
                    .map(|(e, _)| match e {
                        OutputExpr::Col(c) => r[*c].clone(),
                        OutputExpr::Agg(..) => Value::Null,
                    })
                    .collect()
            })
            .collect()
    };

    // 3. HAVING over the output layout.
    if let Some(h) = &plan.having {
        out.retain(|r| h.matches(r));
    }

    // 4. ORDER BY.
    if !plan.order_by.is_empty() {
        out.sort_by(|a, b| {
            for (col, asc) in &plan.order_by {
                let ord = a[*col].cmp(&b[*col]);
                if ord != std::cmp::Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 5. Trim hidden helper columns.
    if plan.items.len() > plan.visible {
        for r in &mut out {
            r.truncate(plan.visible);
        }
    }

    // 6. DISTINCT (stable: keeps first occurrence).
    if plan.distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }

    // 7. LIMIT.
    if let Some(n) = plan.limit {
        out.truncate(n);
    }

    ctx.stats.rows_output += out.len() as u64;
    Ok(ResultSet {
        columns: plan.items[..plan.visible]
            .iter()
            .map(|(_, n)| n.clone())
            .collect(),
        rows: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query, query_ctx};
    use aiql_rdb::{ColumnType, Layout, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "procs",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("exe_name", ColumnType::Str),
                ("agentid", ColumnType::Int),
            ]),
            &Layout::default(),
        )
        .unwrap();
        db.create_table(
            "events",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("subject_id", ColumnType::Int),
                ("object_id", ColumnType::Int),
                ("start_time", ColumnType::Int),
            ]),
            &Layout::default(),
        )
        .unwrap();
        for (id, exe, agent) in [(1, "cmd.exe", 1), (2, "osql.exe", 1), (3, "svchost.exe", 2)] {
            db.insert(
                "procs",
                vec![Value::Int(id), Value::str(exe), Value::Int(agent)],
            )
            .unwrap();
        }
        // cmd(1) starts osql(2) at t=100; svchost(3) reads obj 9 at t=50, 150.
        for (id, s, o, t) in [(1, 1, 2, 100), (2, 3, 9, 50), (3, 3, 9, 150)] {
            db.insert(
                "events",
                vec![Value::Int(id), Value::Int(s), Value::Int(o), Value::Int(t)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn simple_filter_and_projection() {
        let db = db();
        let rs = query(
            &db,
            "SELECT p.id FROM procs p WHERE p.exe_name LIKE '%.exe' ORDER BY p.id DESC",
        )
        .unwrap();
        assert_eq!(rs.columns, vec!["id"]);
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(2)],
                vec![Value::Int(1)]
            ]
        );
    }

    #[test]
    fn hash_join_path() {
        let db = db();
        let mut ctx = ExecCtx::unbounded();
        let rs = query_ctx(
            &db,
            "SELECT p.exe_name FROM events e JOIN procs p ON e.subject_id = p.id \
                 WHERE e.start_time >= 100 ORDER BY p.exe_name",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::str("cmd.exe")], vec![Value::str("svchost.exe")]]
        );
        assert!(ctx.stats.hash_probes > 0);
        assert_eq!(ctx.stats.loop_iterations, 0);
    }

    #[test]
    fn nested_loop_for_temporal_join() {
        let db = db();
        let mut ctx = ExecCtx::unbounded();
        let rs = query_ctx(
            &db,
            "SELECT e1.id, e2.id FROM events e1, events e2 \
                 WHERE e1.start_time < e2.start_time ORDER BY e1.id, e2.id",
            &mut ctx,
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 3, "(2,1),(2,3),(1,3) time-ordered pairs");
        assert!(ctx.stats.loop_iterations > 0);
    }

    #[test]
    fn group_by_having_and_count() {
        let db = db();
        let rs = query(
            &db,
            "SELECT p.exe_name, COUNT(*) AS n FROM events e JOIN procs p \
                 ON e.subject_id = p.id GROUP BY p.exe_name HAVING n > 1",
        )
        .unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::str("svchost.exe"), Value::Int(2)]]
        );
    }

    #[test]
    fn count_distinct() {
        let db = db();
        let rs = query(
            &db,
            "SELECT COUNT(DISTINCT e.subject_id) AS n FROM events e",
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn distinct_and_limit() {
        let db = db();
        let rs = query(
            &db,
            "SELECT DISTINCT e.subject_id FROM events e ORDER BY e.subject_id",
        )
        .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        let rs = query(&db, "SELECT e.id FROM events e ORDER BY e.id LIMIT 2").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn select_star() {
        let db = db();
        let rs = query(&db, "SELECT * FROM procs p WHERE p.id = 1").unwrap();
        assert_eq!(rs.columns, vec!["p.id", "p.exe_name", "p.agentid"]);
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn aggregate_without_group_by() {
        let db = db();
        let rs = query(&db,"SELECT COUNT(*), MIN(e.start_time), MAX(e.start_time), AVG(e.start_time), SUM(e.id) FROM events e")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(3));
        assert_eq!(rs.rows[0][1], Value::Int(50));
        assert_eq!(rs.rows[0][2], Value::Int(150));
        assert_eq!(rs.rows[0][3], Value::Float(100.0));
        assert_eq!(rs.rows[0][4], Value::Float(6.0));
    }

    #[test]
    fn empty_aggregate() {
        let db = db();
        let rs = query(
            &db,
            "SELECT COUNT(*) FROM events e WHERE e.start_time > 1000",
        )
        .unwrap();
        // No rows ⇒ no groups ⇒ empty result (matches group-by semantics).
        assert!(rs.rows.is_empty() || rs.rows[0][0] == Value::Int(0));
    }

    #[test]
    fn timeout_fires_on_large_nested_loop() {
        let mut db = Database::new();
        db.create_table(
            "t",
            Schema::new(&[("a", ColumnType::Int)]),
            &Layout::default(),
        )
        .unwrap();
        for i in 0..3000 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        let mut ctx = ExecCtx::with_budget(std::time::Duration::from_millis(1));
        // 3000 x 3000 x 3000 nested loop would take far longer than 1 ms.
        let r = query_ctx(
            &db,
            "SELECT t1.a FROM t t1, t t2, t t3 WHERE t1.a < t2.a AND t2.a < t3.a",
            &mut ctx,
        );
        assert!(matches!(
            r.unwrap_err(),
            BaselineError::Timeout | BaselineError::ResourceLimit
        ));
    }
}
