//! Query planning: name resolution and physical plan construction.
//!
//! The planner is deliberately *semantics-agnostic*, mirroring how a generic
//! RDBMS treats the paper's big-join translation of a multievent query:
//!
//! - joins are performed left-deep **in `FROM` order** (no pruning-power
//!   reordering — that is exactly the optimization AIQL's scheduler adds),
//! - single-table conjuncts are pushed down into scans, which pick an index
//!   when one applies,
//! - equality predicates between the accumulated side and the new table
//!   become hash-join keys; all other cross-table predicates (notably the
//!   *temporal* relationships `e1.start_time < e2.start_time`) stay residual,
//!   degrading the step to a nested-loop join — the measured cause of the
//!   baseline's blow-up on multievent queries.

use crate::error::RdbError;
use crate::expr::{CmpOp, Expr};
use crate::sql::{AggFunc, ColRef, SelectStmt, SqlExpr};
use crate::Database;
use aiql_model::{LikePattern, Value};

/// A scan of one table with pushed-down conjuncts (local column layout).
#[derive(Debug, Clone)]
pub struct ScanNode {
    pub table: String,
    pub conjuncts: Vec<Expr>,
}

/// One left-deep join step: scan the new table, join it to the accumulated
/// rows via `hash_keys` (empty ⇒ nested loop), then apply `residual` over the
/// concatenated layout.
#[derive(Debug, Clone)]
pub struct JoinStep {
    pub scan: ScanNode,
    /// Pairs of (column in accumulated layout, column in new table's local
    /// layout) that must be equal.
    pub hash_keys: Vec<(usize, usize)>,
    /// Predicates over the concatenated (accumulated ++ new) layout.
    pub residual: Vec<Expr>,
    /// Width of the accumulated layout before this step (for tests/debug).
    pub acc_width: usize,
}

/// An output column: either a direct column of the join result or an
/// aggregate over one.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputExpr {
    Col(usize),
    Agg(AggFunc, Option<usize>, bool),
}

/// A fully resolved physical plan for a SELECT.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    pub first: ScanNode,
    pub joins: Vec<JoinStep>,
    /// Output items: expression plus column name. Items at positions >=
    /// `visible` are hidden helpers (for HAVING / ORDER BY) trimmed from the
    /// final result.
    pub items: Vec<(OutputExpr, String)>,
    pub visible: usize,
    pub group_by: Vec<usize>,
    pub has_aggs: bool,
    /// Filter over the output layout (visible + hidden items).
    pub having: Option<Expr>,
    /// Sort keys as output-layout positions.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<usize>,
    pub distinct: bool,
}

struct Binder<'a> {
    /// (alias, table name, offset, arity) in FROM order.
    aliases: Vec<(String, String, usize, usize)>,
    db: &'a Database,
}

impl<'a> Binder<'a> {
    fn new(db: &'a Database, stmt: &SelectStmt) -> Result<Binder<'a>, RdbError> {
        let mut aliases = Vec::new();
        let mut offset = 0;
        for tref in &stmt.from {
            let schema = db.schema_of(&tref.table)?;
            if aliases.iter().any(|(a, _, _, _)| a == &tref.alias) {
                return Err(RdbError::Plan(format!("duplicate alias: {}", tref.alias)));
            }
            aliases.push((
                tref.alias.clone(),
                tref.table.clone(),
                offset,
                schema.arity(),
            ));
            offset += schema.arity();
        }
        Ok(Binder { aliases, db })
    }

    /// Resolves a column reference to a global layout position.
    fn resolve(&self, c: &ColRef) -> Result<usize, RdbError> {
        match &c.table {
            Some(alias) => {
                let (_, table, offset, _) = self
                    .aliases
                    .iter()
                    .find(|(a, _, _, _)| a == alias)
                    .ok_or_else(|| RdbError::Plan(format!("unknown alias: {alias}")))?;
                let schema = self.db.schema_of(table)?;
                Ok(offset + schema.require(&c.column)?)
            }
            None => {
                let mut found = None;
                for (_, table, offset, _) in &self.aliases {
                    if let Some(pos) = self.db.schema_of(table)?.position(&c.column) {
                        if found.is_some() {
                            return Err(RdbError::Plan(format!("ambiguous column: {}", c.column)));
                        }
                        found = Some(offset + pos);
                    }
                }
                found.ok_or_else(|| RdbError::NoSuchColumn(c.column.clone()))
            }
        }
    }

    /// The FROM position whose layout range contains global column `col`.
    fn alias_of_col(&self, col: usize) -> usize {
        self.aliases
            .iter()
            .position(|(_, _, o, a)| col >= *o && col < o + a)
            .expect("column within layout")
    }

    /// Resolves a scalar/boolean SQL expression; aggregates are rejected.
    fn resolve_expr(&self, e: &SqlExpr) -> Result<Expr, RdbError> {
        Ok(match e {
            SqlExpr::Col(c) => Expr::Col(self.resolve(c)?),
            SqlExpr::Lit(v) => Expr::Lit(v.clone()),
            SqlExpr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(self.resolve_expr(a)?),
                Box::new(self.resolve_expr(b)?),
            ),
            SqlExpr::Like(a, p, neg) => {
                let inner = Box::new(self.resolve_expr(a)?);
                if *neg {
                    Expr::NotLike(inner, LikePattern::new(p.as_str()))
                } else {
                    Expr::Like(inner, LikePattern::new(p.as_str()))
                }
            }
            SqlExpr::In(a, list, neg) => {
                let inner = Box::new(self.resolve_expr(a)?);
                if *neg {
                    Expr::NotIn(inner, list.clone().into())
                } else {
                    Expr::In(inner, list.clone().into())
                }
            }
            SqlExpr::IsNull(a, neg) => {
                let inner = Expr::IsNull(Box::new(self.resolve_expr(a)?));
                if *neg {
                    Expr::Not(Box::new(inner))
                } else {
                    inner
                }
            }
            SqlExpr::And(es) => Expr::And(
                es.iter()
                    .map(|x| self.resolve_expr(x))
                    .collect::<Result<_, _>>()?,
            ),
            SqlExpr::Or(es) => Expr::Or(
                es.iter()
                    .map(|x| self.resolve_expr(x))
                    .collect::<Result<_, _>>()?,
            ),
            SqlExpr::Not(x) => Expr::Not(Box::new(self.resolve_expr(x)?)),
            SqlExpr::Add(a, b) => Expr::Add(
                Box::new(self.resolve_expr(a)?),
                Box::new(self.resolve_expr(b)?),
            ),
            SqlExpr::Sub(a, b) => Expr::Sub(
                Box::new(self.resolve_expr(a)?),
                Box::new(self.resolve_expr(b)?),
            ),
            SqlExpr::Agg(..) => return Err(RdbError::Plan("aggregate not allowed here".into())),
        })
    }
}

/// Max FROM position referenced by an expression (None if constant).
fn max_alias(b: &Binder<'_>, e: &Expr) -> Option<usize> {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    cols.into_iter().map(|c| b.alias_of_col(c)).max()
}

/// Plans a parsed SELECT against a database.
pub fn plan_select(db: &Database, stmt: &SelectStmt) -> Result<SelectPlan, RdbError> {
    let binder = Binder::new(db, stmt)?;

    // Collect all conjuncts: WHERE plus every JOIN ... ON.
    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_ {
        conjuncts.extend(binder.resolve_expr(w)?.into_conjuncts());
    }
    // ON conjuncts carry a minimum step: an ON attached to FROM position k
    // cannot be evaluated before step k even if its columns allow it.
    let mut staged: Vec<(Expr, usize)> = conjuncts.into_iter().map(|c| (c, 0)).collect();
    for (k, tref) in stmt.from.iter().enumerate() {
        if let Some(on) = &tref.on {
            for c in binder.resolve_expr(on)?.into_conjuncts() {
                staged.push((c, k));
            }
        }
    }

    // Assign each conjunct to the earliest step where it is evaluable.
    let nfrom = stmt.from.len();
    let mut per_step: Vec<Vec<Expr>> = vec![Vec::new(); nfrom];
    for (c, min_step) in staged {
        let step = max_alias(&binder, &c).unwrap_or(0).max(min_step);
        per_step[step].push(c);
    }

    // Build the first scan: its conjuncts shift to local layout (offset 0, so
    // identity) — all step-0 conjuncts reference only alias 0.
    let first = ScanNode {
        table: stmt.from[0].table.clone(),
        conjuncts: per_step[0].clone(),
    };

    // Build join steps.
    let mut joins = Vec::new();
    #[allow(clippy::needless_range_loop)] // k indexes aliases and per_step in lockstep
    for k in 1..nfrom {
        let (_, table, offset, arity) = binder.aliases[k].clone();
        let acc_width = offset;
        let mut scan_conjuncts = Vec::new();
        let mut hash_keys = Vec::new();
        let mut residual = Vec::new();
        for c in std::mem::take(&mut per_step[k]) {
            let mut cols = Vec::new();
            c.columns(&mut cols);
            let only_new = cols
                .iter()
                .all(|&col| col >= offset && col < offset + arity);
            if only_new {
                // Shift to the new table's local layout.
                scan_conjuncts.push(c.map_columns(&|i| i - offset));
                continue;
            }
            // Equi-join detection: Col(acc) = Col(new).
            if let Expr::Cmp(CmpOp::Eq, a, b) = &c {
                if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
                    let (acc_col, new_col) = if *x < offset { (*x, *y) } else { (*y, *x) };
                    if acc_col < offset && new_col >= offset && new_col < offset + arity {
                        hash_keys.push((acc_col, new_col - offset));
                        continue;
                    }
                }
            }
            residual.push(c);
        }
        joins.push(JoinStep {
            scan: ScanNode {
                table,
                conjuncts: scan_conjuncts,
            },
            hash_keys,
            residual,
            acc_width,
        });
    }

    // Output items.
    let mut items: Vec<(OutputExpr, String)> = Vec::new();
    let mut has_aggs = false;
    if stmt.star {
        for (alias, table, offset, _) in &binder.aliases {
            let schema = db.schema_of(table)?;
            for i in 0..schema.arity() {
                items.push((
                    OutputExpr::Col(offset + i),
                    format!("{alias}.{}", schema.name(i)),
                ));
            }
        }
    } else {
        for item in &stmt.items {
            let (oe, default_name) = output_expr(&binder, &item.expr)?;
            if matches!(oe, OutputExpr::Agg(..)) {
                has_aggs = true;
            }
            let name = item.alias.clone().unwrap_or(default_name);
            items.push((oe, name));
        }
    }

    let group_by: Vec<usize> = stmt
        .group_by
        .iter()
        .map(|c| binder.resolve(c))
        .collect::<Result<_, _>>()?;
    let grouped = has_aggs || !group_by.is_empty();
    let visible = items.len();

    // HAVING: rewrite over the output layout, appending hidden items for
    // aggregates/columns not already in the SELECT list.
    let having = match &stmt.having {
        Some(h) => Some(resolve_output_expr(&binder, h, &mut items, grouped)?),
        None => None,
    };
    if items.len() > visible {
        has_aggs = has_aggs
            || items[visible..]
                .iter()
                .any(|(e, _)| matches!(e, OutputExpr::Agg(..)));
    }

    // ORDER BY: resolve against item aliases/names first, then as columns.
    let mut order_by = Vec::new();
    for (cref, asc) in &stmt.order_by {
        let pos = find_item(&items, cref).map(Ok).unwrap_or_else(|| {
            let col = binder.resolve(cref)?;
            if let Some(p) = items.iter().position(|(e, _)| *e == OutputExpr::Col(col)) {
                return Ok(p);
            }
            if grouped && !group_by.contains(&col) {
                return Err(RdbError::Plan(format!(
                    "ORDER BY column {} is neither grouped nor selected",
                    cref.column
                )));
            }
            items.push((OutputExpr::Col(col), cref.column.clone()));
            Ok(items.len() - 1)
        })?;
        order_by.push((pos, *asc));
    }

    Ok(SelectPlan {
        first,
        joins,
        items,
        visible,
        group_by,
        has_aggs: has_aggs || grouped,
        having,
        order_by,
        limit: stmt.limit,
        distinct: stmt.distinct,
    })
}

fn output_expr(b: &Binder<'_>, e: &SqlExpr) -> Result<(OutputExpr, String), RdbError> {
    match e {
        SqlExpr::Col(c) => Ok((OutputExpr::Col(b.resolve(c)?), c.column.clone())),
        SqlExpr::Agg(f, col, distinct) => {
            let resolved = match col {
                Some(c) => Some(b.resolve(c)?),
                None => None,
            };
            let name = format!("{:?}", f).to_lowercase();
            Ok((OutputExpr::Agg(*f, resolved, *distinct), name))
        }
        other => Err(RdbError::Plan(format!(
            "unsupported SELECT item: {other:?}"
        ))),
    }
}

fn find_item(items: &[(OutputExpr, String)], c: &ColRef) -> Option<usize> {
    if c.table.is_some() {
        return None;
    }
    items.iter().position(|(_, name)| name == &c.column)
}

/// Rewrites a HAVING expression into an [`Expr`] over the output layout,
/// appending hidden output items as needed.
fn resolve_output_expr(
    b: &Binder<'_>,
    e: &SqlExpr,
    items: &mut Vec<(OutputExpr, String)>,
    grouped: bool,
) -> Result<Expr, RdbError> {
    Ok(match e {
        SqlExpr::Lit(v) => Expr::Lit(v.clone()),
        SqlExpr::Col(c) => {
            if let Some(p) = find_item(items, c) {
                Expr::Col(p)
            } else {
                let col = b.resolve(c)?;
                if let Some(p) = items.iter().position(|(e, _)| *e == OutputExpr::Col(col)) {
                    Expr::Col(p)
                } else {
                    items.push((OutputExpr::Col(col), c.column.clone()));
                    Expr::Col(items.len() - 1)
                }
            }
        }
        SqlExpr::Agg(f, col, distinct) => {
            if !grouped {
                return Err(RdbError::Plan(
                    "aggregate in HAVING without GROUP BY".into(),
                ));
            }
            let resolved = match col {
                Some(c) => Some(b.resolve(c)?),
                None => None,
            };
            let oe = OutputExpr::Agg(*f, resolved, *distinct);
            if let Some(p) = items.iter().position(|(e, _)| *e == oe) {
                Expr::Col(p)
            } else {
                items.push((oe, "_hidden_agg".into()));
                Expr::Col(items.len() - 1)
            }
        }
        SqlExpr::Cmp(op, x, y) => Expr::Cmp(
            *op,
            Box::new(resolve_output_expr(b, x, items, grouped)?),
            Box::new(resolve_output_expr(b, y, items, grouped)?),
        ),
        SqlExpr::Like(x, p, neg) => {
            let inner = Box::new(resolve_output_expr(b, x, items, grouped)?);
            if *neg {
                Expr::NotLike(inner, LikePattern::new(p.as_str()))
            } else {
                Expr::Like(inner, LikePattern::new(p.as_str()))
            }
        }
        SqlExpr::In(x, l, neg) => {
            let inner = Box::new(resolve_output_expr(b, x, items, grouped)?);
            if *neg {
                Expr::NotIn(inner, l.clone().into())
            } else {
                Expr::In(inner, l.clone().into())
            }
        }
        SqlExpr::IsNull(x, neg) => {
            let inner = Expr::IsNull(Box::new(resolve_output_expr(b, x, items, grouped)?));
            if *neg {
                Expr::Not(Box::new(inner))
            } else {
                inner
            }
        }
        SqlExpr::And(es) => Expr::And(
            es.iter()
                .map(|x| resolve_output_expr(b, x, items, grouped))
                .collect::<Result<_, _>>()?,
        ),
        SqlExpr::Or(es) => Expr::Or(
            es.iter()
                .map(|x| resolve_output_expr(b, x, items, grouped))
                .collect::<Result<_, _>>()?,
        ),
        SqlExpr::Not(x) => Expr::Not(Box::new(resolve_output_expr(b, x, items, grouped)?)),
        SqlExpr::Add(x, y) => Expr::Add(
            Box::new(resolve_output_expr(b, x, items, grouped)?),
            Box::new(resolve_output_expr(b, y, items, grouped)?),
        ),
        SqlExpr::Sub(x, y) => Expr::Sub(
            Box::new(resolve_output_expr(b, x, items, grouped)?),
            Box::new(resolve_output_expr(b, y, items, grouped)?),
        ),
    })
}

/// Extracts `(day_lo, day_hi, agents)` pruning hints from scan conjuncts,
/// given the local positions of the partition time/agent columns.
pub fn prune_hints(
    conjuncts: &[Expr],
    time_col: usize,
    agent_col: usize,
    nanos_per_day: i64,
) -> (Option<i64>, Option<i64>, Option<Vec<i64>>) {
    let mut lo: Option<i64> = None;
    let mut hi: Option<i64> = None;
    let mut agents: Option<Vec<i64>> = None;
    for c in conjuncts {
        match c {
            Expr::Cmp(op, a, b) => {
                let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                    (Expr::Col(col), Expr::Lit(Value::Int(v))) => (*col, *v, *op),
                    (Expr::Lit(Value::Int(v)), Expr::Col(col)) => (*col, *v, op.flip()),
                    _ => continue,
                };
                if col == time_col {
                    let day = lit.div_euclid(nanos_per_day);
                    match op {
                        CmpOp::Ge | CmpOp::Gt => lo = Some(lo.map_or(day, |x| x.max(day))),
                        CmpOp::Le | CmpOp::Lt => hi = Some(hi.map_or(day, |x| x.min(day))),
                        CmpOp::Eq => {
                            lo = Some(lo.map_or(day, |x| x.max(day)));
                            hi = Some(hi.map_or(day, |x| x.min(day)));
                        }
                        _ => {}
                    }
                } else if col == agent_col && op == CmpOp::Eq {
                    agents = Some(vec![lit]);
                }
            }
            Expr::In(inner, list) => {
                if let Expr::Col(col) = inner.as_ref() {
                    if *col == agent_col {
                        let list = list.values();
                        let vals: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
                        if vals.len() == list.len() {
                            agents = Some(vals);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    (lo, hi, agents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::sql::parse_select;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "events",
            Schema::new(&[
                ("id", ColumnType::Int),
                ("subject_id", ColumnType::Int),
                ("object_id", ColumnType::Int),
                ("start_time", ColumnType::Int),
            ]),
        )
        .unwrap();
        db.create_table(
            "procs",
            Schema::new(&[("id", ColumnType::Int), ("exe_name", ColumnType::Str)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn pushdown_and_hash_keys() {
        let db = db();
        let stmt = parse_select(
            "SELECT e1.id FROM events e1 JOIN procs p1 ON e1.subject_id = p1.id \
             WHERE p1.exe_name LIKE '%cmd%' AND e1.start_time > 100",
        )
        .unwrap();
        let plan = plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.first.table, "events");
        assert_eq!(plan.first.conjuncts.len(), 1, "time pushed to events scan");
        assert_eq!(plan.joins.len(), 1);
        let j = &plan.joins[0];
        assert_eq!(j.hash_keys, vec![(1, 0)]);
        assert_eq!(j.scan.conjuncts.len(), 1, "LIKE pushed to procs scan");
        assert!(j.residual.is_empty());
    }

    #[test]
    fn temporal_join_stays_residual() {
        let db = db();
        let stmt = parse_select(
            "SELECT e1.id FROM events e1, events e2 WHERE e1.start_time < e2.start_time",
        )
        .unwrap();
        let plan = plan_select(&db, &stmt).unwrap();
        let j = &plan.joins[0];
        assert!(j.hash_keys.is_empty(), "inequality cannot hash-join");
        assert_eq!(j.residual.len(), 1);
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let db = db();
        let stmt = parse_select("SELECT id FROM events e1, procs p1").unwrap();
        assert!(matches!(plan_select(&db, &stmt), Err(RdbError::Plan(_))));
        let stmt = parse_select("SELECT e1.bogus FROM events e1").unwrap();
        assert!(plan_select(&db, &stmt).is_err());
        let stmt = parse_select("SELECT x.id FROM events e1").unwrap();
        assert!(plan_select(&db, &stmt).is_err());
    }

    #[test]
    fn having_appends_hidden_aggregate() {
        let db = db();
        let stmt = parse_select(
            "SELECT p1.exe_name FROM procs p1 GROUP BY p1.exe_name HAVING COUNT(*) > 2",
        )
        .unwrap();
        let plan = plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.visible, 1);
        assert_eq!(plan.items.len(), 2);
        assert!(matches!(
            plan.items[1].0,
            OutputExpr::Agg(AggFunc::Count, None, false)
        ));
        assert!(plan.having.is_some());
    }

    #[test]
    fn order_by_alias_and_hidden_column() {
        let db = db();
        let stmt = parse_select("SELECT e1.id AS eid FROM events e1 ORDER BY eid DESC").unwrap();
        let plan = plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.order_by, vec![(0, false)]);

        let stmt = parse_select("SELECT e1.id FROM events e1 ORDER BY start_time").unwrap();
        let plan = plan_select(&db, &stmt).unwrap();
        assert_eq!(plan.visible, 1);
        assert_eq!(plan.items.len(), 2, "hidden sort column appended");
    }

    #[test]
    fn prune_hint_extraction() {
        let day = 86_400i64 * 1_000_000_000;
        let conjuncts = vec![
            Expr::cmp_lit(3, CmpOp::Ge, 2 * day),
            Expr::cmp_lit(3, CmpOp::Lt, 3 * day),
            Expr::cmp_lit(0, CmpOp::Eq, 7i64),
        ];
        let (lo, hi, agents) = prune_hints(&conjuncts, 3, 0, day);
        assert_eq!(lo, Some(2));
        assert_eq!(hi, Some(3));
        assert_eq!(agents, Some(vec![7]));

        let conjuncts = vec![Expr::in_list(0, vec![Value::Int(1), Value::Int(2)])];
        let (_, _, agents) = prune_hints(&conjuncts, 3, 0, day);
        assert_eq!(agents, Some(vec![1, 2]));
    }
}
