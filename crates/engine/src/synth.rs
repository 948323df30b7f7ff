//! Data-query synthesis: one storage query per event pattern (paper
//! Sec. 5.1).
//!
//! For every event pattern the engine synthesizes a *data query*: predicate
//! sets over the `events` table and the subject/object entity tables,
//! derived from the pattern's constraints, operation set, time window, and
//! agent set. The scheduler may add *extra* constraints (IN-lists on join
//! keys, narrowed time bounds) before execution — the "leveraging existing
//! results to narrow the search scope" of Algorithm 1.

use aiql_core::ast::CmpOp as AstCmp;
use aiql_core::{CstrNode, FieldTarget, PatternCtx};
use aiql_model::{EntityKind, Value};
use aiql_rdb::{CmpOp, Expr, Prune, Schema};
use aiql_storage::schema;

/// The synthesized data query for one event pattern.
#[derive(Debug, Clone, Default)]
pub struct DataQuery {
    /// Conjuncts over the events table layout.
    pub event: Vec<Expr>,
    /// Conjuncts over the processes table layout (subject side).
    pub subject: Vec<Expr>,
    /// Conjuncts over the object entity table layout.
    pub object: Vec<Expr>,
    /// Partition pruning hints for the events scan.
    pub prune: Prune,
}

/// Extra constraints injected by the scheduler before execution.
#[derive(Debug, Clone, Default)]
pub struct ExtraCstr {
    /// IN-list constraints: (the row of the match they constrain, its
    /// column, admissible values).
    pub in_lists: Vec<(FieldTarget, usize, Vec<Value>)>,
    /// Narrowed event start-time bounds (inclusive nanoseconds).
    pub time_lo: Option<i64>,
    pub time_hi: Option<i64>,
}

fn cmp_op(op: AstCmp) -> CmpOp {
    match op {
        AstCmp::Eq => CmpOp::Eq,
        AstCmp::Ne => CmpOp::Ne,
        AstCmp::Lt => CmpOp::Lt,
        AstCmp::Le => CmpOp::Le,
        AstCmp::Gt => CmpOp::Gt,
        AstCmp::Ge => CmpOp::Ge,
    }
}

/// Converts a normalized constraint into an rdb expression over `schema`.
pub fn cstr_to_expr(c: &CstrNode, schema_ref: &Schema) -> Option<Expr> {
    Some(match c {
        CstrNode::Cmp { attr, op, value } => {
            let col = schema_ref.position(schema::column_for_attr(attr))?;
            Expr::Cmp(
                cmp_op(*op),
                Box::new(Expr::Col(col)),
                Box::new(Expr::Lit(value.clone())),
            )
        }
        CstrNode::Like { attr, pattern, neg } => {
            let col = schema_ref.position(schema::column_for_attr(attr))?;
            if *neg {
                Expr::NotLike(Box::new(Expr::Col(col)), pattern.clone())
            } else {
                Expr::Like(Box::new(Expr::Col(col)), pattern.clone())
            }
        }
        CstrNode::In { attr, neg, values } => {
            let col = schema_ref.position(schema::column_for_attr(attr))?;
            if *neg {
                Expr::NotIn(Box::new(Expr::Col(col)), values.clone().into())
            } else {
                Expr::in_list(col, values.clone())
            }
        }
        CstrNode::And(cs) => Expr::And(
            cs.iter()
                .map(|x| cstr_to_expr(x, schema_ref))
                .collect::<Option<Vec<_>>>()?,
        ),
        CstrNode::Or(cs) => Expr::Or(
            cs.iter()
                .map(|x| cstr_to_expr(x, schema_ref))
                .collect::<Option<Vec<_>>>()?,
        ),
        CstrNode::Not(inner) => Expr::Not(Box::new(cstr_to_expr(inner, schema_ref)?)),
    })
}

/// Entity-table schema for a kind (static, cheap clones avoided by caller).
pub fn entity_schema(kind: EntityKind) -> Schema {
    match kind {
        EntityKind::Process => schema::processes_schema(),
        EntityKind::File => schema::files_schema(),
        EntityKind::NetConn => schema::netconns_schema(),
    }
}

/// Synthesizes the data query for one pattern.
pub fn synthesize(p: &PatternCtx) -> DataQuery {
    let ev_schema = schema::events_schema();
    let mut q = DataQuery::default();

    // Operation set: an IN over the op codes (omitted when all ops match).
    if p.ops.len() < aiql_model::event::ALL_OPS.len() {
        let codes: Vec<Value> = p
            .ops
            .iter()
            .map(|o| Value::Int(schema::opcode(*o)))
            .collect();
        q.event.push(Expr::in_list(schema::ev::OPTYPE, codes));
    }
    // Object kind discriminator.
    q.event.push(Expr::cmp_lit(
        schema::ev::OBJKIND,
        CmpOp::Eq,
        schema::kind_code(p.object_kind),
    ));
    // Time window → conjuncts + partition pruning.
    if let Some((lo, hi)) = p.window {
        q.event
            .push(Expr::cmp_lit(schema::ev::START, CmpOp::Ge, lo));
        q.event
            .push(Expr::cmp_lit(schema::ev::START, CmpOp::Lt, hi));
        q.prune.day_lo = Some(lo.div_euclid(aiql_rdb::partition::NANOS_PER_DAY));
        q.prune.day_hi = Some((hi - 1).div_euclid(aiql_rdb::partition::NANOS_PER_DAY));
    }
    // Agent set.
    if let Some(agents) = &p.agents {
        if agents.len() == 1 {
            q.event
                .push(Expr::cmp_lit(schema::ev::AGENT, CmpOp::Eq, agents[0]));
        } else {
            q.event.push(Expr::in_list(
                schema::ev::AGENT,
                agents.iter().map(|a| Value::Int(*a)).collect(),
            ));
        }
        q.prune.agents = Some(agents.clone());
    }
    // Event-level constraints.
    for c in &p.evt_cstr {
        if let Some(e) = cstr_to_expr(c, &ev_schema) {
            q.event.push(e);
        }
    }
    // Subject constraints (incl. agent narrowing on the entity side).
    let proc_schema = schema::processes_schema();
    for c in &p.subj_cstr {
        if let Some(e) = cstr_to_expr(c, &proc_schema) {
            q.subject.push(e);
        }
    }
    // Object constraints.
    let obj_schema = entity_schema(p.object_kind);
    for c in &p.obj_cstr {
        if let Some(e) = cstr_to_expr(c, &obj_schema) {
            q.object.push(e);
        }
    }
    q
}

/// Applies scheduler-injected extra constraints to a synthesized query.
pub fn apply_extra(q: &mut DataQuery, extra: &ExtraCstr) {
    for (side, col, values) in &extra.in_lists {
        let e = Expr::in_list(*col, values.clone());
        match side {
            FieldTarget::Event => q.event.push(e),
            FieldTarget::Subject => q.subject.push(e),
            FieldTarget::Object => q.object.push(e),
        }
    }
    if let Some(lo) = extra.time_lo {
        q.event
            .push(Expr::cmp_lit(schema::ev::START, CmpOp::Ge, lo));
        let day = lo.div_euclid(aiql_rdb::partition::NANOS_PER_DAY);
        q.prune.day_lo = Some(q.prune.day_lo.map_or(day, |d| d.max(day)));
    }
    if let Some(hi) = extra.time_hi {
        q.event
            .push(Expr::cmp_lit(schema::ev::START, CmpOp::Le, hi));
        let day = hi.div_euclid(aiql_rdb::partition::NANOS_PER_DAY);
        q.prune.day_hi = Some(q.prune.day_hi.map_or(day, |d| d.min(day)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;

    fn pattern(src: &str) -> PatternCtx {
        compile(src).unwrap().patterns.remove(0)
    }

    #[test]
    fn synthesize_query5_style_pattern() {
        let ctx = compile(
            r#"
            (at "01/01/2017")
            agentid = 9
            proc p write ip i[dstip = "10.0.0.129"] as evt
            return p, avg(evt.amount) as amt
            group by p
            "#,
        )
        .unwrap();
        let q = synthesize(&ctx.patterns[0]);
        // op IN, objkind, 2 time bounds, agent eq.
        assert_eq!(q.event.len(), 5);
        assert_eq!(q.object.len(), 1);
        assert!(q.subject.is_empty());
        assert_eq!(q.prune.agents, Some(vec![9]));
        assert!(q.prune.day_lo.is_some());
        assert_eq!(q.prune.day_lo, q.prune.day_hi);
    }

    #[test]
    fn all_ops_pattern_omits_op_filter() {
        let p = pattern("proc p !read || read file f return p");
        let q = synthesize(&p);
        // No op filter, only objkind.
        assert_eq!(q.event.len(), 1);
    }

    #[test]
    fn extra_constraints_narrow() {
        let p = pattern(r#"(at "01/01/2017") proc p read file f return p"#);
        let mut q = synthesize(&p);
        let before = q.event.len();
        let extra = ExtraCstr {
            in_lists: vec![(FieldTarget::Event, schema::ev::SUBJECT, vec![Value::Int(5)])],
            time_lo: Some(100),
            time_hi: None,
        };
        apply_extra(&mut q, &extra);
        assert_eq!(q.event.len(), before + 2);
    }

    #[test]
    fn cstr_to_expr_handles_connectives() {
        let s = schema::processes_schema();
        let c = CstrNode::Or(vec![
            CstrNode::Like {
                attr: "exe_name".into(),
                pattern: "%a%".into(),
                neg: false,
            },
            CstrNode::Not(Box::new(CstrNode::Cmp {
                attr: "pid".into(),
                op: AstCmp::Eq,
                value: Value::Int(1),
            })),
        ]);
        let e = cstr_to_expr(&c, &s).unwrap();
        let row = vec![
            Value::Int(1),
            Value::Int(1),
            Value::Int(99),
            Value::str("bash"),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        assert!(e.matches(&row), "NOT(pid = 1) holds for pid = 99");
    }

    #[test]
    fn unknown_attr_returns_none() {
        let s = schema::processes_schema();
        let c = CstrNode::Cmp {
            attr: "nonexistent".into(),
            op: AstCmp::Eq,
            value: Value::Int(1),
        };
        assert!(cstr_to_expr(&c, &s).is_none());
    }
}
