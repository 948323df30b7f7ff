//! The Neo4j-style baseline: entities as nodes, events as relationships,
//! traversal-based pattern matching.

use crate::{BaselineError, Rows};
use aiql_core::ast::{CmpOp, TempKind};
use aiql_core::{CstrNode, FieldTarget, QueryContext, RelationCtx, RetExprCtx};
use aiql_graphdb::pattern::{
    CrossPred, EdgePat, NodePat, POp, PatternQuery, PropPred, TempConstraint, Triple,
};
use aiql_graphdb::{GraphDb, MatchStats};
use aiql_model::{Dataset, Value};
use aiql_translate::names::{alias_of, pattern_names};
use std::time::Instant;

/// Loads a dataset into the property graph the way the paper configures
/// Neo4j: entities become nodes (labelled by kind, with their attributes),
/// events become relationships (labelled by operation, stamped with the
/// event time and agent). Label/property indexes are created on the
/// frequently-queried attributes, as for the other systems.
pub fn load_graph(data: &Dataset) -> GraphDb {
    let mut g = GraphDb::new();
    let mut node_of = std::collections::HashMap::new();
    for e in &data.entities {
        let mut props: Vec<(&str, Value)> = vec![
            ("model_id", Value::Int(e.id.0 as i64)),
            ("agentid", Value::Int(e.agent.0 as i64)),
        ];
        for (k, v) in &e.attrs {
            props.push((k.as_str(), v.clone()));
        }
        let id = g.add_node(e.kind.keyword(), props);
        node_of.insert(e.id, id);
    }
    for ev in &data.events {
        let (Some(&src), Some(&dst)) = (node_of.get(&ev.subject), node_of.get(&ev.object)) else {
            continue; // Dangling reference: skip, as an importer would.
        };
        g.add_edge(
            src,
            dst,
            ev.op.keyword(),
            ev.start.0,
            vec![
                ("model_id", Value::Int(ev.id.0 as i64)),
                ("agentid", Value::Int(ev.agent.0 as i64)),
                ("amount", Value::Int(ev.amount)),
                ("failure", Value::Int(ev.failure as i64)),
            ],
        );
    }
    // Neo4j-style label/property indexes on the hot attributes.
    g.create_node_index("proc", "exe_name");
    g.create_node_index("file", "name");
    g.create_node_index("ip", "dst_ip");
    g.create_node_index("proc", "model_id");
    g.create_node_index("file", "model_id");
    g.create_node_index("ip", "model_id");
    g
}

fn pop(op: CmpOp) -> POp {
    match op {
        CmpOp::Eq => POp::Eq,
        CmpOp::Ne => POp::Ne,
        CmpOp::Lt => POp::Lt,
        CmpOp::Le => POp::Le,
        CmpOp::Gt => POp::Gt,
        CmpOp::Ge => POp::Ge,
    }
}

/// Maps an AIQL attribute to its graph property name.
fn prop_name(attr: &str) -> Result<String, BaselineError> {
    Ok(match attr {
        "id" => "model_id".to_string(),
        "optype" | "start_time" | "end_time" | "seq" => {
            return Err(BaselineError::Untranslatable(format!(
                "attribute `{attr}` is not materialized as a graph property"
            )))
        }
        other => other.to_string(),
    })
}

fn pred_of(c: &CstrNode) -> Result<PropPred, BaselineError> {
    Ok(match c {
        CstrNode::Cmp { attr, op, value } => {
            PropPred::Cmp(prop_name(attr)?, pop(*op), value.clone())
        }
        CstrNode::Like { attr, pattern, neg } => {
            if *neg {
                PropPred::NotLike(prop_name(attr)?, pattern.clone())
            } else {
                PropPred::Like(prop_name(attr)?, pattern.clone())
            }
        }
        CstrNode::In { attr, neg, values } => {
            let inner = PropPred::In(prop_name(attr)?, values.clone());
            if *neg {
                PropPred::Not(Box::new(inner))
            } else {
                inner
            }
        }
        CstrNode::And(cs) => PropPred::And(cs.iter().map(pred_of).collect::<Result<_, _>>()?),
        CstrNode::Or(cs) => PropPred::Or(cs.iter().map(pred_of).collect::<Result<_, _>>()?),
        CstrNode::Not(inner) => PropPred::Not(Box::new(pred_of(inner)?)),
    })
}

/// Compiles a query context into a traversal pattern.
pub fn to_pattern(ctx: &QueryContext) -> Result<PatternQuery, BaselineError> {
    if ctx.slide.is_some() {
        return Err(BaselineError::Untranslatable(
            "sliding windows have no Cypher equivalent".into(),
        ));
    }
    if !ctx.group_by.is_empty()
        || ctx.having.is_some()
        || ctx
            .ret
            .items
            .iter()
            .any(|i| matches!(i.expr, RetExprCtx::Agg { .. }))
    {
        return Err(BaselineError::Untranslatable(
            "aggregation is outside the traversal baseline".into(),
        ));
    }
    let names = pattern_names(ctx);
    let mut triples = Vec::new();
    for (i, p) in ctx.patterns.iter().enumerate() {
        let n = &names[i];
        let subj_preds: Vec<PropPred> =
            p.subj_cstr.iter().map(pred_of).collect::<Result<_, _>>()?;
        let obj_preds: Vec<PropPred> = p.obj_cstr.iter().map(pred_of).collect::<Result<_, _>>()?;
        let mut edge_preds: Vec<PropPred> =
            p.evt_cstr.iter().map(pred_of).collect::<Result<_, _>>()?;
        if let Some(agents) = &p.agents {
            edge_preds.push(PropPred::In(
                "agentid".into(),
                agents.iter().map(|a| Value::Int(*a)).collect(),
            ));
        }
        let labels: Vec<&str> = p.ops.iter().map(|o| o.keyword()).collect();
        let mut edge = EdgePat::new(&n.event, &labels, edge_preds);
        if let Some((lo, hi)) = p.window {
            edge = edge.between(lo, hi - 1);
        }
        triples.push(Triple {
            src: NodePat::with_var(&n.subject, "proc", subj_preds),
            edge,
            dst: NodePat::with_var(&n.object, p.object_kind.keyword(), obj_preds),
        });
    }

    let mut q = PatternQuery::new(triples);
    q.cross.clear();
    for rel in &ctx.relations {
        match rel {
            RelationCtx::Attr { left, op, right } => {
                let lvar = alias_of(&names, left).to_string();
                let rvar = alias_of(&names, right).to_string();
                // Entity reuse is already enforced by shared variable names.
                if left.attr == "id" && right.attr == "id" && lvar == rvar {
                    continue;
                }
                q.cross.push(CrossPred {
                    left_var: lvar,
                    left_prop: prop_name(&left.attr)?,
                    op: pop(*op),
                    right_var: rvar,
                    right_prop: prop_name(&right.attr)?,
                });
            }
            RelationCtx::Temporal {
                left,
                kind,
                range_ns,
                right,
            } => {
                q.temporal.push(TempConstraint {
                    left: names[*left].event.clone(),
                    before: matches!(kind, TempKind::Before),
                    right: names[*right].event.clone(),
                    gap: *range_ns,
                    within: matches!(kind, TempKind::Within),
                });
            }
        }
    }

    q.returns = ctx
        .ret
        .items
        .iter()
        .map(|item| match &item.expr {
            RetExprCtx::Field(f) => {
                let prop = match (f.target, f.attr.as_str()) {
                    (FieldTarget::Event, "optype") => "optype".to_string(),
                    (FieldTarget::Event, "start_time") => "time".to_string(),
                    (_, attr) => prop_name(attr)?,
                };
                Ok((alias_of(&names, f).to_string(), prop))
            }
            RetExprCtx::Agg { .. } => unreachable!("aggregates rejected above"),
        })
        .collect::<Result<Vec<_>, BaselineError>>()?;
    Ok(q)
}

/// Runs the query by traversal and applies distinct/sort/top/count.
pub fn run(
    graph: &GraphDb,
    ctx: &QueryContext,
    deadline: Option<Instant>,
) -> Result<(Rows, MatchStats), BaselineError> {
    let q = to_pattern(ctx)?;
    let (mut rows, stats) = q.run_stats(graph, deadline).map_err(|e| match e {
        aiql_graphdb::pattern::MatchError::Timeout => BaselineError::Timeout,
        other => BaselineError::Untranslatable(other.to_string()),
    })?;
    if ctx.ret.distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(r.clone()));
    }
    if !ctx.sort_by.is_empty() {
        rows.sort_by(|a, b| {
            for (col, asc) in &ctx.sort_by {
                let ord = a[*col].cmp(&b[*col]);
                if ord != std::cmp::Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = ctx.top {
        rows.truncate(n);
    }
    if ctx.ret.count {
        rows = vec![vec![Value::Int(rows.len() as i64)]];
    }
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_datagen::EnterpriseSim;

    fn graph_and_data() -> (GraphDb, Dataset) {
        let data = EnterpriseSim::builder()
            .hosts(10)
            .days(2)
            .seed(5)
            .events_per_host_per_day(150)
            .build()
            .generate();
        (load_graph(&data), data)
    }

    #[test]
    fn traversal_finds_the_exfil_chain() {
        let (g, _) = graph_and_data();
        let ctx = compile(
            r#"
            (at "01/02/2017")
            agentid = 9
            proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            proc p4["%sbblv.exe"] read file f1 as evt3
            with evt1 before evt2, evt2 before evt3
            return distinct p1, p2, p3, f1, p4
            "#,
        )
        .unwrap();
        let (rows, _) = run(&g, &ctx, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::str("sbblv.exe"));
    }

    #[test]
    fn matches_postgres_baseline() {
        let (g, data) = graph_and_data();
        let db = crate::postgres::load(&data).unwrap();
        let ctx = compile(
            r#"
            (at "01/02/2017")
            agentid = 1
            proc p1["%outlook.exe"] start proc p2 as e1
            proc p2 start proc p3 as e2
            with e1 before e2
            return distinct p1, p2, p3
            "#,
        )
        .unwrap();
        let (pg, _) = crate::postgres::run(&db, &ctx, None).unwrap();
        let (n4, _) = run(&g, &ctx, None).unwrap();
        assert_eq!(crate::normalize(pg), crate::normalize(n4));
    }

    #[test]
    fn aggregates_rejected() {
        let (g, _) = graph_and_data();
        let ctx = compile("proc p read file f return p, count(f) as n group by p").unwrap();
        assert!(matches!(
            run(&g, &ctx, None),
            Err(BaselineError::Untranslatable(_))
        ));
    }
}
