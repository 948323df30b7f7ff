//! The executable big-join SQL translation (the PostgreSQL/Greenplum
//! baseline's query form).

use crate::names::{alias_of, sql_names, PatternNames};
use crate::TranslateError;
use aiql_core::ast::CmpOp;
use aiql_core::{CstrNode, FieldRef, QueryContext, RelationCtx, RetExprCtx, TempKind};
use aiql_model::Value;
use aiql_storage::schema;

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn sql_value(v: &Value) -> String {
    match v {
        Value::Str(s) => sql_str(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Null => "NULL".to_string(),
    }
}

fn cmp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn cstr_sql(alias: &str, c: &CstrNode) -> String {
    match c {
        CstrNode::Cmp { attr, op, value } => format!(
            "{alias}.{} {} {}",
            schema::column_for_attr(attr),
            cmp(*op),
            sql_value(value)
        ),
        CstrNode::Like { attr, pattern, neg } => format!(
            "{alias}.{} {}LIKE {}",
            schema::column_for_attr(attr),
            if *neg { "NOT " } else { "" },
            sql_str(pattern.as_str())
        ),
        CstrNode::In { attr, neg, values } => format!(
            "{alias}.{} {}IN ({})",
            schema::column_for_attr(attr),
            if *neg { "NOT " } else { "" },
            values.iter().map(sql_value).collect::<Vec<_>>().join(", ")
        ),
        CstrNode::And(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_sql(alias, x))
                .collect::<Vec<_>>()
                .join(" AND ")
        ),
        CstrNode::Or(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_sql(alias, x))
                .collect::<Vec<_>>()
                .join(" OR ")
        ),
        CstrNode::Not(inner) => format!("NOT ({})", cstr_sql(alias, inner)),
    }
}

fn field_sql(names: &[PatternNames], f: &FieldRef) -> String {
    format!(
        "{}.{}",
        alias_of(names, f),
        schema::column_for_attr(&f.attr)
    )
}

/// Translates a (multievent or compiled-dependency) context into one big
/// SQL join. Anomaly queries are untranslatable — exactly the limitation
/// the paper's Sec. 6.1 notes for SQL/Cypher.
pub fn to_sql(ctx: &QueryContext) -> Result<String, TranslateError> {
    if ctx.slide.is_some() {
        return Err(TranslateError::Unsupported(
            "sliding windows / history states have no SQL equivalent".into(),
        ));
    }
    let names = sql_names(ctx);

    // FROM: one events alias + two entity joins per pattern.
    let mut from = String::new();
    for (i, p) in ctx.patterns.iter().enumerate() {
        let n = &names[i];
        if i == 0 {
            from.push_str(&format!("{} {}", schema::EVENTS, n.event));
        } else {
            from.push_str(&format!(", {} {}", schema::EVENTS, n.event));
        }
        from.push_str(&format!(
            " JOIN {} {} ON {}.subject_id = {}.id",
            schema::PROCESSES,
            n.subject,
            n.event,
            n.subject
        ));
        from.push_str(&format!(
            " JOIN {} {} ON {}.object_id = {}.id",
            schema::entity_table(p.object_kind),
            n.object,
            n.event,
            n.object
        ));
    }

    // WHERE: every pattern's constraints plus every relationship.
    let mut preds: Vec<String> = Vec::new();
    for (i, p) in ctx.patterns.iter().enumerate() {
        let n = &names[i];
        if p.ops.len() < aiql_model::event::ALL_OPS.len() {
            let codes: Vec<String> = p
                .ops
                .iter()
                .map(|o| schema::opcode(*o).to_string())
                .collect();
            preds.push(format!("{}.optype IN ({})", n.event, codes.join(", ")));
        }
        preds.push(format!(
            "{}.object_kind = {}",
            n.event,
            schema::kind_code(p.object_kind)
        ));
        if let Some((lo, hi)) = p.window {
            preds.push(format!("{}.start_time >= {lo}", n.event));
            preds.push(format!("{}.start_time < {hi}", n.event));
        }
        if let Some(agents) = &p.agents {
            if agents.len() == 1 {
                preds.push(format!("{}.agentid = {}", n.event, agents[0]));
            } else {
                let list: Vec<String> = agents.iter().map(i64::to_string).collect();
                preds.push(format!("{}.agentid IN ({})", n.event, list.join(", ")));
            }
        }
        for c in &p.subj_cstr {
            preds.push(cstr_sql(&n.subject, c));
        }
        for c in &p.obj_cstr {
            preds.push(cstr_sql(&n.object, c));
        }
        for c in &p.evt_cstr {
            preds.push(cstr_sql(&n.event, c));
        }
    }
    for rel in &ctx.relations {
        match rel {
            RelationCtx::Attr { left, op, right } => {
                preds.push(format!(
                    "{} {} {}",
                    field_sql(&names, left),
                    cmp(*op),
                    field_sql(&names, right)
                ));
            }
            RelationCtx::Temporal {
                left,
                kind,
                range_ns,
                right,
            } => {
                let (l, r) = (&names[*left].event, &names[*right].event);
                match (kind, range_ns) {
                    (TempKind::Before, None) => {
                        preds.push(format!("{l}.start_time < {r}.start_time"))
                    }
                    (TempKind::After, None) => {
                        preds.push(format!("{l}.start_time > {r}.start_time"))
                    }
                    (TempKind::Within, None) => {
                        preds.push(format!("{l}.start_time = {r}.start_time"))
                    }
                    (TempKind::Before, Some((lo, hi))) => {
                        preds.push(format!("{r}.start_time >= {l}.start_time + {lo}"));
                        preds.push(format!("{r}.start_time <= {l}.start_time + {hi}"));
                    }
                    (TempKind::After, Some((lo, hi))) => {
                        preds.push(format!("{l}.start_time >= {r}.start_time + {lo}"));
                        preds.push(format!("{l}.start_time <= {r}.start_time + {hi}"));
                    }
                    (TempKind::Within, Some((lo, hi))) => {
                        // |l - r| in [lo, hi]: two-sided bound.
                        preds.push(format!(
                            "{l}.start_time <= {r}.start_time + {hi} AND {l}.start_time >= {r}.start_time - {hi}"
                        ));
                        if *lo > 0 {
                            preds.push(format!(
                                "({l}.start_time >= {r}.start_time + {lo} OR {l}.start_time <= {r}.start_time - {lo})"
                            ));
                        }
                    }
                }
            }
        }
    }

    // SELECT list.
    let mut items: Vec<String> = Vec::new();
    for item in &ctx.ret.items {
        match &item.expr {
            RetExprCtx::Field(f) => {
                items.push(format!("{} AS {}", field_sql(&names, f), ident(&item.name)));
            }
            RetExprCtx::Agg {
                func,
                distinct,
                arg,
            } => {
                let fname = format!("{func:?}").to_uppercase();
                items.push(format!(
                    "{fname}({}{}) AS {}",
                    if *distinct { "DISTINCT " } else { "" },
                    field_sql(&names, arg),
                    ident(&item.name)
                ));
            }
        }
    }

    let mut sql = format!(
        "SELECT {}{} FROM {from}",
        if ctx.ret.distinct { "DISTINCT " } else { "" },
        items.join(", ")
    );
    if !preds.is_empty() {
        sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    if !ctx.group_by.is_empty() {
        let cols: Vec<String> = ctx
            .group_by
            .iter()
            .map(|&gi| match &ctx.ret.items[gi].expr {
                RetExprCtx::Field(f) => field_sql(&names, f),
                RetExprCtx::Agg { .. } => ident(&ctx.ret.items[gi].name),
            })
            .collect();
        sql.push_str(&format!(" GROUP BY {}", cols.join(", ")));
    }
    if let Some(h) = &ctx.having {
        sql.push_str(&format!(" HAVING {}", having_sql(h, ctx)?));
    }
    if !ctx.sort_by.is_empty() {
        let cols: Vec<String> = ctx
            .sort_by
            .iter()
            .map(|(i, asc)| {
                format!(
                    "{}{}",
                    ident(&ctx.ret.items[*i].name),
                    if *asc { "" } else { " DESC" }
                )
            })
            .collect();
        sql.push_str(&format!(" ORDER BY {}", cols.join(", ")));
    }
    if let Some(n) = ctx.top {
        sql.push_str(&format!(" LIMIT {n}"));
    }
    Ok(sql)
}

/// Quotes an output name into a safe SQL identifier (dots become
/// underscores).
fn ident(name: &str) -> String {
    name.replace(['.', ' '], "_")
}

fn having_sql(h: &aiql_core::HavingCtx, ctx: &QueryContext) -> Result<String, TranslateError> {
    use aiql_core::{ArithCtx, HavingCtx};
    fn arith(a: &ArithCtx, ctx: &QueryContext) -> Result<String, TranslateError> {
        Ok(match a {
            ArithCtx::Num(n) => {
                if n.fract() == 0.0 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            ArithCtx::Item(i) => ident(&ctx.ret.items[*i].name),
            ArithCtx::Hist { .. } | ArithCtx::MovAvg { .. } => {
                return Err(TranslateError::Unsupported(
                    "history states have no SQL equivalent".into(),
                ))
            }
            // The baseline SQL dialect has no arithmetic in HAVING; the paper's
            // multievent queries only compare against literals, which is
            // what the catalog uses. Render arithmetic for documentation
            // but reject it for execution.
            ArithCtx::Add(..)
            | ArithCtx::Sub(..)
            | ArithCtx::Mul(..)
            | ArithCtx::Div(..)
            | ArithCtx::Neg(..) => {
                return Err(TranslateError::Unsupported(
                    "arithmetic HAVING is not in the executable SQL subset".into(),
                ))
            }
        })
    }
    match h {
        HavingCtx::Cmp { op, left, right } => Ok(format!(
            "{} {} {}",
            arith(left, ctx)?,
            cmp(*op),
            arith(right, ctx)?
        )),
        HavingCtx::And(a, b) => Ok(format!(
            "{} AND {}",
            having_sql(a, ctx)?,
            having_sql(b, ctx)?
        )),
        HavingCtx::Or(a, b) => Ok(format!(
            "({} OR {})",
            having_sql(a, ctx)?,
            having_sql(b, ctx)?
        )),
        HavingCtx::Not(e) => Ok(format!("NOT ({})", having_sql(e, ctx)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;

    #[test]
    fn query7_translation_shape() {
        let ctx = compile(
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
        let sql = to_sql(&ctx).unwrap();
        assert!(sql.starts_with("SELECT DISTINCT"));
        // 4 events aliases + 8 entity joins.
        assert_eq!(sql.matches("JOIN").count(), 8);
        assert_eq!(sql.matches("events").count(), 4);
        // Temporal relationships become event-event start_time comparisons.
        assert!(sql.contains("evt1.start_time < evt2.start_time"));
        assert!(sql.contains("evt2.start_time < evt3.start_time"));
        assert!(sql.contains("evt3.start_time < evt4.start_time"));
        // Entity reuse (f1, p4) becomes id-equality predicates.
        assert!(sql.contains("f1.id = f1_2.id"));
        assert!(sql.contains("p4.id = p4_3.id"));
        // LIKE patterns survive.
        assert!(sql.contains("LIKE '%cmd.exe'"));
    }

    #[test]
    fn group_by_having_translation() {
        let ctx = compile(
            "proc p read file f return p, count(f) as n group by p having n > 10 sort by n desc top 5",
        )
        .unwrap();
        let sql = to_sql(&ctx).unwrap();
        assert!(sql.contains("COUNT(f.name) AS n"));
        assert!(sql.contains("GROUP BY p.exe_name"));
        assert!(sql.contains("HAVING n > 10"));
        assert!(sql.contains("ORDER BY n DESC"));
        assert!(sql.contains("LIMIT 5"));
    }

    #[test]
    fn anomaly_untranslatable() {
        let ctx = compile(
            "window = 1 min step = 10 sec proc p read ip i \
             return p, count(distinct i) as freq group by p having freq > freq[1]",
        )
        .unwrap();
        assert!(matches!(to_sql(&ctx), Err(TranslateError::Unsupported(_))));
    }

    #[test]
    fn temporal_range_translation() {
        let ctx = compile(
            "proc p1 read file f1 as e1 proc p2 write file f2 as e2 \
             with e1 before[1-2 min] e2 return p1, p2",
        )
        .unwrap();
        let sql = to_sql(&ctx).unwrap();
        assert!(sql.contains("e2.start_time >= e1.start_time + 60000000000"));
        assert!(sql.contains("e2.start_time <= e1.start_time + 120000000000"));
    }

    #[test]
    fn string_escaping() {
        let ctx = compile(r#"proc p["%o'brien%"] read file f return p"#).unwrap();
        let sql = to_sql(&ctx).unwrap();
        assert!(sql.contains("'%o''brien%'"));
    }
}
