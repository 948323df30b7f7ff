//! Neo4j Cypher translation (textual, for the conciseness comparison of
//! paper Sec. 6.4 — execution goes through `aiql-baselines::neo4j`).

use crate::names::{alias_of, pattern_names};
use crate::TranslateError;
use aiql_core::ast::CmpOp;
use aiql_core::{CstrNode, FieldRef, QueryContext, RelationCtx, RetExprCtx, TempKind};
use aiql_model::Value;

fn cy_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "\\'")),
        other => other.to_string(),
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

/// Converts a `%`-wildcard pattern into a Cypher regular expression:
/// wildcard segments join with `.*`.
fn like_regex(pattern: &str) -> String {
    let parts: Vec<String> = pattern.split('%').map(regex_escape).collect();
    format!("(?i){}", parts.join(".*"))
}

fn regex_escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

fn cstr_cy(alias: &str, c: &CstrNode) -> String {
    match c {
        CstrNode::Cmp { attr, op, value } => {
            format!("{alias}.{attr} {} {}", cmp(*op), cy_value(value))
        }
        CstrNode::Like { attr, pattern, neg } => format!(
            "{}{alias}.{attr} =~ '{}'",
            if *neg { "NOT " } else { "" },
            like_regex(pattern.as_str())
        ),
        CstrNode::In { attr, neg, values } => format!(
            "{}{alias}.{attr} IN [{}]",
            if *neg { "NOT " } else { "" },
            values.iter().map(cy_value).collect::<Vec<_>>().join(", ")
        ),
        CstrNode::And(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_cy(alias, x))
                .collect::<Vec<_>>()
                .join(" AND ")
        ),
        CstrNode::Or(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_cy(alias, x))
                .collect::<Vec<_>>()
                .join(" OR ")
        ),
        CstrNode::Not(inner) => format!("NOT ({})", cstr_cy(alias, inner)),
    }
}

fn field_cy(names: &[crate::names::PatternNames], f: &FieldRef) -> String {
    let prop = if f.attr == "id" {
        "id"
    } else {
        f.attr.as_str()
    };
    format!("{}.{}", alias_of(names, f), prop)
}

/// Translates a query context to Cypher `MATCH ... WHERE ... RETURN`.
pub fn to_cypher(ctx: &QueryContext) -> Result<String, TranslateError> {
    if ctx.slide.is_some() {
        return Err(TranslateError::Unsupported(
            "sliding windows / history states have no Cypher equivalent".into(),
        ));
    }
    let names = pattern_names(ctx);
    let mut matches: Vec<String> = Vec::new();
    let mut preds: Vec<String> = Vec::new();
    for (i, p) in ctx.patterns.iter().enumerate() {
        let n = &names[i];
        let ops: Vec<String> = p.ops.iter().map(|o| o.keyword().to_uppercase()).collect();
        matches.push(format!(
            "({}:{})-[{}:{}]->({}:{})",
            n.subject,
            "Process",
            n.event,
            ops.join("|"),
            n.object,
            match p.object_kind {
                aiql_model::EntityKind::Process => "Process",
                aiql_model::EntityKind::File => "File",
                aiql_model::EntityKind::NetConn => "Connection",
            }
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
                preds.push(format!("{}.agentid IN [{}]", n.event, list.join(", ")));
            }
        }
        for c in &p.subj_cstr {
            preds.push(cstr_cy(&n.subject, c));
        }
        for c in &p.obj_cstr {
            preds.push(cstr_cy(&n.object, c));
        }
        for c in &p.evt_cstr {
            preds.push(cstr_cy(&n.event, c));
        }
    }
    for rel in &ctx.relations {
        match rel {
            RelationCtx::Attr { left, op, right } => {
                let (l, r) = (field_cy(&names, left), field_cy(&names, right));
                // Shared-variable joins are implicit in the MATCH.
                if l == r {
                    continue;
                }
                preds.push(format!("{l} {} {r}", cmp(*op)));
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
                        preds.push(format!(
                            "{r}.start_time - {l}.start_time >= {lo} AND {r}.start_time - {l}.start_time <= {hi}"
                        ));
                    }
                    (TempKind::After, Some((lo, hi))) => {
                        preds.push(format!(
                            "{l}.start_time - {r}.start_time >= {lo} AND {l}.start_time - {r}.start_time <= {hi}"
                        ));
                    }
                    (TempKind::Within, Some((lo, hi))) => {
                        preds.push(format!(
                            "abs({l}.start_time - {r}.start_time) >= {lo} AND abs({l}.start_time - {r}.start_time) <= {hi}"
                        ));
                    }
                }
            }
        }
    }

    let mut items: Vec<String> = Vec::new();
    for item in &ctx.ret.items {
        match &item.expr {
            RetExprCtx::Field(f) => items.push(format!(
                "{} AS {}",
                field_cy(&names, f),
                item.name.replace('.', "_")
            )),
            RetExprCtx::Agg {
                func,
                distinct,
                arg,
            } => {
                let fname = format!("{func:?}").to_lowercase();
                items.push(format!(
                    "{fname}({}{}) AS {}",
                    if *distinct { "DISTINCT " } else { "" },
                    field_cy(&names, arg),
                    item.name.replace('.', "_")
                ));
            }
        }
    }

    let mut out = format!("MATCH {}", matches.join(", "));
    if !preds.is_empty() {
        out.push_str(&format!(" WHERE {}", preds.join(" AND ")));
    }
    out.push_str(&format!(
        " RETURN {}{}",
        if ctx.ret.distinct { "DISTINCT " } else { "" },
        items.join(", ")
    ));
    if !ctx.sort_by.is_empty() {
        let cols: Vec<String> = ctx
            .sort_by
            .iter()
            .map(|(i, asc)| {
                format!(
                    "{}{}",
                    ctx.ret.items[*i].name.replace('.', "_"),
                    if *asc { "" } else { " DESC" }
                )
            })
            .collect();
        out.push_str(&format!(" ORDER BY {}", cols.join(", ")));
    }
    if let Some(n) = ctx.top {
        out.push_str(&format!(" LIMIT {n}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;

    #[test]
    fn shape_of_translation() {
        let ctx = compile(
            r#"
            agentid = 9
            proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
            proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
            with evt1 before evt2
            return distinct p1, p2, f1
            "#,
        )
        .unwrap();
        let cy = to_cypher(&ctx).unwrap();
        assert!(cy.starts_with("MATCH (p1:Process)-[evt1:START]->(p2:Process)"));
        assert!(cy.contains("(f1:File)"));
        assert!(cy.contains("evt1.start_time < evt2.start_time"));
        assert!(cy.contains("=~ '(?i).*cmd\\.exe'"));
        assert!(cy.contains("RETURN DISTINCT"));
    }

    #[test]
    fn like_regexes() {
        assert_eq!(like_regex("%cmd.exe"), "(?i).*cmd\\.exe");
        assert_eq!(like_regex("/var/www%"), "(?i)/var/www.*");
        assert_eq!(like_regex("%info%"), "(?i).*info.*");
    }

    #[test]
    fn anomaly_unsupported() {
        let ctx = compile(
            "window = 1 min step = 10 sec proc p read ip i \
             return p, count(i) as n group by p having n > n[1]",
        )
        .unwrap();
        assert!(to_cypher(&ctx).is_err());
    }
}
