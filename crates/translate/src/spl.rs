//! Splunk SPL translation (textual, for the conciseness comparison).
//!
//! The paper measures SPL conciseness only (Splunk's per-GB pricing rules
//! out performance runs). SPL expresses multievent behaviour with chained
//! `join` subsearches over a flattened event index, which is why its
//! queries come out the longest of the four languages.

use crate::names::pattern_names;
use crate::TranslateError;
use aiql_core::ast::{CmpOp, TempKind};
use aiql_core::{CstrNode, FieldTarget, QueryContext, RelationCtx, RetExprCtx};
use aiql_model::Value;

fn spl_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{}\"", s.replace('"', "\\\"")),
        other => other.to_string(),
    }
}

fn cmp(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

/// Field prefix within the flattened event index.
fn prefix(target: FieldTarget) -> &'static str {
    match target {
        FieldTarget::Event => "",
        FieldTarget::Subject => "subject_",
        FieldTarget::Object => "object_",
    }
}

fn cstr_spl(pfx: &str, c: &CstrNode) -> String {
    match c {
        CstrNode::Cmp { attr, op, value } => match op {
            CmpOp::Eq => format!("{pfx}{attr}={}", spl_value(value)),
            _ => format!("{pfx}{attr}{}{}", cmp(*op), spl_value(value)),
        },
        // SPL wildcards use `*` in field matches.
        CstrNode::Like { attr, pattern, neg } => format!(
            "{}{pfx}{attr}=\"{}\"",
            if *neg { "NOT " } else { "" },
            pattern.as_str().replace('%', "*")
        ),
        CstrNode::In { attr, neg, values } => format!(
            "{}{pfx}{attr} IN ({})",
            if *neg { "NOT " } else { "" },
            values.iter().map(spl_value).collect::<Vec<_>>().join(", ")
        ),
        CstrNode::And(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_spl(pfx, x))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        CstrNode::Or(cs) => format!(
            "({})",
            cs.iter()
                .map(|x| cstr_spl(pfx, x))
                .collect::<Vec<_>>()
                .join(" OR ")
        ),
        CstrNode::Not(inner) => format!("NOT ({})", cstr_spl(pfx, inner)),
    }
}

/// One pattern's `search` fragment.
fn search_of(ctx: &QueryContext, i: usize) -> String {
    let p = &ctx.patterns[i];
    let mut terms = vec!["index=sysmon".to_string()];
    if p.ops.len() < aiql_model::event::ALL_OPS.len() {
        let ops: Vec<String> = p
            .ops
            .iter()
            .map(|o| format!("\"{}\"", o.keyword()))
            .collect();
        terms.push(format!("optype IN ({})", ops.join(", ")));
    }
    terms.push(format!("object_type=\"{}\"", p.object_kind.keyword()));
    if let Some((lo, hi)) = p.window {
        terms.push(format!("start_time>={lo} start_time<{hi}"));
    }
    if let Some(agents) = &p.agents {
        if agents.len() == 1 {
            terms.push(format!("agentid={}", agents[0]));
        } else {
            let list: Vec<String> = agents.iter().map(i64::to_string).collect();
            terms.push(format!("agentid IN ({})", list.join(", ")));
        }
    }
    for c in &p.subj_cstr {
        terms.push(cstr_spl("subject_", c));
    }
    for c in &p.obj_cstr {
        terms.push(cstr_spl("object_", c));
    }
    for c in &p.evt_cstr {
        terms.push(cstr_spl("", c));
    }
    terms.join(" ")
}

/// Translates a query context to an SPL pipeline.
pub fn to_spl(ctx: &QueryContext) -> Result<String, TranslateError> {
    if ctx.slide.is_some() {
        return Err(TranslateError::Unsupported(
            "history-state comparison has no SPL equivalent".into(),
        ));
    }
    let names = pattern_names(ctx);
    // First pattern is the primary search; later patterns join in, renaming
    // their fields with the pattern's event alias as a prefix.
    let mut out = format!("search {}", search_of(ctx, 0));
    out.push_str(&format!(" | rename * AS {}_*", names[0].event));
    #[allow(clippy::needless_range_loop)] // i indexes patterns and names in lockstep
    for i in 1..ctx.patterns.len() {
        out.push_str(&format!(
            " | join type=inner max=0 [search {} | rename * AS {}_*]",
            search_of(ctx, i),
            names[i].event
        ));
    }
    // Relationships become `where` clauses over the renamed fields.
    let mut preds: Vec<String> = Vec::new();
    for rel in &ctx.relations {
        match rel {
            RelationCtx::Attr { left, op, right } => {
                preds.push(format!(
                    "{}_{}{} {} {}_{}{}",
                    names[left.pattern].event,
                    prefix(left.target),
                    left.attr,
                    cmp(*op),
                    names[right.pattern].event,
                    prefix(right.target),
                    right.attr,
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
                        preds.push(format!("{l}_start_time < {r}_start_time"))
                    }
                    (TempKind::After, None) => {
                        preds.push(format!("{l}_start_time > {r}_start_time"))
                    }
                    (TempKind::Within, None) => {
                        preds.push(format!("{l}_start_time = {r}_start_time"))
                    }
                    (TempKind::Before, Some((lo, hi))) => preds.push(format!(
                        "{r}_start_time-{l}_start_time>={lo} AND {r}_start_time-{l}_start_time<={hi}"
                    )),
                    (TempKind::After, Some((lo, hi))) => preds.push(format!(
                        "{l}_start_time-{r}_start_time>={lo} AND {l}_start_time-{r}_start_time<={hi}"
                    )),
                    (TempKind::Within, Some((lo, hi))) => preds.push(format!(
                        "abs({l}_start_time-{r}_start_time)>={lo} AND abs({l}_start_time-{r}_start_time)<={hi}"
                    )),
                }
            }
        }
    }
    for p in preds {
        out.push_str(&format!(" | where {p}"));
    }

    // Aggregation via stats; projection via table/dedup.
    let has_agg = ctx
        .ret
        .items
        .iter()
        .any(|i| matches!(i.expr, RetExprCtx::Agg { .. }));
    let field_name = |f: &aiql_core::FieldRef| {
        format!("{}_{}{}", names[f.pattern].event, prefix(f.target), f.attr)
    };
    if has_agg {
        let mut aggs = Vec::new();
        let mut bys = Vec::new();
        for (k, item) in ctx.ret.items.iter().enumerate() {
            match &item.expr {
                RetExprCtx::Agg {
                    func,
                    distinct,
                    arg,
                } => {
                    let fname = match (func, distinct) {
                        (aiql_core::ast::AggFunc::Count, true) => "dc".to_string(),
                        (f, _) => format!("{f:?}").to_lowercase(),
                    };
                    aggs.push(format!("{fname}({}) AS {}", field_name(arg), item.name));
                }
                RetExprCtx::Field(f) => {
                    if ctx.group_by.contains(&k) {
                        bys.push(field_name(f));
                    }
                }
            }
        }
        out.push_str(&format!(" | stats {}", aggs.join(", ")));
        if !bys.is_empty() {
            out.push_str(&format!(" BY {}", bys.join(", ")));
        }
    } else {
        let cols: Vec<String> = ctx
            .ret
            .items
            .iter()
            .map(|item| match &item.expr {
                RetExprCtx::Field(f) => field_name(f),
                RetExprCtx::Agg { .. } => item.name.clone(),
            })
            .collect();
        if ctx.ret.distinct {
            out.push_str(&format!(" | dedup {}", cols.join(" ")));
        }
        out.push_str(&format!(" | table {}", cols.join(" ")));
    }
    if ctx.ret.count {
        out.push_str(" | stats count");
    }
    if !ctx.sort_by.is_empty() {
        let cols: Vec<String> = ctx
            .sort_by
            .iter()
            .map(|(i, asc)| format!("{}{}", if *asc { "" } else { "-" }, ctx.ret.items[*i].name))
            .collect();
        out.push_str(&format!(" | sort {}", cols.join(", ")));
    }
    if let Some(n) = ctx.top {
        out.push_str(&format!(" | head {n}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;

    #[test]
    fn join_pipeline_shape() {
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
        let spl = to_spl(&ctx).unwrap();
        assert!(spl.starts_with("search index=sysmon"));
        assert_eq!(spl.matches("| join").count(), 1);
        assert!(spl.contains("subject_exe_name=\"*cmd.exe\""));
        assert!(spl.contains("| where evt1_start_time < evt2_start_time"));
        assert!(spl.contains("| dedup"));
    }

    #[test]
    fn stats_for_aggregates() {
        let ctx =
            compile("proc p read file f return p, count(distinct f) as n group by p having n > 5")
                .unwrap();
        let spl = to_spl(&ctx).unwrap();
        assert!(spl.contains("| stats dc("));
        assert!(spl.contains(" BY "));
    }

    #[test]
    fn anomaly_unsupported() {
        let ctx = compile(
            "window = 1 min step = 10 sec proc p read ip i \
             return p, count(i) as n group by p having n > n[1]",
        )
        .unwrap();
        assert!(to_spl(&ctx).is_err());
    }
}
