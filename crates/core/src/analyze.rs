//! Semantic analysis: AST → [`QueryContext`], implementing AIQL's
//! context-aware syntax shortcuts (paper Sec. 4.1):
//!
//! - **Attribute inference** — a bare value in an entity pattern constrains
//!   the kind's default attribute (`name` / `exe_name` / `dst_ip`); a bare
//!   entity ID in `return` projects the default attribute; a bare ID in an
//!   attribute relationship compares `id`.
//! - **Optional ID** — entity/event variables may be omitted when never
//!   referenced.
//! - **Entity ID reuse** — the same entity variable in several patterns adds
//!   implicit `id = id` attribute relationships between those patterns.
//!
//! Dependency queries are rewritten into multievent form here
//! ([`rewrite_dependency`]), as the engine's "dependency query rewriting"
//! component (paper Fig. 2) prescribes.

use crate::ast::*;
use crate::context::*;
use crate::err::{AiqlError, Span};
use aiql_model::{schema, Duration, EntityKind, OpType, Timestamp, Value};
use std::collections::HashMap;

/// Analyzes a parsed query into an executable context.
///
/// Queries carrying `$name` placeholders must be bound through
/// [`crate::prepare::PreparedQuery`] first; an unbound placeholder is a
/// semantic error here.
pub fn analyze(q: &Query) -> Result<QueryContext, AiqlError> {
    if let Some((name, span)) = crate::prepare::first_param(q) {
        return Err(
            AiqlError::at(span, format!("unbound parameter `${name}`")).with_help(
                "prepare the query and bind its parameters \
                 (aiql_core::PreparedQuery or a session prepare)",
            ),
        );
    }
    match q {
        Query::Multievent(m) => analyze_multievent(m),
        Query::Dependency(d) => {
            let m = rewrite_dependency(d)?;
            let mut ctx = analyze_multievent(&m)?;
            ctx.kind = QueryKind::Dependency;
            Ok(ctx)
        }
    }
}

/// Canonicalizes attribute spellings (the paper's queries write `dstip`,
/// `dstport`, etc.).
fn canon_attr(name: &str) -> String {
    match name.to_ascii_lowercase().as_str() {
        "dstip" => "dst_ip".into(),
        "srcip" => "src_ip".into(),
        "dstport" => "dst_port".into(),
        "srcport" => "src_port".into(),
        "starttime" => "start_time".into(),
        "endtime" => "end_time".into(),
        "failure_code" => "failure".into(),
        other => other.into(),
    }
}

fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Str(s) => Value::Str(s.clone()),
        Lit::Int(i) => Value::Int(*i),
        Lit::Float(f) => Value::Float(*f),
        // Unreachable in practice: `analyze` rejects queries with unbound
        // placeholders up front. Null keeps the conversion total.
        Lit::Param(_) => Value::Null,
    }
}

fn cmp_of(op: CmpOp) -> CmpOp {
    op
}

/// What a constraint set applies to, for attribute validation and defaults.
#[derive(Clone, Copy)]
enum CstrTarget {
    Entity(EntityKind),
    Event,
}

fn validate_attr(target: CstrTarget, attr: &str, span: Span) -> Result<(), AiqlError> {
    let ok = match target {
        CstrTarget::Entity(kind) => schema::is_entity_attr(kind, attr),
        CstrTarget::Event => schema::is_event_attr(attr),
    };
    if ok {
        Ok(())
    } else {
        let what = match target {
            CstrTarget::Entity(kind) => format!("{kind} entities"),
            CstrTarget::Event => "events".to_string(),
        };
        Err(
            AiqlError::at(span, format!("unknown attribute `{attr}` for {what}")).with_help(
                match target {
                    CstrTarget::Entity(kind) => format!(
                        "valid attributes: id, agentid, {}",
                        schema::entity_attrs(kind).join(", ")
                    ),
                    CstrTarget::Event => {
                        format!("valid attributes: {}", schema::EVENT_ATTRS.join(", "))
                    }
                },
            ),
        )
    }
}

fn convert_cstr(c: &AttrCstr, target: CstrTarget) -> Result<CstrNode, AiqlError> {
    Ok(match c {
        AttrCstr::Cmp {
            attr,
            op,
            value,
            span,
        } => {
            let attr = canon_attr(attr);
            validate_attr(target, &attr, *span)?;
            let v = lit_value(value);
            // `attr = "%pat%"` means LIKE; `attr != "%pat%"` means NOT LIKE.
            if let Value::Str(s) = &v {
                if s.contains('%') && matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    return Ok(CstrNode::Like {
                        attr,
                        pattern: s.as_str().into(),
                        neg: *op == CmpOp::Ne,
                    });
                }
            }
            CstrNode::Cmp {
                attr,
                op: cmp_of(*op),
                value: v,
            }
        }
        AttrCstr::Bare { neg, value, span } => {
            let attr = match target {
                CstrTarget::Entity(kind) => schema::default_attr(kind).to_string(),
                CstrTarget::Event => {
                    return Err(AiqlError::at(
                        *span,
                        "bare values are not allowed in event constraints",
                    )
                    .with_help("write an explicit attribute, e.g. `amount > 1000`"))
                }
            };
            let v = lit_value(value);
            if let Value::Str(s) = &v {
                if s.contains('%') {
                    return Ok(CstrNode::Like {
                        attr,
                        pattern: s.as_str().into(),
                        neg: *neg,
                    });
                }
            }
            CstrNode::Cmp {
                attr,
                op: if *neg { CmpOp::Ne } else { CmpOp::Eq },
                value: v,
            }
        }
        AttrCstr::In {
            attr,
            neg,
            values,
            span,
        } => {
            let attr = canon_attr(attr);
            validate_attr(target, &attr, *span)?;
            CstrNode::In {
                attr,
                neg: *neg,
                values: values.iter().map(lit_value).collect(),
            }
        }
        AttrCstr::Not(inner) => CstrNode::Not(Box::new(convert_cstr(inner, target)?)),
        AttrCstr::And(a, b) => {
            CstrNode::And(vec![convert_cstr(a, target)?, convert_cstr(b, target)?])
        }
        AttrCstr::Or(a, b) => {
            CstrNode::Or(vec![convert_cstr(a, target)?, convert_cstr(b, target)?])
        }
    })
}

/// Flattens top-level conjunctions into a conjunct list.
fn conjuncts_of(node: CstrNode) -> Vec<CstrNode> {
    match node {
        CstrNode::And(cs) => cs.into_iter().flat_map(conjuncts_of).collect(),
        other => vec![other],
    }
}

/// Parses a time-window AST node into a `[lo, hi)` nanosecond range. A date
/// without a time-of-day denotes the whole day; a datetime with a time
/// denotes that exact second.
fn window_range(w: &TimeWindow) -> Result<(i64, i64), AiqlError> {
    match w {
        TimeWindow::At { datetime, span } => {
            let t = Timestamp::parse(datetime).ok_or_else(|| {
                AiqlError::at(*span, format!("invalid datetime `{datetime}`"))
                    .with_help("use MM/DD/YYYY or YYYY-MM-DD, optionally with HH:MM:SS")
            })?;
            if datetime.contains(':') {
                Ok((t.0, t.0 + aiql_model::time::NANOS_PER_SEC))
            } else {
                let day = t.day_start();
                Ok((
                    day.0,
                    day.saturating_add(Duration::of(1, aiql_model::TimeUnit::Day))
                        .0,
                ))
            }
        }
        TimeWindow::FromTo { from, to, span } => {
            let lo = Timestamp::parse(from)
                .ok_or_else(|| AiqlError::at(*span, format!("invalid datetime `{from}`")))?;
            let hi = Timestamp::parse(to)
                .ok_or_else(|| AiqlError::at(*span, format!("invalid datetime `{to}`")))?;
            if hi.0 <= lo.0 {
                return Err(AiqlError::at(
                    *span,
                    "empty time window: `to` is not after `from`",
                ));
            }
            Ok((lo.0, hi.0))
        }
    }
}

fn intersect(a: Option<(i64, i64)>, b: Option<(i64, i64)>) -> Option<(i64, i64)> {
    match (a, b) {
        (Some((al, ah)), Some((bl, bh))) => Some((al.max(bl), ah.min(bh))),
        (x, y) => x.or(y),
    }
}

/// Resolution tables for variables.
struct Vars {
    /// Entity var → occurrences (pattern, target, kind), in pattern order.
    entities: HashMap<String, Vec<(usize, FieldTarget, EntityKind)>>,
    /// Entity vars in first-occurrence order: the order implicit `id = id`
    /// relationships are emitted in, so a query compiles to one plan in
    /// every process (`entities` iterates in per-process hash order).
    entity_order: Vec<String>,
    /// Event var → pattern index.
    events: HashMap<String, usize>,
}

impl Vars {
    /// Resolves `id[.attr]` to a field reference, applying attribute
    /// inference: bare entity IDs project/compare the kind's default
    /// attribute in `return` position and `id` in relationship position.
    fn resolve(
        &self,
        r: &AttrRef,
        default_entity_attr: bool,
    ) -> Result<(FieldRef, EntityKind), AiqlError> {
        if let Some(&pattern) = self.events.get(&r.id) {
            let attr = match &r.attr {
                Some(a) => {
                    let a = canon_attr(a);
                    validate_attr(CstrTarget::Event, &a, r.span)?;
                    a
                }
                None => "id".to_string(),
            };
            // Event refs have no entity kind; report Process as a dummy.
            return Ok((
                FieldRef {
                    pattern,
                    target: FieldTarget::Event,
                    attr,
                },
                EntityKind::Process,
            ));
        }
        if let Some(occ) = self.entities.get(&r.id) {
            let (pattern, target, kind) = occ[0];
            let attr = match &r.attr {
                Some(a) => {
                    let a = canon_attr(a);
                    validate_attr(CstrTarget::Entity(kind), &a, r.span)?;
                    a
                }
                None if default_entity_attr => schema::default_attr(kind).to_string(),
                None => "id".to_string(),
            };
            return Ok((
                FieldRef {
                    pattern,
                    target,
                    attr,
                },
                kind,
            ));
        }
        Err(
            AiqlError::at(r.span, format!("unknown identifier `{}`", r.id))
                .with_help("identifiers must be declared in an event pattern before use"),
        )
    }
}

/// Analyzes a multievent (or anomaly) query.
pub fn analyze_multievent(q: &MultieventQuery) -> Result<QueryContext, AiqlError> {
    // --- Global constraints -------------------------------------------------
    let mut agents: Option<Vec<i64>> = None;
    let mut window: Option<(i64, i64)> = None;
    let mut slide_window: Option<i64> = None;
    let mut slide_step: Option<i64> = None;
    for g in &q.global {
        match g {
            GlobalCstr::Attr {
                attr,
                op,
                value,
                span,
            } => {
                if !canon_attr(attr).eq("agentid") {
                    return Err(AiqlError::at(
                        *span,
                        format!("unsupported global constraint `{attr}`"),
                    )
                    .with_help("global constraints support `agentid` and time windows"));
                }
                if *op != CmpOp::Eq {
                    return Err(AiqlError::at(*span, "global agentid supports `=` and `in`"));
                }
                match lit_value(value) {
                    Value::Int(i) => agents = Some(vec![i]),
                    _ => return Err(AiqlError::at(*span, "agentid must be an integer")),
                }
            }
            GlobalCstr::AttrIn { attr, values, span } => {
                if !canon_attr(attr).eq("agentid") {
                    return Err(AiqlError::at(
                        *span,
                        format!("unsupported global constraint `{attr}`"),
                    ));
                }
                let mut ids = Vec::new();
                for v in values {
                    match lit_value(v) {
                        Value::Int(i) => ids.push(i),
                        _ => return Err(AiqlError::at(*span, "agentid list must be integers")),
                    }
                }
                agents = Some(ids);
            }
            GlobalCstr::Window(w) => {
                window = intersect(window, Some(window_range(w)?));
            }
            GlobalCstr::SlideWindow { length, .. } => {
                slide_window = Some(Duration::of(length.count, length.unit).as_nanos());
            }
            GlobalCstr::SlideStep { length, .. } => {
                slide_step = Some(Duration::of(length.count, length.unit).as_nanos());
            }
        }
    }
    let slide = match (slide_window, slide_step) {
        (Some(w), Some(s)) => {
            if w <= 0 || s <= 0 {
                return Err(AiqlError::new("window and step must be positive"));
            }
            Some(SlideSpec {
                window_ns: w,
                step_ns: s,
            })
        }
        (Some(_), None) => {
            return Err(AiqlError::new(
                "sliding window needs a `step = ...` constraint",
            ))
        }
        (None, Some(_)) => {
            return Err(AiqlError::new(
                "sliding step needs a `window = ...` constraint",
            ))
        }
        (None, None) => None,
    };

    // --- Variable tables ----------------------------------------------------
    let mut vars = Vars {
        entities: HashMap::new(),
        entity_order: Vec::new(),
        events: HashMap::new(),
    };
    for (idx, p) in q.patterns.iter().enumerate() {
        if p.subject.kind != EntityKind::Process {
            return Err(
                AiqlError::at(p.subject.span, "event subjects must be processes")
                    .with_help("events are {subject-operation-object} with a process subject"),
            );
        }
        for (pat, target) in [
            (&p.subject, FieldTarget::Subject),
            (&p.object, FieldTarget::Object),
        ] {
            if let Some(v) = &pat.var {
                let occ = vars.entities.entry(v.clone()).or_default();
                if occ.is_empty() {
                    vars.entity_order.push(v.clone());
                }
                if let Some(&(_, _, kind)) = occ.first() {
                    if kind != pat.kind {
                        return Err(AiqlError::at(
                            pat.span,
                            format!(
                                "entity `{v}` was declared as {kind} but used as {}",
                                pat.kind
                            ),
                        ));
                    }
                }
                occ.push((idx, target, pat.kind));
            }
        }
        if let Some(ev) = &p.evt_var {
            if vars.events.insert(ev.clone(), idx).is_some() {
                return Err(AiqlError::at(
                    p.span,
                    format!("duplicate event identifier `{ev}`"),
                ));
            }
            if vars.entities.contains_key(ev) {
                return Err(AiqlError::at(
                    p.span,
                    format!("identifier `{ev}` is used for both an entity and an event"),
                ));
            }
        }
    }

    // --- Patterns -----------------------------------------------------------
    let mut patterns = Vec::new();
    for (idx, p) in q.patterns.iter().enumerate() {
        // Operation set.
        let mut names = Vec::new();
        p.op.op_names(&mut names);
        for (name, span) in &names {
            if OpType::parse_keyword(name).is_none() {
                return Err(
                    AiqlError::at(*span, format!("unknown operation `{name}`")).with_help(format!(
                        "valid operations: {}",
                        aiql_model::event::ALL_OPS
                            .iter()
                            .map(|o| o.keyword())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                );
            }
        }
        let ops: Vec<OpType> = aiql_model::event::ALL_OPS
            .into_iter()
            .filter(|op| p.op.admits(op.keyword()))
            .collect();
        if ops.is_empty() {
            return Err(AiqlError::at(
                p.span,
                "operation expression matches no operation",
            ));
        }

        let subj_cstr = match &p.subject.cstr {
            Some(c) => conjuncts_of(convert_cstr(c, CstrTarget::Entity(EntityKind::Process))?),
            None => Vec::new(),
        };
        let obj_cstr = match &p.object.cstr {
            Some(c) => conjuncts_of(convert_cstr(c, CstrTarget::Entity(p.object.kind))?),
            None => Vec::new(),
        };
        let evt_cstr = match &p.evt_cstr {
            Some(c) => conjuncts_of(convert_cstr(c, CstrTarget::Event)?),
            None => Vec::new(),
        };

        // Pattern-level window intersected with the global one.
        let pwindow = match &p.window {
            Some(w) => intersect(window, Some(window_range(w)?)),
            None => window,
        };

        // Agent hoisting: `agentid = N` atoms on the subject or event narrow
        // the pattern's agent set (events are observed on the subject's
        // host). Object-side agent constraints stay entity attributes only:
        // cross-host connects target entities on *other* hosts.
        let mut pagents = agents.clone();
        for c in subj_cstr.iter().chain(&evt_cstr) {
            if let CstrNode::Cmp {
                attr,
                op: CmpOp::Eq,
                value: Value::Int(i),
            } = c
            {
                if attr == "agentid" {
                    pagents = match pagents {
                        None => Some(vec![*i]),
                        Some(prev) if prev.contains(i) => Some(vec![*i]),
                        Some(_) => Some(vec![]), // Contradiction: empty set.
                    };
                }
            }
        }

        let score = subj_cstr.iter().map(CstrNode::atom_count).sum::<u32>()
            + obj_cstr.iter().map(CstrNode::atom_count).sum::<u32>()
            + evt_cstr.iter().map(CstrNode::atom_count).sum::<u32>()
            + u32::from(p.window.is_some())
            + u32::from(pagents.is_some());

        patterns.push(PatternCtx {
            idx,
            evt_var: p.evt_var.clone(),
            subj_var: p.subject.var.clone(),
            obj_var: p.object.var.clone(),
            object_kind: p.object.kind,
            ops,
            subj_cstr,
            obj_cstr,
            evt_cstr,
            window: pwindow,
            agents: pagents,
            score,
        });
    }

    // --- Relationships -------------------------------------------------------
    let mut relations = Vec::new();
    for r in &q.relations {
        match r {
            Relation::Attr { left, op, right } => {
                let (lref, _) = vars.resolve(left, false)?;
                let (rref, _) = vars.resolve(right, false)?;
                if lref.pattern == rref.pattern && lref.target == rref.target {
                    return Err(AiqlError::at(
                        left.span.merge(right.span),
                        "attribute relationship relates a pattern to itself",
                    ));
                }
                relations.push(RelationCtx::Attr {
                    left: lref,
                    op: *op,
                    right: rref,
                });
            }
            Relation::Temporal {
                left,
                kind,
                range,
                right,
                span,
            } => {
                let lp = *vars.events.get(left).ok_or_else(|| {
                    AiqlError::at(*span, format!("unknown event identifier `{left}`"))
                })?;
                let rp = *vars.events.get(right).ok_or_else(|| {
                    AiqlError::at(*span, format!("unknown event identifier `{right}`"))
                })?;
                if lp == rp {
                    return Err(AiqlError::at(
                        *span,
                        "temporal relationship relates an event to itself",
                    ));
                }
                let range_ns = range.map(|(lo, hi, unit)| {
                    (
                        Duration::of(lo, unit).as_nanos(),
                        Duration::of(hi, unit).as_nanos(),
                    )
                });
                if let Some((lo, hi)) = range_ns {
                    if lo > hi || lo < 0 {
                        return Err(AiqlError::at(
                            *span,
                            "invalid time range: need 0 <= lo <= hi",
                        ));
                    }
                }
                relations.push(RelationCtx::Temporal {
                    left: lp,
                    kind: *kind,
                    range_ns,
                    right: rp,
                });
            }
        }
    }

    // Implicit relationships from entity ID reuse.
    for occ in vars.entity_order.iter().map(|v| &vars.entities[v]) {
        for w in occ.windows(2) {
            let (p1, t1, _) = w[0];
            let (p2, t2, _) = w[1];
            if p1 == p2 {
                continue; // Same pattern (e.g. self-loop) needs no join.
            }
            relations.push(RelationCtx::Attr {
                left: FieldRef {
                    pattern: p1,
                    target: t1,
                    attr: "id".into(),
                },
                op: CmpOp::Eq,
                right: FieldRef {
                    pattern: p2,
                    target: t2,
                    attr: "id".into(),
                },
            });
        }
    }

    // --- Return clause --------------------------------------------------------
    let mut ret = ReturnCtx {
        count: q.ret.count,
        distinct: q.ret.distinct,
        items: Vec::new(),
    };
    for item in &q.ret.items {
        let (name, expr) = resolve_ret_expr(&vars, &item.expr)?;
        let name = item.rename.clone().unwrap_or(name);
        ret.items.push(RetItemCtx { name, expr });
    }
    if ret.items.is_empty() {
        return Err(AiqlError::new(
            "return clause must name at least one result",
        ));
    }

    // --- group by / sort / having ----------------------------------------------
    let mut group_by = Vec::new();
    for g in &q.group_by {
        group_by.push(find_item(&vars, &ret, g)?);
    }
    let mut sort_by = Vec::new();
    for (s, asc) in &q.sort_by {
        sort_by.push((find_item(&vars, &ret, s)?, *asc));
    }
    let having = match &q.having {
        Some(h) => Some(resolve_having(&vars, &ret, h)?),
        None => None,
    };

    // Anomaly-specific validation.
    let uses_history = having.as_ref().is_some_and(HavingCtx::uses_history);
    if uses_history && slide.is_none() {
        return Err(AiqlError::new(
            "history states and moving averages require `window = ...` and `step = ...`",
        ));
    }
    let has_agg = ret
        .items
        .iter()
        .any(|i| matches!(i.expr, RetExprCtx::Agg { .. }));
    if slide.is_some() && !has_agg {
        return Err(AiqlError::new(
            "anomaly queries must aggregate (e.g. `count(...)`) in the return clause",
        ));
    }

    let kind = if slide.is_some() {
        QueryKind::Anomaly
    } else {
        QueryKind::Multievent
    };
    Ok(QueryContext {
        kind,
        patterns,
        relations,
        ret,
        group_by,
        having,
        sort_by,
        top: q.top,
        slide,
        window,
        agents,
    })
}

fn resolve_ret_expr(vars: &Vars, e: &RetExpr) -> Result<(String, RetExprCtx), AiqlError> {
    match e {
        RetExpr::Ref(r) => {
            let (fref, _) = vars.resolve(r, true)?;
            let name = match &r.attr {
                Some(a) => format!("{}.{a}", r.id),
                None => r.id.clone(),
            };
            Ok((name, RetExprCtx::Field(fref)))
        }
        RetExpr::Agg {
            func,
            distinct,
            arg,
            ..
        } => {
            let (fref, _) = vars.resolve(arg, true)?;
            let name = format!("{func:?}").to_lowercase();
            Ok((
                name,
                RetExprCtx::Agg {
                    func: *func,
                    distinct: *distinct,
                    arg: fref,
                },
            ))
        }
    }
}

/// Finds the return item an expression refers to (by rename or structure).
fn find_item(vars: &Vars, ret: &ReturnCtx, e: &RetExpr) -> Result<usize, AiqlError> {
    // By name first: `group by p` where `p` (or a rename) labels an item.
    if let RetExpr::Ref(r) = e {
        if r.attr.is_none() {
            if let Some(i) = ret.items.iter().position(|it| it.name == r.id) {
                return Ok(i);
            }
        }
    }
    let (_, expr) = resolve_ret_expr(vars, e)?;
    ret.items
        .iter()
        .position(|it| it.expr == expr)
        .ok_or_else(|| {
            let span = match e {
                RetExpr::Ref(r) => r.span,
                RetExpr::Agg { span, .. } => *span,
            };
            AiqlError::at(
                span,
                "group/sort expression must appear in the return clause",
            )
        })
}

fn item_by_name(ret: &ReturnCtx, name: &str, span: Span) -> Result<usize, AiqlError> {
    ret.items
        .iter()
        .position(|it| it.name == name)
        .ok_or_else(|| {
            AiqlError::at(span, format!("`{name}` does not name a returned value"))
                .with_help("history states and moving averages refer to renamed return items")
        })
}

fn resolve_having(vars: &Vars, ret: &ReturnCtx, h: &HavingExpr) -> Result<HavingCtx, AiqlError> {
    Ok(match h {
        HavingExpr::Cmp { op, left, right } => HavingCtx::Cmp {
            op: *op,
            left: resolve_arith(vars, ret, left)?,
            right: resolve_arith(vars, ret, right)?,
        },
        HavingExpr::And(a, b) => HavingCtx::And(
            Box::new(resolve_having(vars, ret, a)?),
            Box::new(resolve_having(vars, ret, b)?),
        ),
        HavingExpr::Or(a, b) => HavingCtx::Or(
            Box::new(resolve_having(vars, ret, a)?),
            Box::new(resolve_having(vars, ret, b)?),
        ),
        HavingExpr::Not(e) => HavingCtx::Not(Box::new(resolve_having(vars, ret, e)?)),
    })
}

fn resolve_arith(vars: &Vars, ret: &ReturnCtx, a: &ArithExpr) -> Result<ArithCtx, AiqlError> {
    Ok(match a {
        ArithExpr::Num(n) => ArithCtx::Num(*n),
        ArithExpr::Ref(r) => {
            if r.attr.is_none() {
                if let Some(i) = ret.items.iter().position(|it| it.name == r.id) {
                    return Ok(ArithCtx::Item(i));
                }
            }
            // Fall back to structural match against returned fields.
            let (fref, _) = vars.resolve(r, true)?;
            let pos = ret
                .items
                .iter()
                .position(|it| it.expr == RetExprCtx::Field(fref.clone()))
                .ok_or_else(|| {
                    AiqlError::at(r.span, format!("`{}` does not name a returned value", r.id))
                })?;
            ArithCtx::Item(pos)
        }
        ArithExpr::Hist { name, back, span } => ArithCtx::Hist {
            item: item_by_name(ret, name, *span)?,
            back: *back,
        },
        ArithExpr::MovAvg {
            kind,
            name,
            param,
            span,
        } => {
            if matches!(kind, MaKind::Sma | MaKind::Wma) && *param < 1.0 {
                return Err(AiqlError::at(*span, "SMA/WMA window must be at least 1"));
            }
            if matches!(kind, MaKind::Ewma) && !(0.0 < *param && *param < 1.0) {
                return Err(AiqlError::at(*span, "EWMA smoothing must be in (0, 1)"));
            }
            ArithCtx::MovAvg {
                kind: *kind,
                item: item_by_name(ret, name, *span)?,
                param: *param,
            }
        }
        ArithExpr::Add(x, y) => ArithCtx::Add(
            Box::new(resolve_arith(vars, ret, x)?),
            Box::new(resolve_arith(vars, ret, y)?),
        ),
        ArithExpr::Sub(x, y) => ArithCtx::Sub(
            Box::new(resolve_arith(vars, ret, x)?),
            Box::new(resolve_arith(vars, ret, y)?),
        ),
        ArithExpr::Mul(x, y) => ArithCtx::Mul(
            Box::new(resolve_arith(vars, ret, x)?),
            Box::new(resolve_arith(vars, ret, y)?),
        ),
        ArithExpr::Div(x, y) => ArithCtx::Div(
            Box::new(resolve_arith(vars, ret, x)?),
            Box::new(resolve_arith(vars, ret, y)?),
        ),
        ArithExpr::Neg(x) => ArithCtx::Neg(Box::new(resolve_arith(vars, ret, x)?)),
    })
}

/// Rewrites a dependency query into an equivalent multievent query (paper
/// Sec. 5.1): each chain edge becomes an event pattern, shared chain
/// entities become entity-ID reuse, and the direction becomes a chain of
/// temporal relationships.
pub fn rewrite_dependency(d: &DependencyQuery) -> Result<MultieventQuery, AiqlError> {
    // Name every entity so chain sharing links adjacent patterns.
    let mut entities: Vec<EntityPat> = d.entities.clone();
    for (i, e) in entities.iter_mut().enumerate() {
        if e.var.is_none() {
            e.var = Some(format!("_dep_e{i}"));
        }
    }

    let mut patterns = Vec::new();
    for (i, (dir, op)) in d.edges.iter().enumerate() {
        let (subj, obj) = match dir {
            EdgeDir::Right => (entities[i].clone(), entities[i + 1].clone()),
            EdgeDir::Left => (entities[i + 1].clone(), entities[i].clone()),
        };
        if subj.kind != EntityKind::Process {
            return Err(AiqlError::at(
                subj.span,
                "the subject side of a dependency edge must be a process",
            )
            .with_help("point the arrow away from the process: `proc p ->[write] file f`"));
        }
        patterns.push(EventPattern {
            span: subj.span.merge(obj.span),
            subject: subj,
            op: op.clone(),
            object: obj,
            evt_var: Some(format!("_dep_evt{i}")),
            evt_cstr: None,
            window: None,
        });
    }

    // Temporal chain: forward ⇒ earlier edges happen earlier.
    let mut relations = Vec::new();
    for i in 0..patterns.len().saturating_sub(1) {
        let (l, r) = (format!("_dep_evt{i}"), format!("_dep_evt{}", i + 1));
        relations.push(Relation::Temporal {
            left: l,
            kind: match d.direction {
                Direction::Forward => TempKind::Before,
                Direction::Backward => TempKind::After,
            },
            range: None,
            right: r,
            span: Span::default(),
        });
    }

    Ok(MultieventQuery {
        global: d.global.clone(),
        patterns,
        relations,
        ret: d.ret.clone(),
        group_by: Vec::new(),
        having: None,
        sort_by: d.sort_by.clone(),
        top: d.top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn compile(src: &str) -> QueryContext {
        analyze(&parse(src).unwrap()).unwrap()
    }

    fn compile_err(src: &str) -> AiqlError {
        match parse(src) {
            Ok(q) => analyze(&q).unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn query1_context() {
        let ctx = compile(
            r#"
            agentid = 1
            (at "01/01/2017")
            proc p1 start proc p2["%telnet%"] as evt1
            proc p3 start ip ipp[dstport = 4444] as evt2
            proc p4["%apache%"] read file f1["/var/www%"] as evt3
            with p2 = p3, evt1 before evt2, evt3 after evt2
            return p1, p2, p4, f1
            "#,
        );
        assert_eq!(ctx.kind, QueryKind::Multievent);
        assert_eq!(ctx.patterns.len(), 3);
        assert_eq!(ctx.agents, Some(vec![1]));
        assert!(ctx.window.is_some());
        // dstport alias resolved.
        assert!(matches!(
            &ctx.patterns[1].obj_cstr[0],
            CstrNode::Cmp { attr, .. } if attr == "dst_port"
        ));
        // p2 = p3 inferred as id equality.
        match &ctx.relations[0] {
            RelationCtx::Attr { left, right, .. } => {
                assert_eq!(left.attr, "id");
                assert_eq!(left.target, FieldTarget::Object);
                assert_eq!(right.target, FieldTarget::Subject);
                assert_eq!(right.pattern, 1);
            }
            other => panic!("expected attr rel, got {other:?}"),
        }
        // Return infers default attributes.
        match &ctx.ret.items[0].expr {
            RetExprCtx::Field(f) => assert_eq!(f.attr, "exe_name"),
            other => panic!("{other:?}"),
        }
        match &ctx.ret.items[3].expr {
            RetExprCtx::Field(f) => assert_eq!(f.attr, "name"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entity_reuse_adds_implicit_relations() {
        let ctx = compile(
            r#"
            proc p1 write file f1 as evt1
            proc p2 read file f1 as evt2
            return p1, p2
            "#,
        );
        // f1 reused → implicit id=id between patterns 0 and 1.
        let implicit = ctx
            .relations
            .iter()
            .filter(|r| {
                matches!(r, RelationCtx::Attr { left, right, .. }
                if left.attr == "id" && right.attr == "id")
            })
            .count();
        assert_eq!(implicit, 1);
        let (a, b) = ctx.relations[0].endpoints();
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn bare_value_inference() {
        let ctx = compile(r#"proc p3 read file[".viminfo" || ".bash_history"] as evt2 return p3"#);
        match &ctx.patterns[0].obj_cstr[0] {
            CstrNode::Or(parts) => {
                assert!(matches!(&parts[0], CstrNode::Cmp { attr, .. } if attr == "name"));
            }
            other => panic!("expected or, got {other:?}"),
        }
        // `%` makes it a LIKE.
        let ctx = compile(r#"proc p["%cmd.exe"] read file f return p"#);
        assert!(matches!(
            &ctx.patterns[0].subj_cstr[0],
            CstrNode::Like { attr, neg: false, .. } if attr == "exe_name"
        ));
    }

    #[test]
    fn anomaly_context() {
        let ctx = compile(
            r#"
            (at "01/01/2017")
            window = 1 min
            step = 10 sec
            proc p read ip ipp
            return p, count(distinct ipp) as freq
            group by p
            having freq > 2 * (freq + freq[1] + freq[2]) / 3
            "#,
        );
        assert_eq!(ctx.kind, QueryKind::Anomaly);
        let s = ctx.slide.unwrap();
        assert_eq!(s.window_ns, 60 * 1_000_000_000);
        assert_eq!(s.step_ns, 10 * 1_000_000_000);
        assert_eq!(ctx.group_by, vec![0]);
        assert!(ctx.having.unwrap().uses_history());
    }

    #[test]
    fn dependency_rewrite_forward() {
        let ctx = compile(
            r#"
            (at "01/01/2017")
            forward: proc p1["%/bin/cp%", agentid = 2] ->[write] file f1["%info_stealer%"]
            <-[read] proc p2["%apache%"]
            ->[connect] proc p3[agentid = 3]
            ->[write] file f2["%info_stealer%"]
            return f1, p1, p2, p3, f2
            "#,
        );
        assert_eq!(ctx.kind, QueryKind::Dependency);
        assert_eq!(ctx.patterns.len(), 4);
        // Pattern 1 has subject p2 (the <- flips roles).
        assert_eq!(ctx.patterns[1].subj_var.as_deref(), Some("p2"));
        assert_eq!(ctx.patterns[1].obj_var.as_deref(), Some("f1"));
        // Temporal chain: 3 before-relations.
        let temporals: Vec<_> = ctx
            .relations
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    RelationCtx::Temporal {
                        kind: TempKind::Before,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(temporals.len(), 3);
        // f1 shared between patterns 0 and 1 → implicit id join too.
        assert!(ctx
            .relations
            .iter()
            .any(|r| matches!(r, RelationCtx::Attr { .. })));
        // Agent hoisting from bracket constraints: subject-side only.
        assert_eq!(ctx.patterns[0].agents, Some(vec![2]));
        // `p3[agentid = 3]` is the connect's *object* (a remote process):
        // the event itself is observed on the source host, so no event-level
        // agent pruning may be derived from it.
        assert_eq!(ctx.patterns[2].agents, None);
    }

    #[test]
    fn backward_dependency_flips_temporal() {
        let ctx = compile("backward: file f1 <-[write] proc p1 <-[start] proc p0 return f1, p1");
        assert!(ctx.relations.iter().any(|r| matches!(
            r,
            RelationCtx::Temporal {
                kind: TempKind::After,
                ..
            }
        )));
    }

    #[test]
    fn error_unknown_operation() {
        let e = compile_err("proc p1 touch file f1 return p1");
        assert!(e.message.contains("unknown operation"), "{e}");
        assert!(e.help.is_some());
    }

    #[test]
    fn error_subject_not_process() {
        let e = compile_err("file f1 read file f2 return f1");
        assert!(e.message.contains("subjects must be processes"), "{e}");
    }

    #[test]
    fn error_unknown_attribute_and_identifier() {
        let e = compile_err(r#"proc p1[color = "red"] read file f1 return p1"#);
        assert!(e.message.contains("unknown attribute"), "{e}");
        let e = compile_err("proc p1 read file f1 return p9");
        assert!(e.message.contains("unknown identifier"), "{e}");
        let e = compile_err("proc p1 read file f1 as e1 with e1 before e9 return p1");
        assert!(e.message.contains("unknown event identifier"), "{e}");
    }

    #[test]
    fn error_kind_mismatch_on_reuse() {
        let e = compile_err("proc p1 write file x proc p1 start proc x return p1");
        assert!(e.message.contains("declared as"), "{e}");
    }

    #[test]
    fn error_history_without_window() {
        let e = compile_err(
            "proc p read ip i return p, count(i) as freq group by p having freq > freq[1]",
        );
        assert!(e.message.contains("require `window"), "{e}");
    }

    #[test]
    fn error_window_without_step() {
        let e =
            compile_err("window = 1 min proc p read ip i return p, count(i) as freq group by p");
        assert!(e.message.contains("step"), "{e}");
    }

    #[test]
    fn error_anomaly_without_aggregate() {
        let e = compile_err("window = 1 min step = 10 sec proc p read ip i return p");
        assert!(e.message.contains("must aggregate"), "{e}");
    }

    #[test]
    fn error_group_by_must_be_returned() {
        let e = compile_err("proc p read file f return p group by f");
        assert!(
            e.message.contains("must appear in the return clause"),
            "{e}"
        );
    }

    #[test]
    fn scores_count_constraints() {
        let ctx = compile(
            r#"
            agentid = 1
            proc p1["%a%" && pid > 5] read file f1["/x%"] as e1[amount > 0]
            proc p2 write file f2
            return p1, p2
            "#,
        );
        // p1: 2 subj atoms + 1 obj + 1 evt + agents(1) = 5.
        assert_eq!(ctx.patterns[0].score, 5);
        // p2: only the global agent constraint.
        assert_eq!(ctx.patterns[1].score, 1);
        assert!(ctx.total_constraints() >= 6);
    }

    #[test]
    fn global_agent_in_list_and_window_intersection() {
        let ctx = compile(
            r#"
            agentid in (1, 2)
            (from "2017-01-01" to "2017-01-03")
            (at "01/02/2017")
            proc p read file f
            return p
            "#,
        );
        assert_eq!(ctx.agents, Some(vec![1, 2]));
        let (lo, hi) = ctx.window.unwrap();
        let d2 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let d3 = Timestamp::from_ymd(2017, 1, 3).unwrap().0;
        assert_eq!(lo, d2);
        assert_eq!(hi, d3);
    }

    #[test]
    fn count_flag_context() {
        let ctx = compile("proc p read file f return count distinct p, f");
        assert!(ctx.ret.count);
        assert!(ctx.ret.distinct);
        assert_eq!(ctx.ret.items.len(), 2);
    }
}
