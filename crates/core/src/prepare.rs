//! Prepared queries: `$name` placeholders, parameter binding, and the
//! normalized-source plan cache.
//!
//! An interactive investigation iterates on near-identical queries — the
//! same pattern with different agent / time-window / attribute constants.
//! [`PreparedQuery::compile`] pays the lexer, parser, and structural
//! analysis once; [`PreparedQuery::bind`] then substitutes concrete values
//! for the `$name` placeholders and produces an executable
//! [`QueryContext`] without touching the source text again. Binding is
//! defined to be *exactly* textual substitution: `prepare(q).bind(v)`
//! produces the same context as compiling the query with every `$name`
//! replaced by the literal spelling of `v` (the differential property
//! `tests/proptest_prepare.rs` checks).
//!
//! Placeholders may stand for:
//!
//! - attribute-constraint values — `proc p[$pname]`, `ip i[dstip = $ip]`,
//!   `as evt[amount > $min]` (string, integer, or float),
//! - global `agentid` constants — `agentid = $agent`, `agentid in ($a, $b)`
//!   (integers),
//! - time-window datetimes — `(at $day)`, `(from $t0 to $t1)` (datetime
//!   strings).
//!
//! Window placeholders are carried in-band as a `$`-prefixed datetime
//! string, so a *quoted* window literal beginning with `$` (e.g.
//! `(at "$day")`) is indistinguishable from — and treated as — a
//! placeholder. Real datetimes never start with `$` (such a literal could
//! only ever fail datetime parsing), so nothing expressible is lost.
//!
//! [`PlanCache`] gives the same amortization to callers that keep sending
//! raw source: a bounded LRU over whitespace/comment-normalized source
//! text, with hit/miss counters surfaced through
//! [`PlanCache::stats`].

use crate::analyze::analyze;
use crate::ast::{AttrCstr, GlobalCstr, Lit, Query, TimeWindow};
use crate::context::QueryContext;
use crate::err::{AiqlError, Span};
use crate::parse::parse;
use std::collections::HashMap;
use std::sync::Arc;

/// What a parameter may be bound to, inferred from its syntactic position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// A time-window datetime — must bind to a datetime string.
    Time,
    /// A global `agentid` constant — must bind to an integer.
    Int,
    /// An attribute-constraint value — any scalar literal.
    Scalar,
}

/// One declared parameter of a prepared query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    pub name: String,
    pub kind: ParamKind,
    /// Number of placeholder sites the parameter appears in.
    pub uses: usize,
}

/// Values for binding, built fluently:
/// `ParamValues::new().set("agent", 9).set("pname", "%cmd.exe")`.
#[derive(Debug, Clone, Default)]
pub struct ParamValues {
    vals: Vec<(String, Lit)>,
}

impl ParamValues {
    /// An empty binding (for queries without placeholders).
    pub fn new() -> ParamValues {
        ParamValues::default()
    }

    /// Sets `name` to `value`, replacing any earlier value.
    pub fn set(mut self, name: &str, value: impl Into<Lit>) -> ParamValues {
        self.vals.retain(|(n, _)| n != name);
        self.vals.push((name.to_string(), value.into()));
        self
    }

    /// The bound value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Lit> {
        self.vals.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Whether no values are bound.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The bound names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.vals.iter().map(|(n, _)| n.as_str())
    }

    /// Renders the binding as `$name = value` pairs — `(none)` when empty
    /// — for logs and the slow-query log.
    pub fn render(&self) -> String {
        if self.vals.is_empty() {
            return "(none)".to_string();
        }
        self.vals
            .iter()
            .map(|(n, v)| {
                let val = match v {
                    Lit::Str(s) => format!("{s:?}"),
                    Lit::Int(i) => i.to_string(),
                    Lit::Float(f) => f.to_string(),
                    Lit::Param(p) => format!("${p}"),
                };
                format!("${n} = {val}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl From<i64> for Lit {
    fn from(v: i64) -> Lit {
        Lit::Int(v)
    }
}

impl From<i32> for Lit {
    fn from(v: i32) -> Lit {
        Lit::Int(v as i64)
    }
}

impl From<f64> for Lit {
    fn from(v: f64) -> Lit {
        Lit::Float(v)
    }
}

impl From<&str> for Lit {
    fn from(v: &str) -> Lit {
        Lit::Str(v.to_string())
    }
}

impl From<String> for Lit {
    fn from(v: String) -> Lit {
        Lit::Str(v)
    }
}

/// A compiled AIQL statement: parsed and structurally validated once,
/// bindable many times.
///
/// # Examples
///
/// ```
/// use aiql_core::{ParamValues, PreparedQuery};
///
/// let q = PreparedQuery::compile(
///     "agentid = $agent proc p[$pname] read file f return p, f",
/// )
/// .unwrap();
/// assert_eq!(q.params().len(), 2);
/// let ctx = q
///     .bind(&ParamValues::new().set("agent", 7).set("pname", "%cmd.exe"))
///     .unwrap();
/// assert_eq!(ctx.agents, Some(vec![7]));
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    source: String,
    ast: Query,
    params: Vec<ParamSpec>,
    /// The analysis result, computed at compile time when the query has no
    /// placeholders (the common case) so binding is a clone.
    static_ctx: Option<QueryContext>,
}

impl PreparedQuery {
    /// Lexes, parses, and validates `source` once. Queries with `$name`
    /// placeholders are structurally validated (entity kinds, attribute
    /// names, variable resolution) with binding-independent probe values;
    /// binding-dependent errors (an unparsable datetime, an empty window)
    /// surface at [`PreparedQuery::bind`].
    pub fn compile(source: &str) -> Result<PreparedQuery, AiqlError> {
        let ast = parse(source)?;
        let params = collect_params(&ast)?;
        // The analysis phase of the session trace tree (lex and parse are
        // recorded inside `parse`); inert when no collection is active.
        let _analyze = aiql_telemetry::trace::span("analyze");
        let static_ctx = if params.is_empty() {
            Some(analyze(&ast)?)
        } else {
            analyze(&probe_ast(&ast))?;
            None
        };
        Ok(PreparedQuery {
            source: source.to_string(),
            ast,
            params,
            static_ctx,
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The declared parameters, in first-occurrence order.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Whether the query declares any placeholder.
    pub fn is_parameterized(&self) -> bool {
        !self.params.is_empty()
    }

    /// The analyzed context of a placeholder-free query (available without
    /// binding; `None` when the query is parameterized).
    pub fn static_ctx(&self) -> Option<&QueryContext> {
        self.static_ctx.as_ref()
    }

    /// The parsed AST (placeholders intact).
    pub fn ast(&self) -> &Query {
        &self.ast
    }

    /// Binds `values` to the placeholders and analyzes the result into an
    /// executable context. Every declared parameter must be bound, and no
    /// undeclared name may be supplied.
    pub fn bind(&self, values: &ParamValues) -> Result<QueryContext, AiqlError> {
        for name in values.names() {
            if !self.params.iter().any(|p| p.name == name) {
                return Err(AiqlError::new(format!(
                    "query declares no parameter `${name}`"
                )));
            }
        }
        if self.params.is_empty() {
            return Ok(self
                .static_ctx
                .clone()
                .expect("placeholder-free queries are analyzed at compile time"));
        }
        for p in &self.params {
            match values.get(&p.name) {
                None => {
                    return Err(
                        AiqlError::new(format!("parameter `${}` is unbound", p.name))
                            .with_help("bind every declared parameter before executing"),
                    )
                }
                Some(Lit::Param(_)) => {
                    return Err(AiqlError::new(format!(
                        "parameter `${}` cannot be bound to another placeholder",
                        p.name
                    )))
                }
                Some(v) => {
                    if p.kind == ParamKind::Time && !matches!(v, Lit::Str(_)) {
                        return Err(AiqlError::new(format!(
                            "parameter `${}` appears in a time window and must be \
                             a datetime string",
                            p.name
                        )));
                    }
                    if p.kind == ParamKind::Int && !matches!(v, Lit::Int(_)) {
                        return Err(AiqlError::new(format!(
                            "parameter `${}` appears as a global agentid and must be \
                             an integer",
                            p.name
                        )));
                    }
                }
            }
        }
        let bound = substitute(&self.ast, values);
        let _analyze = aiql_telemetry::trace::span("analyze");
        analyze(&bound)
    }
}

/// Where a placeholder occurs, which decides its inferred [`ParamKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// Time-window datetime position.
    Window,
    /// Global constraint value (`agentid = $a`, `agentid in ($a, $b)`).
    Global,
    /// Attribute-constraint value inside a pattern.
    Value,
}

impl Site {
    fn kind(self) -> ParamKind {
        match self {
            Site::Window => ParamKind::Time,
            Site::Global => ParamKind::Int,
            Site::Value => ParamKind::Scalar,
        }
    }
}

/// The first unbound placeholder of a query, if any — the guard
/// [`analyze`] uses to reject parameterized ASTs that were never bound.
pub fn first_param(q: &Query) -> Option<(String, Span)> {
    let mut found = None;
    visit_params(q, &mut |name, span, _| {
        if found.is_none() {
            found = Some((name.to_string(), span));
        }
    });
    found
}

/// Walks every placeholder site of `q` (constraint values and window
/// datetimes) in source order.
fn visit_params(q: &Query, f: &mut impl FnMut(&str, Span, Site)) {
    fn visit_cstr(c: &AttrCstr, f: &mut dyn FnMut(&str, Span, Site)) {
        match c {
            AttrCstr::Cmp { value, span, .. } | AttrCstr::Bare { value, span, .. } => {
                if let Lit::Param(name) = value {
                    f(name, *span, Site::Value);
                }
            }
            AttrCstr::In { values, span, .. } => {
                for v in values {
                    if let Lit::Param(name) = v {
                        f(name, *span, Site::Value);
                    }
                }
            }
            AttrCstr::Not(inner) => visit_cstr(inner, f),
            AttrCstr::And(a, b) | AttrCstr::Or(a, b) => {
                visit_cstr(a, f);
                visit_cstr(b, f);
            }
        }
    }
    fn visit_window(w: &TimeWindow, f: &mut dyn FnMut(&str, Span, Site)) {
        match w {
            TimeWindow::At { datetime, span } => {
                if let Some(name) = datetime.strip_prefix('$') {
                    f(name, *span, Site::Window);
                }
            }
            TimeWindow::FromTo { from, to, span } => {
                for s in [from, to] {
                    if let Some(name) = s.strip_prefix('$') {
                        f(name, *span, Site::Window);
                    }
                }
            }
        }
    }
    let visit_globals = |globals: &[GlobalCstr], f: &mut dyn FnMut(&str, Span, Site)| {
        for g in globals {
            match g {
                GlobalCstr::Attr { value, span, .. } => {
                    if let Lit::Param(name) = value {
                        f(name, *span, Site::Global);
                    }
                }
                GlobalCstr::AttrIn { values, span, .. } => {
                    for v in values {
                        if let Lit::Param(name) = v {
                            f(name, *span, Site::Global);
                        }
                    }
                }
                GlobalCstr::Window(w) => visit_window(w, f),
                GlobalCstr::SlideWindow { .. } | GlobalCstr::SlideStep { .. } => {}
            }
        }
    };
    match q {
        Query::Multievent(m) => {
            visit_globals(&m.global, f);
            for p in &m.patterns {
                for c in [&p.subject.cstr, &p.object.cstr, &p.evt_cstr]
                    .into_iter()
                    .flatten()
                {
                    visit_cstr(c, f);
                }
                if let Some(w) = &p.window {
                    visit_window(w, f);
                }
            }
        }
        Query::Dependency(d) => {
            visit_globals(&d.global, f);
            for e in &d.entities {
                if let Some(c) = &e.cstr {
                    visit_cstr(c, f);
                }
            }
        }
    }
}

/// Gathers the parameter registry, inferring each name's [`ParamKind`]
/// from its sites. The strongest requirement wins (`Int` over `Scalar`);
/// a name used both in a window and as a value is rejected.
fn collect_params(q: &Query) -> Result<Vec<ParamSpec>, AiqlError> {
    let mut by_name: Vec<ParamSpec> = Vec::new();
    let mut conflict: Option<AiqlError> = None;
    visit_params(q, &mut |name, span, site| {
        let kind = site.kind();
        match by_name.iter_mut().find(|p| p.name == name) {
            Some(existing) => {
                if (existing.kind == ParamKind::Time) != (kind == ParamKind::Time) {
                    conflict.get_or_insert_with(|| {
                        AiqlError::at(
                            span,
                            format!(
                                "parameter `${name}` is used both as a time-window \
                                 datetime and as a value"
                            ),
                        )
                    });
                } else if kind == ParamKind::Int {
                    existing.kind = ParamKind::Int;
                }
                existing.uses += 1;
            }
            None => by_name.push(ParamSpec {
                name: name.to_string(),
                kind,
                uses: 1,
            }),
        }
    });
    match conflict {
        Some(e) => Err(e),
        None => Ok(by_name),
    }
}

/// A copy of `q` with every placeholder replaced by a binding-independent
/// probe, for structural validation at compile time: parameterized windows
/// are *dropped* (their presence affects only the computed time range),
/// global constants probe as `0`, constraint values as a neutral string.
fn probe_ast(q: &Query) -> Query {
    let mut probes = ParamValues::new();
    visit_params(q, &mut |name, _, site| match site {
        // Parameterized windows are dropped below, not probed: probe
        // datetimes could fabricate empty-window errors a real binding
        // would not have.
        Site::Window => {}
        // Global constants must probe as integers (the stronger
        // requirement wins over any value-site probe).
        Site::Global => probes = std::mem::take(&mut probes).set(name, 0i64),
        Site::Value => {
            if probes.get(name).is_none() {
                probes = std::mem::take(&mut probes).set(name, "aiql-probe");
            }
        }
    });
    let mut probed = substitute(q, &probes);
    drop_param_windows(&mut probed);
    probed
}

/// Removes any time window whose datetime is still a placeholder.
fn drop_param_windows(q: &mut Query) {
    let is_param = |w: &TimeWindow| match w {
        TimeWindow::At { datetime, .. } => datetime.starts_with('$'),
        TimeWindow::FromTo { from, to, .. } => from.starts_with('$') || to.starts_with('$'),
    };
    let globals = match q {
        Query::Multievent(m) => &mut m.global,
        Query::Dependency(d) => &mut d.global,
    };
    globals.retain(|g| match g {
        GlobalCstr::Window(w) => !is_param(w),
        _ => true,
    });
    if let Query::Multievent(m) = q {
        for p in &mut m.patterns {
            if p.window.as_ref().is_some_and(is_param) {
                p.window = None;
            }
        }
    }
}

/// A copy of `q` with every bound placeholder replaced by its value.
/// Unbound placeholders are left intact (callers validate beforehand).
fn substitute(q: &Query, values: &ParamValues) -> Query {
    let mut out = q.clone();
    let sub_lit = |l: &mut Lit| {
        if let Lit::Param(name) = l {
            if let Some(v) = values.get(name) {
                *l = v.clone();
            }
        }
    };
    fn sub_cstr(c: &mut AttrCstr, sub: &dyn Fn(&mut Lit)) {
        match c {
            AttrCstr::Cmp { value, .. } | AttrCstr::Bare { value, .. } => sub(value),
            AttrCstr::In { values, .. } => values.iter_mut().for_each(sub),
            AttrCstr::Not(inner) => sub_cstr(inner, sub),
            AttrCstr::And(a, b) | AttrCstr::Or(a, b) => {
                sub_cstr(a, sub);
                sub_cstr(b, sub);
            }
        }
    }
    let sub_window = |w: &mut TimeWindow| {
        let sub_dt = |s: &mut String| {
            if let Some(name) = s.strip_prefix('$') {
                if let Some(Lit::Str(v)) = values.get(name) {
                    *s = v.clone();
                }
            }
        };
        match w {
            TimeWindow::At { datetime, .. } => sub_dt(datetime),
            TimeWindow::FromTo { from, to, .. } => {
                sub_dt(from);
                sub_dt(to);
            }
        }
    };
    let sub_globals = |globals: &mut Vec<GlobalCstr>| {
        for g in globals {
            match g {
                GlobalCstr::Attr { value, .. } => sub_lit(value),
                GlobalCstr::AttrIn { values, .. } => values.iter_mut().for_each(sub_lit),
                GlobalCstr::Window(w) => sub_window(w),
                GlobalCstr::SlideWindow { .. } | GlobalCstr::SlideStep { .. } => {}
            }
        }
    };
    match &mut out {
        Query::Multievent(m) => {
            sub_globals(&mut m.global);
            for p in &mut m.patterns {
                for c in [&mut p.subject.cstr, &mut p.object.cstr, &mut p.evt_cstr]
                    .into_iter()
                    .flatten()
                {
                    sub_cstr(c, &sub_lit);
                }
                if let Some(w) = &mut p.window {
                    sub_window(w);
                }
            }
        }
        Query::Dependency(d) => {
            sub_globals(&mut d.global);
            for e in &mut d.entities {
                if let Some(c) = &mut e.cstr {
                    sub_cstr(c, &sub_lit);
                }
            }
        }
    }
    out
}

/// Normalizes AIQL source for plan-cache keying: comments stripped,
/// whitespace runs collapsed to one space, string literals preserved
/// byte-for-byte.
pub fn normalize_source(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut chars = src.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push('"');
                // Mirror the lexer's escape rule exactly: a backslash
                // *immediately followed by* a quote escapes it (any other
                // backslash is literal), so normalization can never end a
                // string at a different byte than lexing would.
                while let Some(d) = chars.next() {
                    out.push(d);
                    if d == '\\' && chars.peek() == Some(&'"') {
                        out.push('"');
                        chars.next();
                    } else if d == '"' {
                        break;
                    }
                }
            }
            '/' if chars.peek() == Some(&'/') => {
                for d in chars.by_ref() {
                    if d == '\n' {
                        break;
                    }
                }
                pending_space = true;
            }
            c if c.is_whitespace() => pending_space = true,
            c => {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                out.push(c);
            }
        }
    }
    out
}

aiql_telemetry::metrics! {
    /// Process-wide plan-cache counters, aggregated across every
    /// [`PlanCache`] instance (one per session) so the global hit rate is
    /// observable from outside any one session.
    struct PlanCacheMetrics via cache_metrics(), prefix "aiql_core_";

    hits: Counter("aiql_core_plan_cache_hits_total", "lookups",
        "Prepared-statement/plan-cache hits on normalized source text"),
    misses: Counter("aiql_core_plan_cache_misses_total", "lookups",
        "Cache misses (full lex/parse/analyze paid)"),
}

/// Cumulative cache counters, as surfaced in `EXPLAIN` output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU cache of compiled statements keyed by normalized source,
/// each entry carrying its caller's per-statement value `P` (the engine
/// keeps the statement's physical-plan slot there): made by
/// `P::default()` on the miss that compiles the statement, handed out
/// with it on every hit, and evicted with it.
///
/// Compile errors are not cached: a failing source recompiles (and
/// recounts as a miss) on every lookup.
#[derive(Debug)]
pub struct PlanCache<P = ()> {
    map: HashMap<String, CacheEntry<P>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct CacheEntry<P> {
    stmt: Arc<PreparedQuery>,
    value: P,
    last_used: u64,
}

impl<P: Default + Clone> PlanCache<P> {
    /// A cache holding at most `capacity` compiled statements.
    pub fn new(capacity: usize) -> PlanCache<P> {
        PlanCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `source` up by normalized text, compiling and inserting on a
    /// miss (evicting the least-recently-used entry at capacity); returns
    /// the statement and its entry's value.
    pub fn get_or_compile(&mut self, source: &str) -> Result<(Arc<PreparedQuery>, P), AiqlError> {
        let key = normalize_source(source);
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.last_used = self.tick;
            self.hits += 1;
            cache_metrics().hits.inc();
            return Ok((e.stmt.clone(), e.value.clone()));
        }
        self.misses += 1;
        cache_metrics().misses.inc();
        let stmt = Arc::new(PreparedQuery::compile(source)?);
        if self.map.len() >= self.capacity {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
            }
        }
        let value = P::default();
        self.map.insert(
            key,
            CacheEntry {
                stmt: stmt.clone(),
                value: value.clone(),
                last_used: self.tick,
            },
        );
        Ok((stmt, value))
    }

    /// Whether `source` is currently cached (no counter movement).
    pub fn contains(&self, source: &str) -> bool {
        self.map.contains_key(&normalize_source(source))
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryKind;

    #[test]
    fn zero_param_query_is_analyzed_once() {
        let q = PreparedQuery::compile("proc p read file f return p, f").unwrap();
        assert!(!q.is_parameterized());
        assert!(q.static_ctx().is_some());
        let ctx = q.bind(&ParamValues::new()).unwrap();
        assert_eq!(ctx.kind, QueryKind::Multievent);
    }

    #[test]
    fn params_are_collected_with_kinds() {
        let q = PreparedQuery::compile(
            "(from $t0 to $t1) agentid = $agent \
             proc p[$pname] read file f[name = $fname] return p, f",
        )
        .unwrap();
        let kinds: Vec<(&str, ParamKind)> = q
            .params()
            .iter()
            .map(|p| (p.name.as_str(), p.kind))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("t0", ParamKind::Time),
                ("t1", ParamKind::Time),
                ("agent", ParamKind::Int),
                ("pname", ParamKind::Scalar),
                ("fname", ParamKind::Scalar),
            ]
        );
    }

    #[test]
    fn bind_equals_textual_substitution() {
        let template = "(at $day) agentid = $agent proc p[$pname] read file f return p, f";
        let q = PreparedQuery::compile(template).unwrap();
        let ctx = q
            .bind(
                &ParamValues::new()
                    .set("day", "01/02/2017")
                    .set("agent", 9)
                    .set("pname", "%cmd.exe"),
            )
            .unwrap();
        let oracle = crate::compile(
            r#"(at "01/02/2017") agentid = 9 proc p["%cmd.exe"] read file f return p, f"#,
        )
        .unwrap();
        assert_eq!(ctx.agents, oracle.agents);
        assert_eq!(ctx.window, oracle.window);
        assert_eq!(ctx.patterns[0].subj_cstr, oracle.patterns[0].subj_cstr);
    }

    #[test]
    fn structural_errors_surface_at_compile() {
        // Unknown attribute — caught with probe values, before any bind.
        let e = PreparedQuery::compile("proc p[color = $c] read file f return p").unwrap_err();
        assert!(e.message.contains("unknown attribute"), "{e}");
        // Unknown entity type.
        assert!(PreparedQuery::compile("socket s[$x] read file f return s").is_err());
    }

    #[test]
    fn binding_errors() {
        let q =
            PreparedQuery::compile("(at $day) agentid = $a proc p read file f return p").unwrap();
        // Missing parameter.
        let e = q.bind(&ParamValues::new().set("a", 1)).unwrap_err();
        assert!(e.message.contains("unbound"), "{e}");
        // Undeclared parameter.
        let e = q
            .bind(
                &ParamValues::new()
                    .set("day", "01/01/2017")
                    .set("a", 1)
                    .set("bogus", 3),
            )
            .unwrap_err();
        assert!(e.message.contains("no parameter"), "{e}");
        // Wrong type for a window param.
        let e = q
            .bind(&ParamValues::new().set("day", 5).set("a", 1))
            .unwrap_err();
        assert!(e.message.contains("datetime string"), "{e}");
        // Wrong type for a global agentid.
        let e = q
            .bind(&ParamValues::new().set("day", "01/01/2017").set("a", "x"))
            .unwrap_err();
        assert!(e.message.contains("integer"), "{e}");
        // Invalid datetime: a bind-time error, not a compile-time one.
        let e = q
            .bind(&ParamValues::new().set("day", "not a date").set("a", 1))
            .unwrap_err();
        assert!(e.message.contains("invalid datetime"), "{e}");
    }

    #[test]
    fn percent_binding_selects_like_semantics() {
        let q = PreparedQuery::compile("proc p[$n] read file f return p").unwrap();
        let like = q.bind(&ParamValues::new().set("n", "%cmd%")).unwrap();
        assert!(matches!(
            &like.patterns[0].subj_cstr[0],
            crate::CstrNode::Like { .. }
        ));
        let eq = q.bind(&ParamValues::new().set("n", "cmd.exe")).unwrap();
        assert!(matches!(
            &eq.patterns[0].subj_cstr[0],
            crate::CstrNode::Cmp { .. }
        ));
    }

    #[test]
    fn analyze_rejects_unbound_params() {
        let e = crate::compile("proc p[$n] read file f return p").unwrap_err();
        assert!(e.message.contains("unbound parameter"), "{e}");
        let e = crate::compile("(at $day) proc p read file f return p").unwrap_err();
        assert!(e.message.contains("unbound parameter"), "{e}");
    }

    #[test]
    fn conflicting_time_and_value_use_is_rejected() {
        let e = PreparedQuery::compile("(at $x) proc p[$x] read file f return p").unwrap_err();
        assert!(e.message.contains("both"), "{e}");
    }

    #[test]
    fn dependency_and_anomaly_templates_prepare() {
        let d = PreparedQuery::compile(
            "(at $day) forward: proc p1[$n] ->[write] file f1 <-[read] proc p2 \
             return p1, f1, p2",
        )
        .unwrap();
        assert_eq!(d.params().len(), 2);
        let ctx = d
            .bind(&ParamValues::new().set("day", "01/01/2017").set("n", "%cp%"))
            .unwrap();
        assert_eq!(ctx.kind, QueryKind::Dependency);

        let a = PreparedQuery::compile(
            "(at $day) agentid = $agent window = 1 min step = 10 sec \
             proc p write ip i[dstip = $ip] as evt \
             return p, avg(evt.amount) as amt group by p having amt > $lim",
        );
        // `$lim` sits in having arithmetic — not a literal site, so parsing
        // rejects it: having params are out of scope.
        assert!(a.is_err());
        let a = PreparedQuery::compile(
            "(at $day) agentid = $agent window = 1 min step = 10 sec \
             proc p write ip i[dstip = $ip] as evt \
             return p, avg(evt.amount) as amt group by p \
             having amt > 2 * (amt + amt[1] + amt[2]) / 3",
        )
        .unwrap();
        let ctx = a
            .bind(
                &ParamValues::new()
                    .set("day", "01/02/2017")
                    .set("agent", 9)
                    .set("ip", "10.10.1.129"),
            )
            .unwrap();
        assert_eq!(ctx.kind, QueryKind::Anomaly);
    }

    #[test]
    fn normalization_strips_comments_and_whitespace() {
        let a = normalize_source("proc p  read\n\tfile f // trailing\n return p");
        let b = normalize_source("proc p read file f return p");
        assert_eq!(a, b);
        // String literals keep their exact bytes (including `//` and runs
        // of spaces).
        let c = normalize_source(r#"proc p["a  //b"] read file f return p"#);
        assert!(c.contains("a  //b"));
        // The escape rule matches the lexer exactly: in `\\"` the second
        // backslash escapes the quote and the string continues, so the
        // whitespace inside it is content, not collapsible — two queries
        // whose strings differ only there must get different keys.
        let a = normalize_source(r#"proc p["x\\" a"] read file f return p"#);
        let b = normalize_source(r#"proc p["x\\"  a"] read file f return p"#);
        assert_ne!(a, b, "escaped-quote strings keep exact bytes");
    }

    #[test]
    fn plan_cache_counts_hits_and_misses() {
        let mut cache: PlanCache = PlanCache::new(8);
        let src = "proc p read file f return p";
        cache.get_or_compile(src).unwrap();
        cache
            .get_or_compile("proc p  read file f return p // same")
            .unwrap();
        cache.get_or_compile(src).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        // Errors are not cached.
        assert!(cache.get_or_compile("proc p frobnicate").is_err());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut cache: PlanCache = PlanCache::new(2);
        let q1 = "proc a1 read file f return a1";
        let q2 = "proc a2 read file f return a2";
        let q3 = "proc a3 read file f return a3";
        cache.get_or_compile(q1).unwrap();
        cache.get_or_compile(q2).unwrap();
        // Touch q1 so q2 becomes the LRU entry.
        cache.get_or_compile(q1).unwrap();
        cache.get_or_compile(q3).unwrap();
        assert!(cache.contains(q1), "recently used survives");
        assert!(!cache.contains(q2), "LRU evicted");
        assert!(cache.contains(q3));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().capacity, 2);
    }
}
