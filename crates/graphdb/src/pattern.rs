//! Cypher-`MATCH`-style pattern queries evaluated by depth-first binding
//! expansion.
//!
//! A [`PatternQuery`] is an ordered list of `(src)-[edge]->(dst)` triples.
//! The matcher walks the triples in order keeping a binding environment:
//!
//! - if either endpoint variable is already bound, the step expands along
//!   the adjacency lists of the bound node (fast, Neo4j's strength);
//! - if neither endpoint is bound, the step enumerates candidate source
//!   nodes — via a `(label, property)` index when an equality predicate
//!   allows, otherwise a label scan — and the step multiplies the binding
//!   set (the cartesian blow-up the paper attributes to graph databases on
//!   patterns that share no entity).
//!
//! Temporal constraints between edge variables and cross-variable property
//! comparisons are applied as soon as both sides are bound.

use crate::{EdgeId, GraphDb, NodeId, Value};
use aiql_model::LikePattern;
use std::collections::BTreeMap;
use std::time::Instant;

/// Comparison operators for property predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum POp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl POp {
    fn eval(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = a.loose_cmp(b);
        match self {
            POp::Eq => ord == Equal,
            POp::Ne => ord != Equal,
            POp::Lt => ord == Less,
            POp::Le => ord != Greater,
            POp::Gt => ord == Greater,
            POp::Ge => ord != Less,
        }
    }
}

/// A predicate on one property of a node or edge.
#[derive(Debug, Clone)]
pub enum PropPred {
    /// `prop op literal`.
    Cmp(String, POp, Value),
    /// `prop LIKE pattern` (with `%` wildcards).
    Like(String, LikePattern),
    /// Negated LIKE.
    NotLike(String, LikePattern),
    /// `prop IN (values)`.
    In(String, Vec<Value>),
    /// Disjunction of predicates on the same element.
    Or(Vec<PropPred>),
    /// Conjunction of predicates on the same element.
    And(Vec<PropPred>),
    /// Negation.
    Not(Box<PropPred>),
}

impl PropPred {
    /// `prop = value` shorthand.
    pub fn eq(prop: &str, value: impl Into<Value>) -> PropPred {
        PropPred::Cmp(prop.to_string(), POp::Eq, value.into())
    }

    /// `prop LIKE pattern` shorthand.
    pub fn like(prop: &str, pattern: &str) -> PropPred {
        PropPred::Like(prop.to_string(), pattern.into())
    }

    fn matches(&self, props: &BTreeMap<String, Value>) -> bool {
        match self {
            PropPred::Cmp(p, op, lit) => props
                .get(p)
                .is_some_and(|v| !v.is_null() && op.eval(v, lit)),
            PropPred::Like(p, pat) => props.get(p).is_some_and(|v| pat.matches_value(v)),
            PropPred::NotLike(p, pat) => props
                .get(p)
                .is_some_and(|v| !v.is_null() && !pat.matches_value(v)),
            PropPred::In(p, list) => props
                .get(p)
                .is_some_and(|v| list.iter().any(|x| x.loose_eq(v))),
            PropPred::Or(ps) => ps.iter().any(|q| q.matches(props)),
            PropPred::And(ps) => ps.iter().all(|q| q.matches(props)),
            PropPred::Not(q) => !q.matches(props),
        }
    }

    /// If this predicate pins `prop = value`, returns them (index usable).
    fn as_eq(&self) -> Option<(&str, &Value)> {
        match self {
            PropPred::Cmp(p, POp::Eq, v) => Some((p.as_str(), v)),
            _ => None,
        }
    }
}

/// A node pattern: variable name, required label, property predicates.
#[derive(Debug, Clone)]
pub struct NodePat {
    pub var: String,
    pub label: String,
    pub preds: Vec<PropPred>,
}

impl NodePat {
    /// Builds a node pattern.
    pub fn with_var(var: &str, label: &str, preds: Vec<PropPred>) -> NodePat {
        NodePat {
            var: var.to_string(),
            label: label.to_string(),
            preds,
        }
    }

    fn admits(&self, g: &GraphDb, n: NodeId) -> bool {
        let node = g.node(n);
        node.label == self.label && self.preds.iter().all(|p| p.matches(&node.props))
    }
}

/// An edge pattern: variable name, admissible labels (empty = any),
/// property predicates.
#[derive(Debug, Clone)]
pub struct EdgePat {
    pub var: String,
    pub labels: Vec<String>,
    pub preds: Vec<PropPred>,
    /// Inclusive time bounds on the edge's `time` field, if constrained.
    pub time_lo: Option<i64>,
    pub time_hi: Option<i64>,
}

impl EdgePat {
    /// Builds an edge pattern admitting the given labels.
    pub fn new(var: &str, labels: &[&str], preds: Vec<PropPred>) -> EdgePat {
        EdgePat {
            var: var.to_string(),
            labels: labels.iter().map(|s| s.to_string()).collect(),
            preds,
            time_lo: None,
            time_hi: None,
        }
    }

    /// Constrains the edge time window, builder style.
    pub fn between(mut self, lo: i64, hi: i64) -> EdgePat {
        self.time_lo = Some(lo);
        self.time_hi = Some(hi);
        self
    }

    fn admits(&self, g: &GraphDb, e: EdgeId) -> bool {
        let edge = g.edge(e);
        (self.labels.is_empty() || self.labels.contains(&edge.label))
            && self.time_lo.is_none_or(|lo| edge.time >= lo)
            && self.time_hi.is_none_or(|hi| edge.time <= hi)
            && self.preds.iter().all(|p| p.matches(&edge.props))
    }
}

/// One `(src)-[edge]->(dst)` step.
#[derive(Debug, Clone)]
pub struct Triple {
    pub src: NodePat,
    pub edge: EdgePat,
    pub dst: NodePat,
}

/// Temporal order between two bound edge variables.
#[derive(Debug, Clone)]
pub struct TempConstraint {
    pub left: String,
    /// True for `left before right`, false for `left after right`.
    pub before: bool,
    pub right: String,
    /// Optional bound on the gap (nanoseconds): gap in `[lo, hi]`.
    pub gap: Option<(i64, i64)>,
    /// Symmetric (`within`) semantics: |gap| constrained, no order.
    pub within: bool,
}

/// Property comparison across two bound variables (node or edge).
#[derive(Debug, Clone)]
pub struct CrossPred {
    pub left_var: String,
    pub left_prop: String,
    pub op: POp,
    pub right_var: String,
    pub right_prop: String,
}

/// Match statistics (for the evaluation's cost accounting).
#[derive(Debug, Default, Clone, Copy)]
pub struct MatchStats {
    /// Bindings considered across all steps.
    pub expansions: u64,
    /// Result rows produced.
    pub rows: u64,
}

/// A full pattern query.
#[derive(Debug, Clone)]
pub struct PatternQuery {
    pub triples: Vec<Triple>,
    pub temporal: Vec<TempConstraint>,
    pub cross: Vec<CrossPred>,
    /// Projection: (variable, property) pairs; a property of `"id"` projects
    /// the internal node/edge ID.
    pub returns: Vec<(String, String)>,
}

/// Error type for pattern matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The deadline elapsed.
    Timeout,
    /// The query references an unbound variable.
    Unbound(String),
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::Timeout => write!(f, "pattern match exceeded its deadline"),
            MatchError::Unbound(v) => write!(f, "unbound variable: {v}"),
        }
    }
}

impl std::error::Error for MatchError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    Node(NodeId),
    Edge(EdgeId),
}

impl PatternQuery {
    /// A query with the given triples and no extra constraints, returning
    /// every variable's default identity.
    pub fn new(triples: Vec<Triple>) -> PatternQuery {
        let mut returns = Vec::new();
        for t in &triples {
            returns.push((t.src.var.clone(), "id".to_string()));
            returns.push((t.dst.var.clone(), "id".to_string()));
        }
        returns.dedup();
        PatternQuery {
            triples,
            temporal: Vec::new(),
            cross: Vec::new(),
            returns,
        }
    }

    /// Runs the query, returning projected rows.
    pub fn run(
        &self,
        g: &GraphDb,
        deadline: Option<Instant>,
    ) -> Result<Vec<Vec<Value>>, MatchError> {
        self.run_stats(g, deadline).map(|(rows, _)| rows)
    }

    /// Runs the query, also returning match statistics.
    pub fn run_stats(
        &self,
        g: &GraphDb,
        deadline: Option<Instant>,
    ) -> Result<(Vec<Vec<Value>>, MatchStats), MatchError> {
        let mut stats = MatchStats::default();
        let mut out = Vec::new();
        let mut env: BTreeMap<String, Binding> = BTreeMap::new();
        self.dfs(g, 0, &mut env, &mut out, &mut stats, deadline)?;
        stats.rows = out.len() as u64;
        Ok((out, stats))
    }

    fn dfs(
        &self,
        g: &GraphDb,
        step: usize,
        env: &mut BTreeMap<String, Binding>,
        out: &mut Vec<Vec<Value>>,
        stats: &mut MatchStats,
        deadline: Option<Instant>,
    ) -> Result<(), MatchError> {
        if stats.expansions & 0xFFF == 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(MatchError::Timeout);
                }
            }
        }
        if step == self.triples.len() {
            out.push(self.project(g, env)?);
            return Ok(());
        }
        let t = &self.triples[step];
        let src_bound = env.get(&t.src.var).copied();
        let dst_bound = env.get(&t.dst.var).copied();

        // Candidate edges for this step.
        let candidates: Vec<EdgeId> = match (src_bound, dst_bound) {
            (Some(Binding::Node(s)), _) => g.out_edges(s).to_vec(),
            (None, Some(Binding::Node(d))) => g.in_edges(d).to_vec(),
            (None, None) => {
                // Enumerate source nodes: index if an equality predicate has
                // one, else label scan — then their outgoing edges.
                let srcs = self.candidate_nodes(g, &t.src);
                let mut es = Vec::new();
                for s in srcs {
                    es.extend_from_slice(g.out_edges(s));
                }
                es
            }
            (Some(Binding::Edge(_)), _) | (None, Some(Binding::Edge(_))) => {
                return Err(MatchError::Unbound(format!(
                    "variable {} bound to an edge, used as a node",
                    t.src.var
                )))
            }
        };

        for e in candidates {
            stats.expansions += 1;
            let edge = g.edge(e);
            if !t.edge.admits(g, e) {
                continue;
            }
            // Endpoint checks (label + predicates + variable consistency).
            if let Some(Binding::Node(s)) = src_bound {
                if edge.src != s {
                    continue;
                }
            } else if !t.src.admits(g, edge.src) {
                continue;
            }
            if let Some(b) = dst_bound {
                if b != Binding::Node(edge.dst) {
                    continue;
                }
            } else if !t.dst.admits(g, edge.dst) {
                continue;
            }
            // Same variable for src and dst means a self-loop.
            if t.src.var == t.dst.var && edge.src != edge.dst {
                continue;
            }

            // Tentatively bind.
            let mut added = Vec::new();
            if src_bound.is_none() {
                env.insert(t.src.var.clone(), Binding::Node(edge.src));
                added.push(&t.src.var);
            }
            if dst_bound.is_none() && t.src.var != t.dst.var {
                env.insert(t.dst.var.clone(), Binding::Node(edge.dst));
                added.push(&t.dst.var);
            }
            let had_edge = env.insert(t.edge.var.clone(), Binding::Edge(e));

            if self.constraints_hold(g, env) {
                self.dfs(g, step + 1, env, out, stats, deadline)?;
            }

            // Unbind.
            match had_edge {
                Some(b) => {
                    env.insert(t.edge.var.clone(), b);
                }
                None => {
                    env.remove(&t.edge.var);
                }
            }
            for v in added {
                env.remove(v);
            }
        }
        Ok(())
    }

    fn candidate_nodes(&self, g: &GraphDb, np: &NodePat) -> Vec<NodeId> {
        for p in &np.preds {
            if let Some((prop, value)) = p.as_eq() {
                if let Some(ids) = g.index_lookup(&np.label, prop, value) {
                    return ids.to_vec();
                }
            }
        }
        g.nodes_with_label(&np.label)
            .filter(|&n| np.admits(g, n))
            .collect()
    }

    /// Checks temporal and cross-variable constraints whose variables are
    /// all bound in `env`.
    fn constraints_hold(&self, g: &GraphDb, env: &BTreeMap<String, Binding>) -> bool {
        for tc in &self.temporal {
            let (Some(Binding::Edge(l)), Some(Binding::Edge(r))) =
                (env.get(&tc.left), env.get(&tc.right))
            else {
                continue;
            };
            let (lt, rt) = (g.edge(*l).time, g.edge(*r).time);
            if tc.within {
                let (lo, hi) = tc.gap.unwrap_or((0, 0));
                let gap = (lt - rt).abs();
                if gap < lo || gap > hi {
                    return false;
                }
                continue;
            }
            let (first, second) = if tc.before { (lt, rt) } else { (rt, lt) };
            match tc.gap {
                None => {
                    if first >= second {
                        return false;
                    }
                }
                Some((lo, hi)) => {
                    let gap = second - first;
                    if gap < lo || gap > hi {
                        return false;
                    }
                }
            }
        }
        for cp in &self.cross {
            let (Some(lb), Some(rb)) = (env.get(&cp.left_var), env.get(&cp.right_var)) else {
                continue;
            };
            let lv = binding_prop(g, *lb, &cp.left_prop);
            let rv = binding_prop(g, *rb, &cp.right_prop);
            if lv.is_null() || rv.is_null() || !cp.op.eval(&lv, &rv) {
                return false;
            }
        }
        true
    }

    fn project(
        &self,
        g: &GraphDb,
        env: &BTreeMap<String, Binding>,
    ) -> Result<Vec<Value>, MatchError> {
        self.returns
            .iter()
            .map(|(var, prop)| {
                let b = env
                    .get(var)
                    .ok_or_else(|| MatchError::Unbound(var.clone()))?;
                Ok(binding_prop(g, *b, prop))
            })
            .collect()
    }
}

fn binding_prop(g: &GraphDb, b: Binding, prop: &str) -> Value {
    match b {
        Binding::Node(n) => match prop {
            "id" => Value::Int(n as i64),
            _ => g.node(n).props.get(prop).cloned().unwrap_or(Value::Null),
        },
        Binding::Edge(e) => match prop {
            "id" => Value::Int(e as i64),
            "time" => Value::Int(g.edge(e).time),
            "label" | "optype" => Value::str(g.edge(e).label.clone()),
            _ => g.edge(e).props.get(prop).cloned().unwrap_or(Value::Null),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// bash --start--> vim --write--> /tmp/x ; sshd --read--> /etc/passwd
    fn graph() -> GraphDb {
        let mut g = GraphDb::new();
        let bash = g.add_node("proc", vec![("exe_name", Value::str("bash"))]);
        let vim = g.add_node("proc", vec![("exe_name", Value::str("vim"))]);
        let tmp = g.add_node("file", vec![("name", Value::str("/tmp/x"))]);
        let sshd = g.add_node("proc", vec![("exe_name", Value::str("sshd"))]);
        let passwd = g.add_node("file", vec![("name", Value::str("/etc/passwd"))]);
        g.add_edge(bash, vim, "start", 10, vec![]);
        g.add_edge(vim, tmp, "write", 20, vec![]);
        g.add_edge(sshd, passwd, "read", 5, vec![]);
        g
    }

    fn triple(sv: &str, sl: &str, ev: &str, ops: &[&str], dv: &str, dl: &str) -> Triple {
        Triple {
            src: NodePat::with_var(sv, sl, vec![]),
            edge: EdgePat::new(ev, ops, vec![]),
            dst: NodePat::with_var(dv, dl, vec![]),
        }
    }

    #[test]
    fn connected_path_match() {
        let g = graph();
        let q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["start"], "p2", "proc"),
            triple("p2", "proc", "e2", &["write"], "f", "file"),
        ]);
        let rows = q.run(&g, None).unwrap();
        assert_eq!(rows.len(), 1);
        // Returns p1, p2, f ids (deduped).
        assert_eq!(rows[0], vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn property_predicates_filter() {
        let g = graph();
        let q = PatternQuery::new(vec![Triple {
            src: NodePat::with_var("p", "proc", vec![PropPred::like("exe_name", "ssh%")]),
            edge: EdgePat::new("e", &["read"], vec![]),
            dst: NodePat::with_var("f", "file", vec![PropPred::like("name", "%passwd")]),
        }]);
        assert_eq!(q.run(&g, None).unwrap().len(), 1);

        let q = PatternQuery::new(vec![Triple {
            src: NodePat::with_var("p", "proc", vec![PropPred::eq("exe_name", "bash")]),
            edge: EdgePat::new("e", &["read"], vec![]),
            dst: NodePat::with_var("f", "file", vec![]),
        }]);
        assert!(q.run(&g, None).unwrap().is_empty());
    }

    #[test]
    fn disconnected_patterns_cartesian_with_temporal() {
        let g = graph();
        // Two disconnected steps related only by time: read before start.
        let mut q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["read"], "f1", "file"),
            triple("p2", "proc", "e2", &["start"], "p3", "proc"),
        ]);
        q.temporal.push(TempConstraint {
            left: "e1".into(),
            before: true,
            right: "e2".into(),
            gap: None,
            within: false,
        });
        assert_eq!(q.run(&g, None).unwrap().len(), 1);

        // Flipping the order eliminates the match.
        q.temporal[0].before = false;
        assert!(q.run(&g, None).unwrap().is_empty());
    }

    #[test]
    fn temporal_gap_bounds() {
        let g = graph();
        let mut q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["start"], "p2", "proc"),
            triple("p2", "proc", "e2", &["write"], "f", "file"),
        ]);
        q.temporal.push(TempConstraint {
            left: "e1".into(),
            before: true,
            right: "e2".into(),
            gap: Some((5, 15)),
            within: false,
        });
        assert_eq!(q.run(&g, None).unwrap().len(), 1, "gap is 10");
        q.temporal[0].gap = Some((11, 20));
        assert!(q.run(&g, None).unwrap().is_empty());
    }

    #[test]
    fn within_gap_is_symmetric() {
        let g = graph();
        // start at t=10, write at t=20: |gap| = 10.
        let mut q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["write"], "f", "file"),
            triple("p2", "proc", "e2", &["start"], "p1", "proc"),
        ]);
        q.temporal.push(TempConstraint {
            left: "e1".into(),
            before: true,
            right: "e2".into(),
            gap: Some((5, 15)),
            within: true,
        });
        assert_eq!(q.run(&g, None).unwrap().len(), 1, "within ignores order");
        q.temporal[0].gap = Some((11, 15));
        assert!(
            q.run(&g, None).unwrap().is_empty(),
            "gap 10 below lower bound"
        );
    }

    #[test]
    fn cross_variable_property_comparison() {
        let mut g = GraphDb::new();
        let a = g.add_node(
            "proc",
            vec![("exe_name", Value::str("x")), ("user", Value::str("root"))],
        );
        let b = g.add_node(
            "proc",
            vec![("exe_name", Value::str("y")), ("user", Value::str("root"))],
        );
        let c = g.add_node(
            "proc",
            vec![("exe_name", Value::str("z")), ("user", Value::str("web"))],
        );
        let f = g.add_node("file", vec![("name", Value::str("f"))]);
        g.add_edge(a, f, "write", 1, vec![]);
        g.add_edge(b, f, "read", 2, vec![]);
        g.add_edge(c, f, "read", 3, vec![]);

        let mut q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["write"], "f1", "file"),
            triple("p2", "proc", "e2", &["read"], "f1", "file"),
        ]);
        q.cross.push(CrossPred {
            left_var: "p1".into(),
            left_prop: "user".into(),
            op: POp::Eq,
            right_var: "p2".into(),
            right_prop: "user".into(),
        });
        let rows = q.run(&g, None).unwrap();
        assert_eq!(rows.len(), 1, "only the root-root pair");
    }

    #[test]
    fn shared_dst_var_constrains() {
        let g = graph();
        // p2 shared: start's dst must equal write's src.
        let q = PatternQuery::new(vec![
            triple("p1", "proc", "e1", &["start"], "p2", "proc"),
            triple("p2", "proc", "e2", &["read"], "f", "file"),
        ]);
        assert!(q.run(&g, None).unwrap().is_empty(), "vim reads nothing");
    }

    #[test]
    fn index_used_for_candidates() {
        let mut g = graph();
        g.create_node_index("proc", "exe_name");
        let q = PatternQuery::new(vec![Triple {
            src: NodePat::with_var("p", "proc", vec![PropPred::eq("exe_name", "bash")]),
            edge: EdgePat::new("e", &[], vec![]),
            dst: NodePat::with_var("q", "proc", vec![]),
        }]);
        let (rows, stats) = q.run_stats(&g, None).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(stats.expansions <= 2, "index narrows candidates");
    }

    #[test]
    fn edge_time_window() {
        let g = graph();
        let mut t = triple("p1", "proc", "e1", &[], "p2", "proc");
        t.edge = t.edge.between(0, 9);
        let q = PatternQuery::new(vec![t]);
        assert!(q.run(&g, None).unwrap().is_empty(), "start is at t=10");
    }

    #[test]
    fn projection_of_props_and_edge_fields() {
        let g = graph();
        let mut q = PatternQuery::new(vec![triple("p1", "proc", "e1", &["start"], "p2", "proc")]);
        q.returns = vec![
            ("p1".into(), "exe_name".into()),
            ("e1".into(), "optype".into()),
            ("e1".into(), "time".into()),
            ("p2".into(), "missing".into()),
        ];
        let rows = q.run(&g, None).unwrap();
        assert_eq!(
            rows[0],
            vec![
                Value::str("bash"),
                Value::str("start"),
                Value::Int(10),
                Value::Null
            ]
        );
    }

    #[test]
    fn timeout_on_blowup() {
        // A dense bipartite graph with two disconnected steps forces a big
        // cartesian expansion; a tiny deadline must abort it.
        let mut g = GraphDb::new();
        let mut procs = Vec::new();
        for i in 0..60 {
            procs.push(g.add_node("proc", vec![("exe_name", Value::str(format!("p{i}")))]));
        }
        let f = g.add_node("file", vec![("name", Value::str("f"))]);
        for day in 0..60 {
            for &p in &procs {
                g.add_edge(p, f, "read", day, vec![]);
            }
        }
        let q = PatternQuery::new(vec![
            triple("a", "proc", "e1", &["read"], "f1", "file"),
            triple("b", "proc", "e2", &["read"], "f2", "file"),
            triple("c", "proc", "e3", &["read"], "f3", "file"),
        ]);
        let deadline = Instant::now() + std::time::Duration::from_millis(1);
        match q.run(&g, Some(deadline)) {
            Err(MatchError::Timeout) => {}
            Ok(rows) => panic!("expected timeout, got {} rows", rows.len()),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
