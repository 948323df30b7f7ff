//! Query contexts: the validated, shortcut-expanded object abstraction that
//! the execution engine consumes (paper Sec. 2, "query context").

use crate::ast::{AggFunc, CmpOp, MaKind, TempKind};
use aiql_model::{EntityKind, LikePattern, OpType, Value};

/// Which part of an event pattern a field reference addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldTarget {
    Subject,
    Object,
    Event,
}

/// A resolved field reference: pattern index, target, attribute name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldRef {
    pub pattern: usize,
    pub target: FieldTarget,
    pub attr: String,
}

/// A normalized attribute constraint (attribute names resolved, shortcuts
/// expanded, `%`-values turned into LIKE patterns).
#[derive(Debug, Clone, PartialEq)]
pub enum CstrNode {
    Cmp {
        attr: String,
        op: CmpOp,
        value: Value,
    },
    Like {
        attr: String,
        pattern: LikePattern,
        neg: bool,
    },
    In {
        attr: String,
        neg: bool,
        values: Vec<Value>,
    },
    And(Vec<CstrNode>),
    Or(Vec<CstrNode>),
    Not(Box<CstrNode>),
}

impl CstrNode {
    /// Number of atomic constraints — the basis of the pruning score
    /// (paper Algorithm 1, step 1).
    pub fn atom_count(&self) -> u32 {
        match self {
            CstrNode::Cmp { .. } | CstrNode::Like { .. } | CstrNode::In { .. } => 1,
            CstrNode::And(cs) | CstrNode::Or(cs) => cs.iter().map(CstrNode::atom_count).sum(),
            CstrNode::Not(c) => c.atom_count(),
        }
    }

    /// Evaluates against an attribute lookup function.
    pub fn eval(&self, get: &impl Fn(&str) -> Value) -> bool {
        match self {
            CstrNode::Cmp { attr, op, value } => {
                let v = get(attr);
                if v.is_null() {
                    return false;
                }
                let ord = v.loose_cmp(value);
                match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                }
            }
            CstrNode::Like { attr, pattern, neg } => {
                let v = get(attr);
                if v.is_null() {
                    return false;
                }
                pattern.matches_value(&v) != *neg
            }
            CstrNode::In { attr, neg, values } => {
                let v = get(attr);
                if v.is_null() {
                    return false;
                }
                values.iter().any(|x| x.loose_eq(&v)) != *neg
            }
            CstrNode::And(cs) => cs.iter().all(|c| c.eval(get)),
            CstrNode::Or(cs) => cs.iter().any(|c| c.eval(get)),
            CstrNode::Not(c) => !c.eval(get),
        }
    }
}

/// One analyzed event pattern.
#[derive(Debug, Clone)]
pub struct PatternCtx {
    /// Position in the query (0-based).
    pub idx: usize,
    /// Event variable (`as evt1`), if named.
    pub evt_var: Option<String>,
    /// Subject entity variable, if named.
    pub subj_var: Option<String>,
    /// Object entity variable, if named.
    pub obj_var: Option<String>,
    /// Kind of the object entity (subjects are always processes).
    pub object_kind: EntityKind,
    /// The set of operation types this pattern admits.
    pub ops: Vec<OpType>,
    /// Normalized subject constraints.
    pub subj_cstr: Vec<CstrNode>,
    /// Normalized object constraints.
    pub obj_cstr: Vec<CstrNode>,
    /// Normalized event constraints (`as evt[...]`).
    pub evt_cstr: Vec<CstrNode>,
    /// Effective time window [lo, hi) in nanoseconds (global ∩ pattern).
    pub window: Option<(i64, i64)>,
    /// Effective agent filter (global ∩ pattern-level `agentid` constraints).
    pub agents: Option<Vec<i64>>,
    /// Pruning score: the number of constraints specified (Algorithm 1).
    pub score: u32,
}

/// An analyzed relationship between two event patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum RelationCtx {
    /// Attribute relationship `left op right`.
    Attr {
        left: FieldRef,
        op: CmpOp,
        right: FieldRef,
    },
    /// Temporal relationship between patterns `left` and `right` with an
    /// optional gap range in nanoseconds.
    Temporal {
        left: usize,
        kind: TempKind,
        range_ns: Option<(i64, i64)>,
        right: usize,
    },
}

impl RelationCtx {
    /// The two pattern indexes a relationship connects.
    pub fn endpoints(&self) -> (usize, usize) {
        match self {
            RelationCtx::Attr { left, right, .. } => (left.pattern, right.pattern),
            RelationCtx::Temporal { left, right, .. } => (*left, *right),
        }
    }
}

/// A return-clause item after resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct RetItemCtx {
    /// Output column name (rename, or derived from the reference).
    pub name: String,
    pub expr: RetExprCtx,
}

/// Resolved return expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum RetExprCtx {
    Field(FieldRef),
    Agg {
        func: AggFunc,
        distinct: bool,
        arg: FieldRef,
    },
}

/// The resolved return clause.
#[derive(Debug, Clone, Default)]
pub struct ReturnCtx {
    pub count: bool,
    pub distinct: bool,
    pub items: Vec<RetItemCtx>,
}

/// Sliding-window specification for anomaly queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlideSpec {
    pub window_ns: i64,
    pub step_ns: i64,
}

/// Resolved `having` expressions (references point at return items).
#[derive(Debug, Clone, PartialEq)]
pub enum HavingCtx {
    Cmp {
        op: CmpOp,
        left: ArithCtx,
        right: ArithCtx,
    },
    And(Box<HavingCtx>, Box<HavingCtx>),
    Or(Box<HavingCtx>, Box<HavingCtx>),
    Not(Box<HavingCtx>),
}

/// Resolved arithmetic over return items, history states, moving averages.
#[derive(Debug, Clone, PartialEq)]
pub enum ArithCtx {
    Num(f64),
    /// Current value of return item `i`.
    Item(usize),
    /// Value of return item `i`, `back` windows ago.
    Hist {
        item: usize,
        back: usize,
    },
    /// Moving average of return item `i` over the window history.
    MovAvg {
        kind: MaKind,
        item: usize,
        param: f64,
    },
    Add(Box<ArithCtx>, Box<ArithCtx>),
    Sub(Box<ArithCtx>, Box<ArithCtx>),
    Mul(Box<ArithCtx>, Box<ArithCtx>),
    Div(Box<ArithCtx>, Box<ArithCtx>),
    Neg(Box<ArithCtx>),
}

impl HavingCtx {
    /// Whether the expression uses history states or moving averages.
    pub fn uses_history(&self) -> bool {
        match self {
            HavingCtx::Cmp { left, right, .. } => left.uses_history() || right.uses_history(),
            HavingCtx::And(a, b) | HavingCtx::Or(a, b) => a.uses_history() || b.uses_history(),
            HavingCtx::Not(e) => e.uses_history(),
        }
    }
}

impl ArithCtx {
    fn uses_history(&self) -> bool {
        match self {
            ArithCtx::Hist { .. } | ArithCtx::MovAvg { .. } => true,
            ArithCtx::Add(a, b)
            | ArithCtx::Sub(a, b)
            | ArithCtx::Mul(a, b)
            | ArithCtx::Div(a, b) => a.uses_history() || b.uses_history(),
            ArithCtx::Neg(e) => e.uses_history(),
            ArithCtx::Num(_) | ArithCtx::Item(_) => false,
        }
    }
}

/// The kind of analyzed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Plain multievent query (paper Sec. 4.1).
    Multievent,
    /// Anomaly query: multievent + sliding window (paper Sec. 4.3).
    Anomaly,
    /// Dependency query, compiled to multievent form (paper Sec. 4.2).
    Dependency,
}

/// The complete, validated query context handed to the execution engine.
#[derive(Debug, Clone)]
pub struct QueryContext {
    pub kind: QueryKind,
    pub patterns: Vec<PatternCtx>,
    pub relations: Vec<RelationCtx>,
    pub ret: ReturnCtx,
    /// Group-by return item indexes.
    pub group_by: Vec<usize>,
    pub having: Option<HavingCtx>,
    /// Sort keys: (return item index, ascending).
    pub sort_by: Vec<(usize, bool)>,
    pub top: Option<usize>,
    /// Sliding window (anomaly queries only).
    pub slide: Option<SlideSpec>,
    /// Global time window [lo, hi) in nanoseconds.
    pub window: Option<(i64, i64)>,
    /// Global agent filter.
    pub agents: Option<Vec<i64>>,
}

impl QueryContext {
    /// Total constraint count across all patterns (the conciseness metric's
    /// numerator and a sanity check for tests).
    pub fn total_constraints(&self) -> u32 {
        self.patterns.iter().map(|p| p.score).sum::<u32>() + self.relations.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_count_nested() {
        let c = CstrNode::And(vec![
            CstrNode::Like {
                attr: "a".into(),
                pattern: "%x".into(),
                neg: false,
            },
            CstrNode::Or(vec![
                CstrNode::Cmp {
                    attr: "b".into(),
                    op: CmpOp::Eq,
                    value: Value::Int(1),
                },
                CstrNode::Cmp {
                    attr: "b".into(),
                    op: CmpOp::Eq,
                    value: Value::Int(2),
                },
            ]),
        ]);
        assert_eq!(c.atom_count(), 3);
    }

    #[test]
    fn cstr_eval() {
        let get = |attr: &str| match attr {
            "exe_name" => Value::str("cmd.exe"),
            "pid" => Value::Int(42),
            _ => Value::Null,
        };
        assert!(CstrNode::Like {
            attr: "exe_name".into(),
            pattern: "%cmd%".into(),
            neg: false
        }
        .eval(&get));
        assert!(CstrNode::Cmp {
            attr: "pid".into(),
            op: CmpOp::Gt,
            value: Value::Int(10)
        }
        .eval(&get));
        assert!(!CstrNode::Cmp {
            attr: "missing".into(),
            op: CmpOp::Eq,
            value: Value::Int(1)
        }
        .eval(&get));
        assert!(CstrNode::In {
            attr: "pid".into(),
            neg: false,
            values: vec![Value::Int(41), Value::Int(42)]
        }
        .eval(&get));
        assert!(CstrNode::Not(Box::new(CstrNode::Cmp {
            attr: "pid".into(),
            op: CmpOp::Eq,
            value: Value::Int(0)
        }))
        .eval(&get));
    }

    #[test]
    fn history_detection() {
        let h = HavingCtx::Cmp {
            op: CmpOp::Gt,
            left: ArithCtx::Item(0),
            right: ArithCtx::Num(5.0),
        };
        assert!(!h.uses_history());
        let h = HavingCtx::Cmp {
            op: CmpOp::Gt,
            left: ArithCtx::Item(0),
            right: ArithCtx::Hist { item: 0, back: 1 },
        };
        assert!(h.uses_history());
    }
}
