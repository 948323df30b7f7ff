//! Scalar predicate expressions evaluated over rows.
//!
//! Columns are referenced by *resolved* index into a row layout that the
//! caller's planner establishes (for single-table scans, the table's own
//! layout; for join results, the concatenation of the joined tables'
//! layouts). The AIQL engine builds them from compiled constraints; the SQL
//! baseline (`aiql-baselines`) resolves its parsed names into them.

use aiql_model::{LikePattern, Value};
use std::borrow::Cow;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison under loose (cross-numeric) ordering.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = a.loose_cmp(b);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The flipped operator: `a op b` ⇔ `b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// The literal list of an `IN` predicate, prepared once for any number of
/// membership tests: sorted under [`Value::loose_cmp`] (ties in the strict
/// order) with exact duplicates removed, so [`InList::contains`] is a
/// binary search that agrees with `any(loose_eq)` over the list as written.
#[derive(Debug, Clone, PartialEq)]
pub struct InList {
    values: Vec<Value>,
}

impl InList {
    /// Prepares `values`.
    pub fn new(mut values: Vec<Value>) -> InList {
        values.sort_by(|a, b| a.loose_cmp(b).then_with(|| a.cmp(b)));
        values.dedup();
        InList { values }
    }

    /// The distinct values, in loose order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Whether some listed value loosely equals `v`.
    pub fn contains(&self, v: &Value) -> bool {
        self.values.binary_search_by(|x| x.loose_cmp(v)).is_ok()
    }
}

impl From<Vec<Value>> for InList {
    fn from(values: Vec<Value>) -> InList {
        InList::new(values)
    }
}

/// A resolved predicate expression over a row.
///
/// Constant operands are held in prepared form — a compiled
/// [`LikePattern`], a sorted [`InList`] — so building an `Expr` once per
/// scan is what makes its per-row evaluation allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by resolved position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Binary comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// SQL LIKE with `%` wildcards over a column/expression.
    Like(Box<Expr>, LikePattern),
    /// Negated LIKE.
    NotLike(Box<Expr>, LikePattern),
    /// Membership in a literal list.
    In(Box<Expr>, InList),
    /// Negated membership.
    NotIn(Box<Expr>, InList),
    /// NULL test.
    IsNull(Box<Expr>),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Numeric addition (for temporal-offset predicates).
    Add(Box<Expr>, Box<Expr>),
    /// Numeric subtraction.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: `col op lit`.
    pub fn cmp_lit(col: usize, op: CmpOp, lit: impl Into<Value>) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Col(col)),
            Box::new(Expr::Lit(lit.into())),
        )
    }

    /// Convenience: `col LIKE pattern`.
    pub fn like(col: usize, pattern: impl Into<String>) -> Expr {
        Expr::Like(Box::new(Expr::Col(col)), LikePattern::new(pattern))
    }

    /// Convenience: `col IN (values)`.
    pub fn in_list(col: usize, values: Vec<Value>) -> Expr {
        Expr::In(Box::new(Expr::Col(col)), InList::new(values))
    }

    /// The value of an operand, borrowed when it is a column or a literal
    /// (the shapes every scan conjunct has).
    fn operand<'a>(&'a self, row: &'a [Value]) -> Cow<'a, Value> {
        match self {
            Expr::Col(i) => row.get(*i).map_or(Cow::Owned(Value::Null), Cow::Borrowed),
            Expr::Lit(v) => Cow::Borrowed(v),
            other => Cow::Owned(other.value(row)),
        }
    }

    /// Evaluates the expression as a scalar value against `row`.
    pub fn value(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row.get(*i).cloned().unwrap_or(Value::Null),
            Expr::Lit(v) => v.clone(),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                let (av, bv) = (a.value(row), b.value(row));
                match (av, bv) {
                    (Value::Int(x), Value::Int(y)) => {
                        if matches!(self, Expr::Add(..)) {
                            Value::Int(x.saturating_add(y))
                        } else {
                            Value::Int(x.saturating_sub(y))
                        }
                    }
                    (x, y) => match (x.as_f64(), y.as_f64()) {
                        (Some(a), Some(b)) => Value::Float(if matches!(self, Expr::Add(..)) {
                            a + b
                        } else {
                            a - b
                        }),
                        _ => Value::Null,
                    },
                }
            }
            other => Value::Bool(other.matches(row)),
        }
    }

    /// Evaluates the expression as a boolean predicate against `row`.
    ///
    /// Comparisons involving NULL are false (SQL-style three-valued logic
    /// collapsed to false), except `IsNull`.
    pub fn matches(&self, row: &[Value]) -> bool {
        match self {
            Expr::Col(i) => matches!(row.get(*i), Some(Value::Bool(true))),
            Expr::Lit(v) => matches!(v, Value::Bool(true)),
            Expr::Cmp(op, a, b) => {
                let (av, bv) = (a.operand(row), b.operand(row));
                if av.is_null() || bv.is_null() {
                    return false;
                }
                op.eval(&av, &bv)
            }
            Expr::Like(e, pat) => pat.matches_value(&e.operand(row)),
            Expr::NotLike(e, pat) => {
                let v = e.operand(row);
                !v.is_null() && !pat.matches_value(&v)
            }
            Expr::In(e, list) => {
                let v = e.operand(row);
                !v.is_null() && list.contains(&v)
            }
            Expr::NotIn(e, list) => {
                let v = e.operand(row);
                !v.is_null() && !list.contains(&v)
            }
            Expr::IsNull(e) => e.operand(row).is_null(),
            Expr::And(es) => es.iter().all(|e| e.matches(row)),
            Expr::Or(es) => es.iter().any(|e| e.matches(row)),
            Expr::Not(e) => !e.matches(row),
            Expr::Add(..) | Expr::Sub(..) => false,
        }
    }

    /// Splits a conjunction into its top-level conjuncts.
    pub fn into_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(es) => es.into_iter().flat_map(Expr::into_conjuncts).collect(),
            other => vec![other],
        }
    }

    /// Conjunction of `exprs`, simplifying the empty and singleton cases.
    pub fn conjunction(mut exprs: Vec<Expr>) -> Expr {
        match exprs.len() {
            0 => Expr::Lit(Value::Bool(true)),
            1 => exprs.pop().expect("len checked"),
            _ => Expr::And(exprs),
        }
    }

    /// All column positions referenced by this expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.columns(out);
                b.columns(out);
            }
            Expr::Like(e, _)
            | Expr::NotLike(e, _)
            | Expr::In(e, _)
            | Expr::NotIn(e, _)
            | Expr::IsNull(e)
            | Expr::Not(e) => e.columns(out),
            Expr::And(es) | Expr::Or(es) => es.iter().for_each(|e| e.columns(out)),
        }
    }

    /// Rewrites every column index through `f` (used to shift expressions
    /// onto concatenated join layouts).
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                Expr::Cmp(*op, Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Expr::Like(e, p) => Expr::Like(Box::new(e.map_columns(f)), p.clone()),
            Expr::NotLike(e, p) => Expr::NotLike(Box::new(e.map_columns(f)), p.clone()),
            Expr::In(e, l) => Expr::In(Box::new(e.map_columns(f)), l.clone()),
            Expr::NotIn(e, l) => Expr::NotIn(Box::new(e.map_columns(f)), l.clone()),
            Expr::IsNull(e) => Expr::IsNull(Box::new(e.map_columns(f))),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.map_columns(f)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.map_columns(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::Add(a, b) => Expr::Add(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.map_columns(f)), Box::new(b.map_columns(f))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![Value::Int(5), Value::str("cmd.exe"), Value::Null]
    }

    #[test]
    fn cmp_ops() {
        let r = row();
        assert!(Expr::cmp_lit(0, CmpOp::Eq, 5i64).matches(&r));
        assert!(Expr::cmp_lit(0, CmpOp::Lt, 6i64).matches(&r));
        assert!(Expr::cmp_lit(0, CmpOp::Ge, 5i64).matches(&r));
        assert!(!Expr::cmp_lit(0, CmpOp::Ne, 5i64).matches(&r));
        // NULL comparisons are false.
        assert!(!Expr::cmp_lit(2, CmpOp::Eq, 0i64).matches(&r));
        assert!(!Expr::cmp_lit(2, CmpOp::Ne, 0i64).matches(&r));
        assert!(Expr::IsNull(Box::new(Expr::Col(2))).matches(&r));
    }

    #[test]
    fn cmp_flip_is_involutive_and_correct() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            let a = Value::Int(1);
            let b = Value::Int(2);
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
        }
    }

    #[test]
    fn like_and_in() {
        let r = row();
        assert!(Expr::like(1, "%cmd%").matches(&r));
        assert!(!Expr::like(1, "%powershell%").matches(&r));
        assert!(Expr::NotLike(Box::new(Expr::Col(1)), LikePattern::new("%sh%")).matches(&r));
        assert!(Expr::in_list(0, vec![Value::Int(4), Value::Int(5)]).matches(&r));
        assert!(Expr::NotIn(Box::new(Expr::Col(0)), vec![Value::Int(4)].into()).matches(&r));
        // NULL is in nothing and not-in nothing.
        assert!(!Expr::in_list(2, vec![Value::Null]).matches(&r));
        assert!(!Expr::NotIn(Box::new(Expr::Col(2)), vec![Value::Int(1)].into()).matches(&r));
    }

    #[test]
    fn in_list_membership_is_loose_equality_over_the_list() {
        let written = vec![
            Value::Int(7),
            Value::Float(2.0),
            Value::str("x"),
            Value::Int(2),
            Value::Int(7),
            Value::Bool(true),
            Value::Float(f64::NAN),
            Value::Int(i64::MAX),
        ];
        let list = InList::new(written.clone());
        assert_eq!(list.values().len(), 7, "only the exact duplicate goes");
        for probe in [
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(7.0),
            Value::Float(7.5),
            Value::Int(3),
            Value::str("x"),
            Value::str("X"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Float(f64::NAN),
            // Two Ints compare exactly: neighbours stay apart.
            Value::Int(i64::MAX - 1),
            Value::Null,
        ] {
            assert_eq!(
                list.contains(&probe),
                written.iter().any(|x| x.loose_eq(&probe)),
                "{probe:?}"
            );
        }
        assert!(!InList::new(Vec::new()).contains(&Value::Int(0)));
    }

    #[test]
    fn boolean_connectives() {
        let r = row();
        let t = Expr::cmp_lit(0, CmpOp::Eq, 5i64);
        let f = Expr::cmp_lit(0, CmpOp::Eq, 6i64);
        assert!(Expr::And(vec![t.clone(), t.clone()]).matches(&r));
        assert!(!Expr::And(vec![t.clone(), f.clone()]).matches(&r));
        assert!(Expr::Or(vec![f.clone(), t.clone()]).matches(&r));
        assert!(!Expr::Or(vec![f.clone(), f.clone()]).matches(&r));
        assert!(Expr::Not(Box::new(f)).matches(&r));
    }

    #[test]
    fn conjunct_flattening() {
        let e = Expr::And(vec![
            Expr::And(vec![
                Expr::cmp_lit(0, CmpOp::Eq, 1i64),
                Expr::cmp_lit(0, CmpOp::Eq, 2i64),
            ]),
            Expr::cmp_lit(0, CmpOp::Eq, 3i64),
        ]);
        assert_eq!(e.into_conjuncts().len(), 3);
        assert!(
            Expr::conjunction(vec![]).matches(&row()),
            "empty conjunction is true"
        );
    }

    #[test]
    fn arithmetic_operands() {
        let r = vec![Value::Int(100), Value::Int(40)];
        let e = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Col(0)),
            Box::new(Expr::Add(
                Box::new(Expr::Col(1)),
                Box::new(Expr::Lit(Value::Int(60))),
            )),
        );
        assert!(e.matches(&r), "100 >= 40 + 60");
        let e = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Sub(Box::new(Expr::Col(0)), Box::new(Expr::Col(1)))),
            Box::new(Expr::Lit(Value::Int(59))),
        );
        assert!(e.matches(&r), "100 - 40 > 59");
        // Arithmetic is not a boolean predicate.
        assert!(!Expr::Add(Box::new(Expr::Col(0)), Box::new(Expr::Col(1))).matches(&r));
    }

    #[test]
    fn column_collection_and_mapping() {
        let e = Expr::And(vec![Expr::cmp_lit(1, CmpOp::Eq, 0i64), Expr::like(2, "%")]);
        let mut cols = vec![];
        e.columns(&mut cols);
        cols.sort();
        assert_eq!(cols, vec![1, 2]);
        let shifted = e.map_columns(&|i| i + 10);
        let mut cols2 = vec![];
        shifted.columns(&mut cols2);
        cols2.sort();
        assert_eq!(cols2, vec![11, 12]);
    }
}
