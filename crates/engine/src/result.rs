//! Result assembly: projection, aggregation, `having`, `sort by`, `top`,
//! `distinct`, and `count` over joined tuples.

use crate::error::EngineError;
use crate::layout::Field;
use crate::schedule::Joined;
#[cfg(test)]
use aiql_core::ast::MaKind;
use aiql_core::ast::{AggFunc, CmpOp as AstCmp};
use aiql_core::{ArithCtx, FieldRef, HavingCtx, QueryContext, RetExprCtx};
use aiql_rdb::Value;
use std::collections::HashMap;

/// The final result of an AIQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl std::fmt::Display for EngineResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for r in &self.rows {
            let cells: Vec<String> = r.iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Evaluates a resolved `having`. `leaf` values the items, history states
/// and moving averages it reads; a comparison with a NaN side fails, so a
/// leaf returns NaN for a string item or a history state deeper than the
/// history (arithmetic carries NaN to the comparison).
pub fn eval_having(h: &HavingCtx, leaf: &impl Fn(&ArithCtx) -> f64) -> bool {
    match h {
        HavingCtx::Cmp { op, left, right } => {
            let (a, b) = (eval_arith(left, leaf), eval_arith(right, leaf));
            if a.is_nan() || b.is_nan() {
                return false;
            }
            match op {
                AstCmp::Eq => a == b,
                AstCmp::Ne => a != b,
                AstCmp::Lt => a < b,
                AstCmp::Le => a <= b,
                AstCmp::Gt => a > b,
                AstCmp::Ge => a >= b,
            }
        }
        HavingCtx::And(x, y) => eval_having(x, leaf) && eval_having(y, leaf),
        HavingCtx::Or(x, y) => eval_having(x, leaf) || eval_having(y, leaf),
        HavingCtx::Not(x) => !eval_having(x, leaf),
    }
}

fn eval_arith(a: &ArithCtx, leaf: &impl Fn(&ArithCtx) -> f64) -> f64 {
    match a {
        ArithCtx::Num(n) => *n,
        ArithCtx::Item(_) | ArithCtx::Hist { .. } | ArithCtx::MovAvg { .. } => leaf(a),
        ArithCtx::Add(x, y) => eval_arith(x, leaf) + eval_arith(y, leaf),
        ArithCtx::Sub(x, y) => eval_arith(x, leaf) - eval_arith(y, leaf),
        ArithCtx::Mul(x, y) => eval_arith(x, leaf) * eval_arith(y, leaf),
        ArithCtx::Div(x, y) => eval_arith(x, leaf) / eval_arith(y, leaf),
        ArithCtx::Neg(x) => -eval_arith(x, leaf),
    }
}

/// Evaluates a resolved `having` without history (multievent queries; the
/// analyzer rejects history states there).
pub fn eval_having_simple(h: &HavingCtx, items: &[Value]) -> bool {
    eval_having(h, &|a| match a {
        ArithCtx::Item(i) => items[*i].as_f64().unwrap_or(f64::NAN),
        _ => f64::NAN,
    })
}

/// A return item resolved to a field of its pattern's matches.
pub(crate) enum Item {
    Field {
        pattern: usize,
        field: Field,
    },
    Agg {
        func: AggFunc,
        distinct: bool,
        pattern: usize,
        field: Field,
    },
}

/// Resolves the return clause's items, with their names.
pub(crate) fn resolve_items(ctx: &QueryContext) -> Result<Vec<(Item, String)>, EngineError> {
    let field = |f: &FieldRef| Field::resolve(f, ctx.patterns[f.pattern].object_kind);
    ctx.ret
        .items
        .iter()
        .map(|it| {
            let item = match &it.expr {
                RetExprCtx::Field(f) => Item::Field {
                    pattern: f.pattern,
                    field: field(f)?,
                },
                RetExprCtx::Agg {
                    func,
                    distinct,
                    arg,
                } => Item::Agg {
                    func: *func,
                    distinct: *distinct,
                    pattern: arg.pattern,
                    field: field(arg)?,
                },
            };
            Ok((item, it.name.clone()))
        })
        .collect()
}

/// Aggregate accumulator of one group.
#[derive(Debug, Default, Clone)]
pub struct Accum {
    pub count: u64,
    pub sum: f64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub distinct: std::collections::HashSet<Value>,
}

impl Accum {
    /// Folds one value in.
    pub fn update(&mut self, v: &Value, need_distinct: bool) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        if need_distinct {
            self.distinct.insert(v.clone());
        }
    }

    /// Final aggregate value. Empty accumulators yield 0 for counts/sums
    /// and NULL for avg/min/max.
    pub fn result(&self, func: AggFunc, distinct: bool) -> Value {
        match func {
            AggFunc::Count => Value::Int(if distinct {
                self.distinct.len() as i64
            } else {
                self.count as i64
            }),
            AggFunc::Sum => {
                if distinct {
                    Value::Float(self.distinct.iter().filter_map(Value::as_f64).sum())
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if distinct {
                    if self.distinct.is_empty() {
                        Value::Null
                    } else {
                        let s: f64 = self.distinct.iter().filter_map(Value::as_f64).sum();
                        Value::Float(s / self.distinct.len() as f64)
                    }
                } else if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Moving-average computation over a value history (latest value last,
/// including the current window): the definition the anomaly executor's
/// ring and running averages reproduce, and their tests' oracle.
#[cfg(test)]
pub fn moving_average(kind: MaKind, history: &[f64], param: f64) -> f64 {
    if history.is_empty() {
        return f64::NAN;
    }
    match kind {
        MaKind::Sma => {
            let n = (param as usize).max(1).min(history.len());
            let tail = &history[history.len() - n..];
            tail.iter().sum::<f64>() / n as f64
        }
        MaKind::Cma => history.iter().sum::<f64>() / history.len() as f64,
        MaKind::Wma => {
            let n = (param as usize).max(1).min(history.len());
            let tail = &history[history.len() - n..];
            let mut num = 0.0;
            let mut den = 0.0;
            for (i, v) in tail.iter().enumerate() {
                let w = (i + 1) as f64;
                num += w * v;
                den += w;
            }
            num / den
        }
        MaKind::Ewma => {
            let alpha = param;
            let mut acc = history[0];
            for v in &history[1..] {
                acc = alpha * acc + (1.0 - alpha) * v;
            }
            acc
        }
    }
}

/// A group's field values (from its first tuple) and aggregate states.
type Group = (Vec<Value>, Vec<Accum>);

/// Projects joined tuples into final result rows, applying the return
/// clause semantics. Values are built only for the returned fields, the
/// group keys and the aggregates' inputs — and none for a plain `count`.
pub fn assemble(ctx: &QueryContext, joined: &Joined) -> Result<EngineResult, EngineError> {
    let items = resolve_items(ctx)?;
    let has_agg = items.iter().any(|(i, _)| matches!(i, Item::Agg { .. }));
    if ctx.ret.count && !ctx.ret.distinct && ctx.having.is_none() && !has_agg {
        let n = joined.tuples.len();
        return Ok(counted(ctx.top.map_or(n, |top| n.min(top))));
    }

    let slots: Vec<usize> = (0..ctx.patterns.len())
        .map(|p| joined.tuples.slot(p).expect("all patterns joined"))
        .collect();
    let value_of = |t: &[u32], item: &Item| match *item {
        Item::Field { pattern, field } | Item::Agg { pattern, field, .. } => {
            joined.matches.of(pattern).get(t[slots[pattern]], field)
        }
    };
    let field_of = |t: &[u32], item: &Item| match item {
        Item::Field { .. } => value_of(t, item),
        Item::Agg { .. } => Value::Null,
    };

    let mut rows: Vec<Vec<Value>> = if has_agg {
        // Group by the `group by` items' values.
        let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();
        let aggs: Vec<(usize, &Item)> = items
            .iter()
            .enumerate()
            .filter(|(_, (i, _))| matches!(i, Item::Agg { .. }))
            .map(|(k, (i, _))| (k, i))
            .collect();
        let mut key = Vec::new();
        for t in joined.tuples.iter() {
            key.clear();
            key.extend(ctx.group_by.iter().map(|&gi| field_of(t, &items[gi].0)));
            let update = |(_, accums): &mut Group| {
                for (accum, (_, item)) in accums.iter_mut().zip(&aggs) {
                    if let Item::Agg { distinct, .. } = item {
                        accum.update(&value_of(t, item), *distinct);
                    }
                }
            };
            match groups.get_mut(key.as_slice()) {
                Some(group) => update(group),
                None => {
                    let fields = items.iter().map(|(i, _)| field_of(t, i));
                    let mut group = (fields.collect(), vec![Accum::default(); aggs.len()]);
                    update(&mut group);
                    groups.insert(key.clone(), group);
                }
            }
        }
        let mut grouped: Vec<_> = groups.into_iter().collect();
        grouped.sort_by(|a, b| a.0.cmp(&b.0));
        grouped
            .into_iter()
            .map(|(_, (mut fields, accums))| {
                for (accum, &(k, item)) in accums.iter().zip(&aggs) {
                    if let Item::Agg { func, distinct, .. } = item {
                        fields[k] = accum.result(*func, *distinct);
                    }
                }
                fields
            })
            .collect()
    } else {
        let row = |t| items.iter().map(|(i, _)| field_of(t, i)).collect();
        joined.tuples.iter().map(row).collect()
    };

    // having (non-window form).
    if let Some(h) = &ctx.having {
        rows.retain(|r| eval_having_simple(h, r));
    }
    finish(ctx, items.iter().map(|(_, n)| n.clone()).collect(), rows)
}

/// The one-row result of a `count`.
fn counted(n: usize) -> EngineResult {
    EngineResult {
        columns: vec!["count".to_string()],
        rows: vec![vec![Value::Int(n as i64)]],
    }
}

/// Applies distinct/sort/top/count and wraps the result (shared by the
/// multievent and anomaly paths).
pub fn finish(
    ctx: &QueryContext,
    columns: Vec<String>,
    mut rows: Vec<Vec<Value>>,
) -> Result<EngineResult, EngineError> {
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
        return Ok(counted(rows.len()));
    }
    Ok(EngineResult { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_results() {
        let mut a = Accum::default();
        for v in [Value::Int(1), Value::Int(3), Value::Int(3), Value::Null] {
            a.update(&v, true);
        }
        assert_eq!(a.result(AggFunc::Count, false), Value::Int(3));
        assert_eq!(a.result(AggFunc::Count, true), Value::Int(2));
        assert_eq!(a.result(AggFunc::Sum, false), Value::Float(7.0));
        assert_eq!(a.result(AggFunc::Min, false), Value::Int(1));
        assert_eq!(a.result(AggFunc::Max, false), Value::Int(3));
        match a.result(AggFunc::Avg, false) {
            Value::Float(x) => assert!((x - 7.0 / 3.0).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
        let empty = Accum::default();
        assert_eq!(empty.result(AggFunc::Count, false), Value::Int(0));
        assert_eq!(empty.result(AggFunc::Avg, false), Value::Null);
    }

    #[test]
    fn moving_averages() {
        let h = [1.0, 2.0, 3.0, 4.0];
        assert!((moving_average(MaKind::Sma, &h, 2.0) - 3.5).abs() < 1e-9);
        assert!(
            (moving_average(MaKind::Sma, &h, 10.0) - 2.5).abs() < 1e-9,
            "clamped to len"
        );
        assert!((moving_average(MaKind::Cma, &h, 0.0) - 2.5).abs() < 1e-9);
        // WMA over last 3: (1*2 + 2*3 + 3*4) / 6 = 20/6.
        assert!((moving_average(MaKind::Wma, &h, 3.0) - 20.0 / 6.0).abs() < 1e-9);
        // EWMA alpha=0.5: ((1*.5+.5*2)*.5+.5*3)*.5+.5*4 = 3.125... compute:
        // 1 → .5+1=1.5 → .75+1.5=2.25 → 1.125+2=3.125.
        assert!((moving_average(MaKind::Ewma, &h, 0.5) - 3.125).abs() < 1e-9);
        assert!(moving_average(MaKind::Sma, &[], 3.0).is_nan());
    }

    #[test]
    fn having_eval() {
        let items = vec![Value::str("p"), Value::Int(10)];
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Item(1),
            right: ArithCtx::Num(5.0),
        };
        assert!(eval_having_simple(&h, &items));
        // String item → NaN → false.
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Item(0),
            right: ArithCtx::Num(5.0),
        };
        assert!(!eval_having_simple(&h, &items));
        // Arithmetic combinators.
        let h = HavingCtx::Cmp {
            op: AstCmp::Eq,
            left: ArithCtx::Div(
                Box::new(ArithCtx::Mul(
                    Box::new(ArithCtx::Item(1)),
                    Box::new(ArithCtx::Num(3.0)),
                )),
                Box::new(ArithCtx::Num(2.0)),
            ),
            right: ArithCtx::Num(15.0),
        };
        assert!(eval_having_simple(&h, &items));
    }
}
