//! Anomaly query execution: sliding time windows, per-group aggregation,
//! history states, and moving averages (paper Sec. 4.3 / 5.1).
//!
//! The engine executes the (single) event pattern once, sorts the matches by
//! event time, then slides a window of `window_ns` by `step_ns`. Windows only
//! move forward, so the per-group aggregates are kept incrementally: each
//! match row enters once (when the window's end passes it) and leaves once
//! (when its start does); rows in a gap between windows (window < step)
//! never enter. A group is tracked from the first window one of its rows
//! enters, and every window then appends the group's aggregates to its
//! *history* — zero aggregates when it is absent, so spikes are measured
//! against true quiet periods — and evaluates the `having` filter, which
//! may reference history states (`freq[1]`) and moving averages
//! (`SMA`/`CMA`/`WMA`/`EWMA`). Groups whose history is shallower than a
//! referenced offset are skipped for that window (no alert before enough
//! history exists). Each window emits its groups in group-key order. The
//! state kept per aggregate and the history's depth: `docs/ARCHITECTURE.md`,
//! "Anomaly windows".

use crate::error::EngineError;
use crate::layout::PatternMatches;
use crate::pattern::{execute_pattern, Deadline, EngineStats};
use crate::result::{eval_having, resolve_items, EngineResult, Item};
use crate::synth::ExtraCstr;
use aiql_core::ast::{AggFunc, MaKind};
use aiql_core::{ArithCtx, HavingCtx, QueryContext};
use aiql_rdb::Value;
use aiql_storage::EventStore;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Executes an anomaly query.
pub fn run_anomaly(
    store: &EventStore,
    ctx: &QueryContext,
    width: usize,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<EngineResult, EngineError> {
    let slide = ctx.slide.expect("anomaly context has a slide spec");
    if ctx.patterns.len() != 1 {
        return Err(EngineError::Unsupported(
            "anomaly queries use a single event pattern".into(),
        ));
    }
    let p = &ctx.patterns[0];
    let items = resolve_items(ctx)?;
    let columns: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();

    // Execute the pattern and sort by time.
    let mut rows = execute_pattern(store, p, &ExtraCstr::default(), width, deadline, stats)?;
    rows.sort_by_start();
    let times = &rows.start;

    // Window span: the global window when present, else the data's extent.
    let (span_lo, span_hi) = match (p.window, times.first(), times.last()) {
        (Some(w), _, _) => w,
        (None, Some(&lo), Some(&hi)) => (lo, hi + 1),
        _ => {
            return Ok(EngineResult {
                columns,
                rows: Vec::new(),
            })
        }
    };

    let having = ctx.having.as_ref();
    let mut state = Windows::new(&rows, &items, ctx);
    let mut out: Vec<Vec<Value>> = Vec::new();
    let (mut prev_lo, mut prev_hi) = (0, 0);
    let mut window_start = span_lo;
    // Guard against degenerate zero-length spans.
    let max_windows = 1 + ((span_hi - span_lo).max(0) / slide.step_ns.max(1));
    let mut wi = 0i64;
    while window_start < span_hi && wi <= max_windows {
        deadline.check()?;
        wi += 1;
        // Matches inside [window_start, window_end) via binary search; the
        // ones the previous window held but this one does not leave, the
        // ones it newly covers enter.
        let lo = times.partition_point(|&t| t < window_start);
        let hi = times.partition_point(|&t| t < window_start + slide.window_ns);
        for r in prev_lo..lo.min(prev_hi) {
            state.update(r, false);
        }
        for r in lo.max(prev_hi)..hi {
            state.update(r, true);
        }
        (prev_lo, prev_hi) = (lo, hi);
        state.emit(having, &mut out);
        window_start += slide.step_ns;
    }
    stats.anomaly_windows += wi as u64;
    stats.anomaly_groups += state.tracked.len() as u64;
    stats.anomaly_rows_entered += state.entered;
    crate::result::finish(ctx, columns, out)
}

/// The window state over time-sorted matches.
struct Windows<'r, 'a> {
    rows: &'r PatternMatches<'a>,
    items: &'r [(Item, String)],
    /// What a newly tracked group's history starts as.
    history: History,
    /// Per row: its group's id (ids ascend in group-key order).
    group_of: Vec<u32>,
    /// Per row and item (stride `items.len()`): for a `distinct`
    /// aggregate's non-NULL input, the id of (item, group, value).
    value_ids: Vec<u32>,
    /// Per (item, group, value) id: the window's rows carrying it.
    refs: Vec<i64>,
    /// Per group id, from the first window one of its rows enters.
    groups: Vec<Option<Group>>,
    /// The tracked group ids, ascending.
    tracked: Vec<u32>,
    /// Scratch: the current window's item values as numbers.
    current: Vec<Option<f64>>,
    entered: u64,
}

/// A tracked group.
struct Group {
    /// The row that registered the group: its field items' values.
    first: usize,
    /// Per return item: a field item's value as a number, read once from
    /// `first` (`None` for an aggregate, and for a field that is none) —
    /// what every window's history records of it.
    numbers: Vec<Option<f64>>,
    /// Per return item (unused for fields).
    aggs: Vec<Agg>,
    history: History,
}

/// One aggregate over a group's rows in the window.
#[derive(Default)]
struct Agg {
    /// The non-NULL inputs, and (`distinct`) the values among them.
    all: Tally,
    distinct: Tally,
    /// `min`/`max`: the rows that can still become the extreme, oldest
    /// first; the front is the extreme.
    extreme: VecDeque<u32>,
}

/// How many values, how many of them numeric, and the numeric ones' sum.
#[derive(Default)]
struct Tally {
    n: i64,
    numeric: i64,
    sum: f64,
}

impl Tally {
    /// Adds (`d` = 1) or removes (`d` = -1) `v`; `x + (-1 · v)` is `x - v`
    /// to the bit.
    fn add(&mut self, v: &Value, d: i64) {
        self.n += d;
        if let Some(x) = v.as_f64() {
            self.numeric += d;
            self.sum += d as f64 * x;
        }
    }
}

impl<'r, 'a> Windows<'r, 'a> {
    fn new(rows: &'r PatternMatches<'a>, items: &'r [(Item, String)], ctx: &QueryContext) -> Self {
        // Intern each row's group key, then renumber the ids in key order.
        let (mut keys, mut key) = (BTreeMap::<Vec<Value>, u32>::new(), Vec::new());
        let mut group_of: Vec<u32> = (0..rows.len() as u32)
            .map(|r| {
                key.clear();
                key.extend(ctx.group_by.iter().map(|&gi| match items[gi].0 {
                    Item::Field { field, .. } => rows.get(r, field),
                    Item::Agg { .. } => Value::Null,
                }));
                let next = keys.len() as u32;
                match keys.get(key.as_slice()) {
                    Some(&id) => id,
                    None => *keys.entry(key.clone()).or_insert(next),
                }
            })
            .collect();
        let mut rank = vec![0; keys.len()];
        for (k, &id) in keys.values().enumerate() {
            rank[id as usize] = k as u32;
        }
        group_of.iter_mut().for_each(|g| *g = rank[*g as usize]);
        let mut ids = HashMap::<(usize, u32, Value), u32>::new();
        let mut value_ids = Vec::with_capacity(rows.len() * items.len());
        for (r, &g) in group_of.iter().enumerate() {
            value_ids.extend(items.iter().enumerate().map(|(k, (item, _))| match *item {
                Item::Agg {
                    distinct: true,
                    field,
                    ..
                } => match rows.get(r as u32, field) {
                    v if v.is_null() => u32::MAX,
                    v => {
                        let next = ids.len() as u32;
                        *ids.entry((k, g, v)).or_insert(next)
                    }
                },
                _ => u32::MAX,
            }));
        }
        Windows {
            rows,
            items,
            history: History::of(ctx.having.as_ref(), items.len()),
            group_of,
            value_ids,
            refs: vec![0; ids.len()],
            groups: (0..keys.len()).map(|_| None).collect(),
            tracked: Vec::new(),
            current: vec![None; items.len()],
            entered: 0,
        }
    }

    /// Folds row `r` into its group's window state (`enter`) or out of it.
    fn update(&mut self, r: usize, enter: bool) {
        let (rows, items, g) = (self.rows, self.items, self.group_of[r]);
        let (tracked, history) = (&mut self.tracked, &self.history);
        let group = self.groups[g as usize].get_or_insert_with(|| {
            tracked.insert(tracked.partition_point(|&t| t < g), g);
            let aggs = items.iter().map(|_| Agg::default()).collect();
            let numbers = items
                .iter()
                .map(|(item, _)| match *item {
                    Item::Field { field, .. } => rows.get(r as u32, field).as_f64(),
                    Item::Agg { .. } => None,
                })
                .collect();
            let history = history.clone();
            Group {
                first: r,
                numbers,
                aggs,
                history,
            }
        });
        self.entered += u64::from(enter);
        let d = if enter { 1 } else { -1 };
        for (k, (item, agg)) in items.iter().zip(&mut group.aggs).enumerate() {
            let Item::Agg {
                func,
                distinct,
                field,
                ..
            } = item.0
            else {
                continue;
            };
            let v = rows.get(r as u32, field);
            if v.is_null() {
                continue;
            }
            agg.all.add(&v, d);
            if distinct {
                let n = &mut self.refs[self.value_ids[r * items.len() + k] as usize];
                *n += d;
                if *n == i64::from(enter) {
                    agg.distinct.add(&v, d);
                }
            }
            if !enter {
                if agg.extreme.front() == Some(&(r as u32)) {
                    agg.extreme.pop_front();
                }
            } else if matches!(func, AggFunc::Min | AggFunc::Max) {
                // A newer row at least as extreme outlives the rows it beats.
                let beaten = match func {
                    AggFunc::Min => Ordering::Greater,
                    _ => Ordering::Less,
                };
                while (agg.extreme.back()).is_some_and(|&b| rows.get(b, field).cmp(&v) == beaten) {
                    agg.extreme.pop_back();
                }
                agg.extreme.push_back(r as u32);
            }
        }
    }

    /// Records the window in every tracked group's history, in key order,
    /// and appends the groups that pass `having` to `out`.
    fn emit(&mut self, having: Option<&HavingCtx>, out: &mut Vec<Vec<Value>>) {
        for &g in &self.tracked {
            let group = self.groups[g as usize]
                .as_mut()
                .expect("tracked groups are registered");
            let (first, rows) = (group.first, self.rows);
            let values = || {
                let items = self.items.iter().zip(&group.aggs);
                items.map(move |((item, _), agg)| agg.value(item, first, rows))
            };
            self.current.clear();
            let items = self.items.iter().zip(&group.aggs).zip(&group.numbers);
            self.current
                .extend(items.map(|(((item, _), agg), &number)| match item {
                    Item::Field { .. } => number,
                    Item::Agg { .. } => agg.value(item, first, rows).as_f64(),
                }));
            group.history.record(&self.current);
            let (current, history) = (&self.current, &group.history);
            let passes = having.is_none_or(|h| {
                eval_having(h, &|a| match *a {
                    ArithCtx::Item(i) => current[i].unwrap_or(f64::NAN),
                    ArithCtx::Hist { item, back } => history.back(item, back).unwrap_or(f64::NAN),
                    ArithCtx::MovAvg { kind, item, param } => history.moving(kind, item, param),
                    _ => f64::NAN,
                })
            });
            if passes {
                out.push(values().collect());
            }
        }
    }
}

impl Agg {
    /// `item`'s value in the current window, `first` being the group's
    /// registering row. Empty windows yield 0 for counts and sums and NULL
    /// for avg/min/max.
    fn value(&self, item: &Item, first: usize, rows: &PatternMatches) -> Value {
        let (func, distinct, field) = match *item {
            Item::Field { field, .. } => return rows.get(first as u32, field),
            Item::Agg {
                func,
                distinct,
                field,
                ..
            } => (func, distinct, field),
        };
        let t = if distinct { &self.distinct } else { &self.all };
        // The sum of no distinct values is `iter::sum`'s, of no values 0.
        let (n, sum) = match (distinct, t.numeric) {
            (true, 0) => (t.n, empty_sum()),
            _ => (t.n, t.sum),
        };
        match func {
            AggFunc::Count => Value::Int(n),
            AggFunc::Sum => Value::Float(sum),
            AggFunc::Avg if n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(sum / n as f64),
            AggFunc::Min | AggFunc::Max => match self.extreme.front() {
                Some(&r) => rows.get(r, field),
                None => Value::Null,
            },
        }
    }
}

/// A group's history, as deep as `having` reads it: the numeric item
/// values (absent ⇒ 0) of the last `depth` windows — a ring of
/// `stride`-wide slots that grows to `depth` slots, then wraps — and the
/// `CMA`/`EWMA` averages as running state, folded as
/// `result::moving_average` folds them so they agree to the bit.
#[derive(Clone)]
struct History {
    stride: usize,
    /// The furthest `x[k]` reads k + 1 windows, `SMA`/`WMA(x, n)` n.
    depth: usize,
    ring: Vec<f64>,
    windows: usize,
    /// `(kind, item, param)` and the CMA's running sum or the EWMA.
    running: Vec<(MaKind, usize, f64, f64)>,
}

impl History {
    /// The empty history `having` needs, `stride` items per window.
    fn of(having: Option<&HavingCtx>, stride: usize) -> History {
        let mut h = History {
            stride,
            depth: 1,
            ring: Vec::new(),
            windows: 0,
            running: Vec::new(),
        };
        let mut visit = |a: &ArithCtx| match *a {
            ArithCtx::Hist { back, .. } => h.depth = h.depth.max(back.saturating_add(1)),
            ArithCtx::MovAvg { kind, item, param } => match kind {
                MaKind::Sma | MaKind::Wma => h.depth = h.depth.max(span(param)),
                _ => h.running.push((kind, item, param, empty_sum())),
            },
            _ => {}
        };
        having.inspect(|e| e.visit_history(&mut visit));
        h
    }

    fn record(&mut self, current: &[Option<f64>]) {
        let at = self.windows % self.depth * self.stride;
        let values = current.iter().map(|v| v.unwrap_or(0.0));
        if at == self.ring.len() {
            self.ring.extend(values);
        } else {
            let slot = &mut self.ring[at..at + self.stride];
            slot.iter_mut().zip(values).for_each(|(s, v)| *s = v);
        }
        for (kind, item, param, acc) in &mut self.running {
            let v = current[*item].unwrap_or(0.0);
            *acc = match kind {
                MaKind::Ewma if self.windows > 0 => *param * *acc + (1.0 - *param) * v,
                MaKind::Ewma => v,
                _ => *acc + v,
            };
        }
        self.windows += 1;
    }

    /// `item`'s value `back` windows ago (0: the current window).
    fn back(&self, item: usize, back: usize) -> Option<f64> {
        let w = (back < self.windows).then(|| self.windows - 1 - back)?;
        Some(self.ring[w % self.depth * self.stride + item])
    }

    /// The running average `kind(item, param)`.
    fn running(&self, kind: MaKind, item: usize, param: f64) -> f64 {
        let key = (kind, item, param.to_bits());
        let found = self
            .running
            .iter()
            .find(|&&(k, i, p, _)| (k, i, p.to_bits()) == key);
        found.map_or(f64::NAN, |r| r.3)
    }

    fn moving(&self, kind: MaKind, item: usize, param: f64) -> f64 {
        let n = span(param).min(self.windows);
        let tail = (0..n).rev().filter_map(|b| self.back(item, b));
        match kind {
            MaKind::Sma => tail.sum::<f64>() / n as f64,
            MaKind::Wma => {
                let (mut num, mut den) = (0.0, 0.0);
                for (i, v) in tail.enumerate() {
                    let w = (i + 1) as f64;
                    num += w * v;
                    den += w;
                }
                num / den
            }
            MaKind::Cma => self.running(kind, item, param) / self.windows as f64,
            MaKind::Ewma => self.running(kind, item, param),
        }
    }
}

/// What `Iterator::sum` of no `f64`s is: where the folds of
/// `Accum::result` and `result::moving_average` start.
fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The windows an `SMA`/`WMA` over `param` windows averages, at most.
fn span(param: f64) -> usize {
    (param as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ScanTarget;
    use crate::result::{moving_average, Accum};
    use aiql_core::ast::CmpOp as AstCmp;
    use aiql_model::{AgentId, Dataset, Entity, EntityKind, Event, OpType, Timestamp};
    use aiql_storage::{EventStore, StoreConfig};

    /// The window loop the incremental executor replaced (re-scan and
    /// re-aggregate every window, full history per group), reading the
    /// matches through their row references, as the oracle of
    /// `incremental_windows_equal_the_reference`.
    fn reference_run_anomaly(
        store: &EventStore,
        ctx: &QueryContext,
        width: usize,
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<EngineResult, EngineError> {
        let slide = ctx.slide.expect("anomaly context has a slide spec");
        let p = &ctx.patterns[0];
        let items = resolve_items(ctx)?;

        let mut m = execute_pattern(store, p, &ExtraCstr::default(), width, deadline, stats)?;
        m.sort_by_start();
        let times = &m.start;

        let (span_lo, span_hi) = match p.window {
            Some(w) => w,
            None => match (times.first(), times.last()) {
                (Some(&lo), Some(&hi)) => (lo, hi + 1),
                _ => {
                    return Ok(EngineResult {
                        columns: items.into_iter().map(|(_, n)| n).collect(),
                        rows: Vec::new(),
                    })
                }
            },
        };

        struct Group {
            fields: Vec<Value>,
            history: Vec<Vec<f64>>,
        }
        let mut groups: BTreeMap<Vec<Value>, Group> = BTreeMap::new();
        let mut out: Vec<Vec<Value>> = Vec::new();

        let mut window_start = span_lo;
        let max_windows = 1 + ((span_hi - span_lo).max(0) / slide.step_ns.max(1));
        let mut wi = 0i64;
        while window_start < span_hi && wi <= max_windows {
            deadline.check()?;
            wi += 1;
            let window_end = window_start + slide.window_ns;
            let lo_idx = times.partition_point(|&t| t < window_start);
            let hi_idx = times.partition_point(|&t| t < window_end);

            let mut window_accums: BTreeMap<Vec<Value>, Vec<Accum>> = BTreeMap::new();
            let agg_count = items
                .iter()
                .filter(|(i, _)| matches!(i, Item::Agg { .. }))
                .count();
            for r in lo_idx as u32..hi_idx as u32 {
                let key: Vec<Value> = ctx
                    .group_by
                    .iter()
                    .map(|&gi| match &items[gi].0 {
                        Item::Field { field, .. } => m.get(r, *field),
                        Item::Agg { .. } => Value::Null,
                    })
                    .collect();
                let accums = window_accums
                    .entry(key.clone())
                    .or_insert_with(|| vec![Accum::default(); agg_count]);
                let mut slot = 0;
                for (item, _) in &items {
                    if let Item::Agg {
                        distinct, field, ..
                    } = item
                    {
                        accums[slot].update(&m.get(r, *field), *distinct);
                        slot += 1;
                    }
                }
                groups.entry(key.clone()).or_insert_with(|| Group {
                    fields: items
                        .iter()
                        .map(|(i, _)| match i {
                            Item::Field { field, .. } => m.get(r, *field),
                            Item::Agg { .. } => Value::Null,
                        })
                        .collect(),
                    history: Vec::new(),
                });
            }

            for (key, group) in groups.iter_mut() {
                let accums = window_accums.remove(key);
                let defaults = vec![Accum::default(); agg_count];
                let accums = accums.unwrap_or(defaults);
                let mut slot = 0;
                let values: Vec<Value> = items
                    .iter()
                    .enumerate()
                    .map(|(k, (item, _))| match item {
                        Item::Field { .. } => group.fields[k].clone(),
                        Item::Agg { func, distinct, .. } => {
                            let v = accums[slot].result(*func, *distinct);
                            slot += 1;
                            v
                        }
                    })
                    .collect();
                let numeric: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
                group.history.push(numeric);

                let passes = match &ctx.having {
                    Some(h) => reference_eval_having(h, &values, &group.history),
                    None => true,
                };
                if passes {
                    out.push(values);
                }
            }

            window_start += slide.step_ns;
        }

        crate::result::finish(ctx, items.into_iter().map(|(_, n)| n).collect(), out)
    }

    fn reference_eval_having(h: &HavingCtx, values: &[Value], history: &[Vec<f64>]) -> bool {
        match h {
            HavingCtx::Cmp { op, left, right } => {
                let (Some(a), Some(b)) = (
                    reference_eval_arith(left, values, history),
                    reference_eval_arith(right, values, history),
                ) else {
                    return false;
                };
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
            HavingCtx::And(x, y) => {
                reference_eval_having(x, values, history)
                    && reference_eval_having(y, values, history)
            }
            HavingCtx::Or(x, y) => {
                reference_eval_having(x, values, history)
                    || reference_eval_having(y, values, history)
            }
            HavingCtx::Not(x) => !reference_eval_having(x, values, history),
        }
    }

    fn reference_eval_arith(a: &ArithCtx, values: &[Value], history: &[Vec<f64>]) -> Option<f64> {
        let arith = |x: &ArithCtx| reference_eval_arith(x, values, history);
        Some(match a {
            ArithCtx::Num(n) => *n,
            ArithCtx::Item(i) => values[*i].as_f64().unwrap_or(f64::NAN),
            ArithCtx::Hist { item, back } => {
                if history.len() <= *back {
                    return None;
                }
                history[history.len() - 1 - back][*item]
            }
            ArithCtx::MovAvg { kind, item, param } => {
                let series: Vec<f64> = history.iter().map(|w| w[*item]).collect();
                moving_average(*kind, &series, *param)
            }
            ArithCtx::Add(x, y) => arith(x)? + arith(y)?,
            ArithCtx::Sub(x, y) => arith(x)? - arith(y)?,
            ArithCtx::Mul(x, y) => arith(x)? * arith(y)?,
            ArithCtx::Div(x, y) => arith(x)? / arith(y)?,
            ArithCtx::Neg(x) => -arith(x)?,
        })
    }

    /// Evaluates `h` the way the executor does, over a one-item history
    /// whose last entry is the current window.
    fn having_over(h: &HavingCtx, series: &[f64]) -> bool {
        let mut history = History::of(Some(h), 1);
        for &x in series {
            history.record(&[Some(x)]);
        }
        eval_having(h, &|a| match *a {
            ArithCtx::Item(_) => series.last().copied().unwrap_or(f64::NAN),
            ArithCtx::Hist { item, back } => history.back(item, back).unwrap_or(f64::NAN),
            ArithCtx::MovAvg { kind, item, param } => history.moving(kind, item, param),
            _ => f64::NAN,
        })
    }

    #[test]
    fn hist_requires_depth() {
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Item(0),
            right: ArithCtx::Hist { item: 0, back: 2 },
        };
        // Only 2 windows recorded: back=2 needs 3.
        assert!(!having_over(&h, &[1.0, 10.0]));
        // 3 windows: compare 10 > 1.
        assert!(having_over(&h, &[1.0, 5.0, 10.0]));
    }

    #[test]
    fn ewma_in_having() {
        // (x - EWMA(x)) / EWMA(x) > 0.5 with flat history then a spike.
        let h = HavingCtx::Cmp {
            op: AstCmp::Gt,
            left: ArithCtx::Div(
                Box::new(ArithCtx::Sub(
                    Box::new(ArithCtx::Item(0)),
                    Box::new(ArithCtx::MovAvg {
                        kind: MaKind::Ewma,
                        item: 0,
                        param: 0.9,
                    }),
                )),
                Box::new(ArithCtx::MovAvg {
                    kind: MaKind::Ewma,
                    item: 0,
                    param: 0.9,
                }),
            ),
            right: ArithCtx::Num(0.5),
        };
        let flat = [10.0; 5];
        assert!(!having_over(&h, &flat));
        let mut spiked = flat.to_vec();
        spiked.push(100.0);
        assert!(having_over(&h, &spiked));
    }

    /// History keeps the depth `having` reads and no more, and its ring
    /// and running averages read exactly what the full series gives.
    #[test]
    fn history_stays_at_the_referenced_depth() {
        let ma = |kind, item, param| ArithCtx::MovAvg { kind, item, param };
        let cmp = |left, right| HavingCtx::Cmp {
            op: AstCmp::Gt,
            left,
            right,
        };
        let h = HavingCtx::And(
            Box::new(cmp(
                ArithCtx::Hist { item: 0, back: 3 },
                ma(MaKind::Sma, 1, 5.0),
            )),
            Box::new(cmp(
                ma(MaKind::Cma, 0, 0.0),
                ArithCtx::Add(
                    Box::new(ma(MaKind::Ewma, 1, 0.3)),
                    Box::new(ma(MaKind::Wma, 0, 2.0)),
                ),
            )),
        );
        let mut history = History::of(Some(&h), 2);
        assert_eq!((history.depth, history.running.len()), (5, 2));
        let bound = history.depth * history.stride;
        let mut series: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for w in 0..10_000u64 {
            let current = [
                Some((w * 7919 % 101) as f64 / 3.0),
                (w % 7 != 0).then(|| (w * 104_729 % 997) as f64 * 0.1),
            ];
            history.record(&current);
            for (s, v) in series.iter_mut().zip(current) {
                s.push(v.unwrap_or(0.0));
            }
            assert!(history.ring.len() <= bound);
            if w % 997 == 0 || w > 9_990 {
                for (kind, item, param) in [
                    (MaKind::Sma, 1, 5.0),
                    (MaKind::Cma, 0, 0.0),
                    (MaKind::Ewma, 1, 0.3),
                    (MaKind::Wma, 0, 2.0),
                ] {
                    let got = history.moving(kind, item, param);
                    let want = moving_average(kind, &series[item], param);
                    assert_eq!(got.to_bits(), want.to_bits(), "{kind:?} at window {w}");
                }
                for back in 0..=3 {
                    let want = series[0].len().checked_sub(back + 1).map(|i| series[0][i]);
                    assert_eq!(history.back(0, back), want);
                }
            }
        }
        assert_eq!(history.windows, 10_000);
        assert_eq!(history.ring.len(), bound);
        assert!(history.ring.capacity() < 2 * bound);
    }

    /// A deterministic xorshift stream (this crate takes no `proptest`
    /// dependency); `next(n)` draws from `0..n`.
    fn rng(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound.max(1)
        }
    }

    /// Up to four processes reading and writing up to six files, each
    /// process busy only in its own stretch of a four-minute span (so
    /// groups appear late and go quiet); `p.user`, `f.owner` and
    /// `f.vol_id` are NULL on some entities.
    fn random_store(next: &mut impl FnMut(u64) -> u64) -> EventStore {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let t0 = Timestamp::from_ymd(2017, 1, 2).unwrap().0;
        let s = 1_000_000_000i64;
        let procs: Vec<_> = (0..1 + next(4))
            .map(|i| {
                let mut p = Entity::process((1 + i).into(), a, format!("p{i}.exe"), 100 + i as i64);
                if next(3) != 0 {
                    p = p.with_attr("user", format!("u{}", next(3)));
                }
                let from = next(200) as i64;
                (
                    d.add_entity(p),
                    from,
                    from + 1 + next(240 - from as u64) as i64,
                )
            })
            .collect();
        let files: Vec<_> = (0..1 + next(6))
            .map(|i| {
                let mut f = Entity::file((10 + i).into(), a, format!("/f/{}", next(4)));
                if next(3) != 0 {
                    f = f.with_attr("owner", format!("o{}", next(3)));
                }
                if next(3) != 0 {
                    f = f.with_attr("vol_id", next(5) as i64 - 2);
                }
                d.add_entity(f)
            })
            .collect();
        for e in 0..next(80) {
            let (p, from, to) = procs[next(procs.len() as u64) as usize];
            let t = t0 + (from + next((to - from) as u64) as i64) * s + next(s as u64) as i64;
            let op = [OpType::Read, OpType::Write][next(2) as usize];
            let f = files[next(files.len() as u64) as usize];
            let ev = Event::new(
                (100 + e).into(),
                a,
                p,
                op,
                f,
                EntityKind::File,
                Timestamp(t),
            );
            d.add_event(ev.with_amount(next(4) as i64 * 1000 + next(3) as i64));
        }
        EventStore::ingest(&d, StoreConfig::partitioned()).unwrap()
    }

    /// A random anomaly query over `random_store`'s schema: any window/step
    /// ratio, one to three aggregates (every function, with and without
    /// `distinct`, over numeric, string and NULL-able inputs), and a
    /// `having` over current values, history offsets 0–3 and every
    /// moving-average kind.
    fn random_query(next: &mut impl FnMut(u64) -> u64) -> String {
        const SECS: [u64; 8] = [1, 3, 5, 10, 15, 20, 30, 60];
        let (window, step) = (SECS[next(8) as usize], SECS[next(8) as usize]);
        let groups = ["p", "p, f.owner", "f.owner", ""][next(4) as usize];
        let funcs = ["count", "sum", "avg", "min", "max"];
        let args = ["evt.amount", "f", "f.owner", "f.vol_id", "p.user"];
        let aggs: Vec<String> = (0..1 + next(3))
            .map(|i| {
                let distinct = if next(2) == 0 { "distinct " } else { "" };
                let (func, arg) = (funcs[next(5) as usize], args[next(5) as usize]);
                format!("{func}({distinct}{arg}) as a{i}")
            })
            .collect();
        let n = aggs.len() as u64;
        let operand = |next: &mut dyn FnMut(u64) -> u64| -> String {
            let a = format!("a{}", next(n));
            match next(9) {
                0 => format!("{a}[{}]", next(4)),
                1 => format!("SMA({a}, {})", 1 + next(4)),
                2 => format!("CMA({a})"),
                3 => format!("WMA({a}, {})", 1 + next(4)),
                4 => format!("EWMA({a}, 0.{})", 1 + next(9)),
                5 => format!("{}", next(3000)),
                6 => format!("2 * {a}[1] - {a}"),
                _ => a,
            }
        };
        let ops = [">", ">=", "<", "<=", "=", "!="];
        let cmp = |next: &mut dyn FnMut(u64) -> u64| {
            let l = operand(next);
            let op = ops[next(6) as usize];
            format!("{l} {op} {}", operand(next))
        };
        let having = match next(5) {
            0 => String::new(),
            1 => format!("having {} && {}", cmp(next), cmp(next)),
            2 => format!("having {} || !({})", cmp(next), cmp(next)),
            _ => format!("having {}", cmp(next)),
        };
        let global = [
            "",
            "(from \"2017-01-02 00:00:20\" to \"2017-01-02 00:03:50\")",
            "(from \"2017-01-01 23:59:00\" to \"2017-01-02 00:06:00\")",
        ][next(3) as usize];
        let fields = if groups.is_empty() {
            String::new()
        } else {
            format!("{groups}, ")
        };
        let group_by = if groups.is_empty() {
            String::new()
        } else {
            format!("group by {groups}")
        };
        format!(
            "{global} window = {window} sec, step = {step} sec \
             proc p read || write file f as evt \
             return {fields}{} {group_by} {having}",
            aggs.join(", ")
        )
    }

    /// The incremental executor against the loop it replaced, row for row
    /// and bit for bit (`Value` equality compares floats by their bits),
    /// over random stores and queries.
    #[test]
    fn incremental_windows_equal_the_reference() {
        let mut next = rng(2018);
        let (mut cases, mut rows, mut windows) = (0, 0, 0);
        for _ in 0..60 {
            let store = random_store(&mut next);
            for _ in 0..12 {
                let src = random_query(&mut next);
                let ctx = aiql_core::compile(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
                let (on, width, none) = (&store, 1, Deadline::none());
                let mut stats = EngineStats::default();
                let got = run_anomaly(on, &ctx, width, none, &mut stats).unwrap();
                let want =
                    reference_run_anomaly(on, &ctx, width, none, &mut EngineStats::default())
                        .unwrap();
                assert_eq!(got, want, "{src}");
                cases += 1;
                rows += got.rows.len();
                windows += stats.anomaly_windows;
                assert!(stats.scans.iter().any(|s| s.target == ScanTarget::Events));
            }
        }
        assert_eq!(cases, 720);
        assert!(rows > 20_000, "the queries must alert: {rows} rows");
        assert!(windows > 20_000, "{windows} windows");
    }
}
