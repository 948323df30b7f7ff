//! Tuple-set algebra for the relationship-based scheduler (Algorithm 1).
//!
//! The scheduler maintains a map `M` from event-pattern IDs to the tuple set
//! containing their execution results. Tuple sets are created from pairs of
//! result sets, extended with fresh results, filtered in place, and merged,
//! exactly as the paper's Algorithm 1 prescribes, and like its tuple sets
//! they hold result *indices*: one flat array, a tuple's match indices side
//! by side. Joins use hashing when the relationship is an attribute
//! equality and a deadline-checked nested loop otherwise (temporal order,
//! inequalities).

use crate::error::EngineError;
use crate::layout::{Field, PatternMatches};
use crate::pattern::{Deadline, EngineStats};
use aiql_core::ast::{CmpOp as AstCmp, TempKind};
use aiql_core::{QueryContext, RelationCtx};
use aiql_rdb::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Maximum tuples a single set may hold before the engine reports a
/// resource failure (the in-memory analogue of the baselines' blow-ups).
pub const MAX_TUPLES: usize = 2_000_000;

/// Evaluable form of a relationship: its fields resolved.
#[derive(Debug, Clone)]
pub enum RelEval {
    Attr {
        left_pattern: usize,
        left: Field,
        op: AstCmp,
        right_pattern: usize,
        right: Field,
    },
    Temporal {
        left_pattern: usize,
        kind: TempKind,
        range_ns: Option<(i64, i64)>,
        right_pattern: usize,
    },
}

impl RelEval {
    /// Resolves a context relationship against the query's patterns.
    pub fn build(rel: &RelationCtx, ctx: &QueryContext) -> Result<RelEval, EngineError> {
        let field =
            |f: &aiql_core::FieldRef| Field::resolve(f, ctx.patterns[f.pattern].object_kind);
        Ok(match rel {
            RelationCtx::Attr { left, op, right } => RelEval::Attr {
                left_pattern: left.pattern,
                left: field(left)?,
                op: *op,
                right_pattern: right.pattern,
                right: field(right)?,
            },
            RelationCtx::Temporal {
                left,
                kind,
                range_ns,
                right,
            } => RelEval::Temporal {
                left_pattern: *left,
                kind: *kind,
                range_ns: *range_ns,
                right_pattern: *right,
            },
        })
    }

    /// The two patterns this relationship connects.
    pub fn endpoints(&self) -> (usize, usize) {
        match self {
            RelEval::Attr {
                left_pattern,
                right_pattern,
                ..
            }
            | RelEval::Temporal {
                left_pattern,
                right_pattern,
                ..
            } => (*left_pattern, *right_pattern),
        }
    }

    /// Whether match `l` of the left pattern and match `r` of the right
    /// one satisfy the relationship. Times and `Int` columns compare as
    /// integers; other attributes compare loosely, and NULL satisfies
    /// nothing.
    pub fn holds(&self, matches: &Matches, l: u32, r: u32) -> bool {
        let (lm, rm) = {
            let (lp, rp) = self.endpoints();
            (matches.of(lp), matches.of(rp))
        };
        match self {
            RelEval::Attr {
                left, op, right, ..
            } => {
                let ord = if left.int && right.int {
                    match (lm.int(l, *left), rm.int(r, *right)) {
                        (Some(a), Some(b)) => a.cmp(&b),
                        _ => return false,
                    }
                } else {
                    let (a, b) = (lm.get(l, *left), rm.get(r, *right));
                    if a.is_null() || b.is_null() {
                        return false;
                    }
                    a.loose_cmp(&b)
                };
                match op {
                    AstCmp::Eq => ord == Ordering::Equal,
                    AstCmp::Ne => ord != Ordering::Equal,
                    AstCmp::Lt => ord == Ordering::Less,
                    AstCmp::Le => ord != Ordering::Greater,
                    AstCmp::Gt => ord == Ordering::Greater,
                    AstCmp::Ge => ord != Ordering::Less,
                }
            }
            RelEval::Temporal { kind, range_ns, .. } => {
                let (tl, tr) = (lm.start[l as usize], rm.start[r as usize]);
                match kind {
                    TempKind::Before => match range_ns {
                        None => tl < tr,
                        Some((lo, hi)) => tr - tl >= *lo && tr - tl <= *hi,
                    },
                    TempKind::After => match range_ns {
                        None => tl > tr,
                        Some((lo, hi)) => tl - tr >= *lo && tl - tr <= *hi,
                    },
                    TempKind::Within => match range_ns {
                        None => tl == tr,
                        Some((lo, hi)) => {
                            let gap = (tl - tr).abs();
                            gap >= *lo && gap <= *hi
                        }
                    },
                }
            }
        }
    }

    /// For an attribute equality: its other end's (pattern, field), and
    /// the field at pattern `j`.
    fn equi_toward(&self, j: usize) -> Option<((usize, Field), Field)> {
        match *self {
            RelEval::Attr {
                left_pattern,
                left,
                op: AstCmp::Eq,
                right_pattern,
                right,
            } => Some(if right_pattern == j {
                ((left_pattern, left), right)
            } else {
                ((right_pattern, right), left)
            }),
            _ => None,
        }
    }
}

/// Execution results of all patterns: `per_pattern[i]` is `Some` once
/// pattern `i` has executed.
#[derive(Debug, Default)]
pub struct Matches<'a> {
    pub per_pattern: Vec<Option<PatternMatches<'a>>>,
}

impl<'a> Matches<'a> {
    /// An empty table for `n` patterns.
    pub fn new(n: usize) -> Matches<'a> {
        Matches {
            per_pattern: (0..n).map(|_| None).collect(),
        }
    }

    /// The matches of an executed pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern has not executed — a scheduler bug.
    pub fn of(&self, pattern: usize) -> &PatternMatches<'a> {
        self.per_pattern[pattern]
            .as_ref()
            .expect("pattern executed before use")
    }

    /// Whether pattern `i` has executed.
    pub fn executed(&self, pattern: usize) -> bool {
        self.per_pattern[pattern].is_some()
    }
}

/// A hash-join key: the integer when both ends of the equality are `Int`
/// columns, the value otherwise.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Int(Option<i64>),
    Value(Value),
}

impl Key {
    fn of(m: &PatternMatches, i: u32, f: Field, typed: bool) -> Key {
        if typed {
            Key::Int(m.int(i, f))
        } else {
            Key::Value(m.get(i, f))
        }
    }
}

/// A pattern's matches grouped by key: each key's range of `order`, which
/// lists the matches key by key, ascending within a key. One array and one
/// map, whatever the key count.
struct HashIndex {
    ranges: HashMap<Key, (u32, u32)>,
    order: Vec<u32>,
}

impl HashIndex {
    fn build(m: &PatternMatches, f: Field, typed: bool) -> HashIndex {
        let n = m.len() as u32;
        let mut ranges: HashMap<Key, (u32, u32)> = HashMap::new();
        for i in 0..n {
            ranges.entry(Key::of(m, i, f, typed)).or_default().1 += 1;
        }
        // Lay the keys out back to back; `.1` then fills from the start.
        let mut at = 0;
        for r in ranges.values_mut() {
            let count = r.1;
            *r = (at, at);
            at += count;
        }
        let mut order = vec![0; n as usize];
        for i in 0..n {
            let r = ranges.get_mut(&Key::of(m, i, f, typed)).expect("counted");
            order[r.1 as usize] = i;
            r.1 += 1;
        }
        HashIndex { ranges, order }
    }

    /// The matches whose key is `k`, ascending.
    fn get(&self, k: &Key) -> &[u32] {
        self.ranges
            .get(k)
            .map_or(&[], |&(lo, hi)| &self.order[lo as usize..hi as usize])
    }
}

/// A set of joined tuples over a list of patterns: tuple `t` is the
/// stride `patterns.len()` slice at `t`, its slot `k` an index into
/// `matches.of(patterns[k])`.
#[derive(Debug, Clone, Default)]
pub struct TupleSet {
    pub patterns: Vec<usize>,
    pub tuples: Vec<u32>,
}

impl TupleSet {
    fn empty(patterns: Vec<usize>) -> TupleSet {
        TupleSet {
            patterns,
            tuples: Vec::new(),
        }
    }

    /// A singleton set over one executed pattern.
    pub fn singleton(pattern: usize, n: usize) -> TupleSet {
        TupleSet {
            patterns: vec![pattern],
            tuples: (0..n as u32).collect(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len() / self.patterns.len()
    }

    /// The tuples, in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, u32> {
        self.tuples.chunks_exact(self.patterns.len())
    }

    /// Position of `pattern` within this set's tuple layout.
    pub fn slot(&self, pattern: usize) -> Option<usize> {
        self.patterns.iter().position(|&p| p == pattern)
    }

    /// Appends the tuple `head ++ tail`, failing at [`MAX_TUPLES`].
    #[inline]
    fn push(&mut self, head: &[u32], tail: &[u32]) -> Result<(), EngineError> {
        if self.tuples.len() >= MAX_TUPLES * self.patterns.len() {
            return Err(EngineError::Resource);
        }
        self.tuples.extend_from_slice(head);
        self.tuples.extend_from_slice(tail);
        Ok(())
    }

    /// Creates a tuple set from two fresh result sets related by `rel`
    /// (Algorithm 1: `T ← S_i × S_j |rel`).
    pub fn create(
        matches: &Matches,
        i: usize,
        j: usize,
        rels: &[&RelEval],
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<TupleSet, EngineError> {
        let _join = aiql_telemetry::trace::span("join");
        let (ni, nj) = (matches.of(i).len() as u32, matches.of(j).len() as u32);
        let mut out = TupleSet::empty(vec![i, j]);
        // Hash join on the first equi-relationship; residual-check the rest.
        if let Some(((_, ifield), jfield)) = rels.iter().find_map(|r| r.equi_toward(j)) {
            let typed = ifield.int && jfield.int;
            let built = HashIndex::build(matches.of(j), jfield, typed);
            for ii in 0..ni {
                deadline.check()?;
                for &jj in built.get(&Key::of(matches.of(i), ii, ifield, typed)) {
                    stats.join_work += 1;
                    if check_all(rels, matches, (i, ii), (j, jj)) {
                        out.push(&[ii], &[jj])?;
                    }
                }
            }
        } else {
            for ii in 0..ni {
                deadline.check()?;
                for jj in 0..nj {
                    stats.join_work += 1;
                    if check_all(rels, matches, (i, ii), (j, jj)) {
                        out.push(&[ii], &[jj])?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Extends this set with a newly executed pattern `j` (Algorithm 1:
    /// `T' ← T ×S_j |rel`).
    pub fn extend(
        &self,
        matches: &Matches,
        j: usize,
        rels: &[&RelEval],
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<TupleSet, EngineError> {
        let _join = aiql_telemetry::trace::span("join");
        let nj = matches.of(j).len() as u32;
        let mut out = TupleSet::empty(self.patterns.iter().copied().chain([j]).collect());
        // Hash path: an equi-rel between a pattern of this set and j.
        if let Some(((p, pfield), jfield)) = rels.iter().find_map(|r| r.equi_toward(j)) {
            let typed = pfield.int && jfield.int;
            let slot = self.slot(p).expect("relation endpoint in set");
            let built = HashIndex::build(matches.of(j), jfield, typed);
            for t in self.iter() {
                deadline.check()?;
                for &jj in built.get(&Key::of(matches.of(p), t[slot], pfield, typed)) {
                    stats.join_work += 1;
                    if self.tuple_matches(matches, t, j, jj, rels) {
                        out.push(t, &[jj])?;
                    }
                }
            }
        } else {
            for t in self.iter() {
                deadline.check()?;
                for jj in 0..nj {
                    stats.join_work += 1;
                    if self.tuple_matches(matches, t, j, jj, rels) {
                        out.push(t, &[jj])?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Checks all `rels` between this set's tuple `t` and match `jj` of
    /// pattern `j`.
    fn tuple_matches(
        &self,
        matches: &Matches,
        t: &[u32],
        j: usize,
        jj: u32,
        rels: &[&RelEval],
    ) -> bool {
        rels.iter().all(|rel| {
            let at = |p: usize| t[self.slot(p).expect("endpoint in set")];
            match rel.endpoints() {
                (l, r) if l == j && r == j => true,
                (l, r) if l == j => rel.holds(matches, jj, at(r)),
                (l, r) if r == j => rel.holds(matches, at(l), jj),
                _ => true,
            }
        })
    }

    /// Filters tuples in place by a relationship whose both endpoints are in
    /// this set (Algorithm 1: `T' ← T_i |rel`).
    pub fn filter(&mut self, matches: &Matches, rel: &RelEval) {
        let (l, r) = rel.endpoints();
        let (Some(ls), Some(rs)) = (self.slot(l), self.slot(r)) else {
            return;
        };
        let w = self.patterns.len();
        let mut kept = 0;
        for t in 0..self.len() {
            if rel.holds(matches, self.tuples[t * w + ls], self.tuples[t * w + rs]) {
                self.tuples.copy_within(t * w..(t + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.tuples.truncate(kept * w);
    }

    /// Merges two disjoint tuple sets, filtering by `rels` (which may be
    /// empty for the final cartesian merge of Algorithm 1 step 5).
    pub fn merge(
        a: &TupleSet,
        b: &TupleSet,
        matches: &Matches,
        rels: &[&RelEval],
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<TupleSet, EngineError> {
        let _join = aiql_telemetry::trace::span("join");
        let mut out = TupleSet::empty(a.patterns.iter().chain(&b.patterns).copied().collect());
        for ta in a.iter() {
            deadline.check()?;
            'next: for tb in b.iter() {
                stats.join_work += 1;
                for rel in rels {
                    let (l, r) = rel.endpoints();
                    let (lm, rm) = match (a.slot(l), b.slot(l), a.slot(r), b.slot(r)) {
                        (Some(la), _, _, Some(rb)) => (ta[la], tb[rb]),
                        (_, Some(lb), Some(ra), _) => (tb[lb], ta[ra]),
                        _ => continue,
                    };
                    if !rel.holds(matches, lm, rm) {
                        continue 'next;
                    }
                }
                out.push(ta, tb)?;
            }
        }
        Ok(out)
    }
}

/// Checks all `rels` between match `ii` of pattern `i` and match `jj` of
/// pattern `j`.
fn check_all(
    rels: &[&RelEval],
    matches: &Matches,
    (i, ii): (usize, u32),
    (j, jj): (usize, u32),
) -> bool {
    rels.iter().all(|rel| match rel.endpoints() {
        (l, r) if l == i && r == j => rel.holds(matches, ii, jj),
        (l, r) if l == j && r == i => rel.holds(matches, jj, ii),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::FieldTarget;
    use aiql_rdb::{Layout, Table};
    use aiql_storage::schema;

    /// Event rows with the given (start time, subject id) pairs.
    fn events(rows: &[(i64, i64)]) -> Table {
        let mut t = Table::new(schema::events_schema(), &Layout::default()).unwrap();
        for &(start, subject) in rows {
            let mut r = vec![Value::Null; schema::ev::WIDTH];
            r[schema::ev::START] = Value::Int(start);
            r[schema::ev::SUBJECT] = Value::Int(subject);
            t.insert(r).unwrap();
        }
        t
    }

    /// One match per row of `t`, each row standing in for all three.
    fn pattern(t: &Table) -> PatternMatches<'_> {
        let mut m = PatternMatches::default();
        for i in 0..t.len() as u32 {
            m.push(t.row(i), t.row(i), t.row(i));
        }
        m
    }

    fn matches<'a>(tables: &'a [Table]) -> Matches<'a> {
        Matches {
            per_pattern: tables.iter().map(|t| Some(pattern(t))).collect(),
        }
    }

    const SUBJECT: Field = Field {
        target: FieldTarget::Event,
        col: schema::ev::SUBJECT,
        int: true,
    };

    fn attr_eq() -> RelEval {
        RelEval::Attr {
            left_pattern: 0,
            left: SUBJECT,
            op: AstCmp::Eq,
            right_pattern: 1,
            right: SUBJECT,
        }
    }

    fn before() -> RelEval {
        RelEval::Temporal {
            left_pattern: 0,
            kind: TempKind::Before,
            range_ns: None,
            right_pattern: 1,
        }
    }

    #[test]
    fn create_hash_join_on_equi() {
        let t = [
            events(&[(1, 10), (2, 20)]),
            events(&[(3, 10), (4, 30), (5, 10)]),
        ];
        let m = matches(&t);
        let rel = attr_eq();
        let mut stats = EngineStats::default();
        let ts = TupleSet::create(&m, 0, 1, &[&rel], Deadline::none(), &mut stats).unwrap();
        assert_eq!(
            ts.tuples,
            vec![0, 0, 0, 2],
            "subject 10 matches rows 0 and 2"
        );
        // Hash join probes only matching candidates.
        assert_eq!(stats.join_work, 2);
    }

    #[test]
    fn create_nested_loop_on_temporal() {
        let t = [events(&[(1, 0), (10, 0)]), events(&[(5, 0)])];
        let m = matches(&t);
        let rel = before();
        let mut stats = EngineStats::default();
        let ts = TupleSet::create(&m, 0, 1, &[&rel], Deadline::none(), &mut stats).unwrap();
        assert_eq!(ts.tuples, vec![0, 0], "only t=1 is before t=5");
        assert_eq!(stats.join_work, 2, "nested loop considers all pairs");
    }

    #[test]
    fn temporal_with_range_and_within() {
        let t = [events(&[(1_000, 0)]), events(&[(3_000, 0)])];
        let m = matches(&t);
        let rel = RelEval::Temporal {
            left_pattern: 0,
            kind: TempKind::Before,
            range_ns: Some((1_000, 2_500)),
            right_pattern: 1,
        };
        assert!(rel.holds(&m, 0, 0), "gap 2000 within [1000, 2500]");
        let rel = RelEval::Temporal {
            left_pattern: 0,
            kind: TempKind::Before,
            range_ns: Some((2_500, 9_000)),
            right_pattern: 1,
        };
        assert!(!rel.holds(&m, 0, 0), "gap 2000 below 2500");
        let rel = RelEval::Temporal {
            left_pattern: 1,
            kind: TempKind::Within,
            range_ns: Some((0, 5_000)),
            right_pattern: 0,
        };
        assert!(rel.holds(&m, 0, 0), "within is symmetric");
    }

    #[test]
    fn extend_filters_against_all_set_members() {
        let t = [
            events(&[(1, 7)]),
            events(&[(5, 7)]),
            events(&[(3, 7), (9, 7)]),
        ];
        let m = matches(&t);
        let r01 = attr_eq();
        let mut stats = EngineStats::default();
        let ts = TupleSet::create(&m, 0, 1, &[&r01], Deadline::none(), &mut stats).unwrap();
        // Extend with pattern 2 under: evt0 before evt2 AND evt2 before evt1.
        let r02 = RelEval::Temporal {
            left_pattern: 0,
            kind: TempKind::Before,
            range_ns: None,
            right_pattern: 2,
        };
        let r21 = RelEval::Temporal {
            left_pattern: 2,
            kind: TempKind::Before,
            range_ns: None,
            right_pattern: 1,
        };
        let ts2 = ts
            .extend(&m, 2, &[&r02, &r21], Deadline::none(), &mut stats)
            .unwrap();
        assert_eq!(ts2.tuples, vec![0, 0, 0], "only t=3 sits between 1 and 5");
    }

    #[test]
    fn filter_in_place() {
        let t = [events(&[(10, 0), (1, 0)]), events(&[(5, 0)])];
        let m = matches(&t);
        let mut stats = EngineStats::default();
        let mut ts = TupleSet::create(&m, 0, 1, &[], Deadline::none(), &mut stats).unwrap();
        assert_eq!(ts.len(), 2, "no relation: full cross product");
        ts.filter(&m, &before());
        assert_eq!(ts.tuples, vec![1, 0]);
    }

    #[test]
    fn merge_disjoint_sets_with_relation() {
        let t = [
            events(&[(1, 0)]),
            events(&[(2, 0)]),
            events(&[(3, 0)]),
            events(&[(0, 0), (9, 0)]),
        ];
        let m = matches(&t);
        let mut stats = EngineStats::default();
        let a = TupleSet::create(&m, 0, 1, &[], Deadline::none(), &mut stats).unwrap();
        let b = TupleSet::create(&m, 2, 3, &[], Deadline::none(), &mut stats).unwrap();
        // Require evt1 (t=2) before evt3.
        let rel = RelEval::Temporal {
            left_pattern: 1,
            kind: TempKind::Before,
            range_ns: None,
            right_pattern: 3,
        };
        let merged = TupleSet::merge(&a, &b, &m, &[&rel], Deadline::none(), &mut stats).unwrap();
        assert_eq!(merged.patterns, vec![0, 1, 2, 3]);
        assert_eq!(merged.tuples, vec![0, 0, 0, 1], "only t3=9 qualifies");
    }

    #[test]
    fn singleton_and_slots() {
        let ts = TupleSet::singleton(4, 3);
        assert_eq!(ts.patterns, vec![4]);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.slot(4), Some(0));
        assert_eq!(ts.slot(0), None);
    }

    /// The tuple budget counts tuples, whatever their width: a `before`
    /// cross product of 1 500 × 1 500 matches passes `MAX_TUPLES` and
    /// fails, one of 1 400 × 1 400 stays under it and completes.
    #[test]
    fn tuple_budget_boundary() {
        let t = events(&[(0, 0), (1, 0)]);
        let all = |n: usize, at: u32| PatternMatches {
            events: vec![t.row(at); n],
            subjects: vec![t.row(at); n],
            objects: vec![t.row(at); n],
            start: vec![i64::from(at); n],
        };
        let cross = |n: usize| {
            let m = Matches {
                per_pattern: vec![Some(all(n, 0)), Some(all(n, 1))],
            };
            let mut stats = EngineStats::default();
            TupleSet::create(&m, 0, 1, &[&before()], Deadline::none(), &mut stats)
        };
        const { assert!(1_500 * 1_500 > MAX_TUPLES && 1_400 * 1_400 < MAX_TUPLES) };
        assert!(matches!(cross(1_500), Err(EngineError::Resource)));
        let ts = cross(1_400).unwrap();
        assert_eq!(ts.len(), 1_960_000);
        assert_eq!(ts.tuples.len(), 2 * 1_960_000);
    }
}
