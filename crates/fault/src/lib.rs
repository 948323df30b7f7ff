//! Deterministic fault injection under the storage stack.
//!
//! Every filesystem operation the durable-ingest path performs — segment
//! opens, appends, fsyncs, snapshot writes, renames, removals, directory
//! syncs — crosses a named **faultpoint** on its way to the kernel
//! ([`FaultFile`] for handles, [`fs`] for one-shot operations). When
//! injection is disarmed (the production state, and the default) a
//! crossing costs one relaxed atomic load and nothing else: no allocation,
//! no lock, no branch the optimizer cannot fold.
//!
//! Tests and benches arm a [`FaultPlan`] through the exclusive
//! [`Controller`] ([`control`]): a scriptable list of rules, each failing
//! the *N*th crossing of a matching point with a chosen [`FaultKind`] —
//! an errno ([`FaultKind::Errno`], e.g. `EIO` or `ENOSPC`/
//! [`std::io::ErrorKind::StorageFull`]), a short write that leaves torn
//! bytes behind ([`FaultKind::PartialWrite`]), an fsync that *loses the
//! dirty pages* ([`FaultKind::FsyncLoss`] — the fsyncgate failure mode:
//! the error is reported once and the unsynced bytes are gone), or a
//! process **crash** ([`FaultKind::Crash`]) after which every subsequent
//! operation fails, as it would for a dead process.
//!
//! The controller can also **trace** a run — record every faultpoint
//! crossed, in order — which is how the chaos harness in `tests/chaos.rs`
//! enumerates the sites of a workload before re-running it with a fault
//! injected at each one. [`SmallRng`] and [`FaultPlan::seeded`] build
//! reproducible randomized plans from a printed seed.
//!
//! The whole crate is standard-library only (plus the workspace's
//! dependency-free `aiql-telemetry` handles, which count injected faults
//! into the process-wide registry).

mod file;
mod metrics;
pub mod testing;

pub use file::{fs, DirSync, FaultFile};

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What an armed rule injects at a matching crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with this `errno`-style kind and does not
    /// happen. `ErrorKind::StorageFull` is `ENOSPC`; `ErrorKind::Other`
    /// reads as `EIO`.
    Errno(io::ErrorKind),
    /// A short write: only a prefix of the buffer reaches the file before
    /// the error — the torn-frame case the WAL's repair path defends
    /// against. On non-write operations it degrades to an `EIO`.
    PartialWrite,
    /// The fsync reports failure **and** the dirty (unsynced) bytes are
    /// discarded — the kernel dropped the pages and cleared the error
    /// flag, so a retried fsync would lie. On non-sync operations it
    /// degrades to an `EIO`.
    FsyncLoss,
    /// The process "dies" here: this operation fails and **every**
    /// subsequent crossing fails too, until the plan is disarmed. Models
    /// power loss / `kill -9` mid-protocol without leaving the test
    /// process.
    Crash,
}

impl FaultKind {
    fn error(self, point: &str) -> io::Error {
        match self {
            FaultKind::Errno(kind) => io::Error::new(kind, format!("injected fault at {point}")),
            FaultKind::PartialWrite => {
                io::Error::other(format!("injected partial write at {point}"))
            }
            FaultKind::FsyncLoss => {
                io::Error::other(format!("injected fsync page loss at {point}"))
            }
            FaultKind::Crash => io::Error::other(format!("injected crash at {point}")),
        }
    }
}

/// One scripted fault: fail the `nth` crossing of `point` with `kind`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Faultpoint name, exact (`"wal.segment.sync"`) or a prefix ending in
    /// `*` (`"wal.*"`).
    pub point: String,
    /// Which matching crossing to fail, 1-based. `0` fails **every**
    /// matching crossing (a persistent fault, e.g. a full disk).
    pub nth: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultRule {
    fn matches(&self, point: &str) -> bool {
        match self.point.strip_suffix('*') {
            Some(prefix) => point.starts_with(prefix),
            None => self.point == point,
        }
    }
}

/// A scriptable, deterministic injection schedule: an ordered list of
/// [`FaultRule`]s evaluated at every crossing while armed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a rule, builder style: fail the `nth` crossing of `point`
    /// (1-based; 0 = every crossing) with `kind`.
    pub fn fail(mut self, point: impl Into<String>, nth: u64, kind: FaultKind) -> FaultPlan {
        self.rules.push(FaultRule {
            point: point.into(),
            nth,
            kind,
        });
        self
    }

    /// The scripted rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Builds a one-rule plan by drawing a site and a fault kind from
    /// `rng`, given the `(point, crossings)` census of a traced run (see
    /// [`Controller::take_trace`] and [`census`]). Returns the
    /// plan and the rule it chose, so a failing case can print what it
    /// injected alongside the seed that reproduces it.
    pub fn seeded(rng: &mut SmallRng, sites: &[(String, u64)]) -> Option<(FaultPlan, FaultRule)> {
        if sites.is_empty() {
            return None;
        }
        let (point, crossings) = &sites[rng.below(sites.len() as u64) as usize];
        let nth = 1 + rng.below((*crossings).max(1));
        let kind = match rng.below(4) {
            0 => FaultKind::Errno(io::ErrorKind::Other),
            1 => FaultKind::Errno(io::ErrorKind::StorageFull),
            2 if point.ends_with(".write") => FaultKind::PartialWrite,
            2 => FaultKind::FsyncLoss,
            _ => FaultKind::Crash,
        };
        let rule = FaultRule {
            point: point.clone(),
            nth,
            kind,
        };
        Some((FaultPlan::new().fail(point.clone(), nth, kind), rule))
    }
}

/// A fault that actually fired: where, which crossing, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The faultpoint that was crossed.
    pub point: String,
    /// The 1-based crossing index (per matching rule) that fired.
    pub crossing: u64,
    /// What was injected.
    pub kind: FaultKind,
}

#[derive(Default)]
struct State {
    rules: Vec<FaultRule>,
    rule_hits: Vec<u64>,
    trace: Option<Vec<String>>,
    crashed: bool,
    injected: Vec<InjectedFault>,
}

/// True while a plan is armed or a trace is recording — the one relaxed
/// load every crossing pays.
static ARMED: AtomicBool = AtomicBool::new(false);

fn state() -> MutexGuard<'static, State> {
    static STATE: Mutex<State> = Mutex::new(State {
        rules: Vec::new(),
        rule_hits: Vec::new(),
        trace: None,
        crashed: false,
        injected: Vec::new(),
    });
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether injection (or tracing) is currently armed. One relaxed atomic
/// load — the entire disabled-path cost of a faultpoint.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Consults the armed plan at a crossing of `point`. `None` = proceed.
/// Callers must have checked [`armed`] first (the fast path lives there so
/// point names need not even be assembled when injection is off).
pub(crate) fn crossing(point: &str) -> Option<FaultKind> {
    let mut st = state();
    if let Some(trace) = st.trace.as_mut() {
        trace.push(point.to_string());
    }
    if st.crashed {
        // The process is "dead": every operation fails, nothing is logged
        // as a fresh injection (the crash already was).
        return Some(FaultKind::Errno(io::ErrorKind::Other));
    }
    for i in 0..st.rules.len() {
        if !st.rules[i].matches(point) {
            continue;
        }
        st.rule_hits[i] += 1;
        let hit = st.rule_hits[i];
        let rule = &st.rules[i];
        if rule.nth == 0 || hit == rule.nth {
            let kind = rule.kind;
            st.injected.push(InjectedFault {
                point: point.to_string(),
                crossing: hit,
                kind,
            });
            if kind == FaultKind::Crash {
                st.crashed = true;
                metrics::metrics().crashes.inc();
            }
            metrics::metrics().injected.inc();
            return Some(kind);
        }
    }
    None
}

/// A named failpoint for call sites that gate a *step* rather than a file
/// operation: returns `Err` when the armed plan fails this crossing
/// (non-errno kinds degrade to an opaque I/O error). Disarmed cost: one
/// relaxed atomic load.
pub fn point(name: &str) -> io::Result<()> {
    if !armed() {
        return Ok(());
    }
    match crossing(name) {
        Some(kind) => Err(kind.error(name)),
        None => Ok(()),
    }
}

/// Exclusive handle over the process-wide injection state.
///
/// Only one controller exists at a time ([`control`] blocks until the
/// previous one drops), so concurrently running tests in one binary cannot
/// arm plans into each other. Dropping the controller disarms everything
/// and clears all state — a panicking test cannot leave faults armed for
/// the next one.
pub struct Controller {
    _exclusive: MutexGuard<'static, ()>,
}

/// Acquires the exclusive [`Controller`], blocking until any previous one
/// is dropped.
pub fn control() -> Controller {
    static CONTROL: Mutex<()> = Mutex::new(());
    let guard = CONTROL.lock().unwrap_or_else(|e| e.into_inner());
    let c = Controller { _exclusive: guard };
    c.reset();
    c
}

impl Controller {
    /// Arms `plan`: crossings consult it until [`Controller::disarm`] or
    /// drop. Replaces any armed plan; rule hit-counts and crash state
    /// start fresh.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = state();
        st.rule_hits = vec![0; plan.rules.len()];
        st.rules = plan.rules;
        st.crashed = false;
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Disarms the plan (tracing, if started, keeps recording). Injected-
    /// fault history is kept for [`Controller::injected`].
    pub fn disarm(&self) {
        let mut st = state();
        st.rules.clear();
        st.rule_hits.clear();
        st.crashed = false;
        ARMED.store(st.trace.is_some(), Ordering::Relaxed);
    }

    /// Starts recording every faultpoint crossing, in order.
    pub fn start_trace(&self) {
        state().trace = Some(Vec::new());
        ARMED.store(true, Ordering::Relaxed);
    }

    /// Stops recording and returns the crossings seen since
    /// [`Controller::start_trace`].
    pub fn take_trace(&self) -> Vec<String> {
        let mut st = state();
        let trace = st.trace.take().unwrap_or_default();
        ARMED.store(!st.rules.is_empty(), Ordering::Relaxed);
        trace
    }

    /// Every fault injected since the last [`Controller::arm`] history
    /// clear (faults accumulate across arm/disarm cycles until `reset`).
    pub fn injected(&self) -> Vec<InjectedFault> {
        state().injected.clone()
    }

    /// Whether an armed [`FaultKind::Crash`] has fired (all subsequent
    /// operations are failing).
    pub fn crashed(&self) -> bool {
        state().crashed
    }

    /// Clears everything: plan, trace, crash state, injection history.
    pub fn reset(&self) {
        let mut st = state();
        *st = State::default();
        ARMED.store(false, Ordering::Relaxed);
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.reset();
    }
}

/// A tiny deterministic RNG (xorshift64*) for seeded fault plans — the
/// crate stays standard-library only.
#[derive(Debug, Clone)]
pub struct SmallRng(u64);

impl SmallRng {
    /// Seeds the generator (a zero seed is nudged to a fixed constant).
    pub fn new(seed: u64) -> SmallRng {
        SmallRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw uniform in `0..n` (`n` of 0 yields 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Collapses a trace (ordered crossings) into a sorted
/// `(point, crossings)` census — the site list chaos harnesses enumerate.
pub fn census(trace: &[String]) -> Vec<(String, u64)> {
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for point in trace {
        *counts.entry(point).or_insert(0) += 1;
    }
    let mut sites: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(p, n)| (p.to_string(), n))
        .collect();
    sites.sort();
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_are_free_and_open() {
        // The plan is process-wide: hold the controller so no concurrently
        // running test arms it between the two checks.
        let _ctl = control();
        assert!(!armed());
        point("anything.at.all").unwrap();
    }

    #[test]
    fn nth_crossing_fails_once_then_clears() {
        let ctl = control();
        ctl.arm(FaultPlan::new().fail("a.b", 2, FaultKind::Errno(io::ErrorKind::Other)));
        point("a.b").unwrap();
        let err = point("a.b").expect_err("second crossing fails");
        assert!(err.to_string().contains("a.b"), "{err}");
        point("a.b").unwrap();
        point("a.c").unwrap();
        let injected = ctl.injected();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].point, "a.b");
        assert_eq!(injected[0].crossing, 2);
    }

    #[test]
    fn persistent_and_prefix_rules() {
        let ctl = control();
        ctl.arm(FaultPlan::new().fail("disk.*", 0, FaultKind::Errno(io::ErrorKind::StorageFull)));
        for p in ["disk.write", "disk.sync", "disk.write"] {
            let err = point(p).expect_err("every crossing fails");
            assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        }
        point("elsewhere.write").unwrap();
        assert_eq!(ctl.injected().len(), 3);
    }

    #[test]
    fn crash_fails_everything_after() {
        let ctl = control();
        ctl.arm(FaultPlan::new().fail("x.y", 1, FaultKind::Crash));
        point("other").unwrap();
        point("x.y").expect_err("the crash itself");
        assert!(ctl.crashed());
        point("other").expect_err("dead processes do no I/O");
        point("third.thing").expect_err("still dead");
        assert_eq!(ctl.injected().len(), 1, "only the crash is an injection");
        ctl.disarm();
        point("other").unwrap();
    }

    #[test]
    fn trace_records_ordered_crossings_and_census_counts() {
        let ctl = control();
        ctl.start_trace();
        point("b.two").unwrap();
        point("a.one").unwrap();
        point("b.two").unwrap();
        let trace = ctl.take_trace();
        assert_eq!(trace, vec!["b.two", "a.one", "b.two"]);
        assert_eq!(
            census(&trace),
            vec![("a.one".to_string(), 1), ("b.two".to_string(), 2)]
        );
        assert!(!armed(), "taking the trace disarms when no plan is set");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let sites = vec![("p.q".to_string(), 5), ("r.s".to_string(), 2)];
        let (plan_a, rule_a) = FaultPlan::seeded(&mut SmallRng::new(42), &sites).unwrap();
        let (_, rule_b) = FaultPlan::seeded(&mut SmallRng::new(42), &sites).unwrap();
        assert_eq!(rule_a.point, rule_b.point);
        assert_eq!(rule_a.nth, rule_b.nth);
        assert_eq!(rule_a.kind, rule_b.kind);
        assert_eq!(plan_a.rules().len(), 1);
        assert!(rule_a.nth >= 1);
        assert!(FaultPlan::seeded(&mut SmallRng::new(1), &[]).is_none());
    }

    #[test]
    fn controller_drop_disarms() {
        {
            let ctl = control();
            ctl.arm(FaultPlan::new().fail("z", 0, FaultKind::Crash));
            point("z").expect_err("armed");
        }
        point("z").expect("dropping the controller disarmed the plan");
    }
}
