//! Process-wide observability for the AIQL reproduction: metrics, query
//! trace spans, and a slow-query log.
//!
//! The paper pitches *efficient attack investigation at scale*; this crate
//! is how the reproduction watches itself live up to that. It is
//! hand-rolled (the build is offline — no `prometheus`, no `tracing`) and
//! deliberately small:
//!
//! - [`Counter`] / [`Gauge`] — lock-free atomics behind cheap cloneable
//!   handles,
//! - [`Histogram`] — log-bucketed (powers of two) with `p50`/`p95`/`p99`/
//!   `max` export, safe to record from any number of threads,
//! - [`Registry`] — a process-wide named registry ([`global`]); every layer
//!   (`aiql-wal`, `aiql-ingest`, `aiql-storage`, `aiql-engine`) resolves
//!   its handles once at startup and records wait-free afterwards,
//! - [`trace`] — structured spans assembling a per-query phase tree
//!   (lex/parse/analyze/plan/scan-per-pattern/join/score),
//! - [`slowlog`] — a bounded ring buffer of queries that exceeded a
//!   latency threshold, with source, bound params, and scan profile.
//!
//! Metric names follow `aiql_<layer>_<what>_<unit>`: durations are
//! histograms in microseconds (`_micros`), sizes in bytes (`_bytes`),
//! monotone event counts are `_total` counters, and instantaneous levels
//! are gauges. The registry exports as a Prometheus-style text exposition
//! ([`RegistrySnapshot::to_prometheus`]). Each layer declares its metrics
//! once, with [`metrics!`] — name, kind, unit and meaning — and the
//! declaration is checked against the full catalogue, `docs/METRICS.md` at
//! the repository root, which adds what a regression in each one means.
//!
//! # Examples
//!
//! ```
//! let reg = aiql_telemetry::Registry::new();
//! let flushes = reg.counter("aiql_ingest_flushes_total");
//! let fsync = reg.histogram("aiql_wal_fsync_micros");
//! flushes.inc();
//! fsync.record(250);
//! fsync.record(900);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("aiql_ingest_flushes_total"), Some(1));
//! assert_eq!(snap.histogram("aiql_wal_fsync_micros").unwrap().count, 2);
//! ```

mod declare;
pub mod slowlog;
pub mod trace;

pub use declare::{check_catalogue, CounterFamily, Declared, Instrument};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log buckets in a [`Histogram`]: one for zero, one per power
/// of two up to `2^62`, and a final catch-all.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic, so a handle resolved once from the [`Registry`] records
/// wait-free forever after.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level (queue depth, open cursors). Signed so that
/// concurrent decrements can transiently cross zero without wrapping.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (useful in tests).
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A log-bucketed histogram of non-negative values (latencies in
/// microseconds, sizes in bytes).
///
/// Bucket 0 holds exact zeros; bucket `i` (for `1 <= i < 63`) holds values
/// in `[2^(i-1), 2^i - 1]`; bucket 63 holds everything from `2^62` up.
/// Recording is three relaxed atomic operations (bucket, sum, max) — safe
/// and cheap from any thread. Quantiles are estimated at snapshot time by
/// linear interpolation inside the containing bucket, clamped to the
/// largest value actually observed.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// The bucket index a value lands in.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        i if i < HISTOGRAM_BUCKETS - 1 => (1 << (i - 1), (1 << i) - 1),
        _ => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
    }
}

impl Histogram {
    /// A histogram not attached to any registry (useful in tests).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in whole microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.sum.store(0, Ordering::Relaxed);
        self.0.max.store(0, Ordering::Relaxed);
    }
}

/// An immutable copy of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket observation counts (see [`Histogram`] for bounds).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the bucket
    /// holding the rank-`ceil(q * count)` observation and interpolating
    /// linearly between the bucket's bounds; the estimate never exceeds
    /// the recorded maximum. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                let hi = hi.min(self.max);
                let within = (rank - seen) as f64 / n as f64;
                return (lo as f64 + within * (hi.saturating_sub(lo)) as f64).min(self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Folds `other` into `self` bucket-by-bucket. Because recording is a
    /// per-bucket add, merging two histograms that between them saw a set
    /// of values is equivalent to one histogram that saw all of them.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The distribution's change since an `earlier` snapshot of the same
    /// metric: counts, sums, and buckets subtract (saturating, so a reset
    /// in between degrades gracefully to the later snapshot). The maximum
    /// is not invertible, so the later snapshot's `max` is kept — an upper
    /// bound for the interval.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Most code uses the process-wide
/// [`global`] registry; benches and tests may build private ones.
///
/// Handle resolution (`counter`/`gauge`/`histogram`) takes a short lock
/// and is meant to happen once per call site — the returned handles record
/// lock-free. Resolving an existing name returns a handle to the *same*
/// metric; resolving it as a different kind panics (a programming error:
/// names are compile-time constants throughout the workspace).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// The process-wide registry every AIQL layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn resolve<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let metric = metrics.entry(name.to_string()).or_insert_with(make).clone();
        drop(metrics);
        match pick(&metric) {
            Some(t) => t,
            None => panic!("telemetry metric `{name}` is a {}", metric.kind()),
        }
    }

    /// The counter named `name`, created on first resolution.
    pub fn counter(&self, name: &str) -> Counter {
        self.resolve(
            name,
            || Metric::Counter(Counter::new()),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge named `name`, created on first resolution.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.resolve(
            name,
            || Metric::Gauge(Gauge::new()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram named `name`, created on first resolution.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.resolve(
            name,
            || Metric::Histogram(Histogram::new()),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A consistent point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let mut snap = RegistrySnapshot::default();
        for (name, m) in metrics.iter() {
            match m {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }

    /// Zeroes every registered metric in place (handles stay valid).
    pub fn reset(&self) {
        let metrics = self.metrics.lock().expect("telemetry registry poisoned");
        for m in metrics.values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

/// A point-in-time copy of a [`Registry`], ordered by metric name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, distribution)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus-style text exposition: counters and gauges as plain
    /// samples, histograms as summaries with `quantile` labels plus
    /// `_sum`, `_count`, and `_max` samples.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for q in [0.5, 0.95, 0.99] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{q}\"}} {:.1}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "{name}_sum {}\n{name}_count {}\n{name}_max {}\n",
                h.sum, h.count, h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("g");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("g").get(), 3);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.histogram("x");
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Zero sits alone in bucket 0.
        assert_eq!(bucket_index(0), 0);
        // Each bucket i >= 1 covers [2^(i-1), 2^i - 1].
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            if i > 1 {
                assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            }
        }
        // The top bucket absorbs everything from 2^62 up.
        assert_eq!(bucket_index(1 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1, "one zero");
        assert_eq!(s.buckets[1], 1, "1");
        assert_eq!(s.buckets[2], 2, "2 and 3");
        assert_eq!(s.buckets[3], 1, "4");
        assert_eq!(s.buckets[10], 1, "1000 in [512, 1023]");
    }

    #[test]
    fn quantiles_interpolate_and_clamp_to_max() {
        let h = Histogram::new();
        // 100 observations uniform in [512, 1023]: all in one bucket.
        for i in 0..100 {
            h.record(512 + i * 5);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        // Interpolated halfway through [512, max=1007].
        assert!((700.0..780.0).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0) <= s.max as f64);
        let p0 = s.quantile(0.0);
        assert!((512.0..520.0).contains(&p0), "rank clamps to rank 1: {p0}");
        // Empty histogram: all quantiles are zero.
        assert_eq!(Histogram::new().snapshot().quantile(0.99), 0.0);
        // Single observation: every quantile is that value.
        let one = Histogram::new();
        one.record(42);
        assert_eq!(one.snapshot().quantile(0.5), 42.0);
        assert_eq!(one.snapshot().quantile(0.99), 42.0);
    }

    #[test]
    fn quantile_walks_across_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(10); // bucket [8, 15]
        }
        for _ in 0..10 {
            h.record(10_000); // bucket [8192, 16383]
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) <= 15.0);
        assert!(s.quantile(0.95) >= 8192.0);
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [1u64, 5, 9, 100] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 5, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn reset_zeroes_in_place() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.inc();
        h.record(7);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc();
        assert_eq!(reg.snapshot().counter("c"), Some(1), "handles stay live");
    }

    #[test]
    fn exports_render_every_metric() {
        let reg = Registry::new();
        reg.counter("aiql_test_total").add(3);
        reg.gauge("aiql_test_depth").set(-2);
        reg.histogram("aiql_test_micros").record(128);
        let snap = reg.snapshot();
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE aiql_test_total counter"));
        assert!(prom.contains("aiql_test_total 3"));
        assert!(prom.contains("aiql_test_depth -2"));
        assert!(prom.contains("aiql_test_micros_count 1"));
        assert!(prom.contains("quantile=\"0.99\""));
    }
}
