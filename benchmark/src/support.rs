//! Shared pieces of the three workloads: arguments, the dataset, sample
//! statistics, process memory, the scratch directory and registry deltas.

use aiql::datagen::EnterpriseSim;
use aiql::model::Dataset;
use aiql::telemetry::{HistogramSnapshot, RegistrySnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::spans::Tracer;

/// How many times a run sets the system up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Sets the system up once; returns it with the calibrated seconds it took.
pub fn timed_setup<S>(setup: impl FnOnce(&mut Pace) -> S) -> (S, f64) {
    let mut pace = Pace::default();
    let started = Instant::now();
    let sut = setup(&mut pace);
    let raw = started.elapsed().as_secs_f64();
    (sut, raw / pace.slowdown())
}

/// Closes a run's end-to-end metrics: `peak_rss_mb` of the one system the
/// rounds ran on, read before anything else is allocated, then — that
/// system dropped — the further set-ups whose median is `setup_s`.
pub fn finish_end_to_end<S>(
    e2e: &mut Metrics,
    sut: S,
    first_setup_s: f64,
    mut setup: impl FnMut(&mut Pace) -> S,
) {
    e2e.insert(
        "peak_rss_mb",
        proc_status_bytes("VmHWM:") as f64 / (1024.0 * 1024.0),
    );
    drop(sut);
    let mut setup_s = Samples::default();
    setup_s.push(first_setup_s);
    for _ in 1..SETUP_REPEATS {
        let (again, s) = timed_setup(&mut setup);
        drop(again);
        setup_s.push(s);
    }
    e2e.insert("setup_s", setup_s.median());
}

/// Metric name → value, as one workload measured it.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload hands back to `main`.
pub struct Outcome {
    /// Statements, shipments and reopens issued in the measured rounds.
    pub attempted: u64,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Human-readable context lines printed above the metric table.
    pub notes: Vec<String>,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock budget of the measured rounds; a run executes whole
    /// rounds of fixed work until this much time has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny dataset, attacks off, one round: exercises every code path of
    /// a workload in about a second (used by `tests/smoke.rs`).
    pub smoke: bool,
    /// Where store directories and the span file go. Inside the checkout.
    pub work_dir: PathBuf,
}

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 2017,
            seconds: 20.0,
            trace: false,
            smoke: false,
            work_dir: PathBuf::from("target/aiql-bench-work"),
        };
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| {
                argv.next()
                    .ok_or_else(|| format!("{flag} needs a value ({what})"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value("investigate|serve|ingest")?,
                "--seed" => {
                    args.seed = value("integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => args.trace = flag01(&value("0|1")?)?,
                "--smoke" => args.smoke = flag01(&value("0|1")?)?,
                "--work-dir" => args.work_dir = PathBuf::from(value("directory")?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !crate::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {:?}, got `{}`",
                crate::WORKLOADS,
                args.workload
            ));
        }
        if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
            return Err(format!("--seconds out of range: {}", args.seconds));
        }
        Ok(args)
    }
}

fn flag01(s: &str) -> Result<bool, String> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("expected 0 or 1, got `{other}`")),
    }
}

/// The monitored enterprise every workload runs on: 10 hosts × 2 days ×
/// 30 000 events/host/day with the attack scenarios planted (≈ 600 k
/// events, ≈ 75 k entities); `--smoke` shrinks it to 2 × 1 × 2 000 with
/// attacks off.
pub fn dataset(args: &Args) -> Dataset {
    let (hosts, days, per_day, attacks) = if args.smoke {
        (2, 1, 2_000, false)
    } else {
        (10, 2, 30_000, true)
    };
    EnterpriseSim::builder()
        .hosts(hosts)
        .days(days)
        .seed(args.seed)
        .events_per_host_per_day(per_day)
        .attacks(attacks)
        .build()
        .generate()
}

/// Runs whole rounds of fixed work until `seconds` have passed (at least
/// one round). With `--trace` rounds alternate untraced / traced, so the
/// two kinds sample the same stretch of wall time, and the run ends on a
/// whole pair. Returns the untraced and the traced rounds.
pub fn run_rounds<R>(
    args: &Args,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer) -> R,
) -> (Vec<R>, Vec<R>) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let record = args.trace && plain.len() > traced.len();
        tracer.set_recording(record);
        let done = round(tracer);
        (if record { &mut traced } else { &mut plain }).push(done);
        let whole = !args.trace || plain.len() == traced.len();
        if whole && (args.smoke || started.elapsed().as_secs_f64() >= args.seconds) {
            tracer.set_recording(false);
            return (plain, traced);
        }
    }
}

/// A bag of timing samples (seconds) with the estimators the benchmark
/// reports.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Moves `other`'s samples in, each multiplied by `scale`.
    pub fn absorb(&mut self, other: Samples, scale: f64) {
        self.0.extend(other.0.into_iter().map(|s| s * scale));
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// The `q`-quantile by nearest rank (0.0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Median over `items` (the rounds of a run) of one value each.
pub fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    let mut s = Samples::default();
    items.iter().for_each(|i| s.push(value(i)));
    s.median()
}

/// What one reference unit takes on this sandbox when nothing contends for
/// it. A constant, so calibrated times compare across runs, seeds and
/// commits; on other hardware it only fixes the unit.
const REFERENCE_NOMINAL_S: f64 = 125e-6;

/// One reference unit: a fixed piece of allocate / hash / compare work
/// (build a 600-entry map of path-like strings, probe it 1 200 times, sort
/// the values), timed. It slows down with the workloads when neighbours
/// load the memory system — an ALU-only loop does not — and is the
/// benchmark's own code, so no change to the crates moves it.
fn reference_unit() -> f64 {
    const KEY: u64 = 0x9E37_79B9_7F4A_7C15;
    let started = Instant::now();
    let mut map: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for i in 0..600u64 {
        map.insert(i.wrapping_mul(KEY), format!("C:\\Windows\\proc{i}.exe"));
    }
    let mut hit_bytes = 0usize;
    for i in 0..1200u64 {
        if let Some(v) = map.get(&i.wrapping_mul(KEY)) {
            hit_bytes += v.len();
        }
    }
    let mut values: Vec<&String> = map.values().collect();
    values.sort();
    std::hint::black_box((hit_bytes, values.len()));
    started.elapsed().as_secs_f64()
}

/// How long the wake reference asks to sleep, and what that takes on this
/// sandbox when the host is quiet (timer slack plus waking an idle vCPU).
const WAKE_REQUEST: std::time::Duration = std::time::Duration::from_micros(200);
const WAKE_NOMINAL_S: f64 = 270e-6;

/// One wake reference: a timed 200 µs sleep. When the host is busy an idle
/// vCPU is woken late, and everything that waits for a timer or a socket
/// — the server's idle poll, a client blocked on a reply — waits longer
/// with it, while computation is unaffected.
fn wake_unit() -> f64 {
    let started = Instant::now();
    std::thread::sleep(WAKE_REQUEST);
    started.elapsed().as_secs_f64()
}

/// The sandbox's pace over a stretch of work: reference units interleaved
/// with the operations being timed. The sandbox computes up to 1.6× slower
/// and wakes up to 4× later for minutes at a time; dividing a stretch's
/// computing time by its [`Pace::slowdown`] and its waiting time by its
/// [`Pace::wake_slowdown`] gives *calibrated* time — what the work would
/// have taken at nominal pace — and every timing metric is reported that
/// way (README, "Calibrated time").
#[derive(Default, Clone)]
pub struct Pace {
    work: Samples,
    wake: Samples,
}

impl Pace {
    /// Runs `n` reference units of work now.
    pub fn tick(&mut self, tr: &mut Tracer, n: usize) {
        let span = tr.enter("bench", "reference");
        for _ in 0..n {
            self.work.push(reference_unit());
        }
        tr.exit(span);
    }

    /// Runs `n` wake references now.
    pub fn tick_wake(&mut self, tr: &mut Tracer, n: usize) {
        let span = tr.enter("bench", "reference");
        for _ in 0..n {
            self.wake.push(wake_unit());
        }
        tr.exit(span);
    }

    /// Seconds spent in reference work so far (to take it out of a timing
    /// that encloses some).
    pub fn reference_s(&self) -> f64 {
        self.work.sum()
    }

    /// Median time of a unit of reference work over the stretch, relative
    /// to nominal.
    pub fn slowdown(&self) -> f64 {
        assert!(self.work.len() > 0, "a stretch recorded no reference unit");
        self.work.median() / REFERENCE_NOMINAL_S
    }

    /// Median time of a wake reference over the stretch, relative to
    /// nominal.
    pub fn wake_slowdown(&self) -> f64 {
        assert!(self.wake.len() > 0, "a stretch recorded no wake reference");
        self.wake.median() / WAKE_NOMINAL_S
    }

    /// Folds another stretch's references into this one.
    pub fn absorb(&mut self, other: Pace) {
        self.work.absorb(other.work, 1.0);
        self.wake.absorb(other.wake, 1.0);
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1 024 CPUs, glibc's `cpu_set_t`.
const CPU_MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending (empty off Linux).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a live buffer of exactly the length passed,
        // which the kernel fills, and pid 0 names the calling thread.
        let failed =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0;
        if failed {
            return Vec::new();
        }
    }
    (0..64 * CPU_MASK_WORDS)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// `cpus`. Returns false (and changes nothing) where that is not possible.
pub fn restrict_to_cpus(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_MASK_WORDS];
    for &cpu in cpus {
        if cpu >= 64 * CPU_MASK_WORDS {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // length passed, the kernel only reads it, and pid 0 names the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

/// `VmRSS` / `VmHWM` of this process in bytes (0 where `/proc` is absent).
pub fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// A scratch directory of this process under the work directory, removed
/// again when dropped — also while a failed check unwinds.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(args: &Args) -> WorkDir {
        let dir = args.work_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read store directory") {
        let entry = entry.expect("directory entry");
        let meta = entry.metadata().expect("file metadata");
        total += if meta.is_dir() {
            dir_bytes(&entry.path())
        } else {
            meta.len()
        };
    }
    total
}

/// The change of the process-wide telemetry registry between two points.
pub struct RegistryDelta {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl RegistryDelta {
    pub fn since(before: RegistrySnapshot) -> RegistryDelta {
        RegistryDelta {
            before,
            after: aiql::telemetry::global().snapshot(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    /// `(count, sum)` of a histogram's observations in the interval. The
    /// registry's buckets are powers of two, so only the exact moments are
    /// used, never its interpolated quantiles.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        let delta: Option<HistogramSnapshot> = self.after.histogram(name).map(|a| {
            self.before
                .histogram(name)
                .map_or_else(|| a.clone(), |b| a.delta_since(b))
        });
        delta.map_or((0, 0), |h| (h.count, h.sum))
    }

    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum as f64, count as f64)
    }
}

/// `a / b`, 0 when `b` is 0 (a layer that did no work reports 0).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
