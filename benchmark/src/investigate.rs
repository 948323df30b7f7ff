//! `investigate`: an analyst iterating on an investigation, in process.
//!
//! The engine and everything under it (plan, scan, join, score; rdb and
//! storage on the read side) does all the work; wire, WAL and ingest do
//! none. One thread, closed loop: the next statement starts when the
//! previous one has been drained. Each round runs, in turn,
//!
//! - *catalog*: the paper's case-study and behaviour queries (Table 3 /
//!   Fig. 5), prepared once, each executed and drained;
//! - *triage*: prepared bind + execute + drain of the Query-7 family, the
//!   short statement an analyst re-issues with new constants (parse-free);
//! - *adhoc*: the same family as substituted text with a time constant no
//!   earlier statement used, so every one misses the plan cache and pays
//!   lex + parse + analyze + plan.

use crate::spans::Tracer;
use crate::support::{
    dataset, finish_end_to_end, median_of, proc_status_bytes, ratio, run_rounds, timed_setup, Args,
    Metrics, Outcome, Pace, RegistryDelta, Samples,
};
use aiql::bench::catalog::{self, CatalogQuery};
use aiql::bench::service::{family, FamilyBinding, QUERY7_TEMPLATE};
use aiql::engine::{Cursor, EngineConfig, EngineError, Prepared, Session};
use aiql::rdb::{CmpOp, Expr, Prune, Row, ScanProfile};
use aiql::storage::{schema, EventStore, SharedStore, StoreConfig};
use std::time::Instant;

/// Prepared triage statements per round.
const TRIAGE_PER_ROUND: usize = 1500;
/// Ad hoc (plan-cache-missing) statements per round.
const ADHOC_PER_ROUND: usize = 500;
/// Short statements of either kind in the first-touch round of a set-up.
const FIRST_TOUCH_STMTS: usize = 64;
/// Rows pulled per `Cursor::fetch`.
const PAGE_ROWS: usize = 512;
/// Reference units between two catalog statements, and short statements
/// between two reference units.
const TICKS_PER_CATALOG_STMT: usize = 6;
const STMTS_PER_TICK: usize = 8;
/// The catalog statement that ends in `EngineError::Resource` at this
/// scale on every seed tried; it is attempted once per traced run, outside
/// the rounds, and reported as `engine.catalog_dnf`.
const DNF_QUERY: &str = "c5-5";

/// The system under test, ready for rounds.
struct Sut {
    events: usize,
    attacks: bool,
    store: SharedStore,
    session: Session,
    catalog: Vec<(CatalogQuery, Prepared)>,
    triage: Prepared,
    bindings: Vec<FamilyBinding>,
    /// Index into `bindings` of each agent's whole-attack-day window.
    full_day: Vec<usize>,
    /// Ad hoc statements issued so far; makes each one's text distinct.
    adhoc_issued: u64,
    generate_s: f64,
    load_s: f64,
    resident_bytes_per_event: f64,
    prepare: Samples,
}

/// Latency samples pooled over the measured rounds: calibrated seconds.
#[derive(Default)]
struct Pooled {
    triage_stmt: Samples,
    triage_bind: Samples,
    triage_execute: Samples,
    triage_fetch: Samples,
    adhoc_stmt: Samples,
    adhoc_prepare: Samples,
}

/// What one round did; times are calibrated seconds.
#[derive(Default)]
struct Round {
    /// Catalog + triage + ad hoc statement time.
    work_s: f64,
    catalog_s: f64,
    slowest_stmt_s: f64,
    slowdown: f64,
    /// Row count of every statement, in issue order.
    row_counts: Vec<usize>,
    /// The rows themselves, kept only for the check round.
    rows: Option<Vec<Vec<Row>>>,
    /// Engine counters summed over the catalog phase.
    data_queries: u64,
    rows_scanned: u64,
    join_work: u64,
    rows_returned: u64,
    scans: ScanProfile,
}

fn catalog_queries() -> Vec<CatalogQuery> {
    catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .collect()
}

fn setup(args: &Args, pace: &mut Pace) -> Sut {
    let quiet = &mut Tracer::new();
    pace.tick(quiet, 20);
    let t = Instant::now();
    let data = dataset(args);
    let generate_s = t.elapsed().as_secs_f64();
    pace.tick(quiet, 20);

    let rss_before = proc_status_bytes("VmRSS:");
    let t = Instant::now();
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).expect("batch load");
    let load_s = t.elapsed().as_secs_f64();
    let resident = proc_status_bytes("VmRSS:").saturating_sub(rss_before);
    assert_eq!(store.event_count(), data.events.len());
    pace.tick(quiet, 20);

    let store = SharedStore::new(store);
    let session = Session::open(&store);
    let mut prepare = Samples::default();
    let mut prepared = |source: &str| {
        let t = Instant::now();
        let stmt = session.prepare(source).expect("statement compiles");
        prepare.push(t.elapsed().as_secs_f64());
        stmt
    };
    let catalog = catalog_queries()
        .into_iter()
        .filter(|q| q.id != DNF_QUERY)
        .map(|q| {
            let stmt = prepared(q.source);
            (q, stmt)
        })
        .collect();
    let triage = prepared(QUERY7_TEMPLATE);
    let bindings = family(&data);
    // `family` emits three windows per agent; the third is the whole day.
    let full_day = (0..bindings.len() / 3).map(|a| a * 3 + 2).collect();

    let mut sut = Sut {
        events: data.events.len(),
        attacks: !args.smoke,
        store,
        session,
        catalog,
        triage,
        bindings,
        full_day,
        adhoc_issued: 0,
        generate_s,
        load_s,
        resident_bytes_per_event: ratio(resident as f64, data.events.len() as f64),
        prepare,
    };
    // First touch: one untimed round, so lazily built state (statement
    // plans, worker pool, allocator arenas) exists before anything is
    // measured and its cost shows in `setup_s`.
    sut.round(quiet, &mut Pooled::default(), false, FIRST_TOUCH_STMTS);
    pace.tick(quiet, 20);
    sut
}

/// Drains a cursor page by page; returns the row count and, when asked,
/// the rows.
fn drain(cursor: &mut Cursor, mut keep: Option<&mut Vec<Row>>) -> usize {
    let mut n = 0;
    loop {
        let page = cursor.fetch(PAGE_ROWS);
        if page.is_empty() {
            return n;
        }
        n += page.len();
        if let Some(rows) = keep.as_deref_mut() {
            rows.extend(page);
        }
    }
}

impl Sut {
    /// One round: the whole catalog, then `TRIAGE_PER_ROUND` triage and
    /// `ADHOC_PER_ROUND` ad hoc statements, each capped at `short_stmts`.
    fn round(
        &mut self,
        tr: &mut Tracer,
        pooled: &mut Pooled,
        keep_rows: bool,
        short_stmts: usize,
    ) -> Round {
        let mut out = Round {
            rows: keep_rows.then(Vec::new),
            ..Round::default()
        };
        let mut round_pace = Pace::default();
        let round_span = tr.enter("bench", "round");

        // Each catalog statement (5–100 ms) is calibrated by the reference
        // units run right before and after it: the sandbox's pace moves
        // within a phase, and the slowest statement is a single sample.
        let phase = tr.enter("bench", "catalog");
        let mut before = Pace::default();
        before.tick(tr, TICKS_PER_CATALOG_STMT);
        for (_, stmt) in &self.catalog {
            tr.next_op();
            let whole = tr.enter("bench", "catalog_stmt");
            let span = tr.enter("engine", "execute");
            let mut cursor = stmt.execute().expect("catalog statement runs");
            tr.exit(span);
            let stats = cursor.stats();
            out.data_queries += stats.data_queries as u64;
            out.rows_scanned += stats.rows_scanned;
            out.join_work += stats.join_work;
            for scan in &stats.scans {
                out.scans.merge(&scan.profile);
            }
            let mut rows = keep_rows.then(Vec::new);
            let span = tr.enter("engine", "fetch");
            let n = drain(&mut cursor, rows.as_mut());
            tr.exit(span);
            let stmt_s = tr.exit(whole);
            out.rows_returned += n as u64;
            out.record(n, rows);
            let mut after = Pace::default();
            after.tick(tr, TICKS_PER_CATALOG_STMT);
            let mut around = std::mem::replace(&mut before, after.clone());
            around.absorb(after);
            let stmt_s = stmt_s / around.slowdown();
            out.catalog_s += stmt_s;
            out.slowest_stmt_s = out.slowest_stmt_s.max(stmt_s);
            round_pace.absorb(around);
        }
        tr.exit(phase);
        out.work_s += out.catalog_s;

        let phase = tr.enter("bench", "triage");
        let mut pace = Pace::default();
        let (mut stmt_s, mut bind_s, mut execute_s, mut fetch_s) = (
            Samples::default(),
            Samples::default(),
            Samples::default(),
            Samples::default(),
        );
        for k in 0..TRIAGE_PER_ROUND.min(short_stmts) {
            if k % STMTS_PER_TICK == 0 {
                pace.tick(tr, 1);
            }
            let binding = &self.bindings[k % self.bindings.len()];
            tr.next_op();
            let whole = tr.enter("bench", "triage_stmt");
            let span = tr.enter("engine", "bind");
            let bound = self.triage.bind(binding.to_params()).expect("binds");
            bind_s.push(tr.exit(span));
            let span = tr.enter("engine", "execute");
            let mut cursor = bound.execute().expect("triage statement runs");
            execute_s.push(tr.exit(span));
            let mut rows = keep_rows.then(Vec::new);
            let span = tr.enter("engine", "fetch");
            let n = drain(&mut cursor, rows.as_mut());
            fetch_s.push(tr.exit(span));
            stmt_s.push(tr.exit(whole));
            out.record(n, rows);
        }
        tr.exit(phase);
        let calibrate = 1.0 / pace.slowdown();
        out.work_s += stmt_s.sum() * calibrate;
        pooled.triage_stmt.absorb(stmt_s, calibrate);
        pooled.triage_bind.absorb(bind_s, calibrate);
        pooled.triage_execute.absorb(execute_s, calibrate);
        pooled.triage_fetch.absorb(fetch_s, calibrate);
        round_pace.absorb(pace);

        let phase = tr.enter("bench", "adhoc");
        let mut pace = Pace::default();
        let (mut stmt_s, mut prepare_s) = (Samples::default(), Samples::default());
        for k in 0..ADHOC_PER_ROUND.min(short_stmts) {
            if k % STMTS_PER_TICK == 0 {
                pace.tick(tr, 1);
            }
            let source = self.adhoc_source(k);
            self.adhoc_issued += 1;
            tr.next_op();
            let whole = tr.enter("bench", "adhoc_stmt");
            let span = tr.enter("engine", "prepare");
            let stmt = self.session.prepare(&source).expect("ad hoc text compiles");
            prepare_s.push(tr.exit(span));
            let span = tr.enter("engine", "execute");
            let mut cursor = stmt.execute().expect("ad hoc statement runs");
            tr.exit(span);
            let mut rows = keep_rows.then(Vec::new);
            let span = tr.enter("engine", "fetch");
            let n = drain(&mut cursor, rows.as_mut());
            tr.exit(span);
            stmt_s.push(tr.exit(whole));
            out.record(n, rows);
        }
        tr.exit(phase);
        let calibrate = 1.0 / pace.slowdown();
        out.work_s += stmt_s.sum() * calibrate;
        pooled.adhoc_stmt.absorb(stmt_s, calibrate);
        pooled.adhoc_prepare.absorb(prepare_s, calibrate);
        round_pace.absorb(pace);

        tr.exit(round_span);
        out.slowdown = round_pace.slowdown();
        out
    }

    /// The `k`-th ad hoc statement of a round: agent `k`'s whole-day family
    /// member with the window's end moved past the last event by a number
    /// of seconds no earlier statement used — the same rows, new text.
    fn adhoc_source(&self, k: usize) -> String {
        let mut b = self.bindings[self.full_day[k % self.full_day.len()]].clone();
        b.t1 = jan_2017(3, self.adhoc_issued);
        b.to_source()
    }

    /// Which family binding statement number `i` of a round must agree
    /// with (`None`: catalog statement `i`).
    fn family_member(&self, i: usize) -> Option<usize> {
        let i = i.checked_sub(self.catalog.len())?;
        Some(match i.checked_sub(TRIAGE_PER_ROUND) {
            None => i % self.bindings.len(),
            Some(k) => self.full_day[k % self.full_day.len()],
        })
    }
}

impl Round {
    fn record(&mut self, n: usize, rows: Option<Vec<Row>>) {
        self.row_counts.push(n);
        if let (Some(all), Some(rows)) = (self.rows.as_mut(), rows) {
            all.push(rows);
        }
    }
}

/// The rows every statement must return, from a sequential engine
/// (`with_workers(1)`: no scatter, no pool) over the same store.
struct Oracle {
    catalog: Vec<Vec<Row>>,
    family: Vec<Vec<Row>>,
}

fn oracle(sut: &Sut) -> Oracle {
    let sequential = Session::with_config(&sut.store, EngineConfig::aiql().with_workers(1));
    let catalog = sut
        .catalog
        .iter()
        .map(|(q, _)| sequential.run(q.source).expect("oracle runs").rows)
        .collect();
    let stmt = sequential.prepare(QUERY7_TEMPLATE).expect("compiles");
    let family = sut
        .bindings
        .iter()
        .map(|b| {
            stmt.bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("oracle runs")
                .into_result()
                .rows
        })
        .collect();
    Oracle { catalog, family }
}

impl Oracle {
    fn expected<'a>(&'a self, sut: &Sut, i: usize) -> &'a Vec<Row> {
        match sut.family_member(i) {
            None => &self.catalog[i],
            Some(m) => &self.family[m],
        }
    }

    /// Full row comparison of one kept round.
    fn check_rows(&self, sut: &Sut, round: &Round) {
        let rows = round.rows.as_ref().expect("check round keeps rows");
        for (i, got) in rows.iter().enumerate() {
            assert!(
                got == self.expected(sut, i),
                "statement {i} of the round disagrees with the sequential oracle"
            );
        }
        if sut.attacks {
            for ((q, _), rows) in sut.catalog.iter().zip(&self.catalog) {
                assert!(!rows.is_empty(), "{} found nothing: scenario lost", q.id);
            }
            assert!(
                self.family.iter().any(|rows| !rows.is_empty()),
                "no family member found the exfiltration chain"
            );
        }
    }

    fn check_counts(&self, sut: &Sut, round: &Round) {
        for (i, &n) in round.row_counts.iter().enumerate() {
            assert_eq!(
                n,
                self.expected(sut, i).len(),
                "statement {i} of a measured round changed its row count"
            );
        }
    }
}

/// Runs the statement kept out of the rounds once; 1 when it ends in a
/// resource or time limit, 0 when it completes.
fn attempt_dnf_query(sut: &Sut) -> f64 {
    let Some(q) = catalog_queries().into_iter().find(|q| q.id == DNF_QUERY) else {
        return 0.0;
    };
    match sut.session.run(q.source) {
        Ok(_) => 0.0,
        Err(EngineError::Resource | EngineError::Timeout) => 1.0,
        Err(e) => panic!("{DNF_QUERY} failed in a new way: {e}"),
    }
}

/// Isolated probes of layers the rounds only see from above (raw times).
fn probes(sut: &Sut, out: &mut Metrics) {
    // Compile (lex + parse + analyze) over the catalog texts.
    let mut compile = Samples::default();
    for _ in 0..5 {
        for q in catalog_queries() {
            let t = Instant::now();
            std::hint::black_box(aiql::lang::compile(q.source).expect("compiles"));
            compile.push(t.elapsed().as_secs_f64());
        }
    }
    out.insert("core.compile_p50_us", compile.median() * 1e6);

    // One agent's events of the attack day, straight from storage.
    let snapshot = sut.store.read();
    let day = aiql::model::Timestamp::from_ymd(2017, 1, 2)
        .expect("valid date")
        .day_index();
    let conjuncts = [Expr::cmp_lit(schema::ev::AGENT, CmpOp::Eq, 0i64)];
    let prune = Prune {
        day_lo: Some(day),
        day_hi: Some(day),
        agents: Some(vec![0]),
    };
    let mut scan = Samples::default();
    for _ in 0..20 {
        let (mut scanned, mut profile) = (0u64, ScanProfile::default());
        let t = Instant::now();
        let rows = snapshot.scan_events_profiled(&conjuncts, &prune, &mut scanned, &mut profile);
        std::hint::black_box(rows.len());
        scan.push(t.elapsed().as_secs_f64());
    }
    out.insert("storage.scan_events_ms", scan.median() * 1e3);

    // One catalog round on the sequential engine.
    let sequential = Session::with_config(&sut.store, EngineConfig::aiql().with_workers(1));
    let stmts: Vec<Prepared> = sut
        .catalog
        .iter()
        .map(|(q, _)| sequential.prepare(q.source).expect("compiles"))
        .collect();
    let mut pass = Samples::default();
    for _ in 0..2 {
        let t = Instant::now();
        for stmt in &stmts {
            std::hint::black_box(stmt.execute().expect("runs").count());
        }
        pass.push(t.elapsed().as_secs_f64());
    }
    out.insert("engine.sequential_round_s", pass.quantile(0.0));
}

pub fn run(args: &Args) -> Outcome {
    let (mut sut, first_setup_s) = timed_setup(|pace| setup(args, pace));
    let resident_bytes_per_event = sut.resident_bytes_per_event;

    let oracle = oracle(&sut);
    let check = sut.round(&mut Tracer::new(), &mut Pooled::default(), true, usize::MAX);
    oracle.check_rows(&sut, &check);

    let registry_before = aiql::telemetry::global().snapshot();
    let mut pooled = Pooled::default();
    let mut tracer = Tracer::new();
    let (plain, traced) = run_rounds(args, &mut tracer, |tracer| {
        let round = sut.round(tracer, &mut pooled, false, usize::MAX);
        oracle.check_counts(&sut, &round);
        round
    });
    let rounds = plain.len() + traced.len();
    let registry = RegistryDelta::since(registry_before);

    let statements = sut.catalog.len() as f64;
    let mut e2e = Metrics::new();
    e2e.insert("round_s", median_of(&plain, |r| r.work_s));
    e2e.insert(
        "bulk_per_s",
        median_of(&plain, |r| ratio(statements, r.catalog_s)),
    );
    e2e.insert("interactive_p50_ms", pooled.triage_stmt.median() * 1e3);
    e2e.insert("heavy_read_ms", pooled.adhoc_stmt.median() * 1e3);
    e2e.insert("stall_ms", median_of(&plain, |r| r.slowest_stmt_s) * 1e3);
    e2e.insert("bytes_per_event", resident_bytes_per_event);

    let mut layer = Metrics::new();
    let last = plain.last().expect("at least one untraced round");
    let stmts_per_round = (sut.catalog.len() + TRIAGE_PER_ROUND + ADHOC_PER_ROUND) as f64;
    layer.insert("bench.slowdown", median_of(&plain, |r| r.slowdown));
    layer.insert("datagen.generate_s", sut.generate_s);
    layer.insert(
        "storage.batch_load_events_per_s",
        ratio(sut.events as f64, sut.load_s),
    );
    layer.insert("storage.resident_bytes_per_event", resident_bytes_per_event);
    layer.insert("core.adhoc_stmt_p50_ms", pooled.adhoc_stmt.median() * 1e3);
    let (hits, misses) = (
        registry.counter("aiql_core_plan_cache_hits_total") as f64,
        registry.counter("aiql_core_plan_cache_misses_total") as f64,
    );
    layer.insert("core.plan_cache_hit_rate", ratio(hits, hits + misses));
    layer.insert("engine.prepare_p50_us", sut.prepare.median() * 1e6);
    layer.insert(
        "engine.adhoc_prepare_p50_us",
        pooled.adhoc_prepare.median() * 1e6,
    );
    layer.insert("engine.bind_p50_us", pooled.triage_bind.median() * 1e6);
    layer.insert(
        "engine.execute_p50_ms",
        pooled.triage_execute.median() * 1e3,
    );
    layer.insert(
        "engine.fetch_page_p50_us",
        pooled.triage_fetch.median() * 1e6,
    );
    layer.insert(
        "engine.triage_stmt_p99_ms",
        pooled.triage_stmt.quantile(0.99) * 1e3,
    );
    layer.insert("engine.catalog_s", median_of(&plain, |r| r.catalog_s));
    layer.insert(
        "engine.rows_scanned_per_row_returned",
        ratio(last.rows_scanned as f64, last.rows_returned as f64),
    );
    layer.insert(
        "engine.data_queries_per_stmt",
        ratio(last.data_queries as f64, statements),
    );
    layer.insert(
        "engine.join_work_per_stmt",
        ratio(last.join_work as f64, statements),
    );
    let (pool_waits, pool_wait_micros) = registry.histogram("aiql_engine_pool_queue_wait_micros");
    layer.insert(
        "engine.pool_queue_wait_us",
        ratio(pool_wait_micros as f64, pool_waits as f64),
    );
    layer.insert(
        "engine.pool_tasks_per_stmt",
        ratio(
            registry.counter("aiql_engine_pool_tasks") as f64,
            rounds as f64 * stmts_per_round,
        ),
    );
    let s = &last.scans;
    layer.insert(
        "rdb.partitions_scanned_share",
        ratio(s.partitions_scanned as f64, s.partitions_total as f64),
    );
    layer.insert(
        "rdb.blocks_pruned_share",
        ratio(s.blocks_pruned as f64, s.blocks_total as f64),
    );
    let scans = s.seq_scans + s.index_eq_probes + s.index_range_scans + s.columnar_scans;
    layer.insert(
        "rdb.columnar_scan_share",
        ratio(s.columnar_scans as f64, scans as f64),
    );
    layer.insert(
        "rdb.rows_matched_per_scanned",
        ratio(s.rows_matched as f64, s.rows_scanned as f64),
    );
    if args.trace {
        // Only here: the statement's blow-up up to its resource limit would
        // otherwise set `peak_rss_mb`, by 30 or by 90 MB as its two scan
        // threads happen to interleave.
        layer.insert("engine.catalog_dnf", attempt_dnf_query(&sut));
        probes(&sut, &mut layer);
        let overhead = ratio(
            median_of(&traced, |r| r.work_s),
            median_of(&plain, |r| r.work_s),
        );
        crate::trace_metrics(args, &tracer, overhead, &mut layer);
    }

    let notes = vec![format!(
        "{} events · {} catalog statements + {TRIAGE_PER_ROUND} triage + {ADHOC_PER_ROUND} \
             ad hoc per round · {rounds} rounds · {} triage samples · sandbox slowdown {:.3}",
        sut.events,
        sut.catalog.len(),
        pooled.triage_stmt.len(),
        median_of(&plain, |r| r.slowdown),
    )];
    if !args.trace {
        finish_end_to_end(&mut e2e, sut, first_setup_s, |pace| setup(args, pace));
    }
    Outcome {
        attempted: tracer.ops(),
        end_to_end: e2e,
        per_layer: layer,
        notes,
    }
}

/// `MM/DD/YYYY HH:MM:SS` of day `day` of January 2017 plus `secs` seconds
/// (rolls into following days), the literal form the language parses.
fn jan_2017(day: u32, secs: u64) -> String {
    let day = day as u64 + secs / 86_400;
    let s = secs % 86_400;
    assert!(day <= 31, "time constant left January");
    format!(
        "01/{day:02}/2017 {:02}:{:02}:{:02}",
        s / 3600,
        s % 3600 / 60,
        s % 60
    )
}
