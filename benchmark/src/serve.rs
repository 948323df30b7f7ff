//! `serve`: a SOC tool talking to `aiql-server` over loopback.
//!
//! The same store as `investigate`, behind `Server::spawn` with one
//! connection worker, so wire decode, the worker's poll loop, page encode
//! and flush do most of the work in phases (a) and (c) and the engine most
//! of it in (b). Closed loop; one `aiql-client` connection, a second only
//! in phase (c). Each round runs, in turn,
//!
//! - (a) *remote triage*: execute + fetch of the Query-7 family;
//! - (b) *sweep*: a wide answer (every file one agent's processes read or
//!   wrote on the attack day, ≈ 18 k rows), first page timed apart from
//!   the drain;
//! - (c) *contended*: triage on the first connection while a second one
//!   sweeps continuously through the same worker — today `conn.rs`
//!   executes inline, so each sweep head-of-line-blocks the triage.

use crate::spans::Tracer;
use crate::support::{
    allowed_cpus, dataset, finish_end_to_end, median_of, ratio, restrict_to_cpus, run_rounds,
    timed_setup, Args, Metrics, Outcome, Pace, RegistryDelta, Samples,
};
use aiql::bench::service::{family, FamilyBinding, QUERY7_TEMPLATE};
use aiql::client::{Client, Row};
use aiql::engine::{EngineConfig, Params, Session};
use aiql::server::proto::{Request, Response};
use aiql::server::{Server, ServerConfig, ServerHandle};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const TRIAGE_PER_ROUND: usize = 3000;
const SWEEPS_PER_ROUND: usize = 20;
const CONTENDED_PER_ROUND: usize = 400;
/// Rows per page of a sweep; the first one is `heavy_read_ms`.
const SWEEP_PAGE: u32 = 512;
const TRIAGE_PAGE: u32 = 1024;
/// Remote statements between two reference units, and reference units
/// after every sweep.
const STMTS_PER_TICK: usize = 8;
const TICKS_PER_SWEEP: usize = 8;

const SWEEP: &str = r#"
    (at "01/02/2017") agentid = $agent
    proc p1 read || write file f1 as e1
    return p1, f1
"#;

/// One connection with a session and both statements prepared.
struct Conn {
    client: Client,
    session: u64,
    triage: u64,
    sweep: u64,
}

/// One remote triage statement, raw seconds.
struct Trip {
    execute_rtt: f64,
    fetch_rtt: f64,
    /// Server-side execution time, as the `Executed` frame reports it.
    engine: f64,
}

/// One remote sweep, raw seconds.
struct Sweep {
    rows: Vec<Row>,
    /// Execute → first page in hand.
    first_page: f64,
    /// Server-side execution time.
    engine: f64,
}

impl Conn {
    fn open(server: &ServerHandle) -> Conn {
        let mut client = Client::connect(server.addr(), "benchmark").expect("connect");
        let session = client.open_session().expect("open session");
        let triage = client
            .prepare(session, QUERY7_TEMPLATE)
            .expect("prepare")
            .stmt;
        let sweep = client.prepare(session, SWEEP).expect("prepare").stmt;
        Conn {
            client,
            session,
            triage,
            sweep,
        }
    }

    /// Execute + drain of one family member.
    fn triage(&mut self, tr: &mut Tracer, params: &Params) -> (Vec<Row>, Trip) {
        let span = tr.enter("client", "execute_rtt");
        let cur = self
            .client
            .execute(self.session, self.triage, params, None)
            .expect("remote execute");
        let execute_rtt = tr.exit(span);
        let span = tr.enter("client", "fetch_rtt");
        let rows = self
            .client
            .fetch_all(cur.cursor, TRIAGE_PAGE)
            .expect("remote fetch");
        let trip = Trip {
            execute_rtt,
            fetch_rtt: tr.exit(span),
            engine: cur.elapsed_micros as f64 / 1e6,
        };
        (rows, trip)
    }

    /// One sweep, drained.
    fn sweep(&mut self, tr: &mut Tracer, agent: i64) -> Sweep {
        let first = tr.enter("client", "sweep_first_page");
        let cur = self
            .client
            .execute(self.session, self.sweep, &sweep_params(agent), None)
            .expect("remote sweep");
        let (mut rows, mut done) = self.client.fetch(cur.cursor, SWEEP_PAGE).expect("page");
        let first_page = tr.exit(first);
        let drain = tr.enter("client", "sweep_drain");
        while !done {
            let (page, last) = self.client.fetch(cur.cursor, SWEEP_PAGE).expect("page");
            rows.extend(page);
            done = last;
        }
        tr.exit(drain);
        Sweep {
            rows,
            first_page,
            engine: cur.elapsed_micros as f64 / 1e6,
        }
    }
}

fn sweep_params(agent: i64) -> Params {
    Params::new().set("agent", agent)
}

/// The system under test. Connections are declared before the server so
/// they close first and its drain has nothing to wait for.
struct Sut {
    main: Conn,
    second: Conn,
    server: ServerHandle,
    store: SharedStore,
    events: usize,
    bindings: Vec<FamilyBinding>,
    agents: Vec<i64>,
    generate_s: f64,
    load_s: f64,
}

/// Latency samples pooled over the measured rounds: calibrated seconds.
#[derive(Default)]
struct Pooled {
    remote_stmt: Samples,
    execute_rtt: Samples,
    fetch_rtt: Samples,
    engine_elapsed: Samples,
    first_page: Samples,
    contended_stmt: Samples,
}

/// What one round did; times are calibrated seconds.
#[derive(Default)]
struct Round {
    /// Statement time of the three phases.
    work_s: f64,
    sweep_s: f64,
    sweep_rows: usize,
    contended_s: f64,
    slowdown: f64,
    wake_slowdown: f64,
    /// Sweeps the second connection completed during phase (c).
    background_sweeps: usize,
    /// Row counts: triage statements, then sweeps, then contended triage.
    row_counts: Vec<usize>,
}

/// `cpus`: the CPUs the process may use, as `allowed_cpus` saw them before
/// anything was restricted.
fn setup(args: &Args, pace: &mut Pace, cpus: &[usize]) -> Sut {
    let quiet = &mut Tracer::new();
    // A set-up after the first starts on the client's CPU; undo that.
    restrict_to_cpus(cpus);
    pace.tick(quiet, 20);
    let t = Instant::now();
    let data = dataset(args);
    let generate_s = t.elapsed().as_secs_f64();
    pace.tick(quiet, 20);
    let t = Instant::now();
    let store = SharedStore::new(
        EventStore::ingest(&data, StoreConfig::partitioned()).expect("batch load"),
    );
    let load_s = t.elapsed().as_secs_f64();
    pace.tick(quiet, 20);
    // The server's threads (and the engine pool they grow) on one CPU, the
    // client's on another, as two machines would have it. Left to the
    // scheduler, a worker that shares the client's core hands over on
    // `yield_now` and never reaches its 200 µs idle sleep, one on the
    // other core sleeps before every request: 0.25 ms or 0.65 ms per
    // statement, by placement.
    let pinned = cpus.len() >= 2 && restrict_to_cpus(&cpus[1..2]);
    let server = Server::spawn(
        &store,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    if pinned {
        restrict_to_cpus(&cpus[..1]);
    }
    let mut sut = Sut {
        main: Conn::open(&server),
        second: Conn::open(&server),
        server,
        store,
        events: data.events.len(),
        bindings: family(&data),
        agents: data.agents().iter().map(|a| a.0 as i64).collect(),
        generate_s,
        load_s,
    };
    // First touch: every statement class once on both connections.
    for b in &sut.bindings {
        sut.main.triage(quiet, &b.to_params());
        sut.second.triage(quiet, &b.to_params());
    }
    for &agent in &sut.agents {
        sut.main.sweep(quiet, agent);
        sut.second.sweep(quiet, agent);
    }
    pace.tick(quiet, 20);
    sut
}

/// What a sequential in-process session returns for every statement.
struct Oracle {
    family: Vec<Vec<Row>>,
    sweeps: Vec<Vec<Row>>,
}

fn oracle(sut: &Sut) -> Oracle {
    let session = Session::with_config(&sut.store, EngineConfig::aiql().with_workers(1));
    let triage = session.prepare(QUERY7_TEMPLATE).expect("compiles");
    let sweep = session.prepare(SWEEP).expect("compiles");
    let rows = |stmt: &aiql::engine::Prepared, params: Params| {
        stmt.bind(params)
            .expect("binds")
            .execute()
            .expect("oracle runs")
            .collect::<Vec<Row>>()
    };
    Oracle {
        family: sut
            .bindings
            .iter()
            .map(|b| rows(&triage, b.to_params()))
            .collect(),
        sweeps: sut
            .agents
            .iter()
            .map(|&a| rows(&sweep, sweep_params(a)))
            .collect(),
    }
}

impl Oracle {
    /// Row-identity of every statement class over the wire on both
    /// connections; returns the wire bytes the server queued per sweep row.
    fn check_rows(&self, sut: &mut Sut) -> f64 {
        let quiet = &mut Tracer::new();
        for (b, want) in sut.bindings.iter().zip(&self.family) {
            for conn in [&mut sut.main, &mut sut.second] {
                let (rows, _) = conn.triage(quiet, &b.to_params());
                assert!(&rows == want, "remote triage differs from the session");
            }
        }
        let bytes_out = aiql::telemetry::global().counter("aiql_server_bytes_out_total");
        let (before, mut rows_out) = (bytes_out.get(), 0usize);
        for (&agent, want) in sut.agents.iter().zip(&self.sweeps) {
            let rows = sut.main.sweep(quiet, agent).rows;
            assert!(&rows == want, "remote sweep differs from the session");
            rows_out += rows.len();
        }
        let wire_bytes = bytes_out.get() - before;
        for (&agent, want) in sut.agents.iter().zip(&self.sweeps) {
            let rows = sut.second.sweep(quiet, agent).rows;
            assert!(
                &rows == want,
                "remote sweep differs on the second connection"
            );
        }
        ratio(wire_bytes as f64, rows_out as f64)
    }

    fn check_counts(&self, sut: &Sut, round: &Round) {
        let family = self.family.len();
        let expected = (0..TRIAGE_PER_ROUND)
            .map(|k| self.family[k % family].len())
            .chain((0..SWEEPS_PER_ROUND).map(|k| self.sweeps[k % sut.agents.len()].len()))
            .chain((0..CONTENDED_PER_ROUND).map(|k| self.family[k % family].len()));
        assert!(
            round.row_counts.iter().copied().eq(expected),
            "a measured round changed a statement's row count"
        );
    }
}

impl Sut {
    fn round(&mut self, tr: &mut Tracer, pooled: &mut Pooled, oracle: &Oracle) -> Round {
        let mut out = Round::default();
        // One pace for the round, sampled in (a) and (b) only: in (c) both
        // cores are busy and a reference would measure the scheduler.
        let mut pace = Pace::default();
        let round_span = tr.enter("bench", "round");

        let phase = tr.enter("bench", "remote_triage");
        let mut trips: Vec<(f64, Trip)> = Vec::with_capacity(TRIAGE_PER_ROUND);
        for k in 0..TRIAGE_PER_ROUND {
            if k % STMTS_PER_TICK == 0 {
                pace.tick(tr, 1);
                pace.tick_wake(tr, 1);
            }
            let params = self.bindings[k % self.bindings.len()].to_params();
            tr.next_op();
            let whole = tr.enter("bench", "remote_stmt");
            let (rows, trip) = self.main.triage(tr, &params);
            trips.push((tr.exit(whole), trip));
            out.row_counts.push(rows.len());
        }
        tr.exit(phase);

        let phase = tr.enter("bench", "sweep");
        let mut sweeps: Vec<(f64, Sweep)> = Vec::with_capacity(SWEEPS_PER_ROUND);
        for k in 0..SWEEPS_PER_ROUND {
            tr.next_op();
            let whole = tr.enter("bench", "sweep_stmt");
            let sweep = self.main.sweep(tr, self.agents[k % self.agents.len()]);
            let whole_s = tr.exit(whole);
            out.sweep_rows += sweep.rows.len();
            out.row_counts.push(sweep.rows.len());
            sweeps.push((whole_s, sweep));
            pace.tick(tr, TICKS_PER_SWEEP);
            pace.tick_wake(tr, TICKS_PER_SWEEP);
        }
        tr.exit(phase);

        let phase = tr.enter("bench", "contended");
        let (stop, start) = (AtomicBool::new(false), Barrier::new(2));
        let (main, second) = (&mut self.main, &mut self.second);
        let (bindings, agents) = (&self.bindings, &self.agents);
        let mut contended_s = Samples::default();
        out.background_sweeps = std::thread::scope(|scope| {
            let background = scope.spawn(|| {
                // The colleague's scan: not traced, only counted and checked.
                let quiet = &mut Tracer::new();
                let mut sweeps = 0usize;
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let at = sweeps % agents.len();
                    let rows = second.sweep(quiet, agents[at]).rows;
                    assert_eq!(rows.len(), oracle.sweeps[at].len());
                    sweeps += 1;
                }
                sweeps
            });
            start.wait();
            for k in 0..CONTENDED_PER_ROUND {
                let params = bindings[k % bindings.len()].to_params();
                tr.next_op();
                let whole = tr.enter("bench", "contended_stmt");
                let (rows, _) = main.triage(tr, &params);
                contended_s.push(tr.exit(whole));
                out.row_counts.push(rows.len());
            }
            stop.store(true, Ordering::Relaxed);
            background.join().expect("background sweeper")
        });
        tr.exit(phase);
        tr.exit(round_span);

        // Of a lone statement the server reports how long it executed; the
        // rest is round trips, which wait for the worker to wake. A
        // contended statement waits for the other connection's sweep to
        // finish executing: all of it is computing.
        let (work, wake) = (pace.slowdown(), pace.wake_slowdown());
        let calibrate = |raw: f64, compute: f64| compute / work + (raw - compute) / wake;
        (out.slowdown, out.wake_slowdown) = (work, wake);
        out.contended_s = contended_s.sum() / work;
        out.work_s = out.contended_s;
        for (stmt_s, trip) in trips {
            let stmt_s = calibrate(stmt_s, trip.engine);
            out.work_s += stmt_s;
            pooled.remote_stmt.push(stmt_s);
            pooled
                .execute_rtt
                .push(calibrate(trip.execute_rtt, trip.engine));
            pooled.fetch_rtt.push(trip.fetch_rtt / wake);
            pooled.engine_elapsed.push(trip.engine / work);
        }
        for (whole_s, sweep) in sweeps {
            out.sweep_s += calibrate(whole_s, sweep.engine);
            pooled
                .first_page
                .push(calibrate(sweep.first_page, sweep.engine));
        }
        out.work_s += out.sweep_s;
        pooled.contended_stmt.absorb(contended_s, 1.0 / work);
        out
    }
}

/// Isolated probes (raw times): the wire + poll-loop floor, the page
/// codec, and the same statements without the wire.
fn probes(sut: &mut Sut, oracle: &Oracle, out: &mut Metrics) {
    let mut ping = Samples::default();
    for _ in 0..2000 {
        let t = Instant::now();
        sut.main.client.ping().expect("ping");
        ping.push(t.elapsed().as_secs_f64());
    }
    out.insert("client.ping_rtt_p50_us", ping.median() * 1e6);

    // Remote against local on the same bindings, back to back.
    let session = Session::open(&sut.store);
    let stmt = session.prepare(QUERY7_TEMPLATE).expect("compiles");
    let (mut local, mut remote) = (Samples::default(), Samples::default());
    let quiet = &mut Tracer::new();
    for _ in 0..10 {
        for b in &sut.bindings {
            let t = Instant::now();
            let n = stmt
                .bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("runs")
                .count();
            std::hint::black_box(n);
            local.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sut.main.triage(quiet, &b.to_params());
            remote.push(t.elapsed().as_secs_f64());
        }
    }
    out.insert(
        "server.wire_overhead_ms",
        (remote.median() - local.median()) * 1e3,
    );

    // A real page: the widest sweep's first rows.
    let widest = oracle
        .sweeps
        .iter()
        .max_by_key(|s| s.len())
        .expect("a sweep");
    let page = Response::Page {
        cursor: 1,
        rows: widest.iter().take(SWEEP_PAGE as usize).cloned().collect(),
        done: false,
    };
    let params = sut.bindings[0].to_params();
    let request = Request::Execute {
        session: 1,
        stmt: 1,
        params: params
            .names()
            .map(|n| {
                let v = params.get(n).cloned().expect("named parameter");
                (n.to_string(), v)
            })
            .collect(),
        timeout_ms: 0,
    };
    let (page_payload, request_payload) = (
        page.encode().expect("page encodes"),
        request.encode().expect("request encodes"),
    );
    let (mut encode, mut decode_page, mut decode_request) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(page.to_frame().expect("frames"));
        encode.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(Response::decode(&page_payload).expect("decodes"));
        decode_page.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(Request::decode(&request_payload).expect("decodes"));
        decode_request.push(t.elapsed().as_secs_f64());
    }
    out.insert("server.encode_page_us", encode.median() * 1e6);
    out.insert("client.decode_page_us", decode_page.median() * 1e6);
    out.insert("server.decode_request_us", decode_request.median() * 1e6);
}

pub fn run(args: &Args) -> Outcome {
    let cpus = allowed_cpus();
    let (mut sut, first_setup_s) = timed_setup(|pace| setup(args, pace, &cpus));

    let oracle = oracle(&sut);
    let wire_bytes_per_row = oracle.check_rows(&mut sut);

    let registry_before = aiql::telemetry::global().snapshot();
    let stats_before = sut.server.stats();
    let mut tracer = Tracer::new();
    let mut pooled = Pooled::default();
    let (plain, traced) = run_rounds(args, &mut tracer, |tracer| {
        let round = sut.round(tracer, &mut pooled, &oracle);
        oracle.check_counts(&sut, &round);
        round
    });
    let rounds = plain.len() + traced.len();
    let registry = RegistryDelta::since(registry_before);
    let stats = sut.server.stats();
    assert_eq!(
        stats.protocol_errors, 0,
        "the server counted protocol errors"
    );
    assert_eq!(stats.timeouts, 0, "a statement timed out");

    let sweep_rows_per_s = median_of(&plain, |r| ratio(r.sweep_rows as f64, r.sweep_s));
    let mut e2e = Metrics::new();
    e2e.insert("round_s", median_of(&plain, |r| r.work_s));
    e2e.insert("bulk_per_s", sweep_rows_per_s);
    e2e.insert("interactive_p50_ms", pooled.remote_stmt.median() * 1e3);
    e2e.insert("heavy_read_ms", pooled.first_page.median() * 1e3);
    e2e.insert(
        "stall_ms",
        median_of(&plain, |r| r.contended_s / CONTENDED_PER_ROUND as f64) * 1e3,
    );
    e2e.insert("bytes_per_event", wire_bytes_per_row);

    let mut layer = Metrics::new();
    layer.insert("bench.slowdown", median_of(&plain, |r| r.slowdown));
    layer.insert(
        "bench.wake_slowdown",
        median_of(&plain, |r| r.wake_slowdown),
    );
    layer.insert("datagen.generate_s", sut.generate_s);
    layer.insert(
        "storage.batch_load_events_per_s",
        ratio(sut.events as f64, sut.load_s),
    );
    layer.insert(
        "client.execute_rtt_p50_ms",
        pooled.execute_rtt.median() * 1e3,
    );
    layer.insert("client.fetch_rtt_p50_ms", pooled.fetch_rtt.median() * 1e3);
    layer.insert(
        "client.remote_stmt_p99_ms",
        pooled.remote_stmt.quantile(0.99) * 1e3,
    );
    layer.insert(
        "server.engine_elapsed_p50_ms",
        pooled.engine_elapsed.median() * 1e3,
    );
    layer.insert("server.sweep_rows_per_s", sweep_rows_per_s);
    layer.insert(
        "server.contended_stmts_per_s",
        median_of(&plain, |r| ratio(CONTENDED_PER_ROUND as f64, r.contended_s)),
    );
    layer.insert(
        "server.contended_stmt_p50_ms",
        pooled.contended_stmt.median() * 1e3,
    );
    layer.insert(
        "server.contended_stmt_p95_ms",
        pooled.contended_stmt.quantile(0.95) * 1e3,
    );
    layer.insert(
        "server.background_sweeps_per_round",
        median_of(&plain, |r| r.background_sweeps as f64),
    );
    layer.insert(
        "server.executes_per_round",
        ratio(
            (stats.executes - stats_before.executes) as f64,
            rounds as f64,
        ),
    );
    layer.insert("server.wire_bytes_per_row", wire_bytes_per_row);
    layer.insert(
        "server.execute_mean_us",
        registry.histogram_mean("aiql_server_execute_micros"),
    );
    layer.insert(
        "server.fetch_mean_us",
        registry.histogram_mean("aiql_server_fetch_micros"),
    );
    layer.insert("server.protocol_errors", stats.protocol_errors as f64);
    layer.insert(
        "server.backpressure_stalls",
        (stats.backpressure_stalls - stats_before.backpressure_stalls) as f64,
    );
    layer.insert("server.timeouts", stats.timeouts as f64);
    if args.trace {
        probes(&mut sut, &oracle, &mut layer);
        let overhead = ratio(
            median_of(&traced, |r| r.work_s),
            median_of(&plain, |r| r.work_s),
        );
        crate::trace_metrics(args, &tracer, overhead, &mut layer);
    }

    let notes = vec![format!(
        "{} events · {TRIAGE_PER_ROUND} remote triage + {SWEEPS_PER_ROUND} sweeps + \
             {CONTENDED_PER_ROUND} contended per round · {rounds} rounds · {} remote samples · \
             server workers 1 · sandbox slowdown {:.3}, wake slowdown {:.3}",
        sut.events,
        pooled.remote_stmt.len(),
        median_of(&plain, |r| r.slowdown),
        median_of(&plain, |r| r.wake_slowdown),
    )];
    if !args.trace {
        finish_end_to_end(&mut e2e, sut, first_setup_s, |pace| {
            setup(args, pace, &cpus)
        });
    }
    Outcome {
        attempted: tracer.ops(),
        end_to_end: e2e,
        per_layer: layer,
        notes,
    }
}
