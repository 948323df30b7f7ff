//! Query-serving benchmark: the prepared-statement session lifecycle vs
//! re-parsing every call.
//!
//! The paper's workload is a closed-loop analyst iterating on one query
//! *family* — the Query-7 exfiltration chain with different agent /
//! time-window / process-name constants — against a live store. Both
//! serving modes run the **identical** iteration sequence under the
//! engine's cost-based configuration ([`EngineConfig::aiql_statistical`],
//! the paper's Sec. 7 refinement), where planning means measuring real
//! selectivities against the store:
//!
//! - **reparse** — no session state carried between calls: every
//!   iteration submits full source text to a fresh [`Session`], paying
//!   lex + parse + analyze + *plan* before execution;
//! - **prepared** — `session.prepare` once, then `bind(params).execute()`
//!   per iteration: parsing is gone and the statement's cached plan is
//!   reused across the whole family (generic-plan reuse — scores only
//!   order pattern execution, so any binding runs correctly under the
//!   cached plan).
//!
//! Both modes must return identical rows on every iteration (a
//! differential gate), and the full run also reports the session plan
//! cache's hit rate for analysts who re-send identical text instead of
//! binding parameters.

use crate::experiments::Options;
use crate::harness;
use aiql_client::Client;
use aiql_engine::{EngineConfig, Params, Session};
use aiql_server::{Server, ServerConfig};
use aiql_storage::{EventStore, SharedStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The parameterized Query-7 family: the complete c5 exfiltration chain
/// with the agent, the investigation time window, and the suspected
/// process/IP constants left as placeholders.
pub const QUERY7_TEMPLATE: &str = r#"
    (from $t0 to $t1)
    agentid = $agent
    proc p1[$launcher] start proc p2[$client] as evt1
    proc p3[$server] write file f1 as evt2
    proc p4[$exfil] read file f1 as evt3
    proc p4 read || write ip i1[dstip = $ip] as evt4
    with evt1 before evt2, evt2 before evt3, evt3 before evt4
    return distinct p1, p2, p3, f1, p4, i1
"#;

/// One analyst iteration: the constants bound into the template.
#[derive(Debug, Clone)]
pub struct FamilyBinding {
    pub agent: i64,
    pub t0: String,
    pub t1: String,
    pub launcher: String,
    pub client: String,
    pub server: String,
    pub exfil: String,
    pub ip: String,
}

impl FamilyBinding {
    /// The textual-substitution form an analyst's tooling would submit —
    /// what the reparse mode compiles every iteration.
    pub fn to_source(&self) -> String {
        QUERY7_TEMPLATE
            .replace("$t0", &format!("{:?}", self.t0))
            .replace("$t1", &format!("{:?}", self.t1))
            .replace("$agent", &self.agent.to_string())
            .replace("$launcher", &format!("{:?}", self.launcher))
            .replace("$client", &format!("{:?}", self.client))
            .replace("$server", &format!("{:?}", self.server))
            .replace("$exfil", &format!("{:?}", self.exfil))
            .replace("$ip", &format!("{:?}", self.ip))
    }

    /// The same constants as bind parameters.
    pub fn to_params(&self) -> Params {
        Params::new()
            .set("t0", self.t0.as_str())
            .set("t1", self.t1.as_str())
            .set("agent", self.agent)
            .set("launcher", self.launcher.as_str())
            .set("client", self.client.as_str())
            .set("server", self.server.as_str())
            .set("exfil", self.exfil.as_str())
            .set("ip", self.ip.as_str())
    }
}

/// The closed-loop iteration schedule: every host × hour-windows of the
/// attack day, sweeping suspected process names (the real c5 constants,
/// so the attack host's iterations find the chain).
pub fn family(data: &aiql_model::Dataset) -> Vec<FamilyBinding> {
    let mut out = Vec::new();
    let day = "01/02/2017";
    let windows = [
        (format!("{day} 00:00:00"), format!("{day} 12:00:00")),
        (format!("{day} 08:00:00"), format!("{day} 20:00:00")),
        (format!("{day} 00:00:00"), format!("{day} 23:59:59")),
    ];
    for agent in data.agents() {
        for (t0, t1) in &windows {
            out.push(FamilyBinding {
                agent: agent.0 as i64,
                t0: t0.clone(),
                t1: t1.clone(),
                launcher: "cmd.exe".into(),
                client: "osql.exe".into(),
                server: "sqlservr.exe".into(),
                exfil: "sbblv.exe".into(),
                ip: aiql_datagen::ATTACKER_IP.into(),
            });
        }
    }
    out
}

/// Per-mode measurement: per-iteration latencies in seconds.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the full service benchmark; returns the rendered report and the
/// `BENCH_service.json` body.
pub fn service_bench(opts: Options) -> (String, String) {
    let (data, _) = harness::dataset(opts.scale);
    let store =
        SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"));
    let bindings = family(&data);
    let sources: Vec<String> = bindings.iter().map(FamilyBinding::to_source).collect();

    let config = EngineConfig::aiql_statistical();
    let session = Session::with_config(&store, config);
    let stmt = session.prepare(QUERY7_TEMPLATE).expect("template compiles");

    // Warmup + differential gate: both modes agree on every iteration.
    let mut chain_sightings = 0usize;
    for (b, src) in bindings.iter().zip(&sources) {
        let prepared = stmt
            .bind(b.to_params())
            .expect("binds")
            .execute()
            .expect("runs")
            .into_result();
        let reparsed = Session::with_config(&store, config).run(src).expect("runs");
        assert_eq!(
            prepared.rows, reparsed.rows,
            "prepared and reparse modes disagree on agent {} window {}..{}",
            b.agent, b.t0, b.t1
        );
        chain_sightings += usize::from(!prepared.rows.is_empty());
    }
    assert!(chain_sightings > 0, "the attack host's chain must be found");

    // Measured rounds, interleaved fairly (reparse first each round).
    let rounds = 5usize;
    let mut reparse_lat = Vec::with_capacity(rounds * bindings.len());
    let mut prepared_lat = Vec::with_capacity(rounds * bindings.len());
    let mut reparse_total = f64::MAX;
    let mut prepared_total = f64::MAX;
    for _ in 0..rounds {
        let round0 = Instant::now();
        for src in &sources {
            let t = Instant::now();
            let n = Session::with_config(&store, config)
                .run(src)
                .expect("runs")
                .rows
                .len();
            std::hint::black_box(n);
            reparse_lat.push(t.elapsed().as_secs_f64());
        }
        reparse_total = reparse_total.min(round0.elapsed().as_secs_f64());

        let round1 = Instant::now();
        for b in &bindings {
            let t = Instant::now();
            let n = stmt
                .bind(b.to_params())
                .expect("binds")
                .execute()
                .expect("runs")
                .count();
            std::hint::black_box(n);
            prepared_lat.push(t.elapsed().as_secs_f64());
        }
        prepared_total = prepared_total.min(round1.elapsed().as_secs_f64());
    }
    let iters = bindings.len() as f64;
    let reparse_qps = iters / reparse_total;
    let prepared_qps = iters / prepared_total;
    let speedup = prepared_qps / reparse_qps.max(1e-12);
    reparse_lat.sort_by(|a, b| a.total_cmp(b));
    prepared_lat.sort_by(|a, b| a.total_cmp(b));

    // Analysts that re-send identical text instead of binding: the plan
    // cache serves them. One distinct source, re-issued.
    let repeat_session = Session::open(&store);
    let repeated = &sources[0];
    for _ in 0..32 {
        repeat_session.run(repeated).expect("runs");
    }
    let cache = repeat_session.cache_stats();

    // The same family over the wire: closed-loop clients against a
    // spawned server, swept across the concurrency axis.
    let closed = closed_loop_bench(
        &store,
        &bindings,
        &[1, 8, 64, 256],
        Duration::from_millis(1500),
    );

    let mut out = format!(
        "Service: prepared sessions vs re-parse per call \
         ({} events, {:?} scale, {} analyst iterations x {} rounds)\n\n",
        data.events.len(),
        opts.scale,
        bindings.len(),
        rounds,
    );
    let mut t = crate::report::TextTable::new(&["mode", "qps", "p50 (ms)", "p99 (ms)"]);
    t.row(vec![
        "reparse per call".into(),
        format!("{reparse_qps:.0}"),
        format!("{:.3}", percentile(&reparse_lat, 0.50) * 1e3),
        format!("{:.3}", percentile(&reparse_lat, 0.99) * 1e3),
    ]);
    t.row(vec![
        "prepared session".into(),
        format!("{prepared_qps:.0}"),
        format!("{:.3}", percentile(&prepared_lat, 0.50) * 1e3),
        format!("{:.3}", percentile(&prepared_lat, 0.99) * 1e3),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPrepared speedup: {speedup:.1}x · plan cache on repeated text: \
         {} hits / {} misses ({:.0}% hit rate)\n",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    ));

    out.push_str("\nClosed-loop over loopback (aiql-server, one session per client):\n");
    let mut ct = crate::report::TextTable::new(&["clients", "qps", "p50 (ms)", "p99 (ms)"]);
    for l in &closed.levels {
        ct.row(vec![
            l.clients.to_string(),
            format!("{:.0}", l.qps),
            format!("{:.3}", l.p50_ms),
            format!("{:.3}", l.p99_ms),
        ]);
    }
    out.push_str(&ct.render());
    out.push_str(&format!(
        "\n{} sessions served, {} protocol errors, every page row-identical \
         to the in-process oracle\n",
        closed.sessions_opened, closed.protocol_errors
    ));

    let json = format!(
        "{{\n  \"experiment\": \"service\",\n  \"scale\": \"{:?}\",\n  \"events\": {},\n  \
         \"iterations\": {},\n  \"reparse_qps\": {:.1},\n  \"prepared_qps\": {:.1},\n  \
         \"speedup\": {:.2},\n  \"reparse_p50_ms\": {:.4},\n  \"reparse_p99_ms\": {:.4},\n  \
         \"prepared_p50_ms\": {:.4},\n  \"prepared_p99_ms\": {:.4},\n  \
         \"plan_cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3} }},\n  \
         \"closed_loop\": {}\n}}\n",
        opts.scale,
        data.events.len(),
        bindings.len(),
        reparse_qps,
        prepared_qps,
        speedup,
        percentile(&reparse_lat, 0.50) * 1e3,
        percentile(&reparse_lat, 0.99) * 1e3,
        percentile(&prepared_lat, 0.50) * 1e3,
        percentile(&prepared_lat, 0.99) * 1e3,
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        closed.json_fragment(),
    );
    (out, json)
}

/// One concurrency level of the closed-loop wire bench.
#[derive(Debug, Clone)]
pub struct ClosedLoopLevel {
    pub clients: usize,
    /// Statements completed across all clients at this level.
    pub statements: u64,
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// The closed-loop many-client run: per-level throughput/latency plus
/// the server's own counters at the end.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    pub levels: Vec<ClosedLoopLevel>,
    pub sessions_opened: u64,
    pub protocol_errors: u64,
}

impl ClosedLoopReport {
    /// qps at a given concurrency level (0.0 if the level wasn't run).
    pub fn qps_at(&self, clients: usize) -> f64 {
        self.levels
            .iter()
            .find(|l| l.clients == clients)
            .map_or(0.0, |l| l.qps)
    }

    /// The `"closed_loop"` JSON fragment embedded in `BENCH_service.json`.
    pub fn json_fragment(&self) -> String {
        let levels: Vec<String> = self
            .levels
            .iter()
            .map(|l| {
                format!(
                    "{{ \"clients\": {}, \"statements\": {}, \"qps\": {:.1}, \
                     \"p50_ms\": {:.4}, \"p99_ms\": {:.4} }}",
                    l.clients, l.statements, l.qps, l.p50_ms, l.p99_ms
                )
            })
            .collect();
        format!(
            "{{ \"levels\": [\n    {}\n  ], \"sessions_opened\": {}, \
             \"protocol_errors\": {}, \"row_identical\": true }}",
            levels.join(",\n    "),
            self.sessions_opened,
            self.protocol_errors
        )
    }
}

/// Runs the closed-loop many-client bench: a server is spawned over the
/// store, and each level runs `clients` threads over loopback, every
/// thread its own connection + session + prepared statement, iterating
/// the family as fast as the service answers. Every remote result is
/// asserted row-identical to the in-process session oracle computed up
/// front, so the throughput numbers can't come from wrong answers.
pub fn closed_loop_bench(
    store: &SharedStore,
    bindings: &[FamilyBinding],
    levels: &[usize],
    per_level: Duration,
) -> ClosedLoopReport {
    // In-process oracle: the exact cursor path the server serves, one row
    // set per family member.
    let oracle: Arc<Vec<Vec<Vec<aiql_model::Value>>>> = Arc::new({
        let session = Session::open(store);
        let stmt = session.prepare(QUERY7_TEMPLATE).expect("template compiles");
        bindings
            .iter()
            .map(|b| {
                let mut cursor = stmt
                    .bind(b.to_params())
                    .expect("binds")
                    .execute()
                    .expect("runs");
                let mut rows = Vec::new();
                loop {
                    let page = cursor.fetch(1024);
                    if page.is_empty() {
                        break;
                    }
                    rows.extend(page);
                }
                rows
            })
            .collect()
    });

    let max_level = levels.iter().copied().max().unwrap_or(1);
    let server = Server::spawn(
        store,
        ServerConfig {
            max_sessions_per_tenant: max_level + 8,
            max_concurrent_statements: max_level + 8,
            ..ServerConfig::default()
        },
    )
    .expect("spawn bench server");
    let addr = server.addr();
    let bindings = Arc::new(bindings.to_vec());

    let mut out = Vec::with_capacity(levels.len());
    for &clients in levels {
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(clients + 1));
        let mut threads = Vec::with_capacity(clients);
        for i in 0..clients {
            let (stop, barrier) = (stop.clone(), barrier.clone());
            let (bindings, oracle) = (bindings.clone(), oracle.clone());
            threads.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr, "closed-loop").expect("connect");
                let session = c.open_session().expect("open session");
                let stmt = c.prepare(session, QUERY7_TEMPLATE).expect("prepare");
                barrier.wait();
                let mut latencies = Vec::new();
                let mut k = i;
                while !stop.load(Ordering::Relaxed) {
                    let at = k % bindings.len();
                    let t = Instant::now();
                    let cur = c
                        .execute(session, stmt.stmt, &bindings[at].to_params(), None)
                        .expect("execute");
                    let rows = c.fetch_all(cur.cursor, 1024).expect("fetch");
                    latencies.push(t.elapsed().as_secs_f64());
                    assert_eq!(
                        rows, oracle[at],
                        "closed-loop client diverged from the in-process oracle \
                         on family member {at}"
                    );
                    k += 1;
                }
                latencies
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        std::thread::sleep(per_level);
        stop.store(true, Ordering::Relaxed);
        let mut latencies: Vec<f64> = Vec::new();
        for t in threads {
            latencies.extend(t.join().expect("client thread"));
        }
        let wall = t0.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.total_cmp(b));
        out.push(ClosedLoopLevel {
            clients,
            statements: latencies.len() as u64,
            qps: latencies.len() as f64 / wall,
            p50_ms: percentile(&latencies, 0.50) * 1e3,
            p99_ms: percentile(&latencies, 0.99) * 1e3,
        });
    }

    let stats = server.stats();
    server.shutdown();
    ClosedLoopReport {
        levels: out,
        sessions_opened: stats.sessions_opened,
        protocol_errors: stats.protocol_errors,
    }
}

/// A windowed EXPLAIN over the family's store — exercised by the bench
/// smoke test and printed by `repro service` for the README walkthrough.
pub fn family_explain(store: &SharedStore) -> aiql_engine::Explain {
    Session::open(store)
        .prepare(QUERY7_TEMPLATE)
        .expect("template compiles")
        .bind(family_probe_binding().to_params())
        .expect("binds")
        .explain()
        .expect("explains")
}

/// The attack-day binding for the scenario host (agent 9 in the default
/// simulation).
pub fn family_probe_binding() -> FamilyBinding {
    FamilyBinding {
        agent: 9,
        t0: "01/02/2017 00:00:00".into(),
        t1: "01/02/2017 23:59:59".into(),
        launcher: "cmd.exe".into(),
        client: "osql.exe".into(),
        server: "sqlservr.exe".into(),
        exfil: "sbblv.exe".into(),
        ip: aiql_datagen::ATTACKER_IP.into(),
    }
}
