//! One statement, one plan: compiling and planning the same text must not
//! depend on which process, session or `HashMap` instance does it.
//!
//! The implicit `id = id` relationships of a reused entity variable used to
//! be emitted in hash-iteration order, so Algorithm 1's stable sort broke
//! its ties differently per process — catalog `c4-8` scanned 80 k or 273 k
//! rows on identical data. Three statements whose relationships tie are
//! checked three ways: fresh compiles in this process, fresh sessions in
//! this process, and fresh processes (each draws its own hash seed).

use aiql::bench::catalog;
use aiql::datagen::EnterpriseSim;
use aiql::engine::Session;
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::fmt::Write as _;
use std::process::Command;

/// `c5-7` is the paper's Query 7.
const STATEMENTS: [&str; 3] = ["c4-8", "c2-8", "c5-7"];

/// Prefix of the lines the helper prints, to tell them from the harness's.
const MARK: &str = "PLAN|";

fn sources() -> Vec<(&'static str, &'static str)> {
    let all = catalog::case_study();
    STATEMENTS
        .iter()
        .map(|id| {
            let q = all.iter().find(|q| q.id == *id).expect("catalog statement");
            (q.id, q.source)
        })
        .collect()
}

fn store() -> SharedStore {
    let data = EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(7)
        .events_per_host_per_day(500)
        .attacks(true)
        .build()
        .generate();
    SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).unwrap())
}

/// What a fresh session plans and executes for each statement: the
/// compiled relationships, then every scan in execution order with its
/// pattern, access paths and rows touched, then the statement's totals.
fn fingerprint(store: &SharedStore) -> String {
    let mut out = String::new();
    for (id, source) in sources() {
        let ctx = aiql::lang::compile(source).expect("compiles");
        writeln!(out, "{MARK}{id} relations {:?}", ctx.relations).unwrap();
        let explain = Session::open(store)
            .prepare(source)
            .expect("prepares")
            .explain()
            .expect("runs");
        let cursor = Session::open(store)
            .prepare(source)
            .expect("prepares")
            .execute()
            .expect("runs");
        let stats = cursor.stats();
        assert_eq!(explain.rows_scanned, stats.rows_scanned, "{id}");
        let order: Vec<usize> = stats.matches.iter().map(|(p, _)| *p).collect();
        writeln!(out, "{MARK}{id} pattern order {order:?}").unwrap();
        for s in &stats.scans {
            writeln!(
                out,
                "{MARK}{id} p{} {} {:?} rows {} -> {}",
                s.pattern,
                s.target.name(),
                s.profile.paths(),
                s.profile.rows_scanned,
                s.profile.rows_matched
            )
            .unwrap();
        }
        writeln!(
            out,
            "{MARK}{id} rows_scanned {} rows_returned {}",
            explain.rows_scanned, explain.rows_returned
        )
        .unwrap();
    }
    out
}

#[test]
fn fresh_compiles_yield_identical_relations() {
    for (id, source) in sources() {
        let first = aiql::lang::compile(source).expect("compiles").relations;
        assert!(first.len() >= 4, "{id} has relationships to order");
        for _ in 1..32 {
            let again = aiql::lang::compile(source).expect("compiles").relations;
            assert_eq!(again, first, "{id}");
        }
    }
}

#[test]
fn fresh_sessions_execute_one_plan() {
    let store = store();
    let first = fingerprint(&store);
    for _ in 1..8 {
        assert_eq!(fingerprint(&store), first);
    }
}

/// Not a test of its own: prints this process's fingerprint for
/// [`fresh_processes_execute_one_plan`], which runs it in child processes.
#[test]
#[ignore = "helper re-executed by fresh_processes_execute_one_plan"]
fn print_plan_fingerprint() {
    print!("{}", fingerprint(&store()));
}

#[test]
fn fresh_processes_execute_one_plan() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = || {
        let out = Command::new(&exe)
            .args([
                "--ignored",
                "--exact",
                "print_plan_fingerprint",
                "--nocapture",
                "--test-threads=1",
            ])
            .output()
            .expect("re-executes the test binary");
        assert!(
            out.status.success(),
            "helper failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let plan: Vec<&str> = stdout.lines().filter(|l| l.starts_with(MARK)).collect();
        plan.join("\n")
    };
    let first = run();
    for id in STATEMENTS {
        assert!(
            first.contains(&format!("{MARK}{id} rows_scanned")),
            "helper printed no plan for {id}:\n{first}"
        );
    }
    for _ in 1..8 {
        assert_eq!(run(), first);
    }
}
