//! Sharded scatter-gather execution — sequential vs worker-pool speedup.
//!
//! The tentpole measurement for the in-process MPP layer: one heavy
//! multi-pattern query (the Fig. 7 behaviour family, unpinned from its
//! agent so every host's partitions are admitted) runs over a store
//! sharded 8 ways, once on the sequential scan path and once per worker
//! count on the scatter-gather path. The interesting number is the
//! speedup curve: on a multi-core host the 4-worker cell must clear 2x;
//! on a 1-core host the curve is reported but not gated (the pool still
//! runs — the measurement then shows scatter *overhead*, which must stay
//! small).
//!
//! Correctness rides along: every scatter run is checked row-identical
//! (including order) against the sequential result before any timing is
//! reported — the gather merge's PartKey sort must reproduce the
//! sequential partition order exactly.

use crate::harness::{self, Scale};
use aiql_engine::{EngineConfig, Prepared};
use aiql_storage::{EventStore, StoreConfig};
use std::time::Duration;

/// The measured query: the a1 behaviour (Fig. 7 family) with the
/// `agentid` pin removed, so the firefox→dropper→start chain is hunted
/// across **every** host's partitions instead of one agent group — the
/// scan-dominant shape scatter-gather exists for.
const QUERY: &str = r#"
    (at "01/02/2017")
    proc p1["%firefox.exe"] read ip i1 as e1
    proc p1 write file f1["%.exe"] as e2
    proc p1 start proc p2 as e3
    with e1 before e2, e2 before e3
    return distinct p1, i1, f1, p2
"#;

/// Shards the benchmark store routes partitions into. Fixed (not
/// `available_parallelism`) so the snapshot is comparable across hosts
/// and there is always shard spread for up to 8 workers.
const SHARDS: u32 = 8;

/// Timing samples per cell (best-of, matching the scan bench).
const SAMPLES: usize = 3;

/// One full scatter-speedup measurement, ready to render or gate on.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    pub scale: Scale,
    pub seed_events: usize,
    /// CPUs available to this process — speedup beyond this count is not
    /// expected, and the 2x gate only applies when this is ≥ 4.
    pub cpu_cores: usize,
    /// Execution shards the store was built with.
    pub store_shards: usize,
    /// Physical partitions in the benchmark store (the scatter input
    /// before day pruning).
    pub partitions: usize,
    /// Result rows (identical across every cell by construction).
    pub rows: usize,
    /// Sequential scan path, best-of seconds.
    pub sequential_secs: f64,
    pub workers: Vec<usize>,
    /// Scatter path at `workers[i]` workers, best-of seconds.
    pub scatter_secs: Vec<f64>,
}

impl ParallelReport {
    /// Sequential-over-scatter speedup at `workers` workers (1.0 = parity,
    /// higher is better; below 1.0 means scatter overhead dominated).
    pub fn speedup(&self, workers: usize) -> f64 {
        match self.workers.iter().position(|&w| w == workers) {
            Some(i) if self.scatter_secs[i] > 0.0 => self.sequential_secs / self.scatter_secs[i],
            _ => 0.0,
        }
    }

    /// Renders the human-readable table.
    pub fn render(&self) -> String {
        use crate::report::TextTable;
        let mut out = format!(
            "Scatter-gather execution: multi-pattern hunt across all hosts \
             ({} seed events, {:?} scale, {} cpu core(s), {} shard(s), {} partition(s), {} rows)\n\n",
            self.seed_events,
            self.scale,
            self.cpu_cores,
            self.store_shards,
            self.partitions,
            self.rows,
        );
        let mut t = TextTable::new(&["workers", "scatter (ms)", "sequential (ms)", "speedup"]);
        for (i, &w) in self.workers.iter().enumerate() {
            t.row(vec![
                w.to_string(),
                format!("{:.2}", self.scatter_secs[i] * 1e3),
                format!("{:.2}", self.sequential_secs * 1e3),
                format!("{:.2}x", self.speedup(w)),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nScatter speedup over sequential: {:.2}x at 2, {:.2}x at 4, {:.2}x at 8 workers\n",
            self.speedup(2),
            self.speedup(4),
            self.speedup(8),
        ));
        out
    }

    /// Renders the `BENCH_parallel.json` snapshot body.
    pub fn json(&self) -> String {
        let secs = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\n  \"experiment\": \"parallel\",\n  \"scale\": \"{:?}\",\n  \
             \"seed_events\": {},\n  \"cpu_cores\": {},\n  \"store_shards\": {},\n  \
             \"partitions\": {},\n  \"rows\": {},\n  \
             \"workers\": [{}],\n  \
             \"sequential_secs\": {:.6},\n  \"scatter_secs\": [{}],\n  \
             \"speedup\": [{}],\n  \"speedup_4_workers\": {:.3}\n}}\n",
            self.scale,
            self.seed_events,
            self.cpu_cores,
            self.store_shards,
            self.partitions,
            self.rows,
            self.workers
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.sequential_secs,
            secs(&self.scatter_secs),
            secs(
                &self
                    .workers
                    .iter()
                    .map(|&w| self.speedup(w))
                    .collect::<Vec<_>>()
            ),
            self.speedup(4),
        )
    }
}

/// Builds the sharded benchmark store: one partition per (day, host) so
/// the day prune admits one partition per host, routed into 8 execution
/// shards.
pub fn sharded_store(data: &aiql_model::Dataset) -> EventStore {
    EventStore::ingest(
        data,
        StoreConfig::partitioned()
            .with_agent_group(1)
            .with_shards(SHARDS),
    )
    .expect("sharded ingest")
}

fn run_rows(stmt: &Prepared) -> Vec<Vec<aiql_rdb::Value>> {
    stmt.execute().expect("parallel bench query runs").collect()
}

/// Runs the full measurement: sequential baseline, then scatter at
/// 1/2/4/8 workers, each checked row-identical to the baseline.
pub fn measure(data: &aiql_model::Dataset, scale: Scale, budget: Duration) -> ParallelReport {
    let store = sharded_store(data);
    let prepare = |config: EngineConfig| {
        harness::session(&store, config.with_budget(budget))
            .prepare(QUERY)
            .expect("parallel bench query compiles")
    };
    let sequential = prepare(EngineConfig {
        parallel: false,
        ..EngineConfig::aiql()
    });

    let (sequential_secs, seq_rows) = harness::best_of(SAMPLES, || run_rows(&sequential));
    assert!(
        !seq_rows.is_empty(),
        "parallel bench query found nothing — wrong dataset?"
    );

    // Physical partitions in the store (one per day x host with
    // agent-group 1) — the scatter input before day pruning.
    let partitions = store
        .events_partitioned()
        .map_or(1, |pt| pt.partition_count());

    let workers = vec![1usize, 2, 4, 8];
    let mut scatter_secs = Vec::with_capacity(workers.len());
    for &w in &workers {
        let scatter = prepare(EngineConfig::aiql().with_workers(w));
        let (secs, rows) = harness::best_of(SAMPLES, || run_rows(&scatter));
        assert_eq!(
            rows, seq_rows,
            "scatter at {w} workers disagrees with sequential result"
        );
        scatter_secs.push(secs);
    }

    ParallelReport {
        scale,
        seed_events: store.event_count(),
        cpu_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        store_shards: store.shard_count(),
        partitions,
        rows: seq_rows.len(),
        sequential_secs,
        workers,
        scatter_secs,
    }
}

/// The `repro parallel` driver. The speedup needs real scan work per
/// shard, so anything below Medium scale is promoted to Medium (the
/// ISSUE's measurement point); larger requested scales are honoured.
pub fn parallel_bench(opts: crate::experiments::Options) -> ParallelReport {
    let scale = match opts.scale {
        Scale::Small => Scale::Medium,
        s => s,
    };
    let (data, _) = harness::dataset(scale);
    measure(&data, scale, opts.budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_speedup_and_json() {
        let r = ParallelReport {
            scale: Scale::Medium,
            seed_events: 110_000,
            cpu_cores: 4,
            store_shards: 8,
            partitions: 10,
            rows: 42,
            sequential_secs: 0.080,
            workers: vec![1, 2, 4, 8],
            scatter_secs: vec![0.080, 0.041, 0.020, 0.019],
        };
        assert!((r.speedup(4) - 4.0).abs() < 1e-9);
        assert_eq!(r.speedup(16), 0.0);
        let json = r.json();
        assert!(json.contains("\"experiment\": \"parallel\""));
        assert!(json.contains("\"speedup_4_workers\": 4.000"));
        assert!(json.contains("\"store_shards\": 8"));
        let table = r.render();
        assert!(table.contains("workers"));
        assert!(table.contains("speedup"));
    }

    #[test]
    fn scatter_matches_sequential_at_small_scale() {
        let (data, _) = harness::dataset(Scale::Small);
        let report = measure(&data, Scale::Small, Duration::from_secs(30));
        assert!(report.rows > 0);
        assert_eq!(report.workers, vec![1, 2, 4, 8]);
        assert!(report.store_shards == SHARDS as usize);
        assert!(report.partitions > 1, "query must span partitions");
    }
}
