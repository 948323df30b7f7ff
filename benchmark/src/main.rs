//! The repository benchmark: one workload per process, measured from
//! outside the crates through their public functions and stats.
//!
//! ```text
//! aiql-benchmark --workload investigate|serve|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed statement, shipment or reopen, any
//! back-pressure rejection and any disagreement with a workload's oracle
//! aborts the run with a non-zero exit and no result line. See README.md.

mod ingest;
mod investigate;
mod names;
mod serve;
mod spans;
mod support;

use spans::Tracer;
use support::{ratio, Args, Metrics};

pub const WORKLOADS: [&str; 3] = ["investigate", "serve", "ingest"];

/// What a traced run adds to the per-layer metrics: the overhead of
/// recording spans (traced over untraced round time), each layer's share
/// of the traced rounds' span time as self time, the span file and the
/// per-layer table.
fn trace_metrics(args: &Args, tracer: &Tracer, overhead_share: f64, out: &mut Metrics) {
    out.insert("bench.trace_overhead_share", overhead_share);
    let layers = tracer.layer_self_s();
    let traced_total: f64 = layers.values().sum();
    for (layer, self_s) in layers {
        let (name, _) = names::PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".span_self_share") == Some(layer))
            .unwrap_or_else(|| panic!("layer `{layer}` has no span_self_share metric"));
        out.insert(name, ratio(self_s, traced_total));
    }
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
    let path = args.work_dir.join(format!("trace-{}.json", args.workload));
    tracer.write_json(&path).expect("write the span file");
    println!("spans of the traced rounds: {}", path.display());
    print!("{}", tracer.render_table());
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("aiql-benchmark: {e}");
            std::process::exit(2);
        }
    };
    // Read before `serve` restricts this thread to one CPU.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let outcome = match args.workload.as_str() {
        "investigate" => investigate::run(&args),
        "serve" => serve::run(&args),
        _ => ingest::run(&args),
    };

    let (table, measured) = if args.trace {
        (names::PER_LAYER, &outcome.per_layer)
    } else {
        (names::END_TO_END, &outcome.end_to_end)
    };
    if let Some(stray) = measured
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        panic!("`{stray}` is measured but not declared in names.rs");
    }
    println!(
        "workload {} · seed {} · {} s of rounds · trace {} · {} cores",
        args.workload, args.seed, args.seconds, args.trace as u8, cores,
    );
    outcome.notes.iter().for_each(|n| println!("{n}"));
    let mut json = Vec::new();
    for (name, unit) in table {
        // A layer this workload bypasses did no work: it reports 0.
        let value = match measured.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric `{name}` was not measured"),
        };
        assert!(value.is_finite(), "`{name}` is not a number: {value}");
        println!("{name:<40} {value:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    // A failed operation or check aborted the run before this point.
    println!("ops_attempted {} · ops_failed 0", outcome.attempted);
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted,
        json.join(", ")
    );
}
