//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [schema|table3|fig5|fig6|fig7|fig8|all] [--scale small|medium|large] [--budget SECS]
//! ```
//!
//! Each report goes to standard output; nothing is written to disk. `all`
//! prints every report in turn. `table3` also emits the Fig. 5 per-query
//! series (they share runs).

use aiql_bench::experiments::{self, Options};
use aiql_bench::harness::Scale;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = "all".to_string();
    let mut opts = Options::default();

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --scale"));
                opts.scale = Scale::parse(v).unwrap_or_else(|| usage("bad --scale"));
            }
            "--budget" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --budget"));
                let secs: u64 = v.parse().unwrap_or_else(|_| usage("bad --budget"));
                opts.budget = Duration::from_secs(secs.max(1));
            }
            t if !t.starts_with('-') => target = t.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let started = std::time::Instant::now();
    match target.as_str() {
        "schema" => print!("{}", experiments::schema()),
        "table3" | "fig5" => print!("{}", experiments::table3_fig5(opts)),
        "fig6" => print!("{}", experiments::fig6(opts)),
        "fig7" => print!("{}", experiments::fig7(opts)),
        "fig8" | "table5" => print!("{}", experiments::fig8()),
        "all" => {
            print!("{}", experiments::schema());
            println!();
            print!("{}", experiments::table3_fig5(opts));
            println!();
            print!("{}", experiments::fig6(opts));
            println!();
            print!("{}", experiments::fig7(opts));
            println!();
            print!("{}", experiments::fig8());
        }
        other => usage(&format!("unknown experiment {other}")),
    }
    eprintln!(
        "\n[repro finished in {:.1}s]",
        started.elapsed().as_secs_f64()
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [schema|table3|fig5|fig6|fig7|fig8|all] \
         [--scale small|medium|large] [--budget SECS]"
    );
    std::process::exit(2)
}
