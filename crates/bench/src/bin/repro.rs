//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [schema|table3|fig5|fig6|fig7|fig8|all] [--scale small|medium|large] [--budget SECS]
//! ```
//!
//! `--budget` is the per-query budget in seconds, at least 1. Each report
//! goes to standard output; nothing is written to disk. `all` prints every
//! report in turn. `table3` also emits the Fig. 5 per-query series (they
//! share runs).

use aiql_bench::experiments::{self, Options};
use aiql_bench::harness::Scale;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, opts) = parse(&args).unwrap_or_else(|msg| usage(&msg));

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

/// The experiment and its options the arguments name, or what is wrong
/// with them.
fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut target = "all".to_string();
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("missing value for --scale")?;
                opts.scale = Scale::parse(v).ok_or("bad --scale")?;
            }
            "--budget" => {
                let v = it.next().ok_or("missing value for --budget")?;
                let secs: u64 = v.parse().map_err(|_| "bad --budget")?;
                if secs < 1 {
                    return Err(format!("--budget {secs} is below the minimum of 1 second"));
                }
                opts.budget = Duration::from_secs(secs);
            }
            t if !t.starts_with('-') => target = t.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((target, opts))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [schema|table3|fig5|fig6|fig7|fig8|all] \
         [--scale small|medium|large] [--budget SECS (seconds, at least 1)]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_budget_below_one_second_is_refused_naming_the_minimum() {
        let err = parse(&args("fig6 --budget 0")).unwrap_err();
        assert!(err.contains("minimum of 1 second"), "{err}");
        assert!(parse(&args("--budget -3")).is_err());
        assert!(parse(&args("--budget")).is_err());
        let (target, opts) = parse(&args("fig6 --budget 1 --scale small")).unwrap();
        assert_eq!(target, "fig6");
        assert_eq!(opts.budget, Duration::from_secs(1));
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(parse(&args("")).unwrap().0, "all");
    }
}
