//! Experiment harness reproducing every table and figure of the AIQL
//! paper's evaluation (Sec. 6).
//!
//! - [`catalog`] — all 46 evaluation queries as AIQL source: the APT case
//!   study (c1-1 … c5-7 plus the anomaly starter, paper Table 3/Fig. 5) and
//!   the 19 attack behaviours (a1–a5, d1–d3, v1–v5, s1–s6; Figs. 6–8).
//! - [`harness`] — dataset scales, system construction, timed runs with
//!   budget enforcement (the analogue of the paper's one-hour cutoff).
//! - [`experiments`] — one driver per table/figure, rendering paper-style
//!   text reports.
//! - [`service`] — the parameterized Query-7 family an analyst iterates on,
//!   which the repository benchmark (`benchmark/`) serves.
//! - [`report`] — table formatting and speedup statistics.
//!
//! The `repro` binary exposes each experiment and writes nothing but its
//! report to standard output:
//!
//! ```text
//! cargo run --release -p aiql-bench --bin repro -- all --scale medium
//! ```
//!
//! Performance claims about the system itself are measured by the
//! repository benchmark, not here.

pub mod catalog;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod service;

pub use catalog::{behaviours, case_study, CatalogQuery};
pub use experiments::Options;
pub use harness::{dataset, Scale, Systems};
