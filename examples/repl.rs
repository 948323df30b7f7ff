//! An interactive AIQL shell over a simulated enterprise — the iterative
//! investigation loop the paper's analysts use, in your terminal.
//!
//! ```text
//! cargo run --release --example repl
//! aiql> proc p read file f["%.bash_history"] return p, f
//! aiql> :quit
//! ```
//!
//! With `--connect host:port` the shell becomes a remote analyst console:
//! queries travel through `aiql-client` to a running `serve` instance
//! (`cargo run --release --bin serve`) instead of an in-process store.
//!
//! End a query with an empty line (queries may span several lines).
//! Commands (`:` and `\` prefixes are interchangeable): `:help`,
//! `:stats`, `:trace` (phase tree of the last query), `:metrics`
//! (the process-wide telemetry registry),
//! `:slow` (the slow-query log; `:slow <ms>` sets the threshold), `:sql`
//! (show the big-join translation of the last query), `:quit`.

use aiql::client::{Client, ClientError};
use aiql::datagen::EnterpriseSim;
use aiql::engine::{Params, Session};
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use std::io::{BufRead, Write};

/// Where queries go: an in-process session, or a server over the wire.
enum Backend {
    Local(Session),
    Remote { client: Client, session: u64 },
}

fn connect_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, addr] if flag == "--connect" => Some(addr.clone()),
        _ => {
            eprintln!("usage: repl [--connect host:port]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut backend = match connect_arg() {
        Some(addr) => {
            println!("connecting to aiql-server at {addr} ...");
            let mut client = Client::connect(addr.as_str(), "repl").unwrap_or_else(|e| {
                eprintln!("cannot connect: {e} (is `serve` running on {addr}?)");
                std::process::exit(1);
            });
            let session = client.open_session().unwrap_or_else(|e| {
                eprintln!("cannot open a session: {e}");
                std::process::exit(1);
            });
            println!("connected. Type an AIQL query (blank line to run), :help for help.\n");
            Backend::Remote { client, session }
        }
        None => {
            println!(
                "building the simulated enterprise (10 hosts, 2 days, attacks on 01/02/2017) ..."
            );
            let data = EnterpriseSim::builder()
                .hosts(10)
                .days(2)
                .seed(2017)
                .events_per_host_per_day(2_000)
                .attacks(true)
                .build()
                .generate();
            let store = SharedStore::new(
                EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"),
            );
            println!(
                "{} events, {} entities. Type an AIQL query (blank line to run), :help for help.\n",
                data.events.len(),
                data.entities.len()
            );
            Backend::Local(Session::open(&store))
        }
    };

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut last_query: Option<String> = None;
    let mut last_stats: Option<String> = None;
    let mut last_trace: Option<String> = None;
    print_prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with(':') || trimmed.starts_with('\\')) {
            let mut words = trimmed[1..].split_whitespace();
            match words.next().unwrap_or("") {
                "quit" | "q" | "exit" => break,
                "help" | "h" => help(),
                "stats" => match &last_stats {
                    Some(s) => println!("{s}"),
                    None => println!("no query has run yet"),
                },
                "trace" => match &last_trace {
                    Some(t) => print!("{t}"),
                    None => println!("no query has run yet"),
                },
                "metrics" => print!("{}", aiql::telemetry::global().snapshot().to_prometheus()),
                "slow" => slow(words.next()),
                "sql" => {
                    match &last_query {
                        Some(q) => {
                            match aiql::lang::compile(q).map_err(|e| e.to_string()).and_then(
                                |ctx| aiql::translate::sql::to_sql(&ctx).map_err(|e| e.to_string()),
                            ) {
                                Ok(sql) => println!("{sql}"),
                                Err(e) => println!("cannot translate: {e}"),
                            }
                        }
                        None => println!("no query has run yet"),
                    }
                }
                other => println!("unknown command {other} (try :help)"),
            }
            print_prompt(&buffer);
            continue;
        }
        if !trimmed.is_empty() {
            buffer.push_str(&line);
            buffer.push('\n');
            print_prompt(&buffer);
            continue;
        }
        if buffer.trim().is_empty() {
            print_prompt(&buffer);
            continue;
        }
        // Blank line: run the buffered query through the session, so the
        // plan cache, telemetry registry, and slow-query log all see it.
        let src = std::mem::take(&mut buffer);
        match &mut backend {
            Backend::Local(session) => {
                match session.prepare(&src).and_then(|stmt| stmt.execute()) {
                    Ok(cursor) => {
                        let elapsed = cursor.elapsed();
                        let stats = cursor.stats().clone();
                        last_trace = cursor.trace().map(|t| t.render());
                        let result = cursor.into_result();
                        print!("{result}");
                        println!(
                            "({} rows, {:.1} ms, {} data queries, {} rows scanned)",
                            result.rows.len(),
                            elapsed.as_secs_f64() * 1e3,
                            stats.data_queries,
                            stats.rows_scanned
                        );
                        last_stats = Some(format!("{stats:#?}"));
                        last_query = Some(src);
                    }
                    Err(aiql::engine::EngineError::Compile(e)) => print!("{}", e.render(&src)),
                    Err(e) => println!("error: {e}"),
                }
            }
            Backend::Remote { client, session } => match run_remote(client, *session, &src) {
                Ok(()) => last_query = Some(src),
                Err(ClientError::Server { code, message }) => {
                    println!("server error ({code:?}): {message}")
                }
                Err(e) => {
                    println!("connection lost: {e}");
                    break;
                }
            },
        }
        print_prompt(&buffer);
    }
    println!("bye.");
}

/// Prepare + execute + page a query over the wire, printing the rows the
/// way the in-process result renderer would.
fn run_remote(client: &mut Client, session: u64, src: &str) -> Result<(), ClientError> {
    let stmt = client.prepare(session, src)?;
    let started = std::time::Instant::now();
    let cur = client.execute(session, stmt.stmt, &Params::new(), None)?;
    let rows = client.fetch_all(cur.cursor, 1024)?;
    let round_trip = started.elapsed();
    if !cur.columns.is_empty() {
        println!("{}", cur.columns.join(" | "));
    }
    for row in &rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join(" | "));
    }
    println!(
        "({} rows, {:.1} ms server-side, {:.1} ms round trip)",
        rows.len(),
        cur.elapsed_micros as f64 / 1e3,
        round_trip.as_secs_f64() * 1e3
    );
    Ok(())
}

/// `:slow` — list the slow-query log; `:slow <ms>` sets the threshold.
fn slow(arg: Option<&str>) {
    let log = aiql::telemetry::slowlog::global();
    if let Some(ms) = arg {
        match ms.parse::<u64>() {
            Ok(ms) => {
                log.set_threshold_micros(ms * 1_000);
                println!("slow-query threshold set to {ms} ms");
            }
            Err(_) => println!("usage: :slow [threshold-ms]"),
        }
        return;
    }
    let entries = log.entries();
    println!(
        "slow-query log: {} entries (threshold {:.1} ms)",
        entries.len(),
        log.threshold_micros() as f64 / 1e3
    );
    for e in entries {
        println!(
            "  {:.1} ms · {} rows · {} · params {}\n    {}",
            e.elapsed_micros as f64 / 1e3,
            e.rows,
            e.source.split_whitespace().collect::<Vec<_>>().join(" "),
            e.params,
            e.profile
        );
    }
}

fn print_prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("aiql> ");
    } else {
        print!("  ... ");
    }
    let _ = std::io::stdout().flush();
}

fn help() {
    println!(
        "Enter an AIQL query over the simulated enterprise; finish with an empty line.\n\
         Attack day is 01/02/2017. Interesting hosts: 1 (phished client),\n\
         9 (SQL server, exfiltration), 8 (abnormal behaviours), 2/3 (info_stealer).\n\
         Example:\n\
         \x20 (at \"01/02/2017\") agentid = 9\n\
         \x20 proc p1[\"%sbblv.exe\"] read file f1 as e1\n\
         \x20 return p1, f1\n\
         Commands (`:` or `\\` prefix): :help :stats :trace :metrics :slow [ms] :sql :quit"
    );
}
