//! Dependency (provenance) tracking, paper Sec. 4.2: forward-track the
//! ramification of a planted `info_stealer` script across two hosts, and
//! backward-track the origin of an updater executable.
//!
//! ```text
//! cargo run --release --example dependency_tracking
//! ```

use aiql::datagen::EnterpriseSim;
use aiql::engine::Session;
use aiql::storage::{EventStore, SharedStore, StoreConfig};

fn main() {
    let data = EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(2017)
        .events_per_host_per_day(1_000)
        .attacks(true)
        .build()
        .generate();
    let store =
        SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"));
    let session = Session::open(&store);

    // Forward tracking (paper Query 3): /bin/cp on host 2 planted a script
    // under the web root; apache served it; wget on host 3 wrote it to disk.
    let forward = r#"
        (at "01/02/2017")
        forward: proc p1["%/bin/cp%", agentid = 2] ->[write] file f1["/var/www/%info_stealer%"]
        <-[read] proc p2["%apache%"]
        ->[connect] proc p3[agentid = 3]
        ->[write] file f2["%info_stealer%"]
        return f1, p1, p2, p3, f2
    "#;
    let r = session.run(forward).expect("forward query");
    println!("== forward tracking (paper Query 3): info_stealer ramification ==");
    print!("{r}");
    assert!(!r.rows.is_empty());
    assert_eq!(r.rows[0][3].to_string(), "wget");
    println!("--> the malware reached host 3 via apache -> wget\n");

    // Backward tracking: where did chrome_update.exe come from?
    let backward = r#"
        (at "01/02/2017") agentid = 1
        backward: file f1["%chrome_update.exe"] <-[write] proc p1 <-[start] proc p2
        return f1, p1, p2
    "#;
    let r = session.run(backward).expect("backward query");
    println!("== backward tracking: provenance of chrome_update.exe ==");
    print!("{r}");
    assert!(!r.rows.is_empty());
    assert_eq!(r.rows[0][1].to_string(), "GoogleUpdate.exe");
    println!("--> written by GoogleUpdate.exe, which services.exe started: benign.");
}
