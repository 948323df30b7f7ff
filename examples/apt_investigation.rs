//! The paper's Sec. 6.2 investigation, end to end: starting from an anomaly
//! alert on the database server, iteratively compose AIQL queries until the
//! whole exfiltration chain (attack step c5) is reconstructed.
//!
//! ```text
//! cargo run --release --example apt_investigation
//! ```

use aiql::datagen::EnterpriseSim;
use aiql::engine::Session;
use aiql::storage::{EventStore, SharedStore, StoreConfig};

fn main() {
    // The simulated enterprise: 10 hosts, 2 days, the APT planted on day 2.
    println!("generating the monitored enterprise ...");
    let data = EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(2017)
        .events_per_host_per_day(2_000)
        .attacks(true)
        .build()
        .generate();
    let store =
        SharedStore::new(EventStore::ingest(&data, StoreConfig::partitioned()).expect("ingest"));
    let session = Session::open(&store);
    println!(
        "{} events across {} hosts\n",
        data.events.len(),
        data.agents().len()
    );

    // Step 1 — the network detector on the DB server (agent 9) reported
    // abnormally large transfers to 192.168.66.129. Find which process,
    // with a moving-average anomaly query (paper Query 5).
    let q5 = r#"
        (at "01/02/2017") agentid = 9
        window = 1 min, step = 10 sec
        proc p write ip i[dstip = "192.168.66.129"] as evt
        return p, avg(evt.amount) as amt
        group by p
        having amt > 2 * (amt + amt[1] + amt[2]) / 3
    "#;
    let r = session.run(q5).expect("anomaly query");
    println!("== anomaly query (paper Query 5): spiking senders to the suspicious IP ==");
    print!("{r}");
    assert!(r.rows.iter().all(|row| row[0].to_string() == "sbblv.exe"));
    println!("--> suspicious process: sbblv.exe\n");

    // Step 2 — what data did sbblv.exe touch before sending (Query 6)?
    let q6 = r#"
        (at "01/02/2017") agentid = 9
        proc p1["%sbblv.exe"] read || write file f1 as evt1
        proc p1 read || write ip i1[dstip = "192.168.66.129"] as evt2
        with evt1 before evt2
        return distinct p1, f1, i1
    "#;
    let r = session.run(q6).expect("starter query");
    println!("== starter query (paper Query 6): sbblv.exe's data sources ==");
    print!("{r}");
    assert!(r
        .rows
        .iter()
        .any(|row| row[1].to_string().contains("BACKUP1.DMP")));
    println!("--> suspicious file: BACKUP1.DMP\n");

    // Step 3 — the complete chain (paper Query 7): who dumped the database,
    // who triggered it, where did the bytes go?
    let q7 = r#"
        (at "01/02/2017") agentid = 9
        proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
        proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
        proc p4["%sbblv.exe"] read file f1 as evt3
        proc p4 read || write ip i1[dstip = "192.168.66.129"] as evt4
        with evt1 before evt2, evt2 before evt3, evt3 before evt4
        return distinct p1, p2, p3, f1, p4, i1
    "#;
    let cursor = session
        .prepare(q7)
        .and_then(|stmt| stmt.execute())
        .expect("complete query");
    let (stats, elapsed) = (cursor.stats().clone(), cursor.elapsed());
    let result = cursor.into_result();
    println!("== complete query (paper Query 7): the exfiltration chain ==");
    print!("{result}");
    assert_eq!(result.rows.len(), 1);
    println!(
        "\nverdict: cmd.exe ran osql.exe; sqlservr.exe dumped BACKUP1.DMP; \
         sbblv.exe read the dump and exfiltrated it to 192.168.66.129."
    );
    println!(
        "({} data queries, {} rows scanned, {:.1} ms)",
        stats.data_queries,
        stats.rows_scanned,
        elapsed.as_secs_f64() * 1e3
    );
}
