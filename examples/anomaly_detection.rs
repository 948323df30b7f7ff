//! Anomaly queries, paper Sec. 4.3: sliding windows, aggregates, history
//! states, and the moving-average built-ins (SMA and EWMA variants).
//!
//! ```text
//! cargo run --release --example anomaly_detection
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

    // Host 8 runs `exfil.sh`: steady 1 kB beacons to 198.51.100.9, then an
    // 80 MB burst. The simple-moving-average model from the paper's Query 4
    // style flags only the burst windows.
    let sma = r#"
        (at "01/02/2017") agentid = 8
        window = 1 min, step = 10 sec
        proc p write ip i[dstip = "198.51.100.9"] as evt
        return p, avg(evt.amount) as amt
        group by p
        having amt > 2 * (amt + amt[1] + amt[2]) / 3
    "#;
    let r = session.run(sma).expect("sma query");
    println!("== SMA spike model: windows where the average transfer explodes ==");
    print!("{r}");
    assert!(!r.rows.is_empty(), "the burst must alert");
    assert!(r
        .rows
        .iter()
        .all(|row| row[1].as_f64().unwrap() > 1_000_000.0));
    println!("--> {} alerting window(s), all on exfil.sh\n", r.rows.len());

    // The EWMA variant with a normalized-deviation threshold (paper
    // Sec. 4.3): (amt - EWMA(amt, 0.9)) / EWMA(amt, 0.9) > 0.2.
    let ewma = r#"
        (at "01/02/2017") agentid = 8
        window = 1 min, step = 10 sec
        proc p write ip i[dstip = "198.51.100.9"] as evt
        return p, avg(evt.amount) as amt
        group by p
        having (amt - EWMA(amt, 0.9)) / EWMA(amt, 0.9) > 0.2
    "#;
    let r = session.run(ewma).expect("ewma query");
    println!("== EWMA deviation model ==");
    print!("{r}");
    assert!(!r.rows.is_empty());
    println!("--> {} alerting window(s)\n", r.rows.len());

    // Frequency anomaly (count distinct): the scraper touching 80 distinct
    // files in seconds (behaviour s6).
    let s6 = r#"
        (at "01/02/2017") agentid = 8
        window = 1 min, step = 10 sec
        proc p read file f
        return p, count(distinct f) as freq
        group by p
        having freq > 2 * (freq + freq[1] + freq[2]) / 3 && freq > 50
    "#;
    let r = session.run(s6).expect("s6 query");
    println!("== abnormal file access: count(distinct file) spike ==");
    print!("{r}");
    assert!(r.rows.iter().all(|row| row[0].to_string() == "scraper"));
    println!("--> scraper flagged.");
}
