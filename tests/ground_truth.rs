//! Ground-truth recovery: every catalog query finds the behaviour the data
//! generator planted — the investigation works, not just runs.

use aiql::bench::catalog;
use aiql::datagen::{EnterpriseSim, GroundTruth};
use aiql::engine::Session;
use aiql::storage::{EventStore, SharedStore, StoreConfig};
use aiql_model::Dataset;

fn world() -> (Dataset, GroundTruth, EventStore) {
    let (data, truth) = EnterpriseSim::builder()
        .hosts(10)
        .days(2)
        .seed(4242)
        .events_per_host_per_day(600)
        .attacks(true)
        .build()
        .generate_with_truth();
    let store = EventStore::ingest(&data, StoreConfig::partitioned()).unwrap();
    (data, truth, store)
}

#[test]
fn every_catalog_query_returns_rows() {
    let (_, _, store) = world();
    let engine = Session::open(&SharedStore::new(store.clone()));
    for q in catalog::case_study()
        .iter()
        .chain(catalog::behaviours().iter())
    {
        let r = engine
            .run(q.source)
            .unwrap_or_else(|e| panic!("{} failed: {e}", q.id));
        assert!(!r.rows.is_empty(), "{} found nothing", q.id);
    }
}

/// Key strings that must appear in each step's final query results.
#[test]
fn final_queries_recover_the_planted_actors() {
    let (_, _, store) = world();
    let engine = Session::open(&SharedStore::new(store.clone()));
    let expectations: &[(&str, &[&str])] = &[
        ("c1-1", &["outlook.exe", "excel.exe", "payroll.xls"]),
        ("c2-6", &["mal.exe", "192.168.66.129"]),
        ("c3-1", &["gsecdump.exe", "SAM"]),
        ("c4-4", &["sqlservr.exe", "wscript.exe", "192.168.66.129"]),
        ("c5-7", &["osql.exe", "BACKUP1.DMP", "sbblv.exe"]),
        ("a1", &["firefox.exe", "setup_flash.exe"]),
        ("a5", &["stage.tgz", "203.0.113.66"]),
        ("d1", &["GoogleUpdate.exe", "services.exe"]),
        ("d3", &["apache2", "wget"]),
        ("v1", &["sysbot.exe", "5.39.99.2"]),
        ("v3", &["autorun_v.exe", "autorun.inf"]),
        ("s2", &["apache2", "/etc/shadow"]),
        ("s4", &["cleaner", "/var/log/auth.log"]),
        ("s5", &["exfil.sh"]),
        ("s6", &["scraper"]),
    ];
    let all: Vec<_> = catalog::case_study()
        .into_iter()
        .chain(catalog::behaviours())
        .collect();
    for (id, needles) in expectations {
        let q = all
            .iter()
            .find(|q| q.id == *id)
            .unwrap_or_else(|| panic!("{id} in catalog"));
        let r = engine.run(q.source).unwrap();
        let haystack: String = r
            .rows
            .iter()
            .flat_map(|row| row.iter().map(|v| v.to_string()))
            .collect::<Vec<_>>()
            .join("|");
        for needle in *needles {
            assert!(
                haystack.contains(needle),
                "{id}: expected `{needle}` in results, got: {haystack:.300}"
            );
        }
    }
}

#[test]
fn truth_events_are_inside_query_windows() {
    // Sanity: the ground-truth labels the scenarios promise all exist and
    // sit on the attack day.
    let (data, truth, _) = world();
    let attack_day = aiql_model::Timestamp::from_ymd(2017, 1, 2)
        .unwrap()
        .day_index();
    for (label, ids) in &truth {
        assert!(!ids.is_empty(), "{label} has no truth events");
        for id in ids {
            let ev = data
                .events
                .iter()
                .find(|e| e.id == *id)
                .unwrap_or_else(|| panic!("{label}: event {id} missing"));
            assert_eq!(
                ev.start.day_index(),
                attack_day,
                "{label}: off the attack day"
            );
        }
    }
}

#[test]
fn negative_control_queries_stay_empty() {
    // Behaviours that were never planted must not appear: the generator's
    // noise must not fabricate attack chains.
    let (_, _, store) = world();
    let engine = Session::open(&SharedStore::new(store.clone()));
    for (name, src) in [
        (
            "mimikatz",
            r#"(at "01/02/2017") proc p["%mimikatz%"] read file f return p, f"#,
        ),
        (
            "wrong day",
            r#"(at "01/01/2017") agentid = 9
               proc p1["%cmd.exe"] start proc p2["%osql.exe"] as e1
               return p1, p2"#,
        ),
        (
            "wrong host",
            r#"(at "01/02/2017") agentid = 3
               proc p1["%sbblv.exe"] read file f1 as e1
               return p1, f1"#,
        ),
        (
            "impossible order",
            r#"(at "01/02/2017") agentid = 9
               proc p4["%sbblv.exe"] read file f1["%backup1.dmp"] as e1
               proc p3["%sqlservr.exe"] write file f1 as e2
               with e1 before e2
               return p4, f1"#,
        ),
    ] {
        let r = engine.run(src).unwrap();
        assert!(
            r.rows.is_empty(),
            "{name}: expected no rows, got {}",
            r.rows.len()
        );
    }
}
