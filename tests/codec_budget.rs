//! DESIGN.md §2.5's table as a test: how many times a report crosses
//! the codec on each path, counted by the program itself.
//!
//! | path                          | encodes | decodes |
//! |-------------------------------|---------|---------|
//! | `vtld study` (`run_streamed`) | 1       | 0       |
//! | `vtld analyze`                | 0       | 1       |
//! | durable `Server`, live        | 1       | 1       |
//! | the same directory, recover   | 0       | 2       |
//!
//! Every report encode and every block decode in `vt-store` lands on
//! `store/encoded_reports` / `store/decoded_reports` when handles are
//! attached, so the two counters divided by the path's report count
//! *are* the table. Exactly, not approximately: a second decode of one
//! block anywhere on a path fails this.

mod common;

use common::{ask, await_ingest_done};
use vt_label_dynamics::dynamics::run_streamed;
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;

const SEED: u64 = 7;
const SAMPLES: u64 = 3_000;

fn counter(counters: &json::Value, name: &str) -> u64 {
    counters
        .get(name)
        .and_then(|c| c.as_u64())
        .unwrap_or_else(|| panic!("counter {name} missing from {counters:?}"))
}

/// Asserts the path's `(encodes, decodes)` per report.
fn assert_budget(path: &str, counters: &json::Value, reports: u64, budget: (u64, u64)) {
    assert!(reports > 0, "{path}: no reports on the path");
    assert_eq!(
        (
            counter(counters, "store/encoded_reports"),
            counter(counters, "store/decoded_reports"),
        ),
        (budget.0 * reports, budget.1 * reports),
        "{path}: (encoded, decoded) over {reports} reports, budget {budget:?} per report"
    );
}

/// Runs one in-process daemon to `ingest_done` and returns the counters
/// of its final snapshot.
fn served_counters(config: ServeConfig) -> json::Value {
    let server = Server::start(config).expect("start server");
    let (mut stream, mut reader) = await_ingest_done(server.addr());
    let metrics = ask(&mut stream, &mut reader, "metrics");
    server.shutdown();
    server.wait();
    metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters member")
        .clone()
}

/// The entry `vtld study` runs: every report is encoded once, into the
/// Table 2 tally, and never decoded.
#[test]
fn study_encodes_once_and_never_decodes() {
    let obs = Obs::new();
    let sim = VirusTotalSim::new(SimConfig::new(SEED, SAMPLES));
    let results = run_streamed(&sim, 2, &obs);
    let metrics = json::parse(&obs.snapshot().to_json()).expect("metrics json");
    assert_budget(
        "study",
        metrics.get("counters").expect("counters member"),
        results.dataset.total_reports(),
        (1, 0),
    );
}

#[test]
fn analyze_decodes_once() {
    let store = Study::generate_with_workers(SimConfig::new(SEED, SAMPLES), 2).build_store();
    let dir = std::env::temp_dir();
    let feed = dir.join(format!("vtld-codec-budget-{}.vtstore", std::process::id()));
    let metrics_path = dir.join(format!("vtld-codec-budget-{}.json", std::process::id()));
    let mut file = std::fs::File::create(&feed).expect("create feed");
    write_store(&store, &mut file).expect("write feed");
    drop(file);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vtld"))
        .args(["analyze", "--workers", "2", "--store"])
        .arg(&feed)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .output()
        .expect("vtld analyze runs");
    assert!(out.status.success(), "vtld analyze failed: {out:?}");
    let written = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let _ = std::fs::remove_file(&feed);
    let _ = std::fs::remove_file(&metrics_path);
    let metrics = json::parse(&written).expect("metrics.json must be valid JSON");
    assert_budget(
        "analyze",
        metrics.get("counters").expect("counters member"),
        store.report_count(),
        (0, 1),
    );
}

#[test]
fn live_ingest_is_one_and_one_and_recovery_decodes_twice() {
    let data_dir = std::env::temp_dir().join(format!("vtld-codec-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut config = ServeConfig::new(SAMPLES, SEED);
    config.segment_reports = 300;
    config.workers = 2;
    config.data_dir = Some(data_dir.clone());

    let live = served_counters(config.clone());
    let reports = counter(&live, "serve/reports");
    assert_eq!(reports, counter(&live, "collector/accepted"));
    assert_budget("live ingest", &live, reports, (1, 1));

    // Every sample is sealed, so the restart ingests nothing: it reads
    // each file once to accept it (the clean-prefix rule needs the
    // verdict before anything queued behind it is sent) and once more
    // to fold it.
    config.recover = true;
    let recovered = served_counters(config);
    assert_eq!(counter(&recovered, "serve/reports"), reports);
    assert_eq!(counter(&recovered, "collector/accepted"), 0);
    assert_budget("recover", &recovered, reports, (0, 2));
    std::fs::remove_dir_all(&data_dir).expect("cleanup");
}
