//! Streaming drift-alert correctness for `vtld serve` (ISSUE 10).
//!
//! The contract under test (DESIGN.md §2.8):
//!
//! * **Bit-identical alert streams** — the `alerts` response tail (the
//!   bytes after the epoch, which is publish-cadence dependent) is
//!   identical at every shard × worker combination: detectors are
//!   slot-local folds over the WAL order, so parallelism can never
//!   show in what fired or how it rendered.
//! * **Recommend equals the offline sweep** — the served `recommend`
//!   threshold and per-threshold stabilized counts equal the batch
//!   §6.2 sweep (`label_stabilization_all`) computed directly over the
//!   same feed, and the engine subset is exactly the engines whose
//!   flip ratio is at or below the fleet-wide ratio.
//! * **Subscribe pushes each published alert at most once**, and every
//!   pushed alert is one the pull verb also serves.
//! * **Typed errors** for malformed alerting requests, and the
//!   `serve/alerts_*` counters surfaced in `status`.

mod common;

use common::{await_ingest_done, connect, query, query_raw, u64s};
use std::io::BufRead;
use std::sync::OnceLock;
use std::time::Duration;
use vt_label_dynamics::dynamics::stabilization::FIG9_THRESHOLDS;
use vt_label_dynamics::model::EngineId;
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;

const SAMPLES: u64 = 1_000; // one ingest chunk: daemon feed == reference feed
const SEED: u64 = 0xD1CE;
const SEGMENT_REPORTS: u64 = 300;

/// Detector thresholds tuned low enough that this small feed actually
/// fires all the alert machinery (defaults are tuned for the full-size
/// stream).
fn sensitive_alerts() -> AlertConfig {
    AlertConfig {
        burst_min: 2,
        crossover_min_scans: 20,
        crossover_min_gap_permille: 1,
        regression_min_stabilized: 2,
        regression_factor_permille: 1_000,
        ..AlertConfig::default()
    }
}

fn serve_config(shards: usize, workers: usize) -> ServeConfig {
    let mut config = ServeConfig::new(SAMPLES, SEED);
    config.segment_reports = SEGMENT_REPORTS;
    config.workers = workers;
    config.shards = shards;
    config.alert_config = sensitive_alerts();
    config
}

/// The batch study over the identical feed (same simulator, same
/// default fault plan as [`ServeConfig::new`]), computed once per test
/// process.
fn reference_results() -> &'static (StudyResults, Vec<String>) {
    static REF: OnceLock<(StudyResults, Vec<String>)> = OnceLock::new();
    REF.get_or_init(|| {
        let sim = VirusTotalSim::new(SimConfig::new(SEED, SAMPLES));
        let plan = FaultPlan::clean(SEED)
            .with_duplicates(0.01)
            .with_reordering(0.05, 30);
        let feed = FaultyFeed::from_sim(&sim, 0..SAMPLES, plan);
        let outcome = Collector::default().run(feed);
        let records = records_from_store(&outcome.store);
        let window_start = sim.config().window_start();
        let results = analyze_records(&records, Vec::new(), sim.fleet(), window_start);
        let engine_names = (0..results.flips.engine_count)
            .map(|i| sim.fleet().profile(EngineId::new(i)).name.to_string())
            .collect();
        (results, engine_names)
    })
}

/// The `(slot, seq, detector, ordinal)` identity of one rendered alert.
fn alert_key(v: &json::Value) -> (u64, u64, String, u64) {
    (
        u64s(v, "seq"),
        u64s(v, "slot"),
        v.get("detector")
            .and_then(|d| d.as_str())
            .expect("detector member")
            .to_string(),
        u64s(v, "ordinal"),
    )
}

/// The epoch-independent tail of an `alerts` response: everything from
/// `"count"` on. The epoch before it depends on publish cadence (how
/// many seals the merger coalesced), which legitimately varies with
/// shard/worker counts; the alert content must not.
fn alerts_tail(raw: &str) -> &str {
    let at = raw.find("\"count\"").expect("count member");
    &raw[at..]
}

/// The full shards 1/2/4 × workers 1/2/8 grid must serve the same
/// `alerts` bytes after the epoch prefix — the tentpole acceptance.
#[test]
fn alert_streams_bit_identical_across_shard_worker_grid() {
    let mut reference: Option<String> = None;
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 8] {
            let server = Server::start(serve_config(shards, workers)).expect("bind");
            let (mut stream, mut reader) = await_ingest_done(server.addr());
            let raw = query_raw(&mut stream, &mut reader, "{\"cmd\":\"alerts\",\"since\":0}");
            let v = json::parse(&raw).expect("parseable alerts response");
            let count = u64s(&v, "count");
            assert!(
                count > 0,
                "the tuned detectors must fire on this feed or the test is vacuous"
            );
            assert_eq!(
                count,
                v.get("alerts")
                    .and_then(|a| a.as_array())
                    .expect("alerts array")
                    .len() as u64
            );
            let tail = alerts_tail(&raw).to_string();
            match &reference {
                None => reference = Some(tail),
                Some(want) => assert_eq!(
                    want, &tail,
                    "alert stream diverged at shards={shards}, workers={workers}"
                ),
            }
            server.shutdown();
            server.wait();
        }
    }
}

/// The served recommendation must equal the offline §6.2 sweep and the
/// §7.1 flip matrix, computed directly over the same feed.
#[test]
fn recommend_matches_the_offline_stabilization_sweep() {
    let (results, engine_names) = reference_results();
    let server = Server::start(serve_config(2, 2)).expect("bind");
    let (mut stream, mut reader) = await_ingest_done(server.addr());
    let v = query(&mut stream, &mut reader, "{\"cmd\":\"recommend\"}");
    let rec = v.get("recommend").expect("recommend member");

    // Per-threshold stabilized counts equal Fig. 9a bit for bit.
    let sweep = rec
        .get("thresholds")
        .and_then(|t| t.as_array())
        .expect("thresholds array");
    assert_eq!(sweep.len(), FIG9_THRESHOLDS.len());
    for (row, offline) in sweep.iter().zip(&results.label_stabilization_all) {
        assert_eq!(u64s(row, "threshold"), u64::from(offline.t));
        assert_eq!(
            u64s(row, "stabilized"),
            offline.stabilized,
            "threshold {} disagrees with the offline sweep",
            offline.t
        );
    }
    assert_eq!(u64s(rec, "in_s"), results.s_samples);

    // The recommended threshold is the sweep's argmax (ties to the
    // lower threshold).
    let best = results
        .label_stabilization_all
        .iter()
        .max_by(|a, b| a.stabilized.cmp(&b.stabilized).then(b.t.cmp(&a.t)))
        .expect("nonempty sweep");
    assert_eq!(u64s(rec, "threshold"), u64::from(best.t));
    assert_eq!(u64s(rec, "stabilized"), best.stabilized);

    // The engine subset: exactly the engines at or below the
    // fleet-wide flip ratio, in (ratio, name) order.
    let totals: Vec<(usize, u64, u64)> = (0..results.flips.engine_count)
        .map(|i| {
            let row = &results.flips.matrix[i];
            (
                i,
                row.iter().map(|c| c.flips).sum(),
                row.iter().map(|c| c.opportunities).sum(),
            )
        })
        .collect();
    let fleet_flips: u64 = totals.iter().map(|&(_, f, _)| f).sum();
    let fleet_opps: u64 = totals.iter().map(|&(_, _, o)| o).sum();
    let mut expect: Vec<&(usize, u64, u64)> = totals
        .iter()
        .filter(|&&(_, f, o)| {
            o > 0 && (f as u128) * (fleet_opps as u128) <= (fleet_flips as u128) * (o as u128)
        })
        .collect();
    expect.sort_by(|&&(i, fi, oi), &&(j, fj, oj)| {
        ((fi as u128) * (oj as u128))
            .cmp(&((fj as u128) * (oi as u128)))
            .then_with(|| engine_names[i].cmp(&engine_names[j]))
    });
    let served = rec
        .get("engines")
        .and_then(|e| e.as_array())
        .expect("engines array");
    assert!(
        !served.is_empty(),
        "some engine is always at or below average"
    );
    assert_eq!(served.len(), expect.len());
    for (row, &&(i, f, o)) in served.iter().zip(&expect) {
        assert_eq!(
            row.get("name").and_then(|n| n.as_str()),
            Some(&*engine_names[i])
        );
        assert_eq!(u64s(row, "flips"), f);
        assert_eq!(u64s(row, "opportunities"), o);
    }

    server.shutdown();
    server.wait();
}

/// `subscribe` switches the connection into a push stream: every line
/// is one published alert, no alert is pushed twice, and each one is
/// an alert the pull verb also serves.
#[test]
fn subscribe_pushes_published_alerts_at_most_once() {
    let server = Server::start(serve_config(2, 2)).expect("bind");

    // Subscribe immediately, before ingest finishes, so pushes race
    // real publishes.
    let (mut sub_stream, mut sub_reader) = connect(server.addr());
    let ack = query(&mut sub_stream, &mut sub_reader, "{\"cmd\":\"subscribe\"}");
    assert_eq!(ack.get("subscribed").and_then(|s| s.as_bool()), Some(true));

    // Drive ingest to completion on a second connection and take the
    // authoritative pull answer.
    let (mut stream, mut reader) = await_ingest_done(server.addr());
    let finale = query(&mut stream, &mut reader, "{\"cmd\":\"alerts\",\"since\":0}");
    let all: Vec<_> = finale
        .get("alerts")
        .and_then(|a| a.as_array())
        .expect("alerts array")
        .iter()
        .map(alert_key)
        .collect();
    assert!(!all.is_empty());

    // Give the push loop a beat to flush the final epoch, then shut
    // down; the subscriber connection drains to EOF.
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown();
    server.wait();

    let mut pushed = Vec::new();
    let mut line = String::new();
    while {
        line.clear();
        sub_reader.read_line(&mut line).expect("read push") > 0
    } {
        let v = json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("unparseable push: {e}: {line}"));
        assert!(u64s(&v, "epoch") > 0, "pushes carry the publish epoch");
        pushed.push(alert_key(v.get("alert").expect("alert member")));
    }
    assert!(!pushed.is_empty(), "subscriber saw none of the alerts");
    let mut dedup = pushed.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), pushed.len(), "an alert was pushed twice");
    for key in &pushed {
        assert!(
            all.contains(key),
            "pushed alert {key:?} is unknown to the pull verb"
        );
    }
}

/// Typed answers for the alerting verbs' edges: bad `since`, a future
/// `since`, and the `serve/alerts_*` counters in `status`.
#[test]
fn alert_verbs_answer_edges_with_typed_documents() {
    let server = Server::start(serve_config(1, 1)).expect("bind");
    let (mut stream, mut reader) = await_ingest_done(server.addr());

    let v = query(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"alerts\",\"since\":\"x\"}",
    );
    assert_eq!(
        v.get("error").and_then(|e| e.as_str()),
        Some("member 'since' must be a non-negative integer")
    );

    // A `since` beyond every published epoch: an empty page, not an
    // error.
    let v = query(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"alerts\",\"since\":99999999}",
    );
    assert_eq!(u64s(&v, "count"), 0);
    assert!(v.get("error").is_none());

    // `since` defaults to 0 (the whole retained stream).
    let defaulted = query_raw(&mut stream, &mut reader, "{\"cmd\":\"alerts\"}");
    let explicit = query_raw(&mut stream, &mut reader, "{\"cmd\":\"alerts\",\"since\":0}");
    assert_eq!(alerts_tail(&defaulted), alerts_tail(&explicit));

    // The status document carries the alert counters, and what the
    // pull verb serves agrees with the fired total (this feed stays
    // far under the retention ring).
    let status = query(&mut stream, &mut reader, "{\"cmd\":\"status\"}");
    let fired = u64s(&status, "alerts_fired");
    for key in [
        "alerts_stabilized",
        "alerts_destabilized",
        "alerts_swings",
        "alerts_emitted",
        "alerts_dropped",
    ] {
        u64s(&status, key);
    }
    let v = json::parse(&explicit).expect("parseable alerts response");
    assert_eq!(u64s(&v, "count"), fired);

    // With detectors disabled the verbs stay well-formed but empty.
    server.shutdown();
    server.wait();
    let mut off = serve_config(1, 1);
    off.alerts = false;
    let server = Server::start(off).expect("bind");
    let (mut stream, mut reader) = await_ingest_done(server.addr());
    let v = query(&mut stream, &mut reader, "{\"cmd\":\"alerts\",\"since\":0}");
    assert_eq!(u64s(&v, "count"), 0);
    let status = query(&mut stream, &mut reader, "{\"cmd\":\"status\"}");
    assert_eq!(u64s(&status, "alerts_fired"), 0);
    server.shutdown();
    server.wait();
}
