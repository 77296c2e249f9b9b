//! Per-hash query correctness for the `vtld serve` daemon (ISSUE 7).
//!
//! The contract under test (DESIGN.md §2.8):
//!
//! * **Bit-match** — every `sample`, `stabilized`, `engine` and
//!   `flip_leaders` answer must agree field-for-field with a
//!   [`SampleIndex`] folded directly over the same faulty feed, at
//!   every shard × worker combination (the index rides the same
//!   fold/merge algebra as the study partials, so parallelism can
//!   never show in an answer).
//! * **Epoch consistency** — a response is rendered from exactly one
//!   published snapshot: epochs observed on one connection are
//!   monotone, and two answers for the same hash at the same epoch are
//!   byte-identical (a snapshot is immutable and an answer reads
//!   nothing else).
//!
//! The reference index is computed once per test process: the daemon
//! feed is replicated exactly — same simulator, same default
//! [`FaultPlan`] as [`ServeConfig::new`], and one faulty feed and one
//! collector run per ingest chunk of ordinals, as the feeder cuts it.
//! `SAMPLES` spans three such chunks, so each slot's segments carry
//! hash ranges that interleave across chunks, and an index combinator
//! that appended its parts instead of merging them would answer wrong.

mod common;

use common::{await_ingest_done, connect, query, query_raw, u64s};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use vt_label_dynamics::dynamics::stabilization::FIG9_THRESHOLDS;
use vt_label_dynamics::model::EngineId;
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;

const SAMPLES: u64 = 2_500; // three ingest chunks
const SEED: u64 = 0xD1CE;
/// Sample ordinals per collector run: `INGEST_CHUNK_SAMPLES` of the
/// feeder (`src/serve/ingest.rs`), which the reference feed replicates.
const INGEST_CHUNK_SAMPLES: u64 = 1_024;
/// About 400 reports reach each of the 8 ingest slots, so every slot
/// seals several segments from each ingest chunk and its index chunks
/// compact: the bit-match reads compacted chunks, not only each slot's
/// feed-end tail.
const SEGMENT_REPORTS: u64 = 40;

/// The directly folded ground truth every served answer must match.
struct Reference {
    index: SampleIndex,
    results: StudyResults,
    engine_names: Vec<String>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let sim = VirusTotalSim::new(SimConfig::new(SEED, SAMPLES));
        // ServeConfig::new's default fault plan, replicated exactly.
        let plan = FaultPlan::clean(SEED)
            .with_duplicates(0.01)
            .with_reordering(0.05, 30);
        let mut records = Vec::new();
        for start in (0..SAMPLES).step_by(INGEST_CHUNK_SAMPLES as usize) {
            let end = (start + INGEST_CHUNK_SAMPLES).min(SAMPLES);
            let outcome = Collector::default().run(FaultyFeed::from_sim(&sim, start..end, plan));
            records.extend(records_from_store(&outcome.store));
        }
        let window_start = sim.config().window_start();
        let table = TrajectoryTable::build(&records, window_start);
        let index = SampleIndex::fold_table(&table);
        let results = analyze_records(&records, Vec::new(), sim.fleet(), window_start);
        let engine_names = (0..results.flips.engine_count)
            .map(|i| sim.fleet().profile(EngineId::new(i)).name.to_string())
            .collect();
        Reference {
            index,
            results,
            engine_names,
        }
    })
}

fn bools(v: &json::Value, key: &str) -> bool {
    v.get(key)
        .and_then(|x| x.as_bool())
        .unwrap_or_else(|| panic!("missing bool member {key}: {v:?}"))
}

/// Asserts a served `sample` document equals the reference summary.
fn assert_sample_matches(v: &json::Value, s: &SampleSummary<'_>) {
    assert_eq!(
        v.get("hash").and_then(|h| h.as_str()),
        Some(&*s.hash.to_hex())
    );
    assert!(bools(v, "found"));
    assert_eq!(
        v.get("file_type").and_then(|t| t.as_str()),
        Some(&*s.file_type.name())
    );
    assert_eq!(u64s(v, "reports"), s.report_count() as u64);
    assert_eq!(
        u64s(v, "current_positives"),
        u64::from(s.current_positives())
    );
    assert_eq!(u64s(v, "p_min"), u64::from(s.p_min()));
    assert_eq!(u64s(v, "p_max"), u64::from(s.p_max()));
    assert_eq!(u64s(v, "flips"), u64::from(s.flips));
    assert_eq!(bools(v, "multi_report"), s.is_multi_report());
    assert_eq!(bools(v, "stable"), s.is_stable());
    assert_eq!(bools(v, "fresh"), s.is_fresh());
    assert_eq!(bools(v, "in_s"), s.in_s());

    let positives = v
        .get("positives")
        .and_then(|p| p.as_array())
        .expect("positives");
    let served: Vec<u64> = positives.iter().filter_map(json::Value::as_u64).collect();
    let expect: Vec<u64> = s.positives.iter().map(|&p| u64::from(p)).collect();
    assert_eq!(served, expect, "positives timeline for {}", s.hash.to_hex());

    let dates = v
        .get("dates_min")
        .and_then(|d| d.as_array())
        .expect("dates_min");
    let served: Vec<u64> = dates.iter().filter_map(json::Value::as_u64).collect();
    let expect: Vec<u64> = s.dates_min.iter().map(|&d| d as u64).collect();
    assert_eq!(served, expect, "report dates for {}", s.hash.to_hex());

    let stab = v
        .get("stabilization")
        .and_then(|x| x.as_array())
        .expect("stabilization");
    assert_eq!(stab.len(), FIG9_THRESHOLDS.len());
    for (row, &t) in stab.iter().zip(FIG9_THRESHOLDS.iter()) {
        assert_eq!(u64s(row, "threshold"), u64::from(t));
        assert_eq!(
            bools(row, "stabilized"),
            s.stabilized_at(t).unwrap_or(false),
            "threshold {t} for {}",
            s.hash.to_hex()
        );
    }
}

/// Every per-hash answer bit-matches the direct fold, at shards 1/2/4
/// × workers 1/2/8 (ISSUE 7 acceptance).
#[test]
fn per_hash_answers_bit_match_a_direct_fold_at_every_shard_worker_combo() {
    let r = reference();
    assert_eq!(
        r.index.len() as u64,
        SAMPLES,
        "every sample must be indexed"
    );

    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 8] {
            let mut config = ServeConfig::new(SAMPLES, SEED);
            config.segment_reports = SEGMENT_REPORTS;
            config.workers = workers;
            config.shards = shards;
            let server = Server::start(config).expect("bind ephemeral port");
            let (mut stream, mut reader) = await_ingest_done(server.addr());

            // `sample`: a stride through the whole population plus the
            // flip-heavy head must match the reference field-for-field.
            let summaries: Vec<_> = r.index.iter().collect();
            for s in summaries
                .iter()
                .step_by(13)
                .chain(r.index.top_flips(5).iter())
            {
                let v = query(
                    &mut stream,
                    &mut reader,
                    &format!("{{\"cmd\":\"sample\",\"hash\":\"{}\"}}", s.hash.to_hex()),
                );
                assert_sample_matches(&v, s);
            }

            // `stabilized`: the head of the population × all 9 Fig. 9
            // thresholds.
            for s in summaries.iter().take(5) {
                for &t in &FIG9_THRESHOLDS {
                    let v = query(
                        &mut stream,
                        &mut reader,
                        &format!(
                            "{{\"cmd\":\"stabilized\",\"hash\":\"{}\",\"threshold\":{t}}}",
                            s.hash.to_hex()
                        ),
                    );
                    assert!(bools(&v, "found"));
                    assert_eq!(u64s(&v, "threshold"), u64::from(t));
                    assert_eq!(bools(&v, "stabilized"), s.stabilized_at(t).unwrap_or(false));
                }
            }

            // `flip_leaders`: hash/flip pairs in the exact total order.
            let v = query(
                &mut stream,
                &mut reader,
                "{\"cmd\":\"flip_leaders\",\"k\":25}",
            );
            let leaders = v
                .get("leaders")
                .and_then(|l| l.as_array())
                .expect("leaders");
            let expect = r.index.top_flips(25);
            assert_eq!(leaders.len(), expect.len());
            for (row, s) in leaders.iter().zip(expect.iter()) {
                assert_eq!(
                    row.get("hash").and_then(|h| h.as_str()),
                    Some(&*s.hash.to_hex())
                );
                assert_eq!(u64s(row, "flips"), u64::from(s.flips));
                assert_eq!(u64s(row, "reports"), s.report_count() as u64);
            }

            // `engine`: scorecard totals against the batch flip matrix.
            for engine in [0usize, 7, 42] {
                let name = &r.engine_names[engine];
                let v = query(
                    &mut stream,
                    &mut reader,
                    &format!("{{\"cmd\":\"engine\",\"name\":{name:?}}}"),
                );
                assert_eq!(v.get("engine").and_then(|n| n.as_str()), Some(&**name));
                let row = &r.results.flips.matrix[engine];
                let flips: u64 = row.iter().map(|c| c.flips).sum();
                let opportunities: u64 = row.iter().map(|c| c.opportunities).sum();
                assert_eq!(u64s(&v, "flips"), flips, "engine {name}");
                assert_eq!(u64s(&v, "opportunities"), opportunities, "engine {name}");
                let types = v.get("types").and_then(|t| t.as_array()).expect("types");
                assert_eq!(
                    types.len(),
                    row.iter().filter(|c| c.opportunities > 0).count()
                );
            }

            // The answers above came through index compaction.
            let v = query(&mut stream, &mut reader, "{\"cmd\":\"metrics\"}");
            let counters = (v.get("metrics"))
                .and_then(|m| m.get("counters"))
                .expect("metrics.counters member");
            assert!(
                u64s(counters, "serve/index_copied_samples") > 0,
                "shards {shards} workers {workers}: no index chunk compacted"
            );

            server.shutdown();
            server.wait();
        }
    }
}

/// Unknown hashes and malformed per-hash queries earn typed answers,
/// never a panic.
#[test]
fn per_hash_queries_reject_garbage_with_typed_answers() {
    let mut config = ServeConfig::new(50, 0xBEEF);
    config.segment_reports = 1_000;
    config.workers = 1;
    let server = Server::start(config).expect("bind ephemeral port");
    let (mut stream, mut reader) = await_ingest_done(server.addr());

    // A well-formed hash no sample hashes to: found:false, not an error.
    let v = query(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"sample\",\"hash\":\"deadbeefdeadbeefdeadbeefdeadbeef\"}",
    );
    assert_eq!(v.get("found").and_then(|f| f.as_bool()), Some(false));
    assert!(v.get("error").is_none());

    // Everything else: a typed error naming the problem.
    for req in [
        "{\"cmd\":\"sample\"}",                    // hash missing
        "{\"cmd\":\"sample\",\"hash\":\"xyzzy\"}", // not hex
        "{\"cmd\":\"sample\",\"hash\":\"\"}",      // empty
        "{\"cmd\":\"sample\",\"hash\":\"+ab\"}",   // a sign is not a hex digit
        "{\"cmd\":\"sample\",\"hash\":\"000000000000000000000000000000000\"}", // 33 nibbles
        "{\"cmd\":\"sample\",\"hash\":12}",        // wrong type
        "{\"cmd\":\"stabilized\",\"hash\":\"ff\"}", // threshold missing
        "{\"cmd\":\"stabilized\",\"hash\":\"ff\",\"threshold\":3}", // not a Fig. 9 threshold
        "{\"cmd\":\"stabilized\",\"hash\":\"ff\",\"threshold\":4294967306}", // 2^32 + 10, not 10
        "{\"cmd\":\"engine\",\"name\":\"NoSuchEngine\"}", // unknown engine
        "{\"cmd\":\"engine\"}",                    // name missing
        "{\"cmd\":\"flip_leaders\",\"k\":\"many\"}", // k wrong type
    ] {
        let v = query(&mut stream, &mut reader, req);
        assert!(
            v.get("error").and_then(|e| e.as_str()).is_some(),
            "expected a typed error for {req}, got {v:?}"
        );
    }

    // `k` is forgiving rather than hostile: missing defaults to 10,
    // oversized clamps to the cap — both answered, never errored.
    let v = query(&mut stream, &mut reader, "{\"cmd\":\"flip_leaders\"}");
    assert_eq!(u64s(&v, "k"), 10);
    let v = query(
        &mut stream,
        &mut reader,
        "{\"cmd\":\"flip_leaders\",\"k\":1000000}",
    );
    assert!(u64s(&v, "k") <= 1_000, "k must clamp to the cap: {v:?}");
    assert!(v.get("leaders").and_then(|l| l.as_array()).is_some());

    server.shutdown();
    server.wait();
}

/// Epochs observed on one connection are monotone, and two answers for
/// the same hash at the same epoch are byte-identical even while
/// snapshots swap underneath (an answer reads one pinned snapshot).
#[test]
fn per_hash_answers_are_epoch_consistent_under_live_ingest() {
    let mut config = ServeConfig::new(6_000, 0xE70C);
    config.segment_reports = 250; // many seals → many epoch swaps
    config.workers = 2;
    config.shards = 4;
    let server = Server::start(config).expect("bind ephemeral port");
    let (mut stream, mut reader) = connect(server.addr());

    let probe = reference()
        .index
        .iter()
        .next()
        .expect("nonempty reference")
        .hash;
    let req = format!("{{\"cmd\":\"sample\",\"hash\":\"{}\"}}", probe.to_hex());
    let mut last_epoch = 0u64;
    let mut by_epoch: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let before = query(&mut stream, &mut reader, "{\"cmd\":\"status\"}");
        // Ask twice back-to-back: both answers are rendered afresh and
        // must be byte-identical if the epoch held.
        let first = query_raw(&mut stream, &mut reader, &req);
        let second = query_raw(&mut stream, &mut reader, &req);
        let after = query(&mut stream, &mut reader, "{\"cmd\":\"status\"}");

        for raw in [&first, &second] {
            let v = json::parse(raw).expect("parseable sample response");
            let epoch = u64s(&v, "epoch");
            assert!(
                epoch >= u64s(&before, "epoch") && epoch <= u64s(&after, "epoch"),
                "a response must come from a snapshot published between \
                 the statuses bracketing it"
            );
            assert!(
                epoch >= last_epoch,
                "epochs must be monotone on one connection"
            );
            last_epoch = epoch;
            let prior = by_epoch.entry(epoch).or_insert_with(|| raw.clone());
            assert_eq!(
                prior, raw,
                "two answers for one hash at epoch {epoch} must be byte-identical"
            );
        }

        if bools(&after, "ingest_done") {
            break;
        }
        assert!(Instant::now() < deadline, "ingestion never finished");
    }
    assert!(
        by_epoch.len() > 1,
        "the feed must have swapped epochs mid-probe for this test to bite"
    );

    server.shutdown();
    server.wait();
}
