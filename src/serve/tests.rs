//! The serve tier's pre-split unit tests, kept under `serve::tests`
//! (the names the test floor pins); each layer's newer tests sit in its
//! own file.

use std::sync::mpsc::channel;
use std::sync::Arc;

use super::counters::ServeCounters;
use super::fold::{FoldCtx, MergeEvent, SlotFold, SlotUpdate};
use super::ingest::slot_of;
use super::publish::{empty_epoch, merger_loop, PublishCtx, Seam, Snapshot};
use super::render::{
    json_f64, render_engines, render_fingerprint, render_flip_leaders, render_metrics,
    render_recommend, render_results, render_sample, render_stabilized, render_status,
    study_fingerprint,
};
use super::wire::quoted;
use super::{ServeConfig, INGEST_SLOTS};
use crate::dynamics::{
    merge_partition_stats, par, Collector, CollectorConfig, DecodeArena, IncrementalStudy,
    SampleIndex, StudyPartials,
};
use crate::engines::EngineFleet;
use crate::model::SampleHash;
use crate::obs::Obs;
use crate::sim::fault::{FaultPlan, FaultyFeed};
use crate::sim::{SimConfig, VirusTotalSim};
use crate::store::{PartitionStats, Segment, SegmentWriter};

#[test]
fn json_helpers_guard_edge_cases() {
    assert_eq!(json_f64(0.5), "0.5");
    assert_eq!(json_f64(f64::NAN), "null");
    assert_eq!(json_f64(f64::INFINITY), "null");
    assert_eq!(quoted("a\"b\n"), "\"a\\\"b\\n\"");
}

#[test]
fn empty_snapshot_renders_parseable_responses() {
    let config = ServeConfig::new(100, 7);
    let snap = empty_epoch(&FoldCtx::new(config));
    assert_eq!(snap.epoch, 0);
    for doc in [
        &render_status(&snap, &ServeCounters::register(Obs::noop())),
        render_results(&snap),
        render_engines(&snap),
        &render_metrics(&snap, Obs::noop()),
        render_fingerprint(&snap),
        render_recommend(&snap),
    ] {
        let v = crate::obs::json::parse(doc).expect("valid JSON");
        assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(0));
    }
    let v = crate::obs::json::parse(render_fingerprint(&snap)).expect("valid JSON");
    assert_eq!(
        v.get("fingerprint").and_then(|f| f.as_str()).map(str::len),
        Some(16)
    );
}

#[test]
fn merge_partitions_accumulates_by_month() {
    let a = PartitionStats {
        month: None,
        reports: 3,
        raw_bytes: 30,
        stored_bytes: 10,
    };
    let mut acc = vec![a];
    merge_partition_stats(&mut acc.clone(), &[]);
    merge_partition_stats(&mut acc, &[a, a]);
    assert_eq!(acc.len(), 1);
    assert_eq!(acc[0].reports, 9);
    assert_eq!(acc[0].stored_bytes, 30);
}

#[test]
fn slot_routing_is_total_and_stable() {
    for ordinal in 0..512u64 {
        let hash = SampleHash::from_ordinal(ordinal);
        let slot = slot_of(hash);
        assert!(slot < INGEST_SLOTS);
        assert_eq!(slot, slot_of(hash), "routing must be pure");
    }
}

/// The layering rule of this module's header, checked on the source:
/// each layer's code (the text before its test module) names only what
/// lies to its right — and only the merger's seam holds a lock: the
/// two layers upstream of it and the two a request runs through have
/// none of their own, so there is none for a worker or a handler to die
/// holding, and `render` keeps no keyed state a client could fill.
#[test]
fn layers_name_only_what_lies_to_their_right() {
    let code =
        |source: &'static str| (source.split("#[cfg(test)]\nmod tests {").next()).unwrap_or(source);
    let rules: [(&str, &str, &[&str]); 5] = [
        (
            "conn.rs",
            code(include_str!("conn.rs")),
            &["StudyPartials", "super::fold", "Mutex", "RwLock"],
        ),
        (
            "render.rs",
            code(include_str!("render.rs")),
            &["Tcp", "SocketAddr", "Mutex", "RwLock", "HashMap"],
        ),
        // The merger sums each fold's own delta: naming the merge tree or
        // the worker's shared accumulation brings the cumulative hand-off
        // back, and assigning a slot's index whole is the newest-wins
        // rule an index delta replaced.
        (
            "publish.rs",
            code(include_str!("publish.rs")),
            &[
                "super::render",
                "SlotMergeTree",
                "merge_ref",
                "slot_indexes[slot] =",
            ],
        ),
        // A worker only folds: every segment from its store, and alerts
        // leave the daemon through the merger. It hands over each fold's
        // own index and reads no cumulative one.
        (
            "fold.rs",
            code(include_str!("fold.rs")),
            &[
                ".index()",
                "Snapshot",
                "Mutex",
                "RwLock",
                "shared_partials",
                "write_segment",
                "read_segment_into",
                "render_alert",
                "sink::",
            ],
        ),
        // The feeder streams the replay; the collected log is the
        // benchmark's.
        (
            "ingest.rs",
            code(include_str!("ingest.rs")),
            &["Snapshot", "Mutex", "RwLock", ".replay()"],
        ),
    ];
    for (file, code, banned) in rules {
        for name in banned {
            let hit = code.lines().position(|line| line.contains(name));
            assert_eq!(hit, None, "{file} names {name} (0-based line)");
        }
    }
    // publish.rs finishes a study in one place, `finish`: called by the
    // first reader of a snapshot, or ahead of the swap once readers ask.
    let publish = code(include_str!("publish.rs"));
    let accessor = (publish.split("\nfn finish(").nth(1))
        .and_then(|body| body.split(" fn ").next())
        .unwrap_or_default();
    assert!(
        publish.matches(".finish(").count() == 1 && accessor.contains(".finish("),
        "publish.rs finishes outside its `finish`"
    );
    // An alert is rendered in one place: the merger, for the ring and
    // the sinks alike.
    let sources = [
        ("conn.rs", include_str!("conn.rs")),
        ("counters.rs", include_str!("counters.rs")),
        ("fold.rs", include_str!("fold.rs")),
        ("ingest.rs", include_str!("ingest.rs")),
        ("mod.rs", include_str!("mod.rs")),
        ("publish.rs", include_str!("publish.rs")),
        ("render.rs", include_str!("render.rs")),
        ("sink.rs", include_str!("sink.rs")),
        ("wire.rs", include_str!("wire.rs")),
    ];
    let calls: Vec<_> = (sources.iter())
        .map(|(file, source)| {
            let code = code(source);
            let n =
                code.matches("render_alert(").count() - code.matches("fn render_alert(").count();
            (*file, n)
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    assert_eq!(calls, [("publish.rs", 1)], "render_alert call sites");
}

#[test]
fn config_normalization_clamps() {
    let mut config = ServeConfig::new(10, 1);
    config.shards = 0;
    config.segment_reports = 0;
    config.max_clients = 0;
    config.workers = 0;
    let n = config.normalized();
    assert_eq!(n.shards, 1);
    assert_eq!(n.segment_reports, 1);
    assert_eq!(n.max_clients, 1);
    assert_eq!(n.workers, 1);
    let mut config = ServeConfig::new(10, 1);
    config.shards = 64;
    config.workers = 100_000;
    let n = config.normalized();
    assert_eq!(n.shards, INGEST_SLOTS);
    assert_eq!(
        n.workers,
        par::MAX_WORKERS,
        "each fold worker has its own accumulators"
    );
}

/// With the detectors off no sink is opened: an `--alerts-out` path the
/// daemon could not open neither fails the start nor gets created.
#[test]
fn detectors_off_open_no_sink() {
    let path = std::env::temp_dir()
        .join(format!("vtld-no-alerts-{}", std::process::id()))
        .join("alerts.jsonl");
    let mut config = ServeConfig::new(0, 7);
    config.alerts = false;
    config.alerts_out = Some(path.clone());
    drop(super::Server::start(config).expect("starts"));
    assert!(!path.exists());
}

/// A plan whose lateness bound outruns the collector's reorder horizon
/// is refused before the data dir is created; the default plan starts.
#[test]
fn a_plan_later_than_the_reorder_horizon_is_refused() {
    let root = std::env::temp_dir().join(format!("vtld-late-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let horizon = CollectorConfig::default().reorder_horizon;
    let mut config = ServeConfig::new(0, 7);
    config.plan = FaultPlan::clean(7).with_reordering(0.05, horizon + 1);
    config.data_dir = Some(root.clone());
    let err = super::Server::start(config.clone()).expect_err("refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let expected = Collector::for_plan(CollectorConfig::default(), &config.plan)
        .expect_err("the horizon is one minute short");
    assert_eq!(err.to_string(), expected.to_string());
    assert!(!root.exists(), "a refused start creates no data dir");

    let default = ServeConfig::new(0, 7);
    assert_eq!(default.plan.max_lateness, 30);
    drop(super::Server::start(default).expect("the default plan starts"));
}

/// A data dir holds one feed: `--recover` under another seed or sample
/// count is refused before anything is replayed, a sink is opened or the
/// listener is bound, and leaves every segment file as it was.
#[test]
fn a_recover_under_another_feed_is_refused() {
    let root = std::env::temp_dir().join(format!("vtld-other-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = |samples, seed| {
        let mut config = ServeConfig::new(samples, seed);
        config.segment_reports = 500;
        config.data_dir = Some(root.clone());
        config
    };
    let server = super::Server::start(config(600, 7)).expect("a fresh dir starts");
    while !server.daemon.seam.current().ingest_done {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    drop(server);
    let files = || {
        let mut files: Vec<_> = std::fs::read_dir(&root)
            .expect("data dir")
            .map(|entry| entry.expect("entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "vtseg"))
            .map(|path| (std::fs::read(&path).expect("segment"), path))
            .collect();
        files.sort();
        files
    };
    let sealed = files();
    assert!(sealed.len() >= 2, "{} segments", sealed.len());

    // Taken, so a start that bound before refusing would fail to bind.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let alerts = root.join("alerts.jsonl");
    for (samples, seed, other) in [
        (600, 8, "seed=8 samples=600"),
        (300, 7, "seed=7 samples=300"),
    ] {
        let mut config = config(samples, seed);
        config.recover = true;
        config.addr = taken.local_addr().expect("addr").to_string();
        config.alerts_out = Some(alerts.clone());
        let err = super::Server::start(config).expect_err("another feed is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("feed seed=7 samples=600, not {other};")),
            "{msg}"
        );
        assert!(!alerts.exists(), "no sink was opened");
        assert!(files() == sealed, "the segment files are as they were");
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// The clean feed over `ordinals` sealed into about `ways` whole-sample
/// segments, the way the feeder seals a slot's stream.
pub(super) fn sealed_segments(
    sim: &VirusTotalSim,
    ordinals: std::ops::Range<u64>,
    ways: u64,
) -> Vec<Segment> {
    let feed = FaultyFeed::from_sim(sim, ordinals, FaultPlan::clean(sim.config().seed));
    let groups = Collector::default().run(feed).store.group_by_sample();
    let reports: u64 = groups.iter().map(|(_, r)| r.len() as u64).sum();
    let mut writer = SegmentWriter::new(reports.div_ceil(ways));
    let mut segments: Vec<Segment> = groups
        .iter()
        .filter_map(|(_, reports)| writer.push_sample(reports))
        .collect();
    segments.extend(writer.finish());
    segments
}

/// The empty study of a feed with no samples in it, published at
/// `epoch`.
pub(super) fn bare_snapshot(epoch: u64) -> Snapshot {
    let mut snap = empty_epoch(&FoldCtx::new(ServeConfig::new(0, 0)));
    snap.epoch = epoch;
    snap
}

/// A merger's context with no daemon around it: nothing ingests, so
/// `ingest_done` can only ever be false.
pub(super) fn merger_ctx(config: ServeConfig) -> PublishCtx {
    PublishCtx {
        fold: FoldCtx::new(config),
        seam: Arc::new(Seam::new(bare_snapshot(0))),
    }
}

/// One update stream per slot in `slots`, each out of a real
/// [`SlotFold`] over an equal share of the feed sealed about `ways`
/// ways.
pub(super) fn slot_update_streams(
    ctx: &PublishCtx,
    slots: &[usize],
    ways: u64,
) -> Vec<Vec<SlotUpdate>> {
    let ingest = &ctx.fold.ingest;
    let share = ingest.config.samples / slots.len() as u64;
    let mut arena = DecodeArena::new();
    (0..)
        .zip(slots)
        .map(|(n, &slot)| {
            let mut fold = SlotFold::new(&ingest.config, &ingest.sim, slot);
            sealed_segments(&ingest.sim, n * share..(n + 1) * share, ways)
                .iter()
                .map(|segment| {
                    let c = &ingest.counters;
                    fold.fold(segment, false, &mut arena, Obs::noop(), c).1
                })
                .collect()
        })
        .collect()
}

/// The index each of `slots` holds folded directly: one study over the
/// segments [`slot_update_streams`] seals for it, taken once at the end.
pub(super) fn directly_folded_indexes(
    ctx: &PublishCtx,
    slots: &[usize],
    ways: u64,
) -> Vec<SampleIndex> {
    let ingest = &ctx.fold.ingest;
    let share = ingest.config.samples / slots.len() as u64;
    let mut arena = DecodeArena::new();
    (0..slots.len() as u64)
        .map(|n| {
            let window_start = ingest.sim.config().window_start();
            let mut study = IncrementalStudy::new(ingest.sim.fleet(), window_start).with_index();
            for segment in sealed_segments(&ingest.sim, n * share..(n + 1) * share, ways) {
                study.fold_store(segment.store(), &mut arena, Obs::noop());
            }
            study.take_index().unwrap_or_default()
        })
        .collect()
}

/// Two slots' update streams over halves of the feed, interleaved a
/// fold at a time the way two workers' sends land on the merger's
/// channel.
pub(super) fn interleaved_updates(ctx: &PublishCtx) -> Vec<SlotUpdate> {
    let [a, b]: [Vec<SlotUpdate>; 2] = slot_update_streams(ctx, &[2, 5], 3)
        .try_into()
        .unwrap_or_else(|_| unreachable!("two slots, two streams"));
    assert!(a.len() >= 2 && b.len() >= 2, "several updates per slot");
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let mut interleaved = Vec::new();
    loop {
        let before = interleaved.len();
        interleaved.extend(a.next());
        interleaved.extend(b.next());
        if interleaved.len() == before {
            return interleaved;
        }
    }
}

/// [`interleaved_updates`] as one burst: everything, the exit included,
/// is queued before the merger first looks, so it publishes exactly
/// once — epoch 1.
pub(super) fn published_in_one_burst(ctx: &PublishCtx) -> Arc<Snapshot> {
    let (tx, rx) = channel();
    for update in interleaved_updates(ctx) {
        tx.send(MergeEvent::Folded(Box::new(update))).expect("rx");
    }
    tx.send(MergeEvent::WorkerExited).expect("rx");
    merger_loop(ctx, &rx, None);
    ctx.seam.current()
}

#[test]
fn lazy_renderers_answer_missing_hashes_and_empty_indexes() {
    let snap = bare_snapshot(3);
    let hash = SampleHash::from_ordinal(7);
    let sample = crate::obs::json::parse(&render_sample(&snap, hash)).expect("json");
    assert_eq!(sample.get("epoch").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(sample.get("found").and_then(|v| v.as_bool()), Some(false));
    let stab = crate::obs::json::parse(&render_stabilized(&snap, hash, 10)).expect("json");
    assert_eq!(stab.get("found").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(stab.get("threshold").and_then(|v| v.as_u64()), Some(10));
    let leaders = crate::obs::json::parse(&render_flip_leaders(&snap, 5)).expect("json");
    assert_eq!(
        leaders
            .get("leaders")
            .and_then(|v| v.as_array())
            .map(<[_]>::len),
        Some(0)
    );
}

/// The published fingerprint is a function of the finished study
/// only — the folds' deltas, summed in a shuffled order as the merger
/// may meet them, must give the bits of the flat slot-order merge of
/// every slot's cumulative partials, at every fold worker count.
#[test]
fn summed_deltas_in_any_order_give_the_flat_slot_merge() {
    let samples = 600u64;
    let sim = VirusTotalSim::new(SimConfig::new(0xF1A7, samples));
    let feed = FaultyFeed::from_sim(&sim, 0..samples, FaultPlan::clean(0xF1A7));
    let outcome = Collector::default().run(feed);
    let records = crate::dynamics::records_from_store(&outcome.store);
    let ws = sim.config().window_start();
    let mut slot_records: Vec<Vec<_>> = vec![Vec::new(); INGEST_SLOTS];
    for r in &records {
        slot_records[slot_of(r.meta.hash)].push(r.clone());
    }
    let mut fingerprints = Vec::new();
    for fold_workers in [1usize, 2] {
        let study = || IncrementalStudy::new(sim.fleet(), ws).with_workers(fold_workers);
        let mut studies: Vec<IncrementalStudy<'_>> = (0..INGEST_SLOTS).map(|_| study()).collect();
        let mut deltas = Vec::new();
        for (slot, recs) in slot_records.iter().enumerate() {
            let mut taking = study();
            for seg in recs.chunks(recs.len().div_ceil(2).max(1)) {
                studies[slot].fold_segment(seg, Obs::noop());
                taking.fold_segment(seg, Obs::noop());
                deltas.extend(taking.take_partials());
            }
        }
        let flat = studies
            .iter()
            .filter_map(|st| st.partials().cloned())
            .reduce(StudyPartials::merge)
            .expect("the fixture folds at least one slot");
        // A fixed shuffle: positions sorted by a multiplicative hash.
        let mut order: Vec<usize> = (0..deltas.len()).collect();
        order.sort_by_key(|&i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "the order is shuffled"
        );
        let summed = order
            .iter()
            .map(|&i| deltas[i].clone())
            .reduce(StudyPartials::merge)
            .expect("the fixture folds at least one slot");
        let fp = study_fingerprint(&summed.finish(Vec::new(), Obs::noop()));
        assert_eq!(
            fp,
            study_fingerprint(&flat.finish(Vec::new(), Obs::noop())),
            "summed deltas must publish the flat merge's bits (fold_workers={fold_workers})"
        );
        fingerprints.push(fp);
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "fold parallelism must never show in the fingerprint"
    );
}

#[test]
fn fingerprint_ignores_stage_timings_only() {
    let fleet = EngineFleet::with_seed(42);
    let window_start = SimConfig::new(42, 10).window_start();
    let study = IncrementalStudy::new(&fleet, window_start);
    let mut a = study.results(Vec::new(), Obs::noop());
    let b = study.results(Vec::new(), Obs::noop());
    let fp_a = study_fingerprint(&a);
    assert_eq!(fp_a, study_fingerprint(&b), "same study, same fingerprint");
    a.s_samples += 1;
    assert_ne!(fp_a, study_fingerprint(&a), "results changes must show");
}
