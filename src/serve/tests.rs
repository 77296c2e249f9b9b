//! The serve tier's pre-split unit tests, kept under `serve::tests`
//! (the names the test floor pins); each layer's newer tests sit in its
//! own file.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::OsString;
use std::path::Path;
use std::sync::mpsc::channel;
use std::sync::Arc;

use super::counters::ServeCounters;
use super::fold::{shard_worker, FoldCtx, SlotFold, SlotUpdate};
use super::ingest::{self, slot_of, IngestCtx, SegmentMsg};
use super::publish::{empty_epoch, merger_loop, MergerState, PublishCtx, Seam, Snapshot};
use super::render::{
    json_f64, render_engines, render_fingerprint, render_flip_leaders, render_metrics,
    render_recommend, render_results, render_sample, render_stabilized, render_status,
    study_fingerprint,
};
use super::sink::{sink_loop, SinkMsg, Sinks};
use super::wire::{quoted, render_alert};
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
use crate::store::{PartitionStats, Segment, SegmentDir, SegmentWriter};

#[test]
fn json_helpers_guard_edge_cases() {
    assert_eq!(json_f64(0.5), "0.5");
    assert_eq!(json_f64(f64::NAN), "null");
    assert_eq!(json_f64(f64::INFINITY), "null");
    assert_eq!(quoted("a\"b\n"), "\"a\\\"b\\n\"");
}

#[test]
fn empty_snapshot_renders_parseable_responses() {
    let fold = FoldCtx::new(ServeConfig::new(100, 7));
    let snap = empty_epoch(&fold, &MergerState::new(&fold));
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
        // rule an index delta replaced. It ends when its channel closes;
        // an exit message is a second way to (the name is spelled in
        // halves, so CI's grep for it over the sources stays empty).
        (
            "publish.rs",
            code(include_str!("publish.rs")),
            &[
                "super::render",
                "SlotMergeTree",
                "merge_ref",
                "slot_indexes[slot] =",
                concat!("Merge", "Event"),
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
                concat!("Merge", "Event"),
            ],
        ),
        // The feeder streams the replay (the collected log is the
        // benchmark's) and emits into a callback: which queue a segment
        // waits in, and how deep it gets, is the wiring's business.
        (
            "ingest.rs",
            code(include_str!("ingest.rs")),
            &[
                "Snapshot",
                "Mutex",
                "RwLock",
                ".replay()",
                "SyncSender",
                "sync_channel",
                "queue_depth",
            ],
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
    // The merger ends when its channel closes, not on a count of workers.
    let merger = (publish.split("fn merger_loop(").nth(1))
        .and_then(|body| body.split("\nfn ").next())
        .unwrap_or_default();
    assert!(
        merger.contains("rx.recv()") && !merger.contains("shards"),
        "merger_loop reads the shard count"
    );
    // The feeder seals in one place: `seal` persists, then emits.
    let ingest = code(include_str!("ingest.rs"));
    let seal = (ingest.split("\nfn seal(").nth(1))
        .and_then(|body| body.split("\n}\n").next())
        .unwrap_or_default();
    assert!(
        ingest.matches(".persist(").count() == 1 && seal.contains(".persist("),
        "ingest.rs persists outside its `seal`"
    );
    // The wrappers `seal` replaced stay gone: a writer that persisted on
    // its own, and the enum that chose between it and the plain one.
    let gone = [concat!("Durable", "Writer"), concat!("Slot", "Writer")];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src"), root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a source dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let source = std::fs::read_to_string(&path).expect("a source file");
                for name in gone {
                    assert!(!source.contains(name), "{} names {name}", path.display());
                }
            }
        }
    }
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
    let fold = FoldCtx::new(ServeConfig::new(0, 0));
    let mut snap = empty_epoch(&fold, &MergerState::new(&fold));
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

/// [`interleaved_updates`] as one burst: everything, the hang-up
/// included, is queued before the merger first looks, so it publishes
/// exactly once — epoch 1.
pub(super) fn published_in_one_burst(ctx: &PublishCtx) -> Arc<Snapshot> {
    let (tx, rx) = channel();
    for update in interleaved_updates(ctx) {
        tx.send(Box::new(update)).expect("rx");
    }
    drop(tx);
    merger_loop(ctx, MergerState::new(&ctx.fold), &rx, None);
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

/// What one run of the daemon's steps in sequence left behind.
struct Sequenced {
    /// `ingest::run`'s verdict.
    healthy: bool,
    /// Whether the feeder set the `done` flag (the whole feed sealed).
    done: bool,
    /// Every segment offered to `emit`, as `(slot, seq)`, in emit order.
    offered: Vec<(usize, u64)>,
    /// `offered.len()` at each of the feeder's `stop()` polls.
    polls: Vec<usize>,
    /// The final snapshot.
    snapshot: Arc<Snapshot>,
    /// Each fold's rendered alert lines, in fold (= emit) order.
    fold_lines: Vec<Vec<String>>,
    /// The batches the merger handed its sink, in order.
    sink_batches: Vec<SinkMsg>,
    /// The `serve/queue_depth` high-water mark.
    queue_depth: u64,
}

/// The daemon's steps run one after another on this thread, the way
/// [`super::Server::start`]'s threads run them side by side:
/// `ingest::run` emitting into an unbounded queue, one
/// `fold::shard_worker` draining it, `publish::merger_loop` draining
/// that, and the merger's sink batches collected for [`deliver`].
/// `stop()` turns true at its `stop_at`-th poll (0-based).
fn in_sequence(config: ServeConfig, stop_at: Option<usize>) -> Sequenced {
    let segdir = (config.data_dir.as_ref())
        .map(|root| SegmentDir::open(root, INGEST_SLOTS as u32).expect("open data dir"));
    let collector = Collector::for_plan(CollectorConfig::default(), &config.plan).expect("plan");
    let ctx = merger_ctx(config);
    let offered = RefCell::new(Vec::new());
    let polls = RefCell::new(Vec::new());
    let (tx, rx) = channel();
    let stop = || {
        let mut polls = polls.borrow_mut();
        polls.push(offered.borrow().len());
        stop_at.is_some_and(|j| polls.len() > j)
    };
    let emit = |msg: SegmentMsg| {
        offered.borrow_mut().push((msg.slot, msg.segment.seq()));
        ctx.fold.enqueued();
        tx.send(msg).expect("the receiver lives on this thread");
        true
    };
    let healthy = ingest::run(&ctx.fold.ingest, &collector, stop, segdir, emit);
    drop(tx);

    let (merge_tx, merge_rx) = channel();
    shard_worker(&ctx.fold, &rx, &merge_tx);
    drop(merge_tx);
    let updates: Vec<Box<SlotUpdate>> = merge_rx.try_iter().collect();
    let fold_lines = (updates.iter())
        .map(|update| {
            let alerts = update.alerts.iter();
            alerts.map(|a| render_alert(a, &ctx.fold.roster)).collect()
        })
        .collect();
    let (merge_tx, merge_rx) = channel();
    updates
        .into_iter()
        .for_each(|update| merge_tx.send(update).expect("rx"));
    drop(merge_tx);
    let (sink_tx, sink_rx) = channel();
    merger_loop(&ctx, MergerState::new(&ctx.fold), &merge_rx, Some(&sink_tx));
    drop(sink_tx);
    Sequenced {
        healthy,
        done: ctx.fold.ingest.done(),
        offered: offered.into_inner(),
        polls: polls.into_inner(),
        snapshot: ctx.seam.current(),
        fold_lines,
        sink_batches: sink_rx.try_iter().collect(),
        queue_depth: ctx.fold.ingest.counters.queue_depth.value(),
    }
}

/// Runs `sink_loop` over `batches` into an `--alerts-out` file at
/// `path` that already holds `delivered`, and returns the file's lines.
fn deliver(batches: &[SinkMsg], path: &Path, delivered: &[String]) -> Vec<String> {
    let text: String = delivered.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(path, text).expect("the pre-crash sink file");
    let (tx, rx) = channel();
    for batch in batches {
        let (lines, recovered) = (batch.lines.clone(), batch.recovered);
        tx.send(SinkMsg { lines, recovered }).expect("rx");
    }
    drop(tx);
    let sinks = Sinks::open(Some(path), None).expect("open the sink");
    let obs = Obs::new();
    sink_loop(rx, sinks, obs.counter("emitted"), obs.counter("dropped"));
    let text = std::fs::read_to_string(path).expect("the sink file");
    text.lines().map(str::to_owned).collect()
}

/// Every segment file of the data dir at `root`, `(slot, seq)` → name and
/// bytes.
fn segment_files(root: &Path) -> BTreeMap<(usize, u64), (OsString, Vec<u8>)> {
    let dir = SegmentDir::open(root, INGEST_SLOTS as u32).expect("open data dir");
    (dir.scan().expect("scan").into_iter())
        .map(|f| {
            let name = f.path.file_name().expect("a name").to_owned();
            let bytes = std::fs::read(&f.path).expect("segment");
            ((f.slot as usize, f.seq), (name, bytes))
        })
        .collect()
}

/// The names in `root` that end in `.tmp`.
fn tmp_files(root: &Path) -> Vec<OsString> {
    (std::fs::read_dir(root).expect("data dir"))
        .map(|entry| entry.expect("entry").file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect()
}

/// The enumeration's feed: two ingest chunks (so a stop can land
/// between them), sealed into a few dozen segments across the slots.
fn crash_config(root: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(1_300, 0xC4A5);
    config.segment_reports = 60;
    config.workers = 1;
    config.data_dir = Some(root.to_path_buf());
    config
}

fn fingerprint_of(snapshot: &Snapshot) -> (u64, u64) {
    study_fingerprint(snapshot.results())
}

/// A never-stopped run over [`crash_config`]: the run itself, its
/// segment files and its alert lines.
struct Clean {
    run: Sequenced,
    files: BTreeMap<(usize, u64), (OsString, Vec<u8>)>,
    lines: BTreeSet<String>,
}

impl Clean {
    /// Runs the feed to its end into the data dir at `root`.
    fn run(root: &Path) -> Clean {
        let run = in_sequence(crash_config(root), None);
        assert!(run.healthy && run.done && run.snapshot.ingest_done);
        let seals = run.offered.len();
        assert!((20..=40).contains(&seals), "{seals} seals");
        assert_eq!(
            run.queue_depth, seals as u64,
            "every seal was queued before the worker took one"
        );
        let files = segment_files(root);
        assert_eq!(files.len(), seals, "every emitted seal is on disk");
        let lines: BTreeSet<String> = run.fold_lines.iter().flatten().cloned().collect();
        assert_eq!(
            lines.len(),
            run.fold_lines.iter().map(Vec::len).sum::<usize>(),
            "alert lines are unique"
        );
        assert!(!lines.is_empty(), "the feed fires alerts");
        Clean { run, files, lines }
    }

    /// The clean run's first `k` seals in emit order, by `(slot, seq)`.
    fn first_seals(&self, k: usize) -> BTreeMap<(usize, u64), (OsString, Vec<u8>)> {
        (self.run.offered[..k].iter())
            .map(|key| (*key, self.files[key].clone()))
            .collect()
    }

    /// The alert lines the clean run's first `k` seals fire.
    fn first_lines(&self, k: usize) -> Vec<String> {
        self.run.fold_lines[..k].iter().flatten().cloned().collect()
    }

    /// Recovers the data dir at `dir` in sequence and demands this run:
    /// its fingerprint, slot indexes and segment files under its names,
    /// no `*.tmp` left, and every alert line exactly once through an
    /// `--alerts-out` file that already held each of `delivered`.
    fn recovered_from(&self, dir: &Path, what: &str, delivered: &[(&str, &[String])]) {
        let mut config = crash_config(dir);
        config.recover = true;
        let run = in_sequence(config, None);
        assert!(run.healthy, "{what}: the recovery is healthy");
        assert!(run.snapshot.ingest_done, "{what}: the recovery finishes");
        assert_eq!(
            fingerprint_of(&run.snapshot),
            fingerprint_of(&self.run.snapshot),
            "{what}: the clean run's fingerprint"
        );
        assert_eq!(
            run.snapshot.slot_indexes, self.run.snapshot.slot_indexes,
            "{what}: the clean run's slot indexes"
        );
        assert_eq!(
            tmp_files(dir),
            Vec::<OsString>::new(),
            "{what}: a *.tmp is left"
        );
        assert!(
            segment_files(dir) == self.files,
            "{what}: the resumed seals are the clean run's files, under its names"
        );
        for (state, delivered) in delivered {
            let lines = deliver(&run.sink_batches, &dir.join("alerts.jsonl"), delivered);
            let unique: BTreeSet<String> = lines.iter().cloned().collect();
            assert_eq!(
                unique.len(),
                lines.len(),
                "{what}, {state} delivered: a line twice"
            );
            assert!(
                unique == self.lines,
                "{what}, {state} delivered: not the clean run's alert lines"
            );
        }
    }
}

/// Every crash point between two seals, enumerated: for each k from 0 to
/// the clean run's seal count, a data dir holding exactly the first k
/// durable seals, in emit order — and seal k+1 torn, as the `*.tmp` an
/// interrupted persist leaves — recovers to the clean run: the same
/// fingerprint, slot indexes and segment files, no `*.tmp` left, and
/// every alert line exactly once through an `--alerts-out` file whether
/// the sink had delivered nothing or all of the first k seals' lines.
/// One mid-feed dir also recovers through the threaded daemon at shards
/// 1 and 4.
#[test]
fn every_crash_point_between_seals_recovers_the_clean_run() {
    let root = std::env::temp_dir().join(format!("vtld-crash-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clean_root = root.join("clean");
    let clean_config = crash_config(&clean_root);
    let feed = format!(
        "seed={} samples={}",
        clean_config.seed, clean_config.samples
    );
    SegmentDir::open(&clean_root, INGEST_SLOTS as u32)
        .and_then(|dir| dir.pin_feed(&feed, false))
        .expect("a fresh data dir");
    let clean = Clean::run(&clean_root);
    let seals = clean.run.offered.len();

    // A dir holding the clean run's first k seals, and seal k+1 torn.
    let crashed_at = |k: usize, name: &str| {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        SegmentDir::open(&dir, INGEST_SLOTS as u32)
            .and_then(|d| d.pin_feed(&feed, false))
            .expect("a fresh data dir");
        for (name, bytes) in clean.first_seals(k).values() {
            std::fs::write(dir.join(name), bytes).expect("a durable seal");
        }
        if let Some(key) = clean.run.offered.get(k) {
            let (name, bytes) = &clean.files[key];
            let mut tmp = name.clone();
            tmp.push(".tmp");
            std::fs::write(dir.join(tmp), &bytes[..bytes.len() / 2]).expect("a torn seal");
        }
        dir
    };

    for k in 0..=seals {
        let dir = crashed_at(k, "k");
        let first_k = clean.first_lines(k);
        let delivered = [("nothing", &[][..]), ("the first k seals", &first_k[..])];
        clean.recovered_from(&dir, &format!("k={k}"), &delivered);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    let k = seals / 2;
    for shards in [1, 4] {
        let dir = crashed_at(k, &format!("threaded-{shards}"));
        let mut config = crash_config(&dir);
        config.recover = true;
        config.shards = shards;
        let server = super::Server::start(config).expect("recovers");
        let snapshot = loop {
            let snapshot = server.daemon.seam.current();
            if snapshot.ingest_done {
                break snapshot;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(
            fingerprint_of(&snapshot),
            fingerprint_of(&clean.run.snapshot),
            "k={k} recovered by the daemon at shards={shards}"
        );
        drop(server);
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// `ingest::run` alone into the data dir at `root`, its consumer gone
/// at the `k`-th segment (1-based): the verdict, `done()`, and every
/// segment offered to `emit`, as `(slot, seq)`, in emit order.
fn abandoned_at(root: &Path, k: usize) -> (bool, bool, Vec<(usize, u64)>) {
    let config = crash_config(root);
    let segdir = SegmentDir::open(root, INGEST_SLOTS as u32).expect("open data dir");
    let collector = Collector::for_plan(CollectorConfig::default(), &config.plan).expect("plan");
    let ctx = IngestCtx::new(config);
    let mut offered = Vec::new();
    let emit = |msg: SegmentMsg| {
        offered.push((msg.slot, msg.segment.seq()));
        offered.len() < k
    };
    let healthy = ingest::run(&ctx, &collector, || false, Some(segdir), emit);
    (healthy, ctx.done(), offered)
}

/// A stop is a crash that loses nothing. A graceful stop at any of the
/// feeder's `stop()` polls, and a consumer gone at any seal k, leave
/// exactly the clean run's first seals on disk in emit order, byte for
/// byte and no `*.tmp` — the dirs the crash-point enumeration recovers
/// — and leave `done` unset; a gone consumer also leaves the feeder
/// unhealthy. A stopped run's folds fire the clean run's first alert
/// lines. Every stop's dir, and a gone consumer's at the middle and the
/// last seal, recover to the clean run's fingerprint, slot indexes,
/// files and alert lines (once each, whatever the stopped run's sink had
/// delivered).
#[test]
fn every_stop_and_consumer_gone_point_leaves_the_clean_runs_first_seals() {
    let root = std::env::temp_dir().join(format!("vtld-stop-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clean = Clean::run(&root.join("clean"));
    let seals = clean.run.offered.len();
    let dir = root.join("dir");
    let leaves_the_first_seals = |k: usize, what: &str| {
        assert_eq!(
            tmp_files(&dir),
            Vec::<OsString>::new(),
            "{what}: a *.tmp is left"
        );
        assert!(
            segment_files(&dir) == clean.first_seals(k),
            "{what}: the clean run's first {k} seals on disk, byte for byte"
        );
    };

    assert!(
        clean.run.polls.windows(2).any(|w| w[0] < w[1]),
        "a stop can land between seals: {:?}",
        clean.run.polls
    );
    for (j, &k) in clean.run.polls.iter().enumerate() {
        let what = format!("stop at poll {j}");
        let _ = std::fs::remove_dir_all(&dir);
        let run = in_sequence(crash_config(&dir), Some(j));
        assert!(run.healthy, "{what}: a stop is not an error");
        assert!(!run.done, "{what}: the feed was not all sealed");
        assert!(
            !run.snapshot.ingest_done,
            "{what}: the final snapshot is unfinished"
        );
        assert_eq!(run.offered, clean.run.offered[..k], "{what}: offered");
        leaves_the_first_seals(k, &what);
        let fired: Vec<String> = run.fold_lines.iter().flatten().cloned().collect();
        assert_eq!(fired, clean.first_lines(k), "{what}: alert lines");
        let delivered = [
            ("nothing", &[][..]),
            ("the stopped run's lines", &fired[..]),
        ];
        clean.recovered_from(&dir, &what, &delivered);
    }

    for k in 1..=seals {
        let what = format!("consumer gone at seal {k}");
        let _ = std::fs::remove_dir_all(&dir);
        let (healthy, done, offered) = abandoned_at(&dir, k);
        assert!(!healthy, "{what}: a gone consumer is fatal");
        assert!(!done, "{what}: the feed was not all sealed");
        assert_eq!(offered, clean.run.offered[..k], "{what}: offered");
        leaves_the_first_seals(k, &what);
        if k == seals / 2 || k == seals {
            let first = clean.first_lines(k - 1);
            let delivered = [("nothing", &[][..]), ("the first k-1 seals", &first[..])];
            clean.recovered_from(&dir, &what, &delivered);
        }
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}
