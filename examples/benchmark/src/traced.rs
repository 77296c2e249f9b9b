//! The traced pass: per-layer numbers measured from outside, by calling
//! each layer's public functions in-process on the workload's seed and
//! sizes from one driver thread, a span around every call. Each
//! pipeline records into a [`Tracer`] of its own and hands it back
//! closed, so no pipeline's totals can include another's spans.
//!
//! Everything comes through `vt_label_dynamics::prelude` where the
//! prelude has the name; README.md lists the deeper paths.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vt_label_dynamics::dynamics::categorize::Categorize;
use vt_label_dynamics::dynamics::causes::Causes;
use vt_label_dynamics::dynamics::correlation::Correlation;
use vt_label_dynamics::dynamics::flips::Flips;
use vt_label_dynamics::dynamics::intervals::Intervals;
use vt_label_dynamics::dynamics::landscape::Landscape;
use vt_label_dynamics::dynamics::metrics::{Metrics, WindowGrowth};
use vt_label_dynamics::dynamics::stability::Stability;
use vt_label_dynamics::dynamics::stabilization::Stabilization;
use vt_label_dynamics::dynamics::{freshdyn, merge_partition_stats, SlotMergeTree};
use vt_label_dynamics::obs::json;
use vt_label_dynamics::prelude::*;
use vt_label_dynamics::report::experiments::render_full_report;
use vt_label_dynamics::serve::INGEST_SLOTS;
use vt_label_dynamics::sim::TimeOrderedFeed;
use vt_label_dynamics::store::{PartitionStats, SegmentDir};

use crate::child::Conn;
use crate::metrics::{Values, STAGES, VERBS};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::Sizes;

/// Sample ordinals per collector run; `serve`'s (private) feeder chunk.
const INGEST_CHUNK_SAMPLES: u64 = 1_024;
/// Requests per verb on `trace.query`.
const VERB_REQUESTS: usize = 2_000;
const CONNECTS: usize = 200;

/// What a workload's traced pass leaves: the per-layer numbers and the
/// closed recorder of every pipeline it ran, by root name.
pub struct Traced {
    pub values: Values,
    pub recorders: Vec<(&'static str, Tracer)>,
}

/// Records `trace.<pipeline>.coverage` against the untraced median and
/// the pipeline's own unattributed remainder.
fn coverage(values: &mut Values, tr: &Tracer, pipeline: &str, untraced_s: f64) {
    let (wall, attributed) = tr.root_coverage(&format!("trace.{pipeline}"));
    if untraced_s > 0.0 {
        values.set(
            &format!("trace.{pipeline}.coverage"),
            attributed / untraced_s,
            0,
        );
    }
    values.set(
        &format!("trace.{pipeline}.unattributed_s"),
        wall - attributed,
        0,
    );
}

fn stored_bytes(partitions: &[PartitionStats]) -> u64 {
    partitions.iter().map(|p| p.stored_bytes).sum()
}

/// Mirrors `vtld study --workers 2`.
pub fn study(seed: u64, sizes: &Sizes, untraced_wall_s: f64) -> Result<Traced, String> {
    let mut values = Values::default();
    let mut tr = Tracer::new();
    let config = SimConfig::new(seed, sizes.study_samples);
    let root = tr.enter("trace.study", 0);
    let study = tr.time("sim.generate", 0, || {
        Study::generate_with_workers(config, 2)
    });
    let store = tr.time("store.build", 0, || study.build_store());
    let fleet = study.sim().fleet();
    let results = tr.time("analyze.total", 0, || {
        analyze_records_obs(
            study.records(),
            store.partition_stats(),
            fleet,
            config.window_start(),
            2,
            Obs::noop(),
        )
    });
    let text = tr.time("report.render", 0, || render_full_report(&results, fleet));
    tr.exit(root);

    let reports: usize = study.records().iter().map(|r| r.reports.len()).sum();
    values.set("sim.generate.s", tr.total_s("sim.generate"), 1);
    values.set("sim.generate.reports", reports as f64, 0);
    values.set("store.build.s", tr.total_s("store.build"), 1);
    values.set(
        "store.build.bytes",
        stored_bytes(&store.partition_stats()) as f64,
        0,
    );
    values.set("analyze.total.s", tr.total_s("analyze.total"), 1);
    values.set("report.render.s", tr.total_s("report.render"), 1);
    values.set("report.render.bytes", text.len() as f64, 0);
    coverage(&mut values, &tr, "study", untraced_wall_s);
    Ok(Traced {
        values,
        recorders: vec![("trace.study", tr.close(&["trace.study"])?)],
    })
}

/// Mirrors `vtld analyze --workers 2` on a feed persisted under `work`,
/// then takes `analyze_records_obs` apart: the record-route table
/// build, the arena route beside it, *S*, and the 11 stages one by one.
pub fn analyze(
    seed: u64,
    sizes: &Sizes,
    work: &Path,
    untraced_wall_s: f64,
) -> Result<Traced, String> {
    let mut values = Values::default();
    let mut tr = Tracer::new();
    let config = SimConfig::new(seed, sizes.analyze_samples);
    let path = work.join("traced.vtstore");
    {
        // Set-up, as `vtld simulate` does it; only the write is a layer
        // of its own here (generation is trace.study's).
        let study = Study::generate_with_workers(config, 2);
        let store = study.build_store();
        let mut file = std::fs::File::create(&path).map_err(|e| format!("create feed: {e}"))?;
        let setup = tr.enter("trace.analyze.setup", 0);
        tr.time("persist.write", 0, || write_store(&store, &mut file))
            .map_err(|e| format!("write feed: {e}"))?;
        tr.exit(setup);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let fleet = EngineFleet::new(
        FleetConfig::builder()
            .seed(seed ^ 0xF1EE_7000)
            .build()
            .map_err(|e| format!("fleet: {e}"))?,
    );
    let window_start = config.window_start();

    let root = tr.enter("trace.analyze", 0);
    let store = tr.time("persist.read", 0, || {
        let mut file = std::fs::File::open(&path).map_err(|e| format!("open feed: {e}"))?;
        read_store(&mut file).map_err(|e| format!("read feed: {e}"))
    })?;
    let records = tr.time("records.from_store", 0, || records_from_store(&store));
    let results = tr.time("analyze.total", 0, || {
        analyze_records_obs(
            &records,
            store.partition_stats(),
            &fleet,
            window_start,
            2,
            Obs::noop(),
        )
    });
    let text = tr.time("report.render", 0, || render_full_report(&results, &fleet));
    tr.exit(root);
    black_box(text);
    let _ = std::fs::remove_file(&path);

    // The parts of analyze.total, called one by one.
    let parts = tr.enter("trace.analyze.parts", 0);
    let table = tr.time("table.build", 0, || {
        TrajectoryTable::build_with(&records, window_start, 2, Obs::noop())
    });
    let s = tr.time("freshdyn.build", 0, || {
        freshdyn::build_from_table(&table, 2)
    });
    let ctx = AnalysisCtx::new(&records, &table, &s, &fleet, window_start).with_workers(2);
    macro_rules! stage {
        ($name:literal, $stage:expr) => {
            tr.time(concat!("stage.", $name), 0, || {
                black_box($stage.run(&ctx));
            })
        };
    }
    stage!("landscape", Landscape);
    stage!("stability", Stability);
    stage!("metrics", Metrics);
    stage!("window_growth", WindowGrowth::default());
    stage!("intervals", Intervals::default());
    stage!("categorize_all", Categorize::ALL);
    stage!("categorize_pe", Categorize::PE);
    stage!("causes", Causes);
    stage!("stabilization", Stabilization);
    stage!("flips", Flips);
    stage!("correlation", Correlation::default());
    // The arena route ROADMAP item 2 weighs, beside the record route.
    let mut arena = DecodeArena::new();
    tr.time("arena.decode", 0, || store.for_each_row(&mut arena));
    let arena_table = tr.time("table.build_arena", 0, || {
        TrajectoryTable::build_from_arena(&arena, window_start, 2, Obs::noop())
    });
    tr.exit(parts);
    black_box(arena_table);

    for name in [
        "persist.write",
        "persist.read",
        "records.from_store",
        "table.build",
        "arena.decode",
        "table.build_arena",
        "freshdyn.build",
        "analyze.total",
        "report.render",
    ] {
        values.set(&format!("{name}.s"), tr.total_s(name), 1);
    }
    values.set("persist.read.bytes", bytes as f64, 0);
    let mut parts_s = tr.total_s("table.build") + tr.total_s("freshdyn.build");
    for stage in STAGES {
        let s = tr.total_s(&format!("stage.{stage}"));
        values.set(&format!("stage.{stage}.s"), s, 1);
        parts_s += s;
    }
    values.set(
        "analyze.parts_ratio",
        parts_s / tr.total_s("analyze.total").max(1e-9),
        0,
    );
    coverage(&mut values, &tr, "analyze", untraced_wall_s);
    let roots = [
        "trace.analyze.setup",
        "trace.analyze",
        "trace.analyze.parts",
    ];
    Ok(Traced {
        values,
        recorders: vec![("trace.analyze", tr.close(&roots)?)],
    })
}

/// The state one shard worker and the merger keep, replicated on the
/// driver thread.
struct FoldSide<'a> {
    studies: Vec<IncrementalStudy<'a>>,
    partitions: Vec<Vec<PartitionStats>>,
    arena: DecodeArena,
    tree: SlotMergeTree,
    rows: u64,
}

impl<'a> FoldSide<'a> {
    fn new(fleet: &'a EngineFleet, config: &SimConfig) -> Self {
        let alert_config = ServeConfig::new(config.samples, config.seed).alert_config;
        FoldSide {
            studies: (0..INGEST_SLOTS)
                .map(|slot| {
                    IncrementalStudy::new(fleet, config.window_start())
                        .with_workers(1)
                        .with_index()
                        .with_alerts(AlertConfig {
                            slot: slot as u32,
                            ..alert_config
                        })
                })
                .collect(),
            partitions: vec![Vec::new(); INGEST_SLOTS],
            arena: DecodeArena::new(),
            tree: SlotMergeTree::new(INGEST_SLOTS),
            rows: 0,
        }
    }

    /// Shard worker fold, freeze, merger update and publish for one
    /// sealed segment.
    fn fold(&mut self, tr: &mut Tracer, slot: usize, segment: &Segment, id: u64) {
        let study = &mut self.studies[slot];
        let arena = &mut self.arena;
        tr.time("fold.store", id, || {
            study.fold_store(segment.store(), arena, Obs::noop())
        });
        self.rows += segment.report_count();
        let partitions = &mut self.partitions[slot];
        let (partials, slot_partitions, frozen) = tr.time("fold.freeze", id, || {
            merge_partition_stats(partitions, &segment.store().partition_stats());
            let index = study.index().cloned().map(Arc::new);
            let alerts = study.take_alerts();
            (
                study.partials().cloned(),
                partitions.clone(),
                (index, alerts),
            )
        });
        let tree = &mut self.tree;
        tr.time("merge.update_slot", id, || {
            tree.update_slot(slot, partials, slot_partitions)
        });
        let results = tr.time("publish.finish", id, || {
            tree.root()
                .map(|root| root.finish(tree.root_partitions().to_vec(), Obs::noop()))
        });
        black_box((results, frozen));
    }
}

fn segment_id(slot: usize, segment: &Segment) -> u64 {
    ((slot as u64) << 32) | segment.seq()
}

/// Single-thread replica of the daemon's feeder -> shard worker ->
/// merger flow, one span per layer per 1 024-ordinal chunk and per
/// sealed segment. With `data_dir` every seal is persisted (fsync
/// included) as `DurableWriter` does it; afterwards the directory is
/// replayed for `trace.recover`.
pub fn ingest(
    seed: u64,
    sizes: &Sizes,
    segment_reports: u64,
    data_dir: Option<&Path>,
    untraced_ingest_s: f64,
    untraced_recover_s: f64,
) -> Result<Traced, String> {
    let mut values = Values::default();
    let mut tr = Tracer::new();
    let config = SimConfig::new(seed, sizes.serve_samples);
    let sim = VirusTotalSim::new(config);
    let plan = ServeConfig::new(config.samples, seed).plan;
    let segdir = match data_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Some(SegmentDir::open(dir, INGEST_SLOTS as u32).map_err(|e| format!("segdir: {e}"))?)
        }
        None => None,
    };
    let mut side = FoldSide::new(sim.fleet(), &config);
    let mut writers: Vec<SegmentWriter> = (0..INGEST_SLOTS)
        .map(|_| SegmentWriter::new(segment_reports))
        .collect();
    let (mut accepted, mut duplicates, mut scheduled) = (0u64, 0u64, 0u64);
    let mut sealed_bytes = 0u64;

    let mut seal = |tr: &mut Tracer, side: &mut FoldSide, slot: usize, segment: Segment| {
        let id = segment_id(slot, &segment);
        if let Some(dir) = &segdir {
            let path = tr
                .time("segdir.seal", id, || dir.persist(slot as u32, &segment))
                .map_err(|e| format!("persist: {e}"))?;
            sealed_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
        // What the daemon folds is what a restart would read back.
        let segment = tr.time("segment.roundtrip", id, || {
            let mut buf = Vec::new();
            write_segment(&segment, &mut buf).expect("in-memory segment write");
            read_segment(&mut buf.as_slice()).expect("own segment re-reads")
        });
        side.fold(tr, slot, &segment, id);
        Ok::<(), String>(())
    };

    let root = tr.enter("trace.ingest", 0);
    let mut start = 0u64;
    while start < config.samples {
        let end = (start + INGEST_CHUNK_SAMPLES).min(config.samples);
        let chunk = start / INGEST_CHUNK_SAMPLES;
        let reports: Vec<ScanReport> = tr.time("sim.trajectories", chunk, || {
            TimeOrderedFeed::new(&sim, start..end).collect()
        });
        let feed = tr.time("feed.schedule", chunk, || FaultyFeed::new(reports, plan));
        scheduled += feed.scheduled_entries();
        let outcome = tr.time("collector.run", chunk, || Collector::default().run(feed));
        accepted += outcome.stats.accepted;
        duplicates += outcome.stats.deduped;
        let groups = tr.time("store.group_by_sample", chunk, || {
            outcome.store.group_by_sample()
        });
        // The pushes are this span's self time; each seal it triggers
        // is a child.
        let push = tr.enter("segment.push", chunk);
        for (hash, reports) in groups {
            let slot = (hash.0 % INGEST_SLOTS as u128) as usize;
            if let Some(segment) = writers[slot].push_sample(&reports) {
                seal(&mut tr, &mut side, slot, segment)?;
            }
        }
        tr.exit(push);
        start = end;
    }
    let drain = tr.enter("segment.push", u64::MAX);
    for (slot, writer) in writers.into_iter().enumerate() {
        if let Some(segment) = writer.finish() {
            seal(&mut tr, &mut side, slot, segment)?;
        }
    }
    tr.exit(drain);
    tr.exit(root);

    for name in [
        "sim.trajectories",
        "feed.schedule",
        "collector.run",
        "store.group_by_sample",
        "segdir.seal",
        "segment.roundtrip",
        "fold.store",
        "fold.freeze",
        "merge.update_slot",
        "publish.finish",
    ] {
        values.set(&format!("{name}.s"), tr.total_s(name), tr.count(name));
    }
    values.set(
        "segment.push.s",
        tr.self_s("segment.push"),
        tr.count("segment.push"),
    );
    values.set("collector.accepted", accepted as f64, 0);
    values.set("collector.duplicates", duplicates as f64, 0);
    values.set(
        "collector.accept_ratio",
        accepted as f64 / scheduled.max(1) as f64,
        0,
    );
    values.set("segdir.segments", tr.count("fold.store") as f64, 0);
    values.set("segdir.bytes", sealed_bytes as f64, 0);
    values.set("fold.store.rows", side.rows as f64, 0);
    coverage(&mut values, &tr, "ingest", untraced_ingest_s);
    let mut recorders = vec![("trace.ingest", tr.close(&["trace.ingest"])?)];

    if let Some(dir) = &segdir {
        drop(side);
        let recorder = recover(&mut values, dir, &sim, untraced_recover_s)?;
        recorders.push(("trace.recover", recorder));
        let _ = std::fs::remove_dir_all(dir.root());
    }
    Ok(Traced { values, recorders })
}

/// Replays a data dir the way `--recover` does: segdir replay, then the
/// same fold -> merge -> publish per segment, with no simulation.
fn recover(
    values: &mut Values,
    dir: &SegmentDir,
    sim: &VirusTotalSim,
    untraced_recover_s: f64,
) -> Result<Tracer, String> {
    let mut side = FoldSide::new(sim.fleet(), sim.config());
    let mut tr = Tracer::new();
    let root = tr.enter("trace.recover", 0);
    let replay = tr
        .time("segdir.replay", 0, || dir.replay())
        .map_err(|e| format!("replay: {e}"))?;
    for (slot, segments) in replay.slots.iter().enumerate() {
        for segment in segments {
            side.fold(&mut tr, slot, segment, segment_id(slot, segment));
        }
    }
    tr.exit(root);
    values.set("segdir.replay.s", tr.total_s("segdir.replay"), 1);
    for name in ["fold.store", "merge.update_slot", "publish.finish"] {
        values.set(
            &format!("recover.{name}.s"),
            tr.total_s(name),
            tr.count(name),
        );
    }
    coverage(values, &tr, "recover", untraced_recover_s);
    tr.close(&["trace.recover"])
}

/// In-process `Server::start`, one closed-loop connection, 2 000
/// requests per verb once ingest is done.
pub fn query(
    seed: u64,
    sizes: &Sizes,
    segment_reports: u64,
    untraced_request_s: f64,
) -> Result<Traced, String> {
    let mut values = Values::default();
    let mut tr = Tracer::new();
    let samples = sizes.query_samples;
    let mut config = ServeConfig::new(samples, seed);
    config.segment_reports = segment_reports;
    config.shards = 1;
    config.workers = 1;
    let sim = VirusTotalSim::new(SimConfig::new(seed, samples));
    let hash = |o: u64| sim.population().sample(o % samples).hash.to_hex();
    let engine = sim.fleet().profile(EngineId::new(0)).name.to_string();
    let server = Server::start(config).map_err(|e| format!("server: {e}"))?;
    let mut client = Conn::open(server.addr())?;
    loop {
        let v = client.ask("{\"cmd\":\"status\"}")?;
        if v.get("ingest_done").and_then(json::Value::as_bool) == Some(true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let root = tr.enter("trace.query", 0);
    for (i, verb) in VERBS.into_iter().enumerate() {
        let request = |n: usize| match verb {
            "sample_hit" => format!("{{\"cmd\":\"sample\",\"hash\":\"{}\"}}", hash(0)),
            // Never repeats, so every lookup renders.
            "sample_miss" => format!("{{\"cmd\":\"sample\",\"hash\":\"{}\"}}", hash(1 + n as u64)),
            "stabilized" => format!(
                "{{\"cmd\":\"stabilized\",\"hash\":\"{}\",\"threshold\":10}}",
                hash(1 + n as u64)
            ),
            "engine" => format!("{{\"cmd\":\"engine\",\"name\":\"{engine}\"}}"),
            "flip_leaders" => "{\"cmd\":\"flip_leaders\",\"k\":10}".to_string(),
            "alerts" => "{\"cmd\":\"alerts\",\"since\":0}".to_string(),
            plain => format!("{{\"cmd\":\"{plain}\"}}"),
        };
        let mut lat_us = Vec::with_capacity(VERB_REQUESTS);
        let mut bytes = 0usize;
        let span = tr.enter(VERB_SPANS[i], i as u64);
        for n in 0..VERB_REQUESTS {
            let request = request(n);
            let sent = Instant::now();
            client.send(&request)?;
            let line = client.read_line()?;
            lat_us.push(sent.elapsed().as_nanos() as f64 / 1e3);
            bytes += line.len();
        }
        tr.exit(span);
        lat_us.sort_by(f64::total_cmp);
        values.set(
            &format!("verb.{verb}.p50_us"),
            percentile(&lat_us, 0.5),
            lat_us.len(),
        );
        values.set(
            &format!("verb.{verb}.p99_us"),
            percentile(&lat_us, 0.99),
            lat_us.len(),
        );
        values.set(
            &format!("verb.{verb}.bytes"),
            bytes as f64 / VERB_REQUESTS as f64,
            0,
        );
    }
    tr.exit(root);

    let mut connects = Vec::with_capacity(CONNECTS);
    for _ in 0..CONNECTS {
        let started = Instant::now();
        Conn::open(server.addr())?.ask("{\"cmd\":\"status\"}")?;
        connects.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    values.set("conn.connect_us", median(&connects), connects.len());
    server.shutdown();
    server.wait();

    // Coverage against the untraced closed loop: the traced mean time
    // per request over the untraced one.
    let (wall, attributed) = tr.root_coverage("trace.query");
    let requests = (VERBS.len() * VERB_REQUESTS) as f64;
    if untraced_request_s > 0.0 {
        values.set(
            "trace.query.coverage",
            attributed / requests / untraced_request_s,
            0,
        );
    }
    values.set("trace.query.unattributed_s", wall - attributed, 0);
    Ok(Traced {
        values,
        recorders: vec![("trace.query", tr.close(&["trace.query"])?)],
    })
}

/// Span names must be `'static`; one per entry of [`VERBS`].
const VERB_SPANS: [&str; 11] = [
    "verb.status",
    "verb.results",
    "verb.engines",
    "verb.metrics",
    "verb.sample_hit",
    "verb.sample_miss",
    "verb.stabilized",
    "verb.engine",
    "verb.flip_leaders",
    "verb.alerts",
    "verb.recommend",
];
