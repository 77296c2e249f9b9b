//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names; the start-up self-check parses
//! it and refuses to run when it disagrees with these tables.

use std::collections::BTreeMap;

/// The workloads, in the order a set runs them; `BENCHMARK.json` says
/// why each exists.
pub const WORKLOADS: [&str; 5] = [
    "batch_study",
    "batch_analyze",
    "serve_durable",
    "serve_mixed",
    "serve_query",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The contract makes every workload report every end-to-end metric, so
/// the twelve workload-specific readings the issue names are folded
/// into one uniform vector (README.md has the per-workload meaning);
/// each of the twelve is still printed under its own name from the
/// per-layer list below.
///
/// Bounds (BASELINE.json has the ten-seed spreads behind them). The
/// driver refuses a benchmark whose ten-seed spread (IQR / median) of a
/// gated metric exceeds the metric's bound, on any workload. This box
/// has regimes that last minutes and that no estimator removes: live
/// ingest runs at 30 k to 47 k samples/s, the `serve_query` round trip
/// at 14 or 18 us. Ten runs that straddle a switch read a spread of
/// 17-23% on ingest and 14-16% on the round trip whatever the code
/// does, so neither timing bound can go to the issue's ceiling of 0.15;
/// and the contract has no per-workload demotion, so taking a metric
/// out would ungate it on every workload. Both keep the contract's
/// maximum; README.md lists the pairs that do repeat within 10%.
/// `setup_s` takes the largest bound, as the contract asks.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Workload x metric pairs whose set-to-set spread on the recording box
/// exceeds the metric's bound: `--sets` prints them against the bound
/// but does not hold them to it (the issue's demotion rule), and the
/// driver does not hold the spread of `setup_s` to its bound either.
/// `(workload, metric, why)`.
pub const DEMOTED: &[(&str, &str, &str)] = &[
    (
        "serve_durable",
        "setup_s",
        "a 10 ms daemon boot; run medians of ~30 boots moved up to 28% between three sets",
    ),
    (
        "serve_mixed",
        "setup_s",
        "a 10 ms daemon boot; run medians of ~10 boots moved up to 55% between three sets",
    ),
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The 11 registry stages, in `pipeline::stage_names()` order (the
/// self-check compares the two).
pub const STAGES: [&str; 11] = [
    "landscape",
    "stability",
    "metrics",
    "window_growth",
    "intervals",
    "categorize_all",
    "categorize_pe",
    "causes",
    "stabilization",
    "flips",
    "correlation",
];

/// The verbs `trace.query` times one by one.
pub const VERBS: [&str; 11] = [
    "status",
    "results",
    "engines",
    "metrics",
    "sample_hit",
    "sample_miss",
    "stabilized",
    "engine",
    "flip_leaders",
    "alerts",
    "recommend",
];

pub const PIPELINES: [&str; 5] = ["study", "analyze", "ingest", "recover", "query"];

pub fn per_layer() -> Vec<Layer> {
    fn lower(name: &str, unit: &'static str) -> Layer {
        Layer {
            name: name.to_string(),
            unit,
            better: "lower",
        }
    }
    fn higher(name: &str, unit: &'static str) -> Layer {
        Layer {
            name: name.to_string(),
            unit,
            better: "higher",
        }
    }
    let mut out = vec![
        // The issue's workload-specific end-to-end readings, ungated.
        lower("wall_s", "s"),
        higher("ingest_samples_per_s", "1/s"),
        higher("recover_samples_per_s", "1/s"),
        higher("queries_per_s", "1/s"),
        lower("query_p50_us", "us"),
        lower("query_p99_us", "us"),
        lower("push_lag_p50_ms", "ms"),
        lower("store_bytes_per_report", "B"),
        lower("wal_bytes_per_report", "B"),
        lower("failed_ratio", "ratio"),
        // Observed on the child from outside during the untraced run.
        lower("daemon.cpu_s", "s"),
        higher("daemon.cpu_util", "ratio"),
        lower("daemon.epochs", "count"),
        lower("daemon.segments", "count"),
        lower("daemon.span.segment_s", "s"),
        lower("daemon.span.collector_s", "s"),
        lower("loadgen.late_ratio", "ratio"),
        lower("loadgen.late_p99_us", "us"),
        higher("cache.hit_ratio", "ratio"),
        lower("calibration.factor", "ratio"),
        lower("calibration.kernel_ms", "ms"),
        // trace.study / trace.analyze
        lower("sim.generate.s", "s"),
        lower("sim.generate.reports", "count"),
        lower("store.build.s", "s"),
        lower("store.build.bytes", "B"),
        lower("analyze.total.s", "s"),
        higher("analyze.parts_ratio", "ratio"),
        lower("report.render.s", "s"),
        lower("report.render.bytes", "B"),
        lower("persist.write.s", "s"),
        lower("persist.read.s", "s"),
        lower("persist.read.bytes", "B"),
        lower("records.from_store.s", "s"),
        lower("table.build.s", "s"),
        lower("arena.decode.s", "s"),
        lower("table.build_arena.s", "s"),
        lower("freshdyn.build.s", "s"),
    ];
    out.extend(STAGES.iter().map(|s| lower(&format!("stage.{s}.s"), "s")));
    out.extend([
        // trace.ingest / trace.recover
        lower("sim.trajectories.s", "s"),
        lower("feed.schedule.s", "s"),
        lower("collector.run.s", "s"),
        lower("collector.accepted", "count"),
        lower("collector.duplicates", "count"),
        higher("collector.accept_ratio", "ratio"),
        lower("store.group_by_sample.s", "s"),
        lower("segment.push.s", "s"),
        lower("segdir.seal.s", "s"),
        lower("segdir.segments", "count"),
        lower("segdir.bytes", "B"),
        lower("segdir.replay.s", "s"),
        lower("segment.roundtrip.s", "s"),
        lower("fold.store.s", "s"),
        lower("fold.store.rows", "count"),
        lower("fold.freeze.s", "s"),
        lower("merge.update_slot.s", "s"),
        lower("publish.finish.s", "s"),
        lower("recover.fold.store.s", "s"),
        lower("recover.merge.update_slot.s", "s"),
        lower("recover.publish.finish.s", "s"),
        // trace.query
        lower("conn.connect_us", "us"),
    ]);
    for verb in VERBS {
        out.push(lower(&format!("verb.{verb}.p50_us"), "us"));
        out.push(lower(&format!("verb.{verb}.p99_us"), "us"));
        out.push(lower(&format!("verb.{verb}.bytes"), "B"));
    }
    for pipeline in PIPELINES {
        out.push(higher(&format!("trace.{pipeline}.coverage"), "ratio"));
        out.push(lower(&format!("trace.{pipeline}.unattributed_s"), "s"));
    }
    out
}

/// Unit of every metric of the contract, by name.
pub fn units() -> BTreeMap<String, &'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(per_layer().into_iter().map(|m| (m.name, m.unit)))
        .collect()
}

/// `run_seconds` of the contract, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// Measured values by metric name, each with the number of timing
/// samples behind it (0 for counts and ratios).
#[derive(Default, Clone)]
pub struct Values(pub BTreeMap<String, (f64, usize)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.0.insert(name.to_string(), (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(v, _)| v)
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}
