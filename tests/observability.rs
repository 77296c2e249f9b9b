//! Observability invariants: instrumentation must be *write-only*.
//! Turning the metrics sink on or off, or changing the worker count,
//! must never change a single analysis bit — and an instrumented run's
//! `metrics.json` must actually cover the whole pipeline.

use vt_label_dynamics::dynamics::{pipeline, Study, STUDY_CHUNK_SAMPLES};
use vt_label_dynamics::obs::{json, Obs};
use vt_label_dynamics::report::experiments::render_full_report;
use vt_label_dynamics::sim::SimConfig;

const SEED: u64 = 0x0B5E;
const SAMPLES: u64 = 4_000;

/// Debug-formats a `StudyResults`, so two runs can be compared for
/// bit-identity. f64 Debug formatting is the shortest round-trip
/// representation, so equal strings ⇒ equal bits.
fn analysis_fingerprint(r: pipeline::StudyResults) -> String {
    format!("{r:?}")
}

#[test]
fn results_bit_identical_with_obs_on_and_off() {
    let study = Study::generate(SimConfig::new(SEED, SAMPLES));
    for workers in [1usize, 2, 8] {
        let plain = study.run_with_obs(workers, Obs::noop());
        let obs = Obs::new();
        let observed = study.run_with_obs(workers, &obs);

        let metrics = obs.snapshot();
        for name in pipeline::stage_names().into_iter().chain(["finish"]) {
            assert!(
                metrics.span(&format!("pipeline/{name}")).is_some(),
                "stage {name} was not timed at workers={workers}"
            );
        }
        assert_eq!(
            analysis_fingerprint(plain),
            analysis_fingerprint(observed),
            "obs on/off changed analysis output at workers={workers}"
        );
    }
}

/// Registry-wide worker invariance: every stage's output — compared by
/// Debug fingerprint, which round-trips f64 bits — is identical at
/// workers 1, 2 and 8 when run individually against one shared context.
/// The stage list is tied to `stage_names()` so a newly registered
/// stage cannot silently skip this gate.
#[test]
fn every_registry_stage_is_worker_invariant() {
    use vt_label_dynamics::dynamics::categorize::Categorize;
    use vt_label_dynamics::dynamics::causes::Causes;
    use vt_label_dynamics::dynamics::correlation::Correlation;
    use vt_label_dynamics::dynamics::flips::Flips;
    use vt_label_dynamics::dynamics::intervals::Intervals;
    use vt_label_dynamics::dynamics::landscape::Landscape;
    use vt_label_dynamics::dynamics::metrics::{Metrics, WindowGrowth};
    use vt_label_dynamics::dynamics::stability::Stability;
    use vt_label_dynamics::dynamics::stabilization::Stabilization;
    use vt_label_dynamics::dynamics::{freshdyn, Analysis, AnalysisCtx, TrajectoryTable};

    let study = Study::generate(SimConfig::new(SEED, SAMPLES));
    let ws = study.sim().config().window_start();
    let table = TrajectoryTable::build(study.records(), ws);
    let s = freshdyn::build(study.records(), ws);
    assert!(!s.is_empty(), "study too small to exercise S");

    let run_all = |workers: usize| -> Vec<(&'static str, String)> {
        let ctx = AnalysisCtx::new(study.records(), &table, &s, study.sim().fleet(), ws)
            .with_workers(workers);
        vec![
            (Landscape.name(), format!("{:?}", Landscape.run(&ctx))),
            (Stability.name(), format!("{:?}", Stability.run(&ctx))),
            (Metrics.name(), format!("{:?}", Metrics.run(&ctx))),
            (
                WindowGrowth::default().name(),
                format!("{:?}", WindowGrowth::default().run(&ctx)),
            ),
            (
                Intervals::default().name(),
                format!("{:?}", Intervals::default().run(&ctx)),
            ),
            (
                Categorize::ALL.name(),
                format!("{:?}", Categorize::ALL.run(&ctx)),
            ),
            (
                Categorize::PE.name(),
                format!("{:?}", Categorize::PE.run(&ctx)),
            ),
            (Causes.name(), format!("{:?}", Causes.run(&ctx))),
            (
                Stabilization.name(),
                format!("{:?}", Stabilization.run(&ctx)),
            ),
            (Flips.name(), format!("{:?}", Flips.run(&ctx))),
            (
                Correlation::default().name(),
                format!("{:?}", Correlation::default().run(&ctx)),
            ),
        ]
    };

    let base = run_all(1);
    let names: Vec<&str> = base.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        pipeline::stage_names(),
        "this test must cover every registry stage, in order"
    );
    for workers in [2usize, 8] {
        let other = run_all(workers);
        for ((name, a), (_, b)) in base.iter().zip(&other) {
            assert_eq!(a, b, "stage {name} differs at workers={workers}");
        }
    }
}

#[test]
fn counters_invariant_across_worker_counts() {
    let study = Study::generate(SimConfig::new(SEED, SAMPLES));
    let counters_at = |workers: usize| {
        let obs = Obs::new();
        let _ = study.run_with_obs(workers, &obs);
        let mut counters = obs.snapshot().counters;
        counters.sort();
        counters
    };
    let base = counters_at(1);
    assert!(
        base.iter().any(|(name, _)| name == "store/encoded_reports"),
        "expected store counters in {base:?}"
    );
    for workers in [2usize, 8] {
        assert_eq!(
            base,
            counters_at(workers),
            "counter totals must not depend on the worker count"
        );
    }
}

#[test]
fn metrics_json_round_trips_and_covers_the_pipeline() {
    let study = Study::generate(SimConfig::new(SEED, SAMPLES));
    let obs = Obs::new();
    let _ = study.run_with_obs(2, &obs);
    let metrics = obs.snapshot();
    let parsed = json::parse(&metrics.to_json()).expect("metrics.json must be valid JSON");

    let spans = parsed.get("spans").expect("spans section");
    for name in pipeline::stage_names() {
        let key = format!("pipeline/{name}");
        assert!(spans.get(&key).is_some(), "span {key} missing from JSON");
    }
    assert!(spans.get("pipeline/freshdyn").is_some());

    let counters = parsed.get("counters").expect("counters section");
    assert_eq!(
        counters
            .get("store/encoded_reports")
            .and_then(|v| v.as_u64()),
        metrics.counter("store/encoded_reports"),
        "JSON counter must round-trip the snapshot value"
    );
    let total: u64 = study.records().iter().map(|r| r.reports.len() as u64).sum();
    assert_eq!(metrics.counter("store/encoded_reports"), Some(total));

    let histograms = parsed.get("histograms").expect("histograms section");
    assert!(
        histograms.get("par/fold/worker_busy_ns").is_some(),
        "per-worker busy-time histograms missing from JSON"
    );
}

/// DESIGN §2.9 at the command line: asking `vtld study` for metrics must
/// not move a byte of the report it prints — Table 2's MB and ratio
/// columns included, which is where a second ingest route once showed.
#[test]
fn study_report_is_identical_with_and_without_metrics_out() {
    let study = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vtld"))
            .args([
                "study",
                "--samples",
                "4000",
                "--seed",
                "7",
                "--workers",
                "2",
            ])
            .args(extra)
            .output()
            .expect("vtld study runs");
        assert!(out.status.success(), "vtld study failed: {out:?}");
        out.stdout
    };
    let metrics = std::env::temp_dir().join(format!("vtld-study-{}.json", std::process::id()));
    let plain = study(&[]);
    let observed = study(&["--metrics-out", metrics.to_str().expect("utf-8 temp path")]);
    let written = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_file(&metrics);
    assert!(!plain.is_empty());
    assert!(
        plain == observed,
        "--metrics-out changed the printed report"
    );
    let parsed = json::parse(&written).expect("metrics.json must be valid JSON");
    let counters = parsed.get("counters").expect("counters section");
    assert!(counters.get("store/encoded_reports").is_some());
    // A study is parallel in three places, each entered once, and no
    // stage is one of them.
    let mut kernels: Vec<(&str, Option<u64>)> = counters
        .as_object()
        .expect("counters object")
        .iter()
        .filter_map(|(name, v)| {
            let kernel = name.strip_prefix("par/")?.strip_suffix("/invocations")?;
            Some((kernel, v.as_u64()))
        })
        .collect();
    kernels.sort_unstable();
    assert_eq!(
        kernels,
        [
            ("fold", Some(1)),
            ("generate", Some(1)),
            ("table_build", Some(1))
        ]
    );
}

/// The same at `2 · STUDY_CHUNK_SAMPLES + 1` samples, where `vtld study`
/// walks three chunks: stdout is identical with and without
/// `--metrics-out` and is the whole-feed study's rendered report, each
/// parallel phase is entered once a chunk, and the chunk's table is
/// booked in `mem/table_bytes`.
#[test]
fn study_report_across_chunks_is_identical_with_and_without_metrics_out() {
    let samples = 2 * STUDY_CHUNK_SAMPLES + 1;
    let study = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_vtld"))
            .args(["study", "--seed", "7", "--workers", "2", "--samples"])
            .arg(samples.to_string())
            .args(extra)
            .output()
            .expect("vtld study runs");
        assert!(out.status.success(), "vtld study failed: {out:?}");
        out.stdout
    };
    let metrics =
        std::env::temp_dir().join(format!("vtld-study-chunks-{}.json", std::process::id()));
    let plain = study(&[]);
    let observed = study(&["--metrics-out", metrics.to_str().expect("utf-8 temp path")]);
    let written = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_file(&metrics);
    assert!(
        plain == observed,
        "--metrics-out changed the printed report"
    );
    let whole = Study::generate_with_workers(SimConfig::new(7, samples), 2);
    let report = render_full_report(&whole.run_with_obs(2, Obs::noop()), whole.sim().fleet());
    assert!(
        plain == format!("{report}\n").into_bytes(),
        "the chunked study printed another report than the whole-feed one"
    );
    let parsed = json::parse(&written).expect("metrics.json must be valid JSON");
    let counters = parsed.get("counters").expect("counters section");
    // Still three parallel phases, now entered once a chunk.
    let mut kernels: Vec<(&str, Option<u64>)> = counters
        .as_object()
        .expect("counters object")
        .iter()
        .filter_map(|(name, v)| {
            let kernel = name.strip_prefix("par/")?.strip_suffix("/invocations")?;
            Some((kernel, v.as_u64()))
        })
        .collect();
    kernels.sort_unstable();
    assert_eq!(
        kernels,
        [
            ("fold", Some(3)),
            ("generate", Some(3)),
            ("table_build", Some(3))
        ]
    );
    let gauges = parsed.get("gauges").expect("gauges section");
    assert!(
        gauges
            .get("mem/table_bytes")
            .and_then(|v| v.as_u64())
            .is_some_and(|b| b > 0),
        "{gauges:?}"
    );
}
