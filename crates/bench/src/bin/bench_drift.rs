//! Bench-drift smoke gate for the hot serve-path kernels.
//!
//! Re-times three committed-baseline arms and fails (exit 1) if any
//! regresses more than the tolerated fraction against
//! `BENCH_pipeline.json`:
//!
//! * `table_build_arena` — the zero-copy table build over the
//!   500k-sample fixture (guards against an accidental clone, a lost
//!   reserve, a quadratic sort).
//! * `segment_fold.publish_last_segment` — the O(changed-slot) epoch
//!   publish over the 60k-sample fixture: one dirty-slot update of a
//!   warm [`vt_dynamics::SlotMergeTree`] plus finishing the cached root
//!   (guards against per-publish work creeping back to O(history) —
//!   a reintroduced partial clone, an O(rows) plane walk, a per-publish
//!   index merge).
//! * `pr14_scan_day_plane.after.trajectories_1_worker` — one
//!   single-thread sweep of the feed generator over the 60k-sample
//!   fixture's config (guards against per-report recomputation of what
//!   a scan asks once — the fleet's day plane, the load factor — or a
//!   per-pair rule scan creeping back into `vt-engines`; the sweep was
//!   4× slower before those existed).
//!
//! A fourth arm is self-relative rather than baseline-gated:
//! `alert_overhead` folds the 60k fixture with and without the
//! streaming drift detectors ([`vt_dynamics::AlertConfig`]) in the same
//! process and fails if detectors-on exceeds detectors-off by more than
//! `ALERT_OVERHEAD_TOLERANCE` (default `0.25`, the same smoke posture
//! as the baseline arms). This measures the detectors' cost on the
//! *bare fold* — four extra table passes against a fold whose own ten
//! stages are fused — so it is a regression canary, not the acceptance
//! bar: the ≤5% detectors-on ingest-throughput criterion is measured
//! where ingest actually runs, in `benches/serve_load.rs`
//! (`alert_overhead.overhead_ratio` in `BENCH_serve.json`).
//!
//! A few timed iterations, minimum taken — this is a smoke test against
//! order-of-magnitude regressions, not a replacement for the full
//! criterion run. Every fixture is built first; then each arm's minimum
//! is taken over [`ITERATIONS`] *rounds* that cycle through all the
//! arms, so one of the box's seconds-long slow stretches costs every
//! arm a round instead of one arm all of its iterations, and the two
//! folds `alert_overhead` compares run back to back in every round (its
//! ratio is the median of the per-round ratios).
//!
//! Usage: `cargo run --release -p vt-bench --bin bench_drift [-- path]`
//!
//! * `path` — baseline JSON (default `BENCH_pipeline.json` in the
//!   working directory).
//! * `BENCH_DRIFT_TOLERANCE` — allowed regression fraction (default
//!   `0.25`). CI machines differ from the recording machine; raise the
//!   tolerance rather than skipping the gate.

use std::process::ExitCode;
use std::time::Instant;
use vt_bench::{correlation_study, study, BENCH_SAMPLES, BENCH_SEED};
use vt_dynamics::{AlertConfig, DecodeArena, IncrementalStudy, SlotMergeTree, TrajectoryTable};
use vt_obs::{json, Obs};
use vt_sim::{SimConfig, VirusTotalSim};

const DEFAULT_BASELINE: &str = "BENCH_pipeline.json";
const ITERATIONS: u32 = 5;

fn lookup_ns(v: &json::Value, path: &str, keys: &[&str]) -> Result<u64, String> {
    let mut node = v;
    for k in keys {
        node = node
            .get(k)
            .ok_or_else(|| format!("{path} has no {} member", keys.join(".")))?;
    }
    node.as_u64()
        .ok_or_else(|| format!("{path}: {} is not an integer", keys.join(".")))
}

/// One timed arm: an iteration returning elapsed nanoseconds, owning
/// whatever fixture it runs over.
type Arm = Box<dyn FnMut() -> u64>;

/// A baseline-gated arm's verdict: its best round against its baseline.
fn gate(name: &str, best: u64, baseline: u64, tolerance: f64) -> bool {
    let limit = (baseline as f64 * (1.0 + tolerance)) as u64;
    eprintln!(
        "bench_drift: {name} best-of-{ITERATIONS} = {:.1}ms, \
         baseline {:.1}ms, limit {:.1}ms (tolerance {:.0}%)",
        best as f64 / 1e6,
        baseline as f64 / 1e6,
        limit as f64 / 1e6,
        tolerance * 100.0,
    );
    if best > limit {
        eprintln!("bench_drift: FAIL — {name} regressed past the tolerance");
        return false;
    }
    true
}

fn table_build_arm() -> Arm {
    eprintln!("bench_drift: generating the 500k-sample fixture...");
    let st = correlation_study();
    let ws = st.sim().config().window_start();
    let store = st.build_store();
    let mut arena = DecodeArena::new();

    // Warm-up (fills the arena to steady-state capacity).
    arena.clear();
    store.for_each_row(&mut arena);
    let warm = TrajectoryTable::build_from_arena(&arena, ws, 1, Obs::noop());
    let samples = warm.len();
    drop(warm);

    let iteration = move || {
        let t = Instant::now();
        arena.clear();
        store.for_each_row(&mut arena);
        let table = TrajectoryTable::build_from_arena(&arena, ws, 1, Obs::noop());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(table.len(), samples, "fixture changed mid-run");
        ns
    };
    Box::new(iteration)
}

fn publish_arm() -> Arm {
    eprintln!("bench_drift: slot-routing the 60k-sample fixture...");
    const SLOTS: usize = 8;
    const SEGMENT_SAMPLES: usize = 5_000;
    let st = study();
    let ws = st.sim().config().window_start();
    // Route records to slots exactly as `vtld serve` shards them, fold
    // each slot's stream, and warm the merge tree with every leaf.
    let mut slot_records = vec![Vec::new(); SLOTS];
    for r in st.records() {
        slot_records[(r.meta.hash.0 % SLOTS as u128) as usize].push(r.clone());
    }
    let parts = st.build_store().partition_stats();
    let partials: Vec<_> = slot_records
        .iter()
        .map(|recs| {
            let mut inc = IncrementalStudy::new(st.sim().fleet(), ws).with_workers(4);
            for seg in recs.chunks(SEGMENT_SAMPLES) {
                inc.fold_segment(seg, Obs::noop());
            }
            inc.partials().cloned()
        })
        .collect();
    let mut tree = SlotMergeTree::new(SLOTS);
    for (slot, p) in partials.iter().enumerate() {
        let slot_parts = if slot == 0 { parts.clone() } else { Vec::new() };
        tree.update_slot(slot, p.clone(), slot_parts);
    }
    let samples = tree.root().map_or(0, |r| r.s_samples());

    let iteration = move || {
        let t = Instant::now();
        tree.update_slot(0, partials[0].clone(), parts.clone());
        let root = tree.root().expect("warm tree has a root");
        let results = root.finish(tree.root_partitions().to_vec(), Obs::noop());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(root.s_samples(), samples, "fixture changed mid-run");
        std::hint::black_box(results);
        ns
    };
    Box::new(iteration)
}

fn generate_arm() -> Arm {
    eprintln!("bench_drift: warming the feed generator over the 60k-sample config...");
    let sim = VirusTotalSim::new(SimConfig::new(BENCH_SEED, BENCH_SAMPLES));
    let sweep = move || sim.trajectories().map(|(_, r)| r.len()).sum::<usize>();
    // Warm-up: the first sweep fills the fleet's day plane.
    let reports = sweep();

    let iteration = move || {
        let t = Instant::now();
        let n = std::hint::black_box(sweep());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(n, reports, "fixture changed mid-run");
        ns
    };
    Box::new(iteration)
}

/// One side of the self-relative `alert_overhead` gate: the 60k fixture
/// folded with or without the streaming drift detectors. Both sides run
/// in this process on the same fixture, so no stored baseline (and no
/// machine drift) is involved.
fn fold_arm(alerts: bool) -> Arm {
    const SEGMENT_SAMPLES: usize = 5_000;
    let st = study();
    let ws = st.sim().config().window_start();
    let iteration = move || {
        let t = Instant::now();
        let mut inc = IncrementalStudy::new(st.sim().fleet(), ws).with_workers(4);
        if alerts {
            inc = inc.with_alerts(AlertConfig::default());
        }
        for seg in st.records().chunks(SEGMENT_SAMPLES) {
            inc.fold_segment(seg, Obs::noop());
        }
        std::hint::black_box(inc.take_alerts());
        t.elapsed().as_nanos() as u64
    };
    Box::new(iteration)
}

/// The drift detectors must cost no more than `tolerance` extra on the
/// segment-fold path: the median over the rounds of on ÷ off, the two
/// folds of one round having run back to back. (A ratio of the two
/// arms' bests pairs iterations from different rounds: it read ×0.83 to
/// ×1.30 over ten runs of one binary, this ×0.99 to ×1.12.)
fn alert_overhead_ok(off: &[u64], on: &[u64], tolerance: f64) -> bool {
    let mut ratios: Vec<f64> = off
        .iter()
        .zip(on)
        .map(|(&off, &on)| on as f64 / off as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    eprintln!(
        "bench_drift: alert_overhead median of {ITERATIONS} paired rounds: ×{ratio:.3} \
         (tolerance ×{:.3}; best off {:.1}ms, on {:.1}ms)",
        1.0 + tolerance,
        best(off) as f64 / 1e6,
        best(on) as f64 / 1e6,
    );
    if ratio > 1.0 + tolerance {
        eprintln!("bench_drift: FAIL — drift detectors exceed the fold-overhead budget");
        return false;
    }
    true
}

fn best(rounds: &[u64]) -> u64 {
    *rounds.iter().min().expect("at least one round")
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_BASELINE.to_string());
    let tolerance: f64 = std::env::var("BENCH_DRIFT_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.25);
    // The baseline-gated arms, in the order `arms` lists them below.
    let baselines = (|| -> Result<[(&str, u64); 3], String> {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        let generate = ["pr14_scan_day_plane", "after", "trajectories_1_worker"];
        Ok([
            (
                "table_build_arena",
                lookup_ns(&v, &path, &["table_build_arena", "1"])?,
            ),
            (
                "publish_last_segment",
                lookup_ns(&v, &path, &["segment_fold", "publish_last_segment"])?,
            ),
            ("trajectories_1_worker", lookup_ns(&v, &path, &generate)?),
        ])
    })();
    let baselines = match baselines {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_drift: {e}");
            return ExitCode::FAILURE;
        }
    };

    let alert_tolerance: f64 = std::env::var("ALERT_OVERHEAD_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.25);

    let mut arms = [
        table_build_arm(),
        publish_arm(),
        generate_arm(),
        fold_arm(false),
        fold_arm(true),
    ];
    eprintln!(
        "bench_drift: timing {ITERATIONS} rounds over {} arms...",
        arms.len()
    );
    let mut timings = vec![Vec::new(); arms.len()];
    for _ in 0..ITERATIONS {
        for (rounds, iteration) in timings.iter_mut().zip(&mut arms) {
            // Untimed pass first: the arms before this one in the round
            // evicted its working set, and the baselines were recorded
            // over consecutive (warm) iterations.
            iteration();
            rounds.push(iteration());
        }
    }

    let mut ok = true;
    for ((name, baseline), rounds) in baselines.into_iter().zip(&timings) {
        ok &= gate(name, best(rounds), baseline, tolerance);
    }
    ok &= alert_overhead_ok(&timings[3], &timings[4], alert_tolerance);
    if !ok {
        return ExitCode::FAILURE;
    }
    eprintln!("bench_drift: OK");
    ExitCode::SUCCESS
}
