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
//! criterion run.
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

/// One gated arm: best-of-[`ITERATIONS`] against its baseline.
fn gate(name: &str, baseline: u64, tolerance: f64, mut iteration: impl FnMut() -> u64) -> bool {
    let mut best = u64::MAX;
    for _ in 0..ITERATIONS {
        best = best.min(iteration());
    }
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

fn table_build_ok(baseline: u64, tolerance: f64) -> bool {
    eprintln!("bench_drift: generating the 500k-sample fixture...");
    let st = correlation_study();
    let ws = st.sim().config().window_start();
    let store = st.build_store();
    let mut arena = DecodeArena::new();

    // Warm-up (fills the arena to steady-state capacity), then the
    // timed minimum over a handful of iterations.
    arena.clear();
    store.for_each_row(&mut arena);
    let warm = TrajectoryTable::build_from_arena(&arena, ws, 1, Obs::noop());
    let samples = warm.len();
    drop(warm);

    gate("table_build_arena", baseline, tolerance, || {
        let t = Instant::now();
        arena.clear();
        store.for_each_row(&mut arena);
        let table = TrajectoryTable::build_from_arena(&arena, ws, 1, Obs::noop());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(table.len(), samples, "fixture changed mid-run");
        ns
    })
}

fn publish_ok(baseline: u64, tolerance: f64) -> bool {
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

    gate("publish_last_segment", baseline, tolerance, || {
        let t = Instant::now();
        tree.update_slot(0, partials[0].clone(), parts.clone());
        let root = tree.root().expect("warm tree has a root");
        let results = root.finish(tree.root_partitions().to_vec(), Obs::noop());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(root.s_samples(), samples, "fixture changed mid-run");
        std::hint::black_box(results);
        ns
    })
}

fn generate_ok(baseline: u64, tolerance: f64) -> bool {
    eprintln!("bench_drift: sweeping the feed generator over the 60k-sample config...");
    let sim = VirusTotalSim::new(SimConfig::new(BENCH_SEED, BENCH_SAMPLES));
    let sweep = || sim.trajectories().map(|(_, r)| r.len()).sum::<usize>();
    // Warm-up: the first sweep fills the fleet's day plane.
    let reports = sweep();

    gate("trajectories_1_worker", baseline, tolerance, || {
        let t = Instant::now();
        let n = std::hint::black_box(sweep());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(n, reports, "fixture changed mid-run");
        ns
    })
}

/// Self-relative gate: the streaming drift detectors must cost no more
/// than `tolerance` extra on the segment-fold path. Both sides run in
/// this process on the same fixture, so no stored baseline (and no
/// machine drift) is involved.
fn alert_overhead_ok(tolerance: f64) -> bool {
    const SEGMENT_SAMPLES: usize = 5_000;
    eprintln!("bench_drift: folding the 60k-sample fixture with and without detectors...");
    let st = study();
    let ws = st.sim().config().window_start();
    let time_fold = |alerts: bool| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..ITERATIONS {
            let t = Instant::now();
            let mut inc = IncrementalStudy::new(st.sim().fleet(), ws).with_workers(4);
            if alerts {
                inc = inc.with_alerts(AlertConfig::default());
            }
            for seg in st.records().chunks(SEGMENT_SAMPLES) {
                inc.fold_segment(seg, Obs::noop());
            }
            std::hint::black_box(inc.take_alerts());
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        best
    };
    let off = time_fold(false);
    let on = time_fold(true);
    let ratio = on as f64 / off as f64;
    eprintln!(
        "bench_drift: alert_overhead best-of-{ITERATIONS}: off {:.1}ms, on {:.1}ms \
         (×{ratio:.3}, tolerance ×{:.3})",
        off as f64 / 1e6,
        on as f64 / 1e6,
        1.0 + tolerance,
    );
    if ratio > 1.0 + tolerance {
        eprintln!("bench_drift: FAIL — drift detectors exceed the fold-overhead budget");
        return false;
    }
    true
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_BASELINE.to_string());
    let tolerance: f64 = std::env::var("BENCH_DRIFT_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.25);
    let baselines = (|| -> Result<(u64, u64, u64), String> {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
        Ok((
            lookup_ns(&v, &path, &["table_build_arena", "1"])?,
            lookup_ns(&v, &path, &["segment_fold", "publish_last_segment"])?,
            lookup_ns(
                &v,
                &path,
                &["pr14_scan_day_plane", "after", "trajectories_1_worker"],
            )?,
        ))
    })();
    let (table_baseline, publish_baseline, generate_baseline) = match baselines {
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

    let mut ok = table_build_ok(table_baseline, tolerance);
    ok &= publish_ok(publish_baseline, tolerance);
    ok &= generate_ok(generate_baseline, tolerance);
    ok &= alert_overhead_ok(alert_tolerance);
    if !ok {
        return ExitCode::FAILURE;
    }
    eprintln!("bench_drift: OK");
    ExitCode::SUCCESS
}
