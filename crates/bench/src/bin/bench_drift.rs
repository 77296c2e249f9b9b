//! Bench-drift smoke gate for the hot serve-path kernels — the only
//! micro-timing code in the repository. Numbers with spread attached
//! (medians, quartiles, a bound per metric, every pipeline stage and
//! serve layer) come from `examples/benchmark`; this binary is the CI
//! canary beside it: a regression of tens of percent in one of five
//! places fails the job (exit 1).
//!
//! Three arms are gated against a recorded baseline — a constant beside
//! the arm, with the date and machine it was recorded on:
//!
//! * `table_build_arena` — the zero-copy table build over the
//!   500k-sample fixture (guards against an accidental clone, a lost
//!   reserve, a quadratic sort).
//! * `publish_last_segment` — one fold's epoch publish over the
//!   60k-sample fixture: the last segment's partials merged into the
//!   warm accumulation of every segment, the Table 2 stats likewise,
//!   then the copy of both a published snapshot carries (guards
//!   against per-publish work creeping back to O(history) — a
//!   per-publish `finish`, a second copy or a per-publish index merge).
//!   Merge + copy is the whole of what `vtld serve`'s merger does per
//!   fold it publishes until a reader asks for results; the finish
//!   waits for that reader (after it, the merger finishes at publish).
//! * `trajectories_1_worker` — one single-thread sweep of the feed
//!   generator over the 60k-sample fixture's config (guards against
//!   per-report recomputation of what a scan asks once — the fleet's
//!   day plane, the load factor — or a per-pair rule scan creeping back
//!   into `vt-engines`; the sweep was 4× slower before those existed).
//!
//! Two are self-relative: the 60k fixture, cut into sealed segment
//! stores before any timing, is folded store by store through
//! [`IncrementalStudy::fold_store`] with one reused [`DecodeArena`] —
//! the fold `vtld serve` and `vtld analyze` run — three ways in every
//! round, and [`overhead_ok`] gates the median of the per-round ratios
//! against the bare fold (no stored baseline, so no machine drift):
//!
//! * `alert_overhead` — the fold with the streaming drift detectors
//!   ([`vt_dynamics::AlertConfig`]) on: two extra table passes (the
//!   crossover's per-engine counts, the per-sample monitor) and a read
//!   of the segment's §6 partial, against a fold that is eleven serial
//!   stage passes over the same table.
//! * `obs_overhead` — the fold under a fresh enabled [`Obs`] (every
//!   span, counter and per-worker histogram recorded) against
//!   [`Obs::noop`]. A canary at the common tolerance, not a measurement
//!   of the 5 % instrumentation budget: on a shared 2-vCPU box two bare
//!   folds of one round read ×0.89 to ×1.01 against each other (four
//!   runs of five rounds), and this ratio ×0.75 to ×1.12 over ten runs.
//!   That instrumentation never changes a result is a test
//!   (`tests/observability.rs`).
//!
//! Every fixture is built first; then each arm's timings are taken over
//! [`ITERATIONS`] *rounds* that cycle through all the arms, an untimed
//! pass before each timed one, so one of the box's seconds-long slow
//! stretches costs every arm a round instead of one arm all of its
//! iterations, and the folds the ratios compare run within one round of
//! each other.
//!
//! What the 2-vCPU box this was written on read on 2026-10-15, the first
//! five of ten runs that alternated with the previous tree's binary
//! (each arm's best in ms, then both ratios, the fold arms on
//! `fold_store`) — reported, not gated:
//!
//! ```text
//! table_build_arena      182.5  185.7  177.7  181.2  200.3
//! publish_last_segment     0.2    0.2    0.2    0.2    0.3
//! trajectories_1_worker  182.0  178.9  168.4  176.2  199.3
//! alert_overhead        ×1.100 ×1.104 ×1.040 ×1.198 ×1.067
//! obs_overhead          ×1.049 ×0.851 ×0.963 ×1.077 ×0.967
//! ```
//!
//! Usage: `cargo run --release -p vt-bench --bin bench_drift`
//!
//! * `BENCH_DRIFT_TOLERANCE` — allowed regression fraction for all five
//!   gates (default `0.25`). CI machines differ from the recording
//!   machines; raise the tolerance rather than skipping the gate.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;
use vt_dynamics::{
    merge_partition_stats, AlertConfig, DecodeArena, IncrementalStudy, SampleRecord, Study,
    StudyPartials, TrajectoryTable,
};
use vt_obs::Obs;
use vt_sim::{SimConfig, VirusTotalSim};
use vt_store::{ReportStore, StoreBuilder};

const ITERATIONS: u32 = 5;
const BENCH_SEED: u64 = 0xBE5C;
const BENCH_SAMPLES: u64 = 60_000;
/// Sized so the global correlation scope holds ≥ 100k scan rows.
const CORR_BENCH_SAMPLES: u64 = 500_000;
const SEGMENT_SAMPLES: usize = 5_000;

/// The 60k-sample study four of the arms run over, generated once.
fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::generate(SimConfig::new(BENCH_SEED, BENCH_SAMPLES)))
}

/// `records` cut into segments of [`SEGMENT_SAMPLES`] samples, each
/// sealed into the store a daemon's fold worker would be handed.
fn segment_stores(records: &[SampleRecord]) -> Vec<ReportStore> {
    records
        .chunks(SEGMENT_SAMPLES)
        .map(|segment| {
            let mut store = StoreBuilder::new();
            for r in segment {
                store.append_batch(&r.reports);
            }
            store.seal()
        })
        .collect()
}

/// The 60k-sample study's segments, sealed once for all three fold arms.
fn study_segments() -> &'static [ReportStore] {
    static SEGMENTS: OnceLock<Vec<ReportStore>> = OnceLock::new();
    SEGMENTS.get_or_init(|| segment_stores(study().records()))
}

/// The 500k-sample study of the table-build arm.
fn correlation_study() -> Study {
    Study::generate(SimConfig::new(BENCH_SEED, CORR_BENCH_SAMPLES))
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

/// ns/iter at 1 worker, mean of 3 consecutive iterations, recorded
/// 2026-08-08 on a 1-CPU container.
const TABLE_BUILD_ARENA_NS: u64 = 207_813_904;

fn table_build_arm() -> Arm {
    eprintln!("bench_drift: generating the 500k-sample fixture...");
    let st = correlation_study();
    let ws = st.sim().config().window_start();
    let store = st.build_store();
    drop(st);
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

/// ns/iter, one segment's delta into the warm accumulation of all 16,
/// then the snapshot's copy of the sum: the median of this arm's reading
/// over ten runs of this binary (0.2 ms in nine, 0.3 in one), recorded
/// 2026-10-15 on the 2-vCPU microVM the trajectories constant below
/// describes. The merge followed by `finish` it replaces read
/// 1.5 – 1.8 ms, median 1.7, in the ten runs alternating with them.
const PUBLISH_LAST_SEGMENT_NS: u64 = 200_000;

fn publish_arm() -> Arm {
    eprintln!("bench_drift: slot-routing the 60k-sample fixture...");
    const SLOTS: usize = 8;
    let st = study();
    let ws = st.sim().config().window_start();
    // Route records to slots exactly as `vtld serve` shards them, fold
    // each slot's stream taking every fold's delta, as a shard worker
    // does, and sum the deltas, as the merger does.
    let mut slot_records = vec![Vec::new(); SLOTS];
    for r in st.records() {
        slot_records[(r.meta.hash.0 % SLOTS as u128) as usize].push(r.clone());
    }
    let mut arena = DecodeArena::new();
    let (mut deltas, mut partitions, mut last_partitions) = (Vec::new(), Vec::new(), Vec::new());
    for recs in &slot_records {
        let mut inc = IncrementalStudy::new(st.sim().fleet(), ws).with_workers(4);
        for store in segment_stores(recs) {
            inc.fold_store(&store, &mut arena, Obs::noop());
            deltas.extend(inc.take_partials());
            last_partitions = store.partition_stats();
            merge_partition_stats(&mut partitions, &last_partitions);
        }
    }
    let last = deltas.last().cloned().expect("the fixture folds segments");
    let mut acc = deltas.into_iter().reduce(StudyPartials::merge);

    let iteration = move || {
        // The delta arrives as a copy, as the merger's arrives from a
        // worker; the merge frees it, as the merger's does.
        let delta = last.clone();
        let before = acc.as_ref().map_or(0, StudyPartials::s_samples);
        let t = Instant::now();
        acc = acc.take().map(|acc| acc.merge(delta));
        merge_partition_stats(&mut partitions, &last_partitions);
        // The copy the published snapshot carries; the first reader
        // that asks finishes it, so until then a publish does not.
        let warm = acc.as_ref().expect("a warm accumulation");
        let snapshot = (warm.clone(), partitions.clone());
        let ns = t.elapsed().as_nanos() as u64;
        assert_eq!(
            snapshot.0.s_samples(),
            before + last.s_samples(),
            "the delta merged"
        );
        std::hint::black_box(snapshot);
        ns
    };
    Box::new(iteration)
}

/// ns/iter on one thread, fleet warm: the median of this arm's reading
/// over ten consecutive runs of this binary (140.8 – 159.6 ms), recorded
/// 2026-10-03 on a 2-vCPU microVM that alternates between a fast state
/// and one ~35 % slower for minutes at a time. A one-sided canary:
/// re-record it after any change that speeds this arm up, or the gate
/// waves the next regression through.
const TRAJECTORIES_1_WORKER_NS: u64 = 150_950_000;

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

/// What a [`fold_arm`] adds to the bare segment fold.
#[derive(Clone, Copy)]
enum Fold {
    Bare,
    Alerts,
    Observed,
}

/// One side of a self-relative gate: the 60k fixture's segment stores
/// folded in order, bare or with one thing added. All sides run in this
/// process on the same stores.
fn fold_arm(fold: Fold) -> Arm {
    let st = study();
    let ws = st.sim().config().window_start();
    let segments = study_segments();
    let mut arena = DecodeArena::new();
    let iteration = move || {
        let fresh = matches!(fold, Fold::Observed).then(Obs::new);
        let obs = fresh.as_ref().unwrap_or(Obs::noop());
        let t = Instant::now();
        let mut inc = IncrementalStudy::new(st.sim().fleet(), ws).with_workers(4);
        if matches!(fold, Fold::Alerts) {
            inc = inc.with_alerts(AlertConfig::default());
        }
        for store in segments {
            inc.fold_store(store, &mut arena, obs);
        }
        std::hint::black_box(inc.take_alerts());
        t.elapsed().as_nanos() as u64
    };
    Box::new(iteration)
}

/// `on` must cost no more than `tolerance` extra over `off`: the median
/// over the rounds of on ÷ off (the upper one of an even count), each
/// ratio taken between two folds of the same round. (A ratio of the two
/// arms' bests pairs iterations from different rounds: it read ×0.83 to
/// ×1.30 over ten runs of one binary, this ×0.99 to ×1.12.)
fn overhead_ok(name: &str, off: &[u64], on: &[u64], tolerance: f64) -> bool {
    assert_eq!(off.len(), on.len(), "one off and one on per round");
    if off.contains(&0) {
        eprintln!("bench_drift: FAIL — {name}: an off round read 0 ns, nothing to compare");
        return false;
    }
    let mut ratios: Vec<f64> = off
        .iter()
        .zip(on)
        .map(|(&off, &on)| on as f64 / off as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    eprintln!(
        "bench_drift: {name} median of {} paired rounds: ×{ratio:.3} \
         (tolerance ×{:.3}; best off {:.1}ms, on {:.1}ms)",
        ratios.len(),
        1.0 + tolerance,
        best(off) as f64 / 1e6,
        best(on) as f64 / 1e6,
    );
    if ratio > 1.0 + tolerance {
        eprintln!("bench_drift: FAIL — {name} exceeds the fold-overhead budget");
        return false;
    }
    true
}

fn best(rounds: &[u64]) -> u64 {
    *rounds.iter().min().expect("at least one round")
}

fn main() -> ExitCode {
    let tolerance: f64 = std::env::var("BENCH_DRIFT_TOLERANCE")
        .ok()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.25);

    // The baseline-gated arms, in the order `arms` lists them below.
    let baselines = [
        ("table_build_arena", TABLE_BUILD_ARENA_NS),
        ("publish_last_segment", PUBLISH_LAST_SEGMENT_NS),
        ("trajectories_1_worker", TRAJECTORIES_1_WORKER_NS),
    ];
    let mut arms = [
        table_build_arm(),
        publish_arm(),
        generate_arm(),
        fold_arm(Fold::Bare),
        fold_arm(Fold::Alerts),
        fold_arm(Fold::Observed),
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
    let [.., bare, alerts, observed] = &timings[..] else {
        unreachable!("six arms were timed");
    };
    ok &= overhead_ok("alert_overhead", bare, alerts, tolerance);
    ok &= overhead_ok("obs_overhead", bare, observed, tolerance);
    if !ok {
        return ExitCode::FAILURE;
    }
    eprintln!("bench_drift: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_at_the_limit_and_fails_one_nanosecond_past_it() {
        // 1000 ns at 25 %: the limit is 1250 ns.
        assert!(gate("arm", 1_250, 1_000, 0.25));
        assert!(!gate("arm", 1_251, 1_000, 0.25));
        assert!(gate("arm", 1, 1_000, 0.25), "faster always passes");
        // Tolerance 0: the limit is the baseline itself.
        assert!(gate("arm", 1_000, 1_000, 0.0));
        assert!(!gate("arm", 1_001, 1_000, 0.0));
    }

    #[test]
    fn overhead_is_the_median_of_the_paired_ratios_not_the_ratio_of_the_bests() {
        // Paired: ×2.10, ×1.05, ×1.05 — median ×1.05. Bests: 210 / 100.
        let (off, on) = ([100, 200, 200], [210, 210, 210]);
        assert_eq!(best(&on) as f64 / best(&off) as f64, 2.1);
        assert!(overhead_ok("arm", &off, &on, 0.25));
        // Paired: ×4.00, ×0.33, ×1.33 — median ×1.33. Bests: 100 / 100.
        let (off, on) = ([100, 300, 300], [400, 100, 400]);
        assert_eq!(best(&on), best(&off));
        assert!(!overhead_ok("arm", &off, &on, 0.25));
    }

    #[test]
    fn overhead_takes_the_middle_round_odd_or_even() {
        // Five rounds, sorted ×1.00 ×1.10 ×1.25 ×1.50 ×9.00: the third.
        let off = [100; 5];
        assert!(overhead_ok("arm", &off, &[900, 100, 125, 150, 110], 0.25));
        assert!(!overhead_ok("arm", &off, &[900, 100, 126, 150, 110], 0.25));
        // Four rounds, sorted ×1.00 ×1.10 ×1.30 ×1.40: the upper middle.
        let off = [100; 4];
        assert!(!overhead_ok("arm", &off, &[140, 100, 130, 110], 0.25));
        assert!(overhead_ok("arm", &off, &[140, 100, 125, 110], 0.25));
        // One round is its own median.
        assert!(overhead_ok("arm", &[100], &[125], 0.25));
        assert!(!overhead_ok("arm", &[100], &[126], 0.25));
    }

    #[test]
    fn an_off_round_of_zero_fails_instead_of_dividing() {
        // 0 / 0 is NaN, and NaN > limit is false: it would pass.
        assert!(!overhead_ok("arm", &[0, 0, 0], &[0, 0, 0], 0.25));
        assert!(!overhead_ok("arm", &[100, 0, 100], &[100, 100, 100], 0.25));
    }

    #[test]
    fn best_is_the_minimum_round() {
        assert_eq!(best(&[7, 3, 9]), 3);
        assert_eq!(best(&[4]), 4);
    }
}
