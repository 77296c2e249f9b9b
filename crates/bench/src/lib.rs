//! Shared fixtures for the benchmark suite.
//!
//! Every bench target regenerates one of the paper's tables or figures
//! over the same seeded study, so criterion timings compare the cost of
//! the analyses themselves, not dataset variance. [`study`] memoizes the
//! generated dataset per process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;
use vt_dynamics::freshdyn::{self, FreshDynamic};
use vt_dynamics::AnalysisCtx;
use vt_dynamics::Study;
use vt_dynamics::TrajectoryTable;
use vt_sim::SimConfig;

/// Samples in the benchmark dataset. Large enough that the analyses are
/// out of the noise floor, small enough for quick `cargo bench` runs.
pub const BENCH_SAMPLES: u64 = 60_000;

/// Benchmark seed.
pub const BENCH_SEED: u64 = 0xBE5C;

/// The memoized benchmark study.
pub fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::generate(SimConfig::new(BENCH_SEED, BENCH_SAMPLES)))
}

/// The memoized fresh dynamic set *S* for the benchmark study.
pub fn fresh_dynamic() -> &'static FreshDynamic {
    static S: OnceLock<FreshDynamic> = OnceLock::new();
    S.get_or_init(|| {
        let st = study();
        freshdyn::build(st.records(), st.sim().config().window_start())
    })
}

/// The memoized columnar [`TrajectoryTable`] for the benchmark study.
pub fn table() -> &'static TrajectoryTable {
    static TABLE: OnceLock<TrajectoryTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let st = study();
        TrajectoryTable::build(st.records(), st.sim().config().window_start())
    })
}

/// Samples in the correlation-kernel benchmark dataset: sized so the
/// global correlation scope holds ≥ 100k scan rows (*S* retains ~0.22
/// reports per generated sample at this seed), which is the scale the
/// correlation-kernel numbers are recorded at.
pub const CORR_BENCH_SAMPLES: u64 = 500_000;

/// The memoized large study for the correlation kernel bench.
/// Separate from [`study`] so the other bench targets keep their quick
/// fixture.
pub fn correlation_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::generate(SimConfig::new(BENCH_SEED, CORR_BENCH_SAMPLES)))
}

/// The memoized fresh dynamic set *S* for [`correlation_study`].
pub fn correlation_fresh_dynamic() -> &'static FreshDynamic {
    static S: OnceLock<FreshDynamic> = OnceLock::new();
    S.get_or_init(|| {
        let st = correlation_study();
        freshdyn::build(st.records(), st.sim().config().window_start())
    })
}

/// The memoized columnar [`TrajectoryTable`] for [`correlation_study`].
pub fn correlation_table() -> &'static TrajectoryTable {
    static TABLE: OnceLock<TrajectoryTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let st = correlation_study();
        TrajectoryTable::build(st.records(), st.sim().config().window_start())
    })
}

/// An [`AnalysisCtx`] over the memoized benchmark [`study`], for bench
/// targets that exercise the unified [`vt_dynamics::Analysis`] stages.
pub fn bench_ctx() -> AnalysisCtx<'static> {
    let st = study();
    AnalysisCtx::new(
        st.records(),
        table(),
        fresh_dynamic(),
        st.sim().fleet(),
        st.sim().config().window_start(),
    )
}

/// An [`AnalysisCtx`] over the large [`correlation_study`].
pub fn correlation_ctx() -> AnalysisCtx<'static> {
    let st = correlation_study();
    AnalysisCtx::new(
        st.records(),
        correlation_table(),
        correlation_fresh_dynamic(),
        st.sim().fleet(),
        st.sim().config().window_start(),
    )
}
