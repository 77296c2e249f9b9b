//! The paper's primary contribution: the complete VirusTotal
//! label-dynamics measurement pipeline.
//!
//! Each module implements one section of the paper and returns a typed
//! result struct (rendered by `vt-report`):
//!
//! | module | paper | output |
//! |---|---|---|
//! | [`records`] | §4.1 | the `(sample, reports)` unit of analysis |
//! | [`landscape`] | §4.2 | Table 2, Table 3, Fig. 1 |
//! | [`stability`] | §5.1–5.2 | Obs. 1–2, Figs. 2–4 |
//! | [`freshdyn`] | §5.3.1 | the fresh dynamic dataset *S* |
//! | [`metrics`] | §5.3.2–5.3.4, §8.1 | δᵢ/Δᵢ, Figs. 5–6, window sweep |
//! | [`intervals`] | §5.3.5 | Fig. 7, the interval–difference Spearman |
//! | [`categorize`] | §5.4 | white/black/gray sweeps, Fig. 8 |
//! | [`causes`] | §5.5 | Obs. 7 flip-cause attribution |
//! | [`stabilization`] | §6 | Obs. 8, Fig. 9 |
//! | [`flips`] | §7.1 | flip counts, hazard flips, Fig. 10 |
//! | [`correlation`] | §7.2 | Figs. 11–12, Tables 4–8 |
//! | [`pipeline`] | all | one-call full study |
//! | [`incremental`] | all | segment-at-a-time folding of the full study |
//! | [`collector`] | §4.1 | fault-tolerant minute-poll feed ingestion |
//! | [`monitor`] | §8.1 | the stabilization-notification feature the paper proposes |
//! | [`alerts`] | §8.1, §6 | streaming drift detectors over segment folds (serve-tier alerting) |
//! | [`par`] | — | `std::thread::scope` partitioned map |
//! | [`table`] | — | the columnar [`TrajectoryTable`] every stage reads |
//! | [`analysis`] | — | the [`Analysis`] trait + [`AnalysisCtx`] every stage runs under |
//!
//! Every per-section analysis is a **stage**: a struct implementing
//! [`Analysis`] that runs against an [`AnalysisCtx`] bundling the
//! columnar [`TrajectoryTable`], *S*, the fleet, the worker count and an
//! observability handle ([`vt_obs::Obs`]). Each stage is a fold: it
//! reduces the table to a mergeable [`Analysis::Partial`], and
//! [`incremental::IncrementalStudy`] merges per-segment partials into
//! results bit-identical to the one-shot batch run.
//!
//! Analyses consume only what the paper could see — report streams —
//! never the simulator's ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod analysis;
pub mod arena;
pub mod categorize;
pub mod causes;
pub mod collector;
pub mod correlation;
pub mod flips;
pub mod freshdyn;
#[cfg(test)]
mod generated;
pub mod incremental;
pub mod index;
pub mod intervals;
pub mod landscape;
pub mod metrics;
pub mod monitor;
pub mod par;
pub mod pipeline;
pub mod records;
pub mod stability;
pub mod stabilization;
pub mod table;

pub use alerts::{Alert, AlertConfig, AlertEngine, AlertKind, AlertTotals};
pub use analysis::{Analysis, AnalysisCtx};
pub use arena::DecodeArena;
pub use collector::{Collector, IngestError, IngestOutcome, IngestStats, QuarantinedEntry};
pub use incremental::{merge_partition_stats, IncrementalStudy, SlotMergeTree, StudyPartials};
pub use index::{IndexChunks, SampleIndex, SampleSummary};
pub use monitor::{MonitorCriteria, MonitorEvent, SampleMonitor};
pub use pipeline::{
    analyze_records, analyze_records_obs, generate_chunks, run_streamed, stage_names, Study,
    StudyResults, STUDY_CHUNK_SAMPLES,
};
pub use records::{records_from_store, SampleRecord};
pub use table::TrajectoryTable;
