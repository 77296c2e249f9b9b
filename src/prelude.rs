//! The blessed one-stop import surface.
//!
//! Everything a typical study — batch, incremental or served — touches,
//! re-exported flat so examples and downstream users write one `use`:
//!
//! ```
//! use vt_label_dynamics::prelude::*;
//!
//! let study = Study::generate(SimConfig::new(7, 500));
//! let results = study.run();
//! assert_eq!(results.dataset.total_samples(), 500);
//! ```
//!
//! The facade's per-subsystem modules ([`crate::dynamics`],
//! [`crate::store`], …) stay available for everything deeper; the
//! prelude is the stable subset whose names the project commits to.

pub use crate::dynamics::{
    analyze_records, analyze_records_obs, records_from_store, Alert, AlertConfig, AlertEngine,
    AlertKind, AlertTotals, Analysis, AnalysisCtx, Collector, DecodeArena, IncrementalStudy,
    IngestOutcome, SampleIndex, SampleRecord, SampleSummary, Study, StudyPartials, StudyResults,
    TrajectoryTable,
};
pub use crate::engines::{EngineFleet, FleetConfig};
pub use crate::model::{EngineId, FileType, ScanReport};
pub use crate::obs::{Obs, RunMetrics};
pub use crate::serve::{ServeConfig, Server};
pub use crate::sim::fault::{FaultPlan, FaultyFeed};
pub use crate::sim::{SimConfig, VirusTotalSim};
pub use crate::store::{
    read_segment, read_store, write_segment, write_store, ReportRow, ReportSink, ReportStore,
    Segment, SegmentWriter, StoreBuilder,
};
