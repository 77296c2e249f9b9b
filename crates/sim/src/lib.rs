//! Discrete-event VirusTotal platform simulator.
//!
//! The paper's driving dataset — every scan report VirusTotal produced
//! over 14 months — is proprietary. This crate generates a synthetic
//! stand-in with the same *generating mechanisms* and the same *marginal
//! shapes*:
//!
//! * [`population`] — samples: file types drawn from Table 3's
//!   distribution (plus a Zipf tail reaching 351 types), per-type malice
//!   prevalence and detectability, in-the-wild ages, freshness (91.76%
//!   of samples first appear inside the window).
//! * [`traffic`] — when samples are submitted and how often: monthly
//!   volume weights from Table 2, the reports-per-sample tail of Fig. 1
//!   (88.81% of samples are scanned exactly once), and class-dependent
//!   inter-scan gaps.
//! * [`api`] — the three VT APIs the paper reverse-engineers in §3:
//!   upload / rescan / report with the Table 1 field-update semantics.
//! * [`platform`] — ties it together: a seeded, streaming generator of
//!   `(SampleMeta, Vec<ScanReport>)` over the collection window.
//! * [`feed`] — the paper's minute-polled collection view: every report
//!   of the platform in global analysis-time order (k-way merge).
//! * [`fault`] — seeded chaos injection over the feed: minute outages,
//!   duplicate delivery, bounded-lateness reordering, and detectable
//!   payload corruption, for exercising the collector's fault paths.
//! * [`rng`] — the seeded generator (xoshiro256++) every stochastic
//!   choice of this crate draws from.
//! * [`distr`] / [`alias`] — sampling utilities over it (lognormal,
//!   gamma, beta, Zipf, and O(1) weighted choice via the alias method).
//!
//! Everything is seeded: the same [`config::SimConfig`] produces the
//! same dataset, bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod api;
pub mod config;
pub mod distr;
pub mod fault;
pub mod feed;
pub mod platform;
pub mod population;
pub mod rng;
pub mod traffic;

pub use alias::AliasTable;
pub use api::SampleSession;
pub use config::{SimConfig, SimConfigBuilder, SimConfigError};
pub use fault::{FaultPlan, FaultyFeed, FeedEntry, FeedOutage};
pub use feed::TimeOrderedFeed;
pub use platform::VirusTotalSim;
pub use population::PopulationGen;
pub use traffic::TrafficModel;
