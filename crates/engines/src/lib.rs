//! Behaviour models for the 70 antivirus engines of the study.
//!
//! The paper (§5.5, Obs. 7) identifies three mechanisms behind label
//! changes — **engine latency** (signatures arrive some time after a
//! sample starts circulating), **engine update** (labels change when the
//! engine ships a model update; ~60% of observed flips coincide with
//! one), and **engine activity** (engines time out or are absent from a
//! scan). §7 adds two structural facts: per-engine flip behaviour varies
//! wildly across file types (Fig. 10), and groups of engines copy labels
//! from each other (Figs. 11–12, Tables 4–8; also Sebastián et al.).
//!
//! This crate encodes exactly those mechanisms:
//!
//! * [`registry`] — the roster: 70 engine names (the names appearing in
//!   the paper's figures) with per-engine behaviour profiles.
//! * [`groups`] — label-copying rules (follower → leader), global or
//!   scoped to one file type, seeded from the paper's reported groups.
//! * [`update`] — per-engine model-update schedules.
//! * [`typemods`] — per-file-type behaviour modifiers (latency scale,
//!   FP and timeout multipliers).
//! * [`behavior`] — [`behavior::EngineFleet`], the deterministic verdict
//!   function: given (engine, sample, time), produce a
//!   [`vt_model::Verdict`]. Every random decision is a pure function of
//!   `(fleet seed, sample hash, engine, purpose)`, so scans are
//!   reproducible and cachable.
//!
//! ## The at-most-one-transition invariant
//!
//! Each (engine, sample) pair follows one of four lifetime plans:
//! *never flags*, *flags from the sample's origin forever*, *flags from
//! origin until a retraction time*, or *flags from an acquisition time
//! forever*. Retraction is only possible for pairs that flagged from
//! origin, so a pair's label sequence over any sequence of scans is
//! `0…0 1…1`, `1…1 0…0`, or constant — never `0→1→0` or `1→0→1`. This is
//! the mechanism behind the paper's startling observation that "hazard
//! flips" are all but absent in real feed data (9 in 109 M reports);
//! a tiny per-scan glitch probability reproduces the residual handful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod groups;
pub mod registry;
pub mod typemods;
pub mod update;

pub use behavior::{EngineFleet, FleetConfig, FleetConfigBuilder, PairPlan, SamplePlan};
pub use groups::{CopyRule, Scope};
pub use registry::{EngineProfile, ENGINE_COUNT};
pub use update::UpdateSchedule;
