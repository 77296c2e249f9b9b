//! # vt-label-dynamics
//!
//! Facade crate for the reproduction of *"Re-measuring the Label Dynamics
//! of Online Anti-Malware Engines from Millions of Samples"* (IMC '23).
//!
//! Re-exports every subsystem under one roof so examples and downstream
//! users can depend on a single crate. Every one of them is first-party:
//! the product links no external crate.
//!
//! * [`stats`] — statistics substrate (Spearman, box plots, histograms).
//! * [`model`] — domain types (time, hashes, file types, reports).
//! * [`engines`] — the 70 simulated antivirus engine behaviour models.
//! * [`sim`] — the discrete-event VirusTotal platform simulator.
//! * [`store`] — the compressed, month-partitioned report store.
//! * [`dynamics`] — the paper's measurement analyses (the core library).
//! * [`report`] — text tables / ASCII figures / CSV renderers.
//! * [`obs`] — the zero-dependency observability layer threaded through
//!   the pipeline (spans, counters, histograms, `metrics.json`).
//!
//! Two facade-level modules round it out: [`prelude`] re-exports the
//! blessed types flat (one `use` for a whole study), and [`serve`] is
//! the `vtld serve` daemon — segment-incremental ingestion behind a
//! newline-delimited-JSON TCP endpoint.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or run the full paper reproduction with
//! `cargo run --release --example full_study`.

#![forbid(unsafe_code)]

pub mod prelude;
pub mod serve;

pub use vt_dynamics as dynamics;
pub use vt_engines as engines;
pub use vt_model as model;
pub use vt_obs as obs;
pub use vt_report as report;
pub use vt_sim as sim;
pub use vt_stats as stats;
pub use vt_store as store;
