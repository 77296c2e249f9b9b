//! Statistics substrate for the VirusTotal label-dynamics study.
//!
//! The paper's analyses lean on a small but specific set of statistics:
//!
//! * **Spearman rank correlation with p-values** — used twice: to relate
//!   AV-Rank differences to scan intervals (§5.3.5, Fig. 7) and to measure
//!   pairwise engine correlation over the scan matrix `R` (§7.2,
//!   Figs. 11–12, Tables 4–8).
//! * **Box-plot summaries** (median, mean, quartiles, Tukey whiskers, with
//!   outliers excluded from the rendering) — Figs. 4, 6, 7.
//! * **Exact integer histograms** and their cumulative fractions — the
//!   empirical CDFs of Figs. 1, 2, 3, 5 and the distribution tables.
//!
//! Everything here is implemented from scratch (no external stats crates)
//! and is deliberately simple, allocation-conscious, and well-tested:
//! the numerical routines carry property tests for their invariants, and
//! the special functions are checked against high-precision reference
//! values.
//!
//! The crate is dependency-free and usable on its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod hist;
pub mod pearson;
pub mod rank;
pub mod spearman;
pub mod special;

pub use boxplot::BoxplotSummary;
pub use hist::Histogram;
pub use pearson::pearson;
pub use rank::average_ranks;
pub use spearman::{spearman, spearman_with_p, SpearmanResult};
