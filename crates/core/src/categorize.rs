//! §5.4 — impact of AV-Rank dynamics on threshold labeling (Obs. 6,
//! Fig. 8).
//!
//! Under a voting threshold `t`, a sample of *S* is **white** if
//! `p_max < t` (never labeled malicious), **black** if `p_min ≥ t`
//! (always labeled malicious), and **gray** otherwise — gray samples
//! get different labels depending on *when* they are scanned, which is
//! the failure mode the threshold method must tolerate. The paper
//! sweeps t = 1..50 overall (gray peaks at 14.92% at t = 24) and over
//! PE files only (gray grows with t, max 16.41% at t = 50).

use crate::analysis::{Analysis, AnalysisCtx};
#[cfg(test)]
use crate::freshdyn::FreshDynamic;
#[cfg(test)]
use crate::records::SampleRecord;

/// Ranks above this fold into the top envelope bucket.
const MAX_RANK: usize = 130;

/// Sample shares for one threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdShares {
    /// The threshold t.
    pub t: u32,
    /// Fraction of samples with `p_max < t`.
    pub white: f64,
    /// Fraction with `p_min >= t`.
    pub black: f64,
    /// The rest: samples whose label depends on scan timing.
    pub gray: f64,
}

/// Sweep result over t = 1..=50.
#[derive(Debug, Clone)]
pub struct CategorySweep {
    /// Shares per threshold (index 0 ⇒ t = 1).
    pub shares: Vec<ThresholdShares>,
    /// Samples considered.
    pub samples: u64,
}

impl CategorySweep {
    /// The threshold with the largest gray share.
    pub fn gray_max(&self) -> Option<ThresholdShares> {
        self.shares
            .iter()
            .copied()
            .max_by(|a, b| a.gray.partial_cmp(&b.gray).expect("finite"))
    }

    /// The threshold with the smallest gray share.
    pub fn gray_min(&self) -> Option<ThresholdShares> {
        self.shares
            .iter()
            .copied()
            .min_by(|a, b| a.gray.partial_cmp(&b.gray).expect("finite"))
    }
}

/// §5.4 categorization stage: run via [`Analysis::run`] with an
/// [`AnalysisCtx`]. The two Fig. 8 variants are the two constructions
/// ([`Categorize::ALL`] and [`Categorize::PE`]), each with its own
/// stage name so their spans never collide.
#[derive(Debug, Clone, Copy, Default)]
pub struct Categorize {
    /// Restrict the sweep to PE (Win32 EXE/DLL) samples (Fig. 8b).
    pub pe_only: bool,
}

impl Categorize {
    /// The overall sweep (Fig. 8a).
    pub const ALL: Categorize = Categorize { pe_only: false };
    /// The PE-only sweep (Fig. 8b).
    pub const PE: Categorize = Categorize { pe_only: true };
}

impl Analysis for Categorize {
    type Output = CategorySweep;
    type Partial = CategorizePartial;

    fn name(&self) -> &'static str {
        if self.pe_only {
            "categorize_pe"
        } else {
            "categorize_all"
        }
    }

    fn fold(&self, ctx: &AnalysisCtx) -> CategorizePartial {
        let table = ctx.table;
        let mut acc = CategorizePartial::new();
        for &i in ctx.s_indices() {
            if self.pe_only && !table.is_pe(i) {
                continue;
            }
            acc.max_hist[(table.p_max(i) as usize).min(MAX_RANK)] += 1;
            acc.min_hist[(table.p_min(i) as usize).min(MAX_RANK)] += 1;
            acc.samples += 1;
        }
        acc
    }

    fn merge(&self, acc: &mut CategorizePartial, next: &CategorizePartial) {
        for (a, b) in acc.max_hist.iter_mut().zip(&next.max_hist) {
            *a += b;
        }
        for (a, b) in acc.min_hist.iter_mut().zip(&next.min_hist) {
            *a += b;
        }
        acc.samples += next.samples;
    }

    fn finish(&self, acc: &CategorizePartial) -> CategorySweep {
        shares_from_envelopes(&acc.max_hist, &acc.min_hist, acc.samples)
    }
}

/// Mergeable accumulator of the §5.4 fold ([`Categorize`]'s
/// [`Analysis::Partial`]): the `p_min`/`p_max` envelope histograms plus
/// the sample count. Everything merges by addition.
#[derive(Debug, Clone)]
pub struct CategorizePartial {
    max_hist: [u64; MAX_RANK + 1],
    min_hist: [u64; MAX_RANK + 1],
    samples: u64,
}

impl CategorizePartial {
    fn new() -> Self {
        Self {
            max_hist: [0; MAX_RANK + 1],
            min_hist: [0; MAX_RANK + 1],
            samples: 0,
        }
    }
}

/// Runs the sweep over all of *S* (`pe_only = false`) or its PE subset
/// (`pe_only = true`), for t = 1..=50.
#[cfg(test)]
pub(crate) fn sweep_impl(
    records: &[SampleRecord],
    s: &FreshDynamic,
    pe_only: bool,
) -> CategorySweep {
    // Count samples by their (p_min, p_max) envelope, then integrate per
    // threshold: white(t) = #{p_max < t}, black(t) = #{p_min >= t}.
    let mut max_hist = [0u64; MAX_RANK + 1];
    let mut min_hist = [0u64; MAX_RANK + 1];
    let mut samples = 0u64;
    for r in s.iter(records) {
        if pe_only && !r.meta.file_type.is_pe() {
            continue;
        }
        let mut it = r.positives_iter();
        let first = it.next().expect("multi-report");
        let (p_min, p_max) = it.fold((first, first), |(lo, hi), p| (lo.min(p), hi.max(p)));
        max_hist[(p_max as usize).min(MAX_RANK)] += 1;
        min_hist[(p_min as usize).min(MAX_RANK)] += 1;
        samples += 1;
    }
    shares_from_envelopes(&max_hist, &min_hist, samples)
}

/// Integrates the envelope histograms into per-threshold shares.
fn shares_from_envelopes(
    max_hist: &[u64; MAX_RANK + 1],
    min_hist: &[u64; MAX_RANK + 1],
    samples: u64,
) -> CategorySweep {
    let shares = (1u32..=50)
        .map(|t| {
            let white: u64 = max_hist[..(t as usize).min(MAX_RANK + 1)].iter().sum();
            let black: u64 = min_hist[(t as usize).min(MAX_RANK + 1)..].iter().sum();
            let n = samples.max(1) as f64;
            let white = white as f64 / n;
            let black = black as f64 / n;
            ThresholdShares {
                t,
                white,
                black,
                gray: (1.0 - white - black).max(0.0),
            }
        })
        .collect();
    CategorySweep { shares, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freshdyn;
    use vt_model::time::{Date, Duration, Timestamp};
    use vt_model::{
        EngineId, FileType, GroundTruth, ReportKind, SampleHash, SampleMeta, ScanReport, Verdict,
        VerdictVec,
    };

    fn record(i: u64, ft: FileType, positives_seq: &[u32]) -> SampleRecord {
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let first = window + Duration::days(5);
        let meta = SampleMeta {
            hash: SampleHash::from_ordinal(i),
            file_type: ft,
            origin: first,
            first_submission: first,
            truth: GroundTruth::Benign,
        };
        let reports = positives_seq
            .iter()
            .enumerate()
            .map(|(k, &p)| {
                let mut verdicts = VerdictVec::new(70);
                for e in 0..p {
                    verdicts.set(EngineId(e as u8), Verdict::Malicious);
                }
                ScanReport {
                    sample: meta.hash,
                    file_type: FileType::Pdf,
                    analysis_date: first + Duration::days(k as i64),
                    last_submission_date: first,
                    times_submitted: 1,
                    kind: ReportKind::Upload,
                    verdicts,
                }
            })
            .collect();
        SampleRecord::new(meta, reports)
    }

    #[test]
    fn categories_partition_s() {
        // Sample A swings 2..8, sample B swings 20..30.
        let records = vec![
            record(0, FileType::Win32Exe, &[2, 8]),
            record(1, FileType::Pdf, &[20, 30]),
        ];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let sweep = sweep_impl(&records, &s, false);
        assert_eq!(sweep.samples, 2);
        for sh in &sweep.shares {
            assert!(
                (sh.white + sh.black + sh.gray - 1.0).abs() < 1e-9,
                "t={}",
                sh.t
            );
        }
        // t = 5: A is gray (2 < 5 <= 8), B is black (min 20 >= 5).
        let t5 = sweep.shares[4];
        assert!((t5.gray - 0.5).abs() < 1e-12);
        assert!((t5.black - 0.5).abs() < 1e-12);
        // t = 25: A white, B gray.
        let t25 = sweep.shares[24];
        assert!((t25.white - 0.5).abs() < 1e-12);
        assert!((t25.gray - 0.5).abs() < 1e-12);
        // t = 40: both white.
        let t40 = sweep.shares[39];
        assert_eq!(t40.white, 1.0);
    }

    #[test]
    fn boundary_semantics_match_paper() {
        // "p_max <= t is white" — NO: the paper says white when all
        // AV-Ranks are *less than* t ("p_max ≤ t" in prose but the
        // categories must partition; we use p_max < t and p_min >= t,
        // which makes a constant-at-t sample black, consistent with
        // "all the AV-Ranks are greater than or equal to t").
        let records = vec![record(0, FileType::Win32Exe, &[5, 6])];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let sweep = sweep_impl(&records, &s, false);
        let t5 = sweep.shares[4];
        assert_eq!(t5.black, 1.0); // min 5 >= 5
        let t6 = sweep.shares[5];
        assert_eq!(t6.gray, 1.0); // 5 < 6 <= 6
        let t7 = sweep.shares[6];
        assert_eq!(t7.white, 1.0); // max 6 < 7
    }

    #[test]
    fn pe_only_filters() {
        let records = vec![
            record(0, FileType::Win32Exe, &[2, 8]),
            record(1, FileType::Pdf, &[2, 8]),
        ];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let pe = sweep_impl(&records, &s, true);
        assert_eq!(pe.samples, 1);
        let all = sweep_impl(&records, &s, false);
        assert_eq!(all.samples, 2);
    }

    #[test]
    fn sweep_helpers() {
        let records = vec![
            record(0, FileType::Win32Exe, &[2, 8]),
            record(1, FileType::Pdf, &[20, 30]),
        ];
        let window = Timestamp::from_date(Date::new(2021, 5, 1));
        let s = freshdyn::build(&records, window);
        let sweep = sweep_impl(&records, &s, false);
        let max = sweep.gray_max().unwrap();
        assert!(max.gray >= sweep.gray_min().unwrap().gray);
    }
}
