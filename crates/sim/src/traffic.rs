//! Submission traffic: how many times and when each sample is scanned.
//!
//! Fig. 1's headline: 88.81% of samples have exactly one report, 99.10%
//! fewer than 6, 99.90% fewer than 20, and a heavy tail reaches 64,168
//! reports for one sample. The scan-count model below reproduces that
//! staircase, with class- and type-dependent adjustments (malicious
//! samples are re-submitted more; Win32 DLL / ZIP attract ~3–4 reports
//! per sample in Table 3 while TXT sits at ~1.3).
//!
//! Inter-scan gaps are lognormal with class-dependent medians: malware
//! gets re-scanned while hot (days), benign files trickle back over
//! weeks — this is what gives stable benign samples the longest stable
//! time spans (Fig. 4). Heavily re-scanned samples (monitoring rigs)
//! compress their gaps so the whole trajectory fits the window.

use crate::config::SimConfig;
use crate::distr;
use crate::population::type_population;
use crate::rng::SimRng;
use vt_model::hash::mix64;
use vt_model::time::{Duration, Timestamp, MINUTES_PER_DAY};
use vt_model::SampleMeta;

/// Hard cap on reports per sample (keeps memory bounded; the paper's
/// max is 64,168).
const MAX_REPORTS_PER_SAMPLE: u32 = 4_000;

/// Scan-count and scan-time model.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    config: SimConfig,
}

impl TrafficModel {
    /// Builds the model for a config.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    fn rng_for(&self, sample: &SampleMeta) -> SimRng {
        SimRng::seed_from_u64(mix64(&[self.config.seed, 0x7af1c, sample.hash.seed64()]))
    }

    /// Probability that this sample is scanned more than once.
    fn multi_scan_prob(&self, sample: &SampleMeta) -> f64 {
        let base = if sample.truth.is_malicious() {
            0.125
        } else {
            0.062
        };
        (base * type_population(sample.file_type).resubmit_factor).min(0.9)
    }

    /// Draws the total number of scan reports for a sample.
    pub fn report_count(&self, sample: &SampleMeta) -> u32 {
        let mut rng = self.rng_for(sample);
        if rng.unit_f64() >= self.multi_scan_prob(sample) {
            return 1;
        }
        // Multi-scan staircase (fractions of multi-scan samples):
        //   2 → 66%, 3 → 15%, 4 → 8%, 5 → 3.5%,
        //   6..=20 → 6% (geometric), >20 → 1.5% (bounded Pareto).
        let u = rng.unit_f64();
        let n = if u < 0.66 {
            2
        } else if u < 0.81 {
            3
        } else if u < 0.89 {
            4
        } else if u < 0.925 {
            5
        } else if u < 0.985 {
            // Geometric-ish decay over 6..=20.
            let mut k = 6u32;
            while k < 20 && rng.unit_f64() < 0.78 {
                k += 1;
            }
            k
        } else {
            distr::bounded_pareto(&mut rng, 1.0, 21.0, 60_000.0) as u32
        };
        n.min(MAX_REPORTS_PER_SAMPLE)
    }

    /// Median inter-scan gap in days for a sample with `n` total scans.
    fn gap_median_days(&self, sample: &SampleMeta, n: u32) -> f64 {
        let base = if sample.truth.is_malicious() {
            2.5
        } else {
            14.0
        };
        // Heavily re-scanned samples are monitored: gaps compress so the
        // trajectory fits the window.
        base * (40.0 / n as f64).min(1.0)
    }

    /// Draws the scan schedule: `report_count` timestamps starting at the
    /// first submission, truncated at the window end. Always returns at
    /// least one timestamp (the first submission, clamped into the
    /// window for pre-existing samples).
    pub fn scan_times(&self, sample: &SampleMeta) -> Vec<Timestamp> {
        let n = self.report_count(sample);
        let mut rng = self.rng_for(sample);
        // Burn the draws used by report_count so schedules and counts
        // are independent streams.
        let mut rng2 = SimRng::seed_from_u64(rng.next_u64() ^ 0x9a95);

        let window_end = self.config.window_end();
        let window_start = self.config.window_start();
        // Pre-existing samples: their in-window activity starts at a
        // re-submission somewhere in the window, not at the original
        // first submission.
        let mut t = if sample.first_submission < window_start {
            let span = (window_end - window_start).as_minutes();
            window_start + Duration::minutes(rng2.below(span as u64) as i64)
        } else {
            sample.first_submission
        };
        let median = self.gap_median_days(sample, n);
        let sigma = if sample.truth.is_malicious() {
            1.3
        } else {
            0.95
        };
        // Malicious samples are mostly re-scanned while hot, but a
        // fraction of re-scans are archival (threat-intel sweeps months
        // later) — this is what populates the long-interval bins of
        // Fig. 7 with high-rank samples.
        let archival = sample.truth.is_malicious() && n <= 20;
        let mut times = Vec::with_capacity(n.min(64) as usize);
        times.push(t);
        for _ in 1..n {
            let gap_days = if archival && rng2.unit_f64() < 0.15 {
                distr::lognormal(&mut rng2, 60.0, 0.8)
            } else {
                distr::lognormal(&mut rng2, median, sigma)
            }
            .max(1.0 / 1440.0);
            t += Duration::minutes((gap_days * MINUTES_PER_DAY as f64).round().max(1.0) as i64);
            if t >= window_end {
                break;
            }
            times.push(t);
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationGen;

    fn setup(n: u64) -> (PopulationGen, TrafficModel) {
        let cfg = SimConfig::new(0xCAFE, n);
        (PopulationGen::new(cfg), TrafficModel::new(cfg))
    }

    #[test]
    fn report_counts_match_fig1_staircase() {
        let (pop, traffic) = setup(60_000);
        let mut singles = 0u64;
        let mut le5 = 0u64;
        let mut le20 = 0u64;
        let mut total = 0u64;
        let mut reports = 0u64;
        for s in pop.iter() {
            let n = traffic.report_count(&s) as u64;
            total += 1;
            reports += n;
            if n == 1 {
                singles += 1;
            }
            if n <= 5 {
                le5 += 1;
            }
            if n <= 20 {
                le20 += 1;
            }
        }
        let f = |x: u64| x as f64 / total as f64;
        // Paper: 88.81% singletons, 99.10% < 6 reports, 99.90% < 20.
        assert!((f(singles) - 0.888).abs() < 0.02, "singles {}", f(singles));
        assert!(f(le5) > 0.985, "≤5: {}", f(le5));
        assert!(f(le20) > 0.997, "≤20: {}", f(le20));
        // Mean reports/sample ≈ 1.48 in the paper (847 M / 571 M).
        let mean = reports as f64 / total as f64;
        assert!((mean - 1.48).abs() < 0.35, "mean reports/sample {mean}");
    }

    #[test]
    fn scan_times_are_ordered_and_in_window() {
        let (pop, traffic) = setup(3_000);
        let end = traffic.config.window_end();
        for s in pop.iter() {
            let times = traffic.scan_times(&s);
            assert!(!times.is_empty());
            for w in times.windows(2) {
                assert!(w[0] < w[1], "unsorted scan times");
            }
            for &t in &times {
                assert!(t < end);
            }
            // Fresh samples start exactly at first submission.
            if s.first_submission >= traffic.config.window_start() {
                assert_eq!(times[0], s.first_submission);
            }
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let (pop, traffic) = setup(200);
        for s in pop.iter().take(50) {
            assert_eq!(traffic.scan_times(&s), traffic.scan_times(&s));
        }
    }

    #[test]
    fn dll_attracts_more_reports_than_txt() {
        let (pop, traffic) = setup(120_000);
        let mut dll = (0u64, 0u64);
        let mut txt = (0u64, 0u64);
        for s in pop.iter() {
            let n = traffic.report_count(&s) as u64;
            match s.file_type {
                vt_model::FileType::Win32Dll => {
                    dll.0 += 1;
                    dll.1 += n;
                }
                vt_model::FileType::Txt => {
                    txt.0 += 1;
                    txt.1 += n;
                }
                _ => {}
            }
        }
        let dll_mean = dll.1 as f64 / dll.0 as f64;
        let txt_mean = txt.1 as f64 / txt.0 as f64;
        assert!(
            dll_mean > txt_mean + 0.2,
            "dll {dll_mean} vs txt {txt_mean}"
        );
    }

    #[test]
    fn benign_gaps_longer_than_malicious() {
        let (pop, traffic) = setup(60_000);
        let mut benign_span = 0.0f64;
        let mut benign_n = 0u64;
        let mut mal_span = 0.0f64;
        let mut mal_n = 0u64;
        for s in pop.iter() {
            let times = traffic.scan_times(&s);
            if times.len() < 2 {
                continue;
            }
            let span = (*times.last().unwrap() - times[0]).as_days_f64();
            if s.truth.is_malicious() {
                mal_span += span;
                mal_n += 1;
            } else {
                benign_span += span;
                benign_n += 1;
            }
        }
        assert!(benign_n > 100 && mal_n > 100);
        assert!(
            benign_span / benign_n as f64 > mal_span / mal_n as f64,
            "benign spans should exceed malicious"
        );
    }
}
