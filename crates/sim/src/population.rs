//! Sample population generation.
//!
//! Generates [`SampleMeta`] records whose marginals match the paper's
//! §4 dataset description:
//!
//! * file types ~ Table 3 (top-20 shares + NULL + a Zipf tail over the
//!   330 long-tail types that together carry 11.71%);
//! * 91.76% of samples are *fresh* (first submitted inside the window);
//! * first-submission times follow Table 2's monthly volume profile;
//! * per-type malice prevalence and detectability (the latent drivers
//!   of the per-type dynamics regimes of Figs. 6 & 8);
//! * an in-the-wild *age* at first submission (origin precedes
//!   submission, so part of the engine ramp has already happened — the
//!   reason fresh samples rarely surface at AV-Rank 0).
//!
//! Generation is deterministic per sample ordinal: each sample's draws
//! come from an RNG seeded by `(config seed, ordinal)`, so any subrange
//! of the population can be generated independently (and in parallel).

use crate::alias::AliasTable;
use crate::config::SimConfig;
use crate::distr;
use crate::rng::SimRng;
use vt_model::filetype::{FileType, OTHER_TYPE_COUNT, TOTAL_TYPE_COUNT};
use vt_model::hash::mix64;
use vt_model::time::{Duration, Month, MINUTES_PER_DAY};
use vt_model::{GroundTruth, SampleHash, SampleMeta};

/// Monthly report volumes from Table 2 (used as weights for placing
/// first submissions in time).
pub const MONTHLY_REPORT_COUNTS: [u64; 14] = [
    41_336_308, 51_945_339, 59_538_559, 60_369_255, 64_546_564, 55_113_116, 57_728_868, 59_421_199,
    69_676_958, 61_981_425, 76_759_558, 68_555_398, 62_400_644, 58_193_854,
];

/// Fraction of samples first submitted inside the window (§4.1:
/// 91.76%).
const FRESH_FRACTION: f64 = 0.9176;

/// Per-type population parameters (prevalence, detectability shape,
/// age, resubmission appetite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypePopulation {
    /// Fraction of submitted samples of this type that are malicious.
    /// (VT traffic is malware-heavy; this is prevalence *among
    /// submissions*, not in the wild.)
    pub malice_prevalence: f64,
    /// Beta(a, b) shape of the detectability latent (asymptotic AV-Rank
    /// ≈ 70 × detectability).
    pub detectability_beta: (f64, f64),
    /// Median in-the-wild age (days) at first submission.
    pub age_median_days: f64,
    /// Multiplier on the probability of being scanned more than once
    /// (Table 3 shows e.g. Win32 DLL at 4.0 reports/sample vs TXT at
    /// 1.3).
    pub resubmit_factor: f64,
    /// Fraction of the malicious population that is grayware/PUP-like:
    /// low detectability (asymptotic AV-Rank ~2-10) with slow ramps.
    /// These are what makes low thresholds (t = 1..5) see gray samples
    /// in Fig. 8a.
    pub grayware_prob: f64,
}

/// Population parameters for a file type.
pub fn type_population(ft: FileType) -> TypePopulation {
    use FileType::*;
    let t = |prev: f64, a: f64, b: f64, age: f64, resub: f64, gray: f64| TypePopulation {
        malice_prevalence: prev,
        detectability_beta: (a, b),
        age_median_days: age,
        resubmit_factor: resub,
        grayware_prob: gray,
    };
    match ft {
        Win32Exe => t(0.72, 4.2, 2.1, 16.0, 1.2, 0.14),
        Win32Dll => t(0.65, 3.8, 2.3, 17.0, 3.0, 0.14),
        Win64Exe => t(0.65, 4.0, 2.2, 16.0, 2.2, 0.14),
        Win64Dll => t(0.60, 3.6, 2.4, 17.0, 2.2, 0.14),
        Txt => t(0.35, 1.6, 4.0, 12.0, 1.5, 0.38),
        Html => t(0.45, 1.8, 3.8, 12.0, 1.4, 0.35),
        Zip => t(0.40, 1.8, 3.6, 13.0, 2.4, 0.35),
        Pdf => t(0.35, 1.6, 4.0, 13.0, 1.8, 0.35),
        Xml => t(0.28, 1.4, 4.6, 12.0, 1.3, 0.38),
        Json => t(0.22, 1.3, 5.2, 12.0, 1.3, 0.38),
        Dex => t(0.50, 2.4, 2.7, 16.0, 1.2, 0.20),
        ElfExecutable => t(0.55, 2.4, 2.7, 13.0, 1.0, 0.18),
        ElfSharedLib => t(0.20, 1.5, 5.5, 9.0, 1.0, 0.20),
        Epub => t(0.08, 1.2, 7.0, 8.0, 1.5, 0.30),
        Lnk => t(0.50, 2.2, 3.0, 8.0, 1.0, 0.20),
        Fpx => t(0.06, 1.2, 8.0, 8.0, 1.1, 0.30),
        Php => t(0.38, 1.8, 4.2, 8.0, 0.9, 0.20),
        Docx => t(0.30, 1.8, 3.6, 8.0, 1.4, 0.20),
        Gzip => t(0.18, 1.5, 5.0, 8.0, 1.4, 0.25),
        Jpeg => t(0.05, 1.2, 8.0, 8.0, 1.2, 0.30),
        Null => t(0.30, 1.8, 4.0, 8.0, 1.0, 0.22),
        Other(_) => t(0.30, 1.8, 4.0, 8.0, 0.7, 0.22),
    }
}

/// Deterministic sample-population generator.
#[derive(Debug, Clone)]
pub struct PopulationGen {
    config: SimConfig,
    type_table: AliasTable,
    month_table: AliasTable,
}

impl PopulationGen {
    /// Builds the generator for a config.
    pub fn new(config: SimConfig) -> Self {
        // Weights over the dense type index space: top-20 + NULL from
        // Table 3, then a Zipf(1.5) tail over the 330 Other types that
        // together carry OTHER_SHARE_PPM.
        let mut weights = vec![0.0f64; TOTAL_TYPE_COUNT];
        for (idx, w) in weights.iter_mut().enumerate().take(21) {
            *w = FileType::from_dense_index(idx).sample_share_ppm() as f64;
        }
        let zipf_total: f64 = (1..=OTHER_TYPE_COUNT as usize)
            .map(|k| 1.0 / (k as f64).powf(1.5))
            .sum();
        for k in 1..=OTHER_TYPE_COUNT as usize {
            weights[20 + k] =
                FileType::OTHER_SHARE_PPM as f64 * (1.0 / (k as f64).powf(1.5)) / zipf_total;
        }
        let type_table = AliasTable::new(&weights);
        let month_table = AliasTable::new(&MONTHLY_REPORT_COUNTS.map(|c| c as f64));
        Self {
            config,
            type_table,
            month_table,
        }
    }

    /// The per-sample RNG (parallel-friendly: any ordinal can be
    /// generated independently).
    fn rng_for(&self, ordinal: u64) -> SimRng {
        SimRng::seed_from_u64(mix64(&[self.config.seed, 0x90b, ordinal]))
    }

    /// The hash of sample number `ordinal`, without generating the rest
    /// of it: `hash_of(o) == sample(o).hash`.
    pub fn hash_of(&self, ordinal: u64) -> SampleHash {
        SampleHash::from_ordinal(mix64(&[self.config.seed, ordinal]))
    }

    /// Generates sample number `ordinal`.
    pub fn sample(&self, ordinal: u64) -> SampleMeta {
        let mut rng = self.rng_for(ordinal);
        let hash = self.hash_of(ordinal);
        let type_idx = self.type_table.sample(&mut rng);
        let file_type = FileType::from_dense_index(type_idx);
        let pop = type_population(file_type);

        // First submission time.
        let fresh = rng.unit_f64() < FRESH_FRACTION;
        let first_submission = if fresh {
            let month = Month::COLLECTION_START.plus(self.month_table.sample(&mut rng));
            let span = (month.end() - month.start()).as_minutes();
            month.start() + Duration::minutes(rng.below(span as u64) as i64)
        } else {
            // Pre-existing: first submitted up to a year before the
            // window (it will be re-scanned inside the window).
            let start = self.config.window_start();
            start - Duration::minutes(1 + rng.below((365 * MINUTES_PER_DAY - 1) as u64) as i64)
        };

        // Ground truth. Malicious samples are a mixture of commodity
        // malware (the per-type Beta) and grayware/PUPs with low
        // asymptotic ranks.
        let truth = if rng.unit_f64() < pop.malice_prevalence {
            let detectability = if rng.unit_f64() < pop.grayware_prob {
                distr::beta(&mut rng, 1.2, 11.0)
            } else {
                let (a, b) = pop.detectability_beta;
                distr::beta(&mut rng, a, b)
            };
            GroundTruth::Malicious {
                detectability: detectability as f32,
            }
        } else {
            GroundTruth::Benign
        };

        // Age in the wild at first submission. Malicious samples reach
        // VT while hot (young); benign files can be arbitrarily old.
        let age_median = match truth {
            GroundTruth::Malicious { .. } => pop.age_median_days,
            GroundTruth::Benign => pop.age_median_days * 6.0,
        };
        let age_days = distr::lognormal(&mut rng, age_median, 0.9);
        let origin =
            first_submission - Duration::minutes((age_days * MINUTES_PER_DAY as f64) as i64);

        SampleMeta {
            hash,
            file_type,
            origin,
            first_submission,
            truth,
        }
    }

    /// Iterates the whole population.
    pub fn iter(&self) -> impl Iterator<Item = SampleMeta> + '_ {
        (0..self.config.samples).map(move |i| self.sample(i))
    }

    /// The simulation config this generator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gen(samples: u64) -> PopulationGen {
        PopulationGen::new(SimConfig::new(0xBEEF, samples))
    }

    #[test]
    fn generation_is_deterministic() {
        let g = gen(100);
        for i in [0u64, 7, 99] {
            assert_eq!(g.sample(i), g.sample(i));
        }
        let g2 = gen(100);
        assert_eq!(g.sample(5), g2.sample(5));
    }

    proptest! {
        #[test]
        fn hash_of_is_the_samples_hash(seed in any::<u64>(), ordinal in any::<u64>()) {
            let g = PopulationGen::new(SimConfig::new(seed, 1));
            prop_assert_eq!(g.hash_of(ordinal), g.sample(ordinal).hash);
        }
    }

    #[test]
    fn type_distribution_matches_table3() {
        let g = gen(60_000);
        let mut win32exe = 0u64;
        let mut null = 0u64;
        let mut other = 0u64;
        for s in g.iter() {
            match s.file_type {
                FileType::Win32Exe => win32exe += 1,
                FileType::Null => null += 1,
                FileType::Other(_) => other += 1,
                _ => {}
            }
        }
        let n = 60_000f64;
        assert!((win32exe as f64 / n - 0.2521).abs() < 0.01, "{win32exe}");
        assert!((null as f64 / n - 0.0960).abs() < 0.008, "{null}");
        assert!((other as f64 / n - 0.1171).abs() < 0.008, "{other}");
    }

    #[test]
    fn freshness_fraction_matches() {
        let g = gen(30_000);
        let start = g.config().window_start();
        let fresh = g.iter().filter(|s| s.is_fresh(start)).count();
        let frac = fresh as f64 / 30_000.0;
        assert!((frac - 0.9176).abs() < 0.01, "fresh fraction {frac}");
    }

    #[test]
    fn submissions_fall_in_or_before_window() {
        let g = gen(5_000);
        let (start, end) = (g.config().window_start(), g.config().window_end());
        for s in g.iter() {
            assert!(s.first_submission < end);
            assert!(s.first_submission >= start - Duration::days(365));
            assert!(s.origin <= s.first_submission, "origin after submission");
        }
    }

    #[test]
    fn malice_prevalence_per_type() {
        let g = gen(60_000);
        let mut exe = (0u64, 0u64);
        let mut jpeg = (0u64, 0u64);
        for s in g.iter() {
            match s.file_type {
                FileType::Win32Exe => {
                    exe.0 += 1;
                    exe.1 += s.truth.is_malicious() as u64;
                }
                FileType::Jpeg => {
                    jpeg.0 += 1;
                    jpeg.1 += s.truth.is_malicious() as u64;
                }
                _ => {}
            }
        }
        let exe_rate = exe.1 as f64 / exe.0 as f64;
        assert!((exe_rate - 0.72).abs() < 0.03, "exe malice {exe_rate}");
        if jpeg.0 > 50 {
            let jpeg_rate = jpeg.1 as f64 / jpeg.0 as f64;
            assert!(jpeg_rate < 0.15, "jpeg malice {jpeg_rate}");
        }
    }

    #[test]
    fn monthly_profile_is_weighted() {
        let g = gen(40_000);
        let start = g.config().window_start();
        let mut per_month = [0u64; 14];
        for s in g.iter() {
            if s.is_fresh(start) {
                if let Some(i) = s.first_submission.month().collection_index() {
                    per_month[i] += 1;
                }
            }
        }
        // March 2022 (idx 10) carries the most weight in Table 2; May
        // 2021 (idx 0) the least.
        assert!(per_month[10] > per_month[0], "{per_month:?}");
        assert!(per_month.iter().all(|&c| c > 0));
    }
}
