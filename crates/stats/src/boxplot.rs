//! Box-plot summaries (Tukey box-and-whisker statistics).
//!
//! The paper renders several distributions as box plots with the median
//! (orange line), the mean (green triangle), the interquartile box, and
//! whiskers, with outliers *excluded from the figures* (Figs. 4, 6, 7).
//! [`BoxplotSummary`] computes exactly that statistic set so the report
//! layer can render the same figures.

/// The statistics behind one box in a box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (the paper's green triangle).
    pub mean: f64,
    /// Median / Q2 (the paper's orange line).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Lower whisker: smallest observation ≥ Q1 − 1.5·IQR.
    pub whisker_lo: f64,
    /// Upper whisker: largest observation ≤ Q3 + 1.5·IQR.
    pub whisker_hi: f64,
    /// Count of observations outside the whiskers (excluded by the
    /// paper's figures).
    pub outliers: usize,
    /// Minimum observation (including outliers).
    pub min: f64,
    /// Maximum observation (including outliers).
    pub max: f64,
}

impl BoxplotSummary {
    /// Computes the summary from an unsorted sample. Returns `None` on an
    /// empty sample.
    ///
    /// Quartiles use linear interpolation between order statistics
    /// (matplotlib's default, which is what the paper's figures use).
    pub fn from_unsorted(data: &[f64]) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite inputs"));
        Some(Self::from_sorted(&sorted))
    }

    /// Computes the summary from an already-sorted (ascending) sample.
    ///
    /// # Panics
    /// Panics on an empty slice; debug-asserts sortedness.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        assert!(!sorted.is_empty(), "BoxplotSummary requires observations");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        let n = sorted.len();
        let at = |k: usize| sorted[k];
        let q1 = interp_quantile(n, 0.25, at);
        let median = interp_quantile(n, 0.50, at);
        let q3 = interp_quantile(n, 0.75, at);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Whiskers extend to the most extreme points within the fences,
        // clamped to the box edges so a whisker never sits inside the box
        // (possible with interpolated quartiles over gappy data).
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&v| v >= lo_fence)
            .unwrap_or(sorted[0])
            .min(q1);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&v| v <= hi_fence)
            .unwrap_or(sorted[n - 1])
            .max(q3);
        let outliers = sorted
            .iter()
            .filter(|&&v| v < whisker_lo || v > whisker_hi)
            .count();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        Self {
            n,
            mean,
            median,
            q1,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }

    /// Computes the summary from a counting representation: `counts[v]`
    /// observations of the integer value `v`. Returns `None` when all
    /// counts are zero.
    ///
    /// Bit-identical to [`Self::from_unsorted`] on the expanded multiset
    /// (see [`Self::from_runs`]), so the analyses keep fixed-size count
    /// arrays instead of per-observation `Vec<f64>` buffers.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        let runs: Vec<(f64, u64)> = counts
            .iter()
            .enumerate()
            .map(|(v, &c)| (v as f64, c))
            .collect();
        Self::from_runs(&runs)
    }

    /// Computes the summary from counted runs: `(value, count)` pairs in
    /// ascending value order, each standing for `count` observations of
    /// `value` (a zero count stands for none). Returns `None` when the
    /// runs hold no observation.
    ///
    /// Bit-identical to [`Self::from_unsorted`] on the expanded multiset
    /// for any finite values. Order statistics come from cumulative
    /// counts, whiskers and outliers from one walk over the runs, and the
    /// mean replays each run's `count` additions of `value` in order —
    /// the sequential sum [`Self::from_sorted`] takes, which `value ·
    /// count` would not reproduce for non-integer values. So the mean
    /// costs O(observations) additions; everything else O(runs).
    pub fn from_runs(runs: &[(f64, u64)]) -> Option<Self> {
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 <= w[1].0),
            "runs must be sorted"
        );
        let n = runs.iter().map(|&(_, c)| c as u128).sum::<u128>();
        if n == 0 {
            return None;
        }
        let n = usize::try_from(n).expect("observation count fits usize");
        // k-th (0-based) order statistic via a cumulative walk.
        let value_at = |k: usize| -> f64 {
            let mut seen = 0usize;
            for &(v, c) in runs {
                seen += c as usize;
                if seen > k {
                    return v;
                }
            }
            unreachable!("k < n by construction")
        };
        let q1 = interp_quantile(n, 0.25, value_at);
        let median = interp_quantile(n, 0.50, value_at);
        let q3 = interp_quantile(n, 0.75, value_at);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let present = || runs.iter().copied().filter(|&(_, c)| c > 0);
        let min = present().next().expect("non-empty").0;
        let max = present().next_back().expect("non-empty").0;
        let whisker_lo = present()
            .map(|(v, _)| v)
            .find(|&v| v >= lo_fence)
            .unwrap_or(min)
            .min(q1);
        let whisker_hi = present()
            .map(|(v, _)| v)
            .rev()
            .find(|&v| v <= hi_fence)
            .unwrap_or(max)
            .max(q3);
        let outliers = present()
            .filter(|&(v, _)| v < whisker_lo || v > whisker_hi)
            .map(|(_, c)| c as usize)
            .sum();
        let mean = runs
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat(v).take(c as usize))
            .sum::<f64>()
            / n as f64;
        Some(Self {
            n,
            mean,
            median,
            q1,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
            min,
            max,
        })
    }
}

/// Linear-interpolation quantile over `n` ascending order statistics,
/// `at(k)` the k-th (0-based) of them (type-7 estimator, the
/// NumPy/matplotlib default).
fn interp_quantile(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 1 {
        return at(0);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = pos - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_box() {
        let s = BoxplotSummary::from_unsorted(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 5.0);
        assert_eq!(s.outliers, 0);
    }

    #[test]
    fn outlier_is_fenced() {
        // 1..=9 plus an extreme point: IQR fences exclude 100.
        let mut v: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        v.push(100.0);
        let s = BoxplotSummary::from_unsorted(&v).unwrap();
        assert_eq!(s.outliers, 1);
        assert_eq!(s.whisker_hi, 9.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn interpolated_quartiles_match_numpy() {
        // numpy.percentile([1,2,3,4], 25) = 1.75 ; 75 → 3.25
        let s = BoxplotSummary::from_unsorted(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.q1 - 1.75).abs() < 1e-12);
        assert!((s.q3 - 3.25).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn singleton() {
        let s = BoxplotSummary::from_unsorted(&[7.0]).unwrap();
        assert_eq!(s.median, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(s.outliers, 0);
    }

    #[test]
    fn empty_is_none() {
        assert!(BoxplotSummary::from_unsorted(&[]).is_none());
    }

    #[test]
    fn from_counts_empty_is_none() {
        assert!(BoxplotSummary::from_counts(&[]).is_none());
        assert!(BoxplotSummary::from_counts(&[0, 0, 0]).is_none());
    }

    #[test]
    fn from_counts_singleton() {
        let s = BoxplotSummary::from_counts(&[0, 0, 3]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.mean, 2.0);
    }

    /// Every field by bit pattern.
    fn bits(s: &BoxplotSummary) -> [u64; 10] {
        [
            s.n as u64,
            s.mean.to_bits(),
            s.median.to_bits(),
            s.q1.to_bits(),
            s.q3.to_bits(),
            s.whisker_lo.to_bits(),
            s.whisker_hi.to_bits(),
            s.outliers as u64,
            s.min.to_bits(),
            s.max.to_bits(),
        ]
    }

    proptest! {
        /// The bit-identity contract `from_counts` is built on: on any
        /// integer multiset it reproduces `from_unsorted` exactly.
        #[test]
        fn from_counts_matches_from_unsorted(counts in proptest::collection::vec(0u64..50, 1..130)) {
            let expanded: Vec<f64> = counts
                .iter()
                .enumerate()
                .flat_map(|(v, &c)| std::iter::repeat(v as f64).take(c as usize))
                .collect();
            prop_assume!(!expanded.is_empty());
            let a = BoxplotSummary::from_counts(&counts).unwrap();
            let b = BoxplotSummary::from_unsorted(&expanded).unwrap();
            prop_assert_eq!(a.n, b.n);
            prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            prop_assert_eq!(a.median.to_bits(), b.median.to_bits());
            prop_assert_eq!(a.q1.to_bits(), b.q1.to_bits());
            prop_assert_eq!(a.q3.to_bits(), b.q3.to_bits());
            prop_assert_eq!(a.whisker_lo.to_bits(), b.whisker_lo.to_bits());
            prop_assert_eq!(a.whisker_hi.to_bits(), b.whisker_hi.to_bits());
            prop_assert_eq!(a.outliers, b.outliers);
            prop_assert_eq!(a.min.to_bits(), b.min.to_bits());
            prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
        }

        /// `from_runs` is `from_unsorted` on the expanded multiset, bit for
        /// bit: minute spans mapped to days (non-integer values, heavy
        /// duplication) and arbitrary finite values alike.
        #[test]
        fn from_runs_matches_from_unsorted(
            minutes in proptest::collection::vec((0u64..2_000, 1u64..40), 1..80),
            finite in proptest::collection::vec((any::<f64>(), 0u64..12), 1..40),
        ) {
            let mut by_minute = std::collections::BTreeMap::new();
            for (m, c) in minutes {
                *by_minute.entry(m).or_insert(0u64) += c;
            }
            let days: Vec<(f64, u64)> =
                by_minute.into_iter().map(|(m, c)| (m as f64 / 1440.0, c)).collect();
            let mut finite = finite;
            finite.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            for runs in [days, finite] {
                let expanded: Vec<f64> = runs
                    .iter()
                    .flat_map(|&(v, c)| std::iter::repeat(v).take(c as usize))
                    .collect();
                let a = BoxplotSummary::from_runs(&runs);
                let b = BoxplotSummary::from_unsorted(&expanded);
                prop_assert_eq!(a.map(|s| bits(&s)), b.map(|s| bits(&s)));
            }
        }

        #[test]
        fn ordering_invariants(v in proptest::collection::vec(-1e4..1e4f64, 1..300)) {
            let s = BoxplotSummary::from_unsorted(&v).unwrap();
            prop_assert!(s.min <= s.whisker_lo);
            prop_assert!(s.whisker_lo <= s.q1 + 1e-9);
            prop_assert!(s.q1 <= s.median + 1e-9);
            prop_assert!(s.median <= s.q3 + 1e-9);
            prop_assert!(s.q3 - 1e-9 <= s.whisker_hi);
            prop_assert!(s.whisker_hi <= s.max);
            prop_assert!(s.outliers <= s.n);
            prop_assert!((s.min..=s.max).contains(&s.mean));
        }
    }
}
