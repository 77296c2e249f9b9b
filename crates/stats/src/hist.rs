//! Fixed-width histograms over non-negative integer observations.
//!
//! Several analyses bucket observations by small integer values (AV-Rank
//! 0..=70, rank differences 0..=70, day counts 0..=450). [`Histogram`]
//! keeps exact counts per integer value with a configurable upper bound
//! and an overflow bucket, and can convert into cumulative fractions.

/// Exact counts per integer value in `0..bound`, plus an overflow bucket
/// for values `>= bound`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram covering values `0..bound`.
    pub fn new(bound: usize) -> Self {
        Self {
            counts: vec![0; bound],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if (value as usize) < self.counts.len() {
            self.counts[value as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Merges another histogram with the same bound into this one.
    ///
    /// # Panics
    /// Panics if the bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bound mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Count for one in-range value.
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(value as usize).copied().unwrap_or(0)
    }

    /// Count of observations `>= bound`.
    #[cfg(test)]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations `<= value` (overflow counts only when the
    /// query reaches the bound).
    pub fn fraction_le(&self, value: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto = (value as usize + 1).min(self.counts.len());
        let mut c: u64 = self.counts[..upto].iter().sum();
        if value as usize >= self.counts.len() {
            c += self.overflow;
        }
        c as f64 / self.total as f64
    }

    /// The cumulative-fraction staircase over observed values only:
    /// `(value, F(value))` for values with nonzero count, plus a final
    /// entry for the overflow bucket if nonempty (rendered at `bound`).
    pub fn cumulative(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut acc = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                acc += c;
                out.push((v as u64, acc as f64 / self.total as f64));
            }
        }
        if self.overflow > 0 {
            acc += self.overflow;
            out.push((self.counts.len() as u64, acc as f64 / self.total as f64));
        }
        out
    }

    /// Mean of the recorded values (overflow contributes at `bound`).
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (v, &c) in self.counts.iter().enumerate() {
            sum += v as f64 * c as f64;
        }
        sum += self.counts.len() as f64 * self.overflow as f64;
        Some(sum / self.total as f64)
    }

    /// Smallest value `v` with `F(v) >= q` (nearest-rank quantile).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(v as u64);
            }
        }
        Some(self.counts.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_and_query() {
        let mut h = Histogram::new(5);
        for v in [0, 0, 1, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.fraction_le(0), 0.4);
        assert_eq!(h.fraction_le(3), 0.8);
        assert_eq!(h.fraction_le(10), 1.0);
    }

    #[test]
    fn cumulative_staircase() {
        let mut h = Histogram::new(4);
        for v in [1, 1, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.cumulative(), vec![(1, 0.5), (3, 1.0)]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(3);
        a.record(0);
        let mut b = Histogram::new(3);
        b.record(0);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn quantile_and_mean() {
        let mut h = Histogram::new(10);
        for v in [1u64, 2, 2, 3, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(h.quantile(1.0), Some(9));
        assert!((h.mean().unwrap() - 3.4).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn fraction_le_is_monotone(v in proptest::collection::vec(0..200u64, 0..300)) {
            let mut h = Histogram::new(100);
            for x in &v {
                h.record(*x);
            }
            let mut last = 0.0;
            for q in 0..=200u64 {
                let f = h.fraction_le(q);
                prop_assert!(f >= last - 1e-15);
                prop_assert!((0.0..=1.0).contains(&f));
                last = f;
            }
            if !v.is_empty() {
                prop_assert!((h.fraction_le(200) - 1.0).abs() < 1e-12);
            }
        }
    }
}
