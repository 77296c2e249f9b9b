//! Walker's alias method for O(1) weighted sampling.
//!
//! The population generator draws a file type for every sample from a
//! 351-way categorical distribution; at millions of samples a linear
//! CDF scan would dominate generation time. The alias method answers
//! each draw with one uniform and one comparison.

use crate::rng::SimRng;

/// A categorical distribution supporting O(1) sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (need not sum to 1).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "AliasTable requires weights");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be non-negative and finite"
        );
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");

        // Scale weights to mean 1.
        let scaled: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        let mut work = scaled;
        for (i, &w) in work.iter().enumerate() {
            if w < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = work[s];
            alias[s] = l as u32;
            work[l] = (work[l] + work[s]) - 1.0;
            if work[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Whatever remains (numerical leftovers) gets probability 1.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i as u32;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let i = rng.below(self.prob.len() as u64) as usize;
        if rng.unit_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_weights_statistically() {
        let weights = [1.0, 2.0, 4.0, 8.0, 1.0];
        let table = AliasTable::new(&weights);
        let mut rng = SimRng::seed_from_u64(1);
        let mut counts = [0u64; 5];
        let n = 400_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.005,
                "category {i}: expect {expect}, got {got}"
            );
        }
    }

    #[test]
    fn zero_weight_categories_never_drawn() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let i = table.sample(&mut rng);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn single_category() {
        let table = AliasTable::new(&[5.0]);
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(table.sample(&mut rng), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    #[should_panic(expected = "requires weights")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
