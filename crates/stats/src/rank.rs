//! Rank assignment with tie handling ("average" / fractional ranks), the
//! preprocessing step for Spearman correlation.

/// Assigns 1-based average ranks to `data`, resolving ties by assigning
/// every member of a tie group the mean of the ranks the group spans
/// (the "fractional ranks" convention used by SciPy and R).
///
/// Non-finite values are not supported and will panic in debug builds;
/// the study's inputs are always finite counts and durations.
///
/// # Examples
///
/// ```
/// let ranks = vt_stats::average_ranks(&[10.0, 20.0, 20.0, 30.0]);
/// assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
/// ```
pub fn average_ranks(data: &[f64]) -> Vec<f64> {
    debug_assert!(
        data.iter().all(|v| v.is_finite()),
        "average_ranks requires finite inputs"
    );
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    // Total order is fine: inputs are finite.
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("finite inputs"));

    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        // Find the extent of the tie group starting at sorted position i.
        let mut j = i + 1;
        while j < n && data[idx[j]] == data[idx[i]] {
            j += 1;
        }
        // Positions i..j (0-based) hold ranks i+1 ..= j (1-based).
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in &idx[i..j] {
            ranks[k] = avg;
        }
        i = j;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_ties_gives_permutation_ranks() {
        let ranks = average_ranks(&[3.0, 1.0, 2.0]);
        assert_eq!(ranks, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn all_equal_gives_midrank() {
        let ranks = average_ranks(&[5.0, 5.0, 5.0]);
        assert_eq!(ranks, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(average_ranks(&[]).is_empty());
        assert_eq!(average_ranks(&[42.0]), vec![1.0]);
    }

    #[test]
    fn mixed_ties() {
        // values: 1 2 2 3 3 3 → ranks 1, 2.5, 2.5, 5, 5, 5
        let ranks = average_ranks(&[1.0, 2.0, 2.0, 3.0, 3.0, 3.0]);
        assert_eq!(ranks, vec![1.0, 2.5, 2.5, 5.0, 5.0, 5.0]);
    }

    proptest! {
        #[test]
        fn rank_sum_is_invariant(v in proptest::collection::vec(-1e6..1e6f64, 0..200)) {
            // Σ ranks = n(n+1)/2 regardless of ties.
            let n = v.len() as f64;
            let sum: f64 = average_ranks(&v).iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        }

        #[test]
        fn ranks_preserve_order(v in proptest::collection::vec(-1e6..1e6f64, 2..100)) {
            let r = average_ranks(&v);
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if v[i] < v[j] {
                        prop_assert!(r[i] < r[j]);
                    } else if v[i] == v[j] {
                        prop_assert!(r[i] == r[j]);
                    }
                }
            }
        }
    }
}
