//! Sample identifiers.
//!
//! The paper aggregates 847 M reports onto 571 M unique samples *by
//! hash*. We use an opaque 128-bit identifier: wide enough that the
//! simulator can mint identifiers without collision bookkeeping, small
//! enough to use as a map key everywhere.

use core::fmt;

/// A 128-bit sample identifier (stand-in for the SHA-256 the real
/// platform uses; 128 bits keeps collision probability negligible at
/// simulated scales while halving index size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SampleHash(pub u128);

impl SampleHash {
    /// Derives a hash from a 64-bit ordinal using two rounds of
    /// SplitMix64 (high and low words), giving a well-mixed, collision-free
    /// mapping from ordinals to identifiers.
    pub fn from_ordinal(ordinal: u64) -> Self {
        let hi = splitmix64(ordinal ^ GAMMA);
        let lo = splitmix64(ordinal.wrapping_add(MUL1));
        Self(((hi as u128) << 64) | lo as u128)
    }

    /// The inverse of [`from_ordinal`](Self::from_ordinal): the ordinal
    /// whose identifier this is, or `None` when no ordinal's is. The high
    /// word alone names the candidate ([`unsplitmix64`] is exact); the
    /// low word confirms it.
    pub fn to_ordinal(self) -> Option<u64> {
        let ordinal = unsplitmix64((self.0 >> 64) as u64) ^ GAMMA;
        (Self::from_ordinal(ordinal) == self).then_some(ordinal)
    }

    /// A 64-bit digest of the identifier, used to seed per-sample
    /// deterministic randomness.
    pub fn seed64(self) -> u64 {
        (self.0 >> 64) as u64 ^ self.0 as u64
    }

    /// Hex rendering (32 nibbles), like the hashes in VT reports.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for SampleHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// SplitMix64's increment (the golden ratio) and its two multipliers.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL1: u64 = 0xbf58_476d_1ce4_e5b9;
const MUL2: u64 = 0x94d0_49bb_1331_11eb;

/// SplitMix64 finalizer — a cheap, high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(MUL1);
    z = (z ^ (z >> 27)).wrapping_mul(MUL2);
    z ^ (z >> 31)
}

/// The inverse of [`splitmix64`]: `unsplitmix64(splitmix64(z)) == z` for
/// every `z`. Each step of the finalizer is a bijection of `u64` — an
/// add, xor-shifts, multiplies by odd constants — undone here in
/// reverse order.
#[inline]
pub fn unsplitmix64(mut z: u64) -> u64 {
    const INV_MUL1: u64 = inverse_mod_2_64(MUL1);
    const INV_MUL2: u64 = inverse_mod_2_64(MUL2);
    z = unxorshift(z, 31).wrapping_mul(INV_MUL2);
    z = unxorshift(z, 27).wrapping_mul(INV_MUL1);
    unxorshift(z, 30).wrapping_sub(GAMMA)
}

/// Undoes `z ^ (z >> shift)`: `z` is `y ^ (y >> shift) ^ (y >> 2·shift) ^ …`.
#[inline]
const fn unxorshift(y: u64, shift: u32) -> u64 {
    let mut z = y;
    let mut k = shift;
    while k < 64 {
        z ^= y >> k;
        k += shift;
    }
    z
}

/// The multiplicative inverse of an odd `a` modulo 2⁶⁴, by Newton's
/// iteration: `a` is its own inverse to 3 bits, and each step doubles
/// the bits that are right (3 → 6 → … → 96).
const fn inverse_mod_2_64(a: u64) -> u64 {
    let mut x = a;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        step += 1;
    }
    x
}

/// The state [`mix64`] starts from (pi digits).
const MIX64_INIT: u64 = 0x243f_6a88_85a3_08d3;

/// Mixes several 64-bit words into one, for deriving per-(entity, counter)
/// deterministic random streams.
#[inline]
pub fn mix64(words: &[u64]) -> u64 {
    mix64_from(MIX64_INIT, words)
}

/// Resumes a [`mix64`] fold: `mix64(a ++ b) == mix64_from(mix64(a), b)`,
/// one [`splitmix64`] round per word. A caller whose keys share a prefix
/// hashes the prefix once and finishes each key from there.
#[inline]
pub fn mix64_from(acc: u64, words: &[u64]) -> u64 {
    words.iter().fold(acc, |acc, &w| splitmix64(acc ^ w))
}

/// Converts a mixed word into a uniform f64 in [0, 1).
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    // 53 high bits → [0, 1) with full double precision.
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn ordinals_do_not_collide() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(SampleHash::from_ordinal(i)), "collision at {i}");
        }
    }

    #[test]
    fn hex_is_32_nibbles() {
        let h = SampleHash::from_ordinal(42);
        assert_eq!(h.to_hex().len(), 32);
        assert_eq!(h.to_hex(), format!("{h}"));
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference values from the canonical splitmix64 with seed state 0:
        // first output is 0xe220a8397b1dcdaf.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn unit_f64_bounds() {
        assert!(unit_f64(0) >= 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn multiplier_inverses_are_exact() {
        for m in [MUL1, MUL2] {
            assert_eq!(m.wrapping_mul(inverse_mod_2_64(m)), 1);
        }
    }

    proptest! {
        #[test]
        fn unsplitmix_inverts_splitmix(z in any::<u64>()) {
            prop_assert_eq!(unsplitmix64(splitmix64(z)), z);
            prop_assert_eq!(splitmix64(unsplitmix64(z)), z);
        }

        #[test]
        fn to_ordinal_inverts_from_ordinal(ordinal in any::<u64>(), hi in any::<u64>(), lo in any::<u64>()) {
            prop_assert_eq!(SampleHash::from_ordinal(ordinal).to_ordinal(), Some(ordinal));
            // An arbitrary identifier is some ordinal's only by a 2^-64 chance.
            let arbitrary = SampleHash(((hi as u128) << 64) | lo as u128);
            prop_assert_eq!(arbitrary.to_ordinal(), None);
        }

        #[test]
        fn mix_is_deterministic(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(mix64(&[a, b]), mix64(&[a, b]));
        }

        #[test]
        fn mix_order_matters(a in any::<u64>(), b in any::<u64>()) {
            prop_assume!(a != b);
            prop_assert_ne!(mix64(&[a, b]), mix64(&[b, a]));
        }

        #[test]
        fn mix_resumes_at_any_split(words in proptest::collection::vec(any::<u64>(), 0..9)) {
            prop_assert_eq!(mix64(&words), mix64_from(MIX64_INIT, &words));
            for k in 0..=words.len() {
                prop_assert_eq!(mix64(&words), mix64_from(mix64(&words[..k]), &words[k..]));
            }
        }

        #[test]
        fn unit_f64_in_range(w in any::<u64>()) {
            let u = unit_f64(w);
            prop_assert!((0.0..1.0).contains(&u));
        }
    }
}
