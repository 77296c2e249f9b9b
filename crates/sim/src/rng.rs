//! The simulator's generator: xoshiro256++ seeded through splitmix64.
//!
//! Every stochastic choice in this crate draws from a [`SimRng`] seeded
//! with a `mix64` of the study seed and the entity being generated, so
//! streams are independent of generation order. The generator offers
//! exactly the draws the simulator makes; the streams are pinned by
//! `stream_is_pinned` below and, end to end, by the feed digests in
//! `tests/sim_properties.rs`.

use vt_model::hash::splitmix64;

/// The splitmix64 state increment: output `i` of a splitmix64 stream
/// seeded `seed` is `splitmix64(seed + i · γ)` ([`splitmix64`] adds γ
/// once more before mixing).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A small, fast, non-cryptographic generator (xoshiro256++).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Expands a 64-bit seed into the 256-bit state with four successive
    /// splitmix64 outputs.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            s: std::array::from_fn(|i| {
                splitmix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i as u64)))
            }),
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` by multiply-shift: unbiased enough for
    /// simulation spans (all ≪ 2^64), branch-free.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: empty range");
        lo + self.unit_f64() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorded from `SmallRng` of the vendored `rand` stand-in (which this
    /// module replaced) at the last commit that had it: per seed, the
    /// first eight words, then on the same stream a unit draw and an
    /// `f64` range draw over `1e-12..1.0 - 1e-12` (as bits), then the
    /// integer draws `0..527_040` and `0..=1000`.
    struct Pinned {
        seed: u64,
        words: [u64; 8],
        floats: [u64; 2],
        ints: [u64; 2],
    }

    const PINNED: [Pinned; 3] = [
        Pinned {
            seed: 0,
            words: [
                0x53175d61490b23df,
                0x61da6f3dc380d507,
                0x5c0fdf91ec9a7bfc,
                0x02eebf8c3bbe5e1a,
                0x7eca04ebaf4a5eea,
                0x0543c37757f08d9a,
                0xdb7490c75ab5026e,
                0xd87343e6464bc959,
            ],
            floats: [0x3fd2df682808e27c, 0x3fb300fc58c131f8],
            ints: [165_765, 66],
        },
        Pinned {
            seed: 42,
            words: [
                0xd0764d4f4476689f,
                0x519e4174576f3791,
                0xfbe07cfb0c24ed8c,
                0xb37d9f600cd835b8,
                0xcb231c3874846a73,
                0x968d9f004e50de7d,
                0x201718ff221a3556,
                0x9ae94e070ed8cb46,
            ],
            floats: [0x3fca9679ed784ae4, 0x3fedddfac6431816],
            ints: [294_899, 850],
        },
        Pinned {
            seed: u64::MAX,
            words: [
                0x56ccf8ce948e27b2,
                0xe68588432e5a5b90,
                0xe3e9b5a48119ca8b,
                0x460f19495532ae73,
                0xa7d62040ea9263e1,
                0x66f1fb2ac9402c14,
                0xe243b47de8a73f68,
                0x7c93fdab4c7b3dff,
            ],
            floats: [0x3fe450b6cbd00101, 0x3feb54530908452f],
            ints: [180_228, 644],
        },
    ];

    #[test]
    fn stream_is_pinned() {
        for Pinned {
            seed,
            words,
            floats,
            ints,
        } in PINNED
        {
            let mut rng = SimRng::seed_from_u64(seed);
            assert_eq!(words.map(|_| rng.next_u64()), words, "seed {seed:#x}");
            let got = [rng.unit_f64(), rng.range_f64(1e-12, 1.0 - 1e-12)];
            assert_eq!(got.map(f64::to_bits), floats, "seed {seed:#x}");
            // An exclusive range `0..n` and an inclusive one `0..=1000`.
            assert_eq!(
                [rng.below(527_040), rng.below(1000 + 1)],
                ints,
                "seed {seed:#x}"
            );
        }
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn ranges_hit_bounds_and_stay_inside() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1_000 {
            assert!(rng.below(6) < 6);
            let f = rng.range_f64(1e-12, 1.0 - 1e-12);
            assert!(f > 0.0 && f < 1.0);
        }
        assert_eq!(rng.below(1), 0);
    }
}
