//! Distribution samplers built on [`SimRng`]'s uniform draws: the
//! handful of distributions the population model needs — lognormal
//! (via probit), gamma (Marsaglia–Tsang), beta (gamma ratio), and a
//! bounded Pareto for the heavy scan-count tail.

use crate::rng::SimRng;
use vt_stats::special::probit;

/// Standard normal draw via inverse-CDF of a uniform (one uniform per
/// draw; deterministic given the RNG stream).
pub fn normal(rng: &mut SimRng) -> f64 {
    let u = rng.range_f64(1e-12, 1.0 - 1e-12);
    probit(u)
}

/// Lognormal draw with the given median and σ (of the underlying
/// normal): `median · exp(σ·Z)`.
pub fn lognormal(rng: &mut SimRng, median: f64, sigma: f64) -> f64 {
    debug_assert!(median > 0.0 && sigma >= 0.0);
    median * (sigma * normal(rng)).exp()
}

/// Gamma(α, 1) draw via Marsaglia–Tsang (with the α < 1 boost).
pub fn gamma(rng: &mut SimRng, alpha: f64) -> f64 {
    debug_assert!(alpha > 0.0, "gamma requires alpha > 0");
    if alpha < 1.0 {
        // Boost: X ~ Gamma(α+1) · U^(1/α).
        let x = gamma(rng, alpha + 1.0);
        let u = rng.range_f64(1e-300, 1.0);
        return x * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = normal(rng);
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.range_f64(1e-300, 1.0);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Beta(a, b) draw via the gamma ratio.
pub fn beta(rng: &mut SimRng, a: f64, b: f64) -> f64 {
    let x = gamma(rng, a);
    let y = gamma(rng, b);
    (x / (x + y)).clamp(0.0, 1.0)
}

/// Bounded Pareto draw on `[lo, hi]` with shape α (heavy right tail).
/// Used for the extreme reports-per-sample tail (the paper's most
/// rescanned sample has 64,168 reports).
pub fn bounded_pareto(rng: &mut SimRng, alpha: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
    let u = rng.range_f64(0.0, 1.0);
    let la = lo.powf(alpha);
    let ha = hi.powf(alpha);
    // Inverse CDF of the truncated Pareto.
    let x = (-(u * (ha - la) - ha) / (ha * la)).powf(-1.0 / alpha);
    x.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xD157)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let z = normal(&mut r);
            sum += z;
            sum2 += z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let mut v: Vec<f64> = (0..100_001).map(|_| lognormal(&mut r, 5.0, 1.0)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 5.0).abs() < 0.15, "median = {median}");
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn gamma_mean_and_variance() {
        // Gamma(α,1): mean = α, var = α.
        for &alpha in &[0.5, 1.0, 2.5, 9.0] {
            let mut r = rng();
            let n = 100_000;
            let mut sum = 0.0;
            let mut sum2 = 0.0;
            for _ in 0..n {
                let x = gamma(&mut r, alpha);
                assert!(x >= 0.0);
                sum += x;
                sum2 += x * x;
            }
            let mean = sum / n as f64;
            let var = sum2 / n as f64 - mean * mean;
            assert!(
                (mean - alpha).abs() < 0.05 * alpha.max(1.0),
                "α={alpha} mean={mean}"
            );
            assert!(
                (var - alpha).abs() < 0.12 * alpha.max(1.0),
                "α={alpha} var={var}"
            );
        }
    }

    #[test]
    fn beta_mean() {
        // Beta(a,b): mean = a/(a+b).
        for &(a, b) in &[(2.0, 3.0), (0.8, 4.0), (5.0, 1.5)] {
            let mut r = rng();
            let n = 80_000;
            let mut sum = 0.0;
            for _ in 0..n {
                let x = beta(&mut r, a, b);
                assert!((0.0..=1.0).contains(&x));
                sum += x;
            }
            let mean = sum / n as f64;
            let expect = a / (a + b);
            assert!((mean - expect).abs() < 0.01, "Beta({a},{b}) mean={mean}");
        }
    }

    #[test]
    fn bounded_pareto_in_bounds_and_heavy() {
        let mut r = rng();
        let mut max_seen: f64 = 0.0;
        let mut in_low_decade = 0;
        let n = 50_000;
        for _ in 0..n {
            let x = bounded_pareto(&mut r, 1.0, 21.0, 50_000.0);
            assert!((21.0..=50_000.0).contains(&x));
            max_seen = max_seen.max(x);
            if x < 210.0 {
                in_low_decade += 1;
            }
        }
        // Heavy tail reaches far beyond the low decade…
        assert!(max_seen > 5_000.0, "max = {max_seen}");
        // …but most mass stays low.
        assert!(in_low_decade as f64 > 0.8 * n as f64);
    }
}
