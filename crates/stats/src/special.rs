//! Special functions needed for p-values: `ln Γ`, the regularized
//! incomplete beta function, and the Student-t CDF built on top of them.
//!
//! The Spearman significance test in the paper (§5.3.5 reports
//! p = 2.6083e-167) uses the usual t-approximation
//! `t = ρ·√((n−2)/(1−ρ²))` with `n−2` degrees of freedom. Evaluating that
//! requires the regularized incomplete beta function `I_x(a, b)`, which we
//! implement with the standard Lentz continued-fraction expansion
//! (Numerical Recipes §6.4). Accuracy is ~1e-12 over the domain we use,
//! which is far more than the study needs.

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients). Valid for `x > 0`.
///
/// Accurate to ~1e-13 relative error on the positive axis.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, kept at published precision.
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]`, via the continued-fraction expansion with the usual
/// symmetry split for fast convergence.
pub fn betai(a: f64, b: f64, x: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "betai requires a, b > 0");
    debug_assert!((0.0..=1.0).contains(&x), "betai requires x in [0,1]");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Modified Lentz continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student-t distribution with `df` degrees of freedom,
/// evaluated at `t` — the reference [`student_t_two_sided_p`] is
/// checked against.
#[cfg(test)]
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    debug_assert!(df > 0.0, "degrees of freedom must be positive");
    if !t.is_finite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = df / (df + t * t);
    let p = 0.5 * betai(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value for a t statistic with `df` degrees of freedom:
/// `P(|T| >= |t|)`.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    let x = df / (df + t * t);
    // betai can underflow to exactly 0 for enormous |t|; that is the
    // honest answer at f64 precision.
    betai(0.5 * df, 0.5, x).clamp(0.0, 1.0)
}

/// Inverse CDF of the standard normal distribution (probit function),
/// via Acklam's rational approximation (relative error < 1.15e-9 —
/// far beyond what distribution sampling needs).
///
/// Used to turn uniform hash-derived variates into normal/lognormal
/// draws deterministically (no RNG state).
pub fn probit(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probit requires p in [0,1]");
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Acklam coefficients, kept at published precision.
    #[allow(clippy::excessive_precision)]
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// CDF of the standard normal distribution, via the incomplete beta
/// relation is overkill — use the erf-based formula with Abramowitz &
/// Stegun 7.1.26-grade accuracy from `erfc_approx`. The reference
/// [`probit`] is checked against.
#[cfg(test)]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc_approx(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function approximation (A&S 7.1.26 derivative;
/// absolute error < 1.2e-7 — plenty for the shape comparisons here).
#[cfg(test)]
fn erfc_approx(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(0.5) = √π
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(3.0), 2.0f64.ln(), 1e-12));
        assert!(close(ln_gamma(4.0), 6.0f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        // Γ(10) = 362880
        assert!(close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // Γ(x+1) = x Γ(x)  ⇒  lnΓ(x+1) = ln x + lnΓ(x)
        for &x in &[0.3, 0.7, 1.4, 2.5, 5.9, 17.3, 123.4] {
            assert!(
                close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11),
                "recurrence failed at {x}"
            );
        }
    }

    #[test]
    fn betai_boundary_values() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn betai_symmetry() {
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.2), (5.0, 1.5, 0.77)] {
            assert!(close(betai(a, b, x), 1.0 - betai(b, a, 1.0 - x), 1e-12));
        }
    }

    #[test]
    fn betai_uniform_case() {
        // I_x(1,1) = x
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!(close(betai(1.0, 1.0, x), x, 1e-12));
        }
    }

    #[test]
    fn betai_known_value() {
        // I_{0.5}(2, 2) = 0.5 (by symmetry); I_{0.25}(2,2) = 0.15625
        assert!(close(betai(2.0, 2.0, 0.5), 0.5, 1e-12));
        // ∫0..x 6 t (1−t) dt = 3x² − 2x³ → at 0.25: 3/16 − 2/64 = 0.15625
        assert!(close(betai(2.0, 2.0, 0.25), 0.15625, 1e-12));
    }

    #[test]
    fn t_cdf_is_symmetric_and_monotone() {
        for &df in &[1.0, 3.0, 10.0, 100.0] {
            assert!(close(student_t_cdf(0.0, df), 0.5, 1e-12));
            assert!(close(
                student_t_cdf(1.7, df) + student_t_cdf(-1.7, df),
                1.0,
                1e-12
            ));
            let mut last = 0.0;
            for i in -40..=40 {
                let v = student_t_cdf(i as f64 / 4.0, df);
                assert!(v >= last - 1e-15, "CDF must be nondecreasing");
                last = v;
            }
        }
    }

    #[test]
    fn t_cdf_matches_reference_values() {
        // Reference values from the standard t tables / scipy.stats.t.cdf.
        // df=10, t=2.228 → 0.975 (the classic 95% two-sided critical value)
        assert!(close(student_t_cdf(2.228, 10.0), 0.975, 2e-4));
        // df=1 is the Cauchy distribution: CDF(1) = 0.75
        assert!(close(student_t_cdf(1.0, 1.0), 0.75, 1e-10));
        // Large df approaches the normal: CDF(1.959964) ≈ 0.975
        assert!(close(student_t_cdf(1.959964, 1.0e6), 0.975, 1e-5));
    }

    #[test]
    fn two_sided_p_matches_cdf() {
        for &(t, df) in &[(2.5, 12.0), (0.3, 5.0), (4.4, 60.0)] {
            let p = student_t_two_sided_p(t, df);
            let via_cdf = 2.0 * (1.0 - student_t_cdf(t.abs(), df));
            assert!(close(p, via_cdf, 1e-9));
        }
    }

    #[test]
    fn probit_known_values() {
        assert!(close(probit(0.5), 0.0, 1e-9));
        // Φ⁻¹(0.975) = 1.959963984540054
        assert!(close(probit(0.975), 1.959_963_984_540_054, 1e-8));
        assert!(close(probit(0.025), -1.959_963_984_540_054, 1e-8));
        // Φ⁻¹(0.84134474...) ≈ 1
        assert!(close(probit(0.841_344_746_068_543), 1.0, 1e-8));
        assert_eq!(probit(0.0), f64::NEG_INFINITY);
        assert_eq!(probit(1.0), f64::INFINITY);
    }

    #[test]
    fn probit_inverts_normal_cdf() {
        for i in 1..40 {
            let p = i as f64 / 40.0;
            let x = probit(p);
            assert!(close(normal_cdf(x), p, 2e-6), "p = {p}");
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!(close(normal_cdf(0.0), 0.5, 1e-7));
        for &x in &[0.3, 1.0, 2.5] {
            assert!(close(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-7));
        }
    }

    #[test]
    fn two_sided_p_extreme_t_underflows_to_zero_like_values() {
        // Huge |t| with many dof: p must be vanishingly small, not NaN.
        let p = student_t_two_sided_p(60.0, 1.0e5);
        assert!(p.is_finite());
        assert!(p < 1e-100);
    }
}
