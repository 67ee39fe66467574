//! Non-volatile data retention.
//!
//! A ferroelectric bit decays through depolarization-field-driven
//! relaxation of the weakest domains: the retained polarization follows a
//! stretched-exponential (Kohlrausch) law
//!
//! ```text
//! Pr(t) = Pr(0) · exp(−(t/τ_ret)^β)
//! ```
//!
//! with a retention time constant τ_ret that is thermally activated
//! (Arrhenius). This module quantifies the "non-volatile" row of the
//! paper's Fig 1 comparison: years of retention at 300 K versus DRAM's
//! 64 ms refresh interval, and it feeds the elevated-temperature check of
//! Section VII (retention at the 352 K stack operating point).

use crate::params::MfmParams;
use crate::BOLTZMANN;
use serde::{Deserialize, Serialize};

/// Electron-volt in joules.
const EV: f64 = 1.602_176_634e-19;

/// Stretched-exponential retention model with Arrhenius temperature
/// acceleration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionModel {
    /// Retention time constant at the reference temperature (300 K), s.
    pub tau_300k_s: f64,
    /// Kohlrausch stretching exponent β ∈ (0, 1].
    pub beta: f64,
    /// Activation energy of the depolarization process, eV.
    pub activation_ev: f64,
}

impl RetentionModel {
    /// HfO₂-class defaults, calibrated to the usual product spec of
    /// ten-year retention at 85 °C (358 K): τ(300 K) ≈ 8 × 10¹¹ s,
    /// β = 0.4, 1.1 eV activation.
    pub fn hfo2_default() -> Self {
        Self {
            tau_300k_s: 8e11,
            beta: 0.4,
            activation_ev: 1.1,
        }
    }

    /// Builds the model from device parameters (currently the HfO₂
    /// defaults; the hook exists so parameter sets can carry their own
    /// retention figures later).
    pub fn from_params(_params: &MfmParams) -> Self {
        Self::hfo2_default()
    }

    /// Temperature-accelerated retention time constant at `t_k`, s.
    pub fn tau_s(&self, t_k: f64) -> f64 {
        let ea = self.activation_ev * EV;
        let t_k = t_k.max(1.0);
        self.tau_300k_s * (ea / BOLTZMANN * (1.0 / t_k - 1.0 / 300.0)).exp()
    }

    /// Fraction of the remanent polarization retained after `t_s` seconds
    /// at temperature `t_k`.
    ///
    /// ```
    /// let m = felim_ferro::retention::RetentionModel::hfo2_default();
    /// // Ten years at room temperature: still above the sense floor.
    /// let ten_years = 10.0 * 365.25 * 86400.0;
    /// assert!(m.retained_fraction(ten_years, 300.0) > 0.5);
    /// ```
    pub fn retained_fraction(&self, t_s: f64, t_k: f64) -> f64 {
        if t_s <= 0.0 {
            return 1.0;
        }
        let tau = self.tau_s(t_k);
        (-(t_s / tau).powf(self.beta)).exp()
    }

    /// Time (s) until the retained fraction falls to `floor` at
    /// temperature `t_k` — the retention figure of merit.
    pub fn retention_time_s(&self, floor: f64, t_k: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&floor) && floor > 0.0,
            "floor must be in (0, 1), got {floor}"
        );
        let tau = self.tau_s(t_k);
        tau * (-floor.ln()).powf(1.0 / self.beta)
    }

    /// Probability that one bit has decayed past the sense floor after
    /// `t_s` seconds at `t_k` — the architecture-level rate-derivation
    /// hook for drift-aware fault processes.
    ///
    /// The per-bit failure CDF is a Weibull `1 − exp(−(t/t_fail)^k)`
    /// centred on `t_fail`, the [`RetentionModel::retention_time_s`] of
    /// the given floor: at `t = t_fail` a fraction `1 − 1/e` of the bits
    /// has crossed it. The shape `k` is NOT the Kohlrausch β: β < 1
    /// describes the *population-average* polarization (weak domains
    /// relax first), but one stored bit only fails when its own many-
    /// domain average crosses the floor, and averaging narrows the
    /// lifetime spread — so per-bit lifetimes cluster around `t_fail`
    /// (shape 3) instead of inheriting the population's heavy early
    /// tail. A β-shaped per-bit CDF would lose ~0.2 % of bits on day
    /// one of a nominal ten-year part, which no retention-qualified
    /// product exhibits.
    ///
    /// # Panics
    ///
    /// Panics unless `floor ∈ (0, 1)`.
    pub fn bit_failure_probability(&self, t_s: f64, t_k: f64, floor: f64) -> f64 {
        if t_s <= 0.0 {
            return 0.0;
        }
        weibull_cdf(t_s, self.retention_time_s(floor, t_k))
    }

    /// Incremental per-bit failure probability over the interval
    /// `(t0_s, t1_s]` since the last write, conditioned on having
    /// survived to `t0_s` — the hazard a time-stepped fault process
    /// applies per tick so that accumulated ticks reproduce the
    /// un-stepped CDF.
    ///
    /// # Panics
    ///
    /// Panics unless `floor ∈ (0, 1)` or if `t1_s < t0_s`.
    pub fn bit_failure_hazard(&self, t0_s: f64, t1_s: f64, t_k: f64, floor: f64) -> f64 {
        assert!(t1_s >= t0_s, "interval must advance: {t0_s} → {t1_s}");
        // Both ends share one figure of merit; the interval itself is
        // what the hazard differences.
        let t_fail = self.retention_time_s(floor, t_k);
        let f0 = weibull_cdf(t0_s, t_fail);
        let f1 = weibull_cdf(t1_s, t_fail);
        let survival = 1.0 - f0;
        if survival <= f64::EPSILON {
            return 1.0;
        }
        ((f1 - f0) / survival).clamp(0.0, 1.0)
    }
}

/// The per-bit lifetime CDF of
/// [`RetentionModel::bit_failure_probability`] at hold time `t_s`
/// around the figure of merit `t_fail`: 0 for `t_s <= 0`.
fn weibull_cdf(t_s: f64, t_fail: f64) -> f64 {
    /// Weibull shape of the per-bit lifetime distribution.
    const BIT_LIFETIME_SHAPE: f64 = 3.0;
    if t_s <= 0.0 {
        return 0.0;
    }
    1.0 - (-(t_s / t_fail).powf(BIT_LIFETIME_SHAPE)).exp()
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self::hfo2_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const YEAR_S: f64 = 365.25 * 86400.0;

    fn m() -> RetentionModel {
        RetentionModel::hfo2_default()
    }

    #[test]
    fn fresh_state_is_fully_retained() {
        assert_eq!(m().retained_fraction(0.0, 300.0), 1.0);
        assert_eq!(m().retained_fraction(-5.0, 300.0), 1.0);
    }

    #[test]
    fn ten_year_retention_at_room_temperature() {
        // The non-volatility claim of Fig 1, quantified.
        let retained = m().retained_fraction(10.0 * YEAR_S, 300.0);
        assert!(retained > 0.5, "10-year retention {retained}");
        // And the 50 % retention time exceeds a decade.
        assert!(m().retention_time_s(0.5, 300.0) > 10.0 * YEAR_S);
    }

    #[test]
    fn retention_is_monotone_decreasing_in_time() {
        let model = m();
        let mut last = 1.1;
        for exp in 0..12 {
            let f = model.retained_fraction(10f64.powi(exp), 300.0);
            assert!(f < last);
            assert!(f > 0.0);
            last = f;
        }
    }

    #[test]
    fn temperature_accelerates_loss() {
        let model = m();
        let t = YEAR_S;
        let cold = model.retained_fraction(t, 300.0);
        let stack = model.retained_fraction(t, 352.0);
        let hot = model.retained_fraction(t, 390.0);
        assert!(cold > stack);
        assert!(stack > hot);
        // At the Fig 7 stack operating point data still holds for months:
        assert!(model.retention_time_s(0.5, 352.0) > 30.0 * 86400.0);
    }

    #[test]
    fn arrhenius_tau_is_consistent() {
        let model = m();
        assert!((model.tau_s(300.0) - model.tau_300k_s).abs() < 1e-3 * model.tau_300k_s);
        assert!(model.tau_s(390.0) < model.tau_s(300.0));
    }

    #[test]
    fn retention_dwarfs_dram_refresh_interval() {
        // Fig 1 comparison: FeRAM retention time vs DRAM's 64 ms.
        let feram = m().retention_time_s(0.9, 300.0);
        assert!(feram / 64e-3 > 1e6, "FeRAM/DRAM retention ratio");
    }

    #[test]
    #[should_panic(expected = "floor must be in")]
    fn rejects_bad_floor() {
        let _ = m().retention_time_s(1.5, 300.0);
    }

    #[test]
    fn bit_failure_probability_tracks_the_weibull_cdf() {
        let model = m();
        assert_eq!(model.bit_failure_probability(0.0, 300.0, 0.5), 0.0);
        let t_fail = model.retention_time_s(0.5, 300.0);
        let at_fail = model.bit_failure_probability(t_fail, 300.0, 0.5);
        assert!((at_fail - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        // Monotone in time, and hotter fails sooner.
        let early = model.bit_failure_probability(t_fail / 100.0, 300.0, 0.5);
        assert!(early < at_fail);
        assert!(
            model.bit_failure_probability(1e9, 390.0, 0.5)
                > model.bit_failure_probability(1e9, 300.0, 0.5)
        );
    }

    #[test]
    fn hazard_ticks_compose_to_the_cdf() {
        // Surviving three consecutive hazards must equal surviving the
        // whole interval: Π(1 − h_i) == 1 − F(t3). The interval sits in
        // the rising part of the CDF so the identity is non-degenerate.
        let model = m();
        let (t_k, floor) = (390.0, 0.5);
        let ts = [0.0, 1e6, 2e6, 3e6];
        let mut survival = 1.0;
        for w in ts.windows(2) {
            survival *= 1.0 - model.bit_failure_hazard(w[0], w[1], t_k, floor);
        }
        let direct = 1.0 - model.bit_failure_probability(ts[3], t_k, floor);
        assert!((survival - direct).abs() < 1e-12, "{survival} vs {direct}");
        assert!(direct < 1.0 - 1e-4, "interval must not be degenerate");
    }

    #[test]
    fn hazard_is_bit_identical_to_differencing_two_cdf_calls() {
        // The formula before the figure of merit was shared between the
        // two ends: each end called `bit_failure_probability`, and so
        // `retention_time_s`, on its own.
        fn two_call_hazard(m: &RetentionModel, t0: f64, t1: f64, t_k: f64, floor: f64) -> f64 {
            let f0 = m.bit_failure_probability(t0, t_k, floor);
            let f1 = m.bit_failure_probability(t1, t_k, floor);
            let survival = 1.0 - f0;
            if survival <= f64::EPSILON {
                return 1.0;
            }
            ((f1 - f0) / survival).clamp(0.0, 1.0)
        }
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let compressed = RetentionModel {
            tau_300k_s: 2e9,
            ..m()
        };
        let mut rng = StdRng::seed_from_u64(27);
        for i in 0..20_000 {
            let model = if i % 2 == 0 { m() } else { compressed };
            let t_k = rng.gen_range(250.0..450.0);
            let floor = rng.gen_range(0.05..0.95);
            // Hold times from zero (and the exact-zero start of a fresh
            // row) out past the figure of merit.
            let t0 = match i % 4 {
                0 => 0.0,
                _ => 10f64.powf(rng.gen_range(-3.0..11.0)),
            };
            let t1 = t0 + 10f64.powf(rng.gen_range(-3.0..10.0)) * f64::from(i % 5 != 0);
            let shared = model.bit_failure_hazard(t0, t1, t_k, floor);
            let apart = two_call_hazard(&model, t0, t1, t_k, floor);
            assert_eq!(shared.to_bits(), apart.to_bits(), "({t0}, {t1}, {t_k}, {floor})");
        }
    }

    #[test]
    fn day_one_bit_failures_are_negligible_at_room_temperature() {
        // The reason the per-bit CDF is not β-shaped: a fresh part must
        // not shed bits on day one.
        let p = m().bit_failure_probability(86_400.0, 300.0, 0.5);
        assert!(p < 1e-12, "day-one per-bit failure {p}");
    }
}
