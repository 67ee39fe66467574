//! Multi-domain MFM capacitor.
//!
//! The total electrode charge at applied voltage `v` is
//!
//! ```text
//! Q(v) = [C_bg + C_dw·opposition(v)] · v  +  A · Ps_eff · p̄
//! ```
//!
//! where `p̄` is the mean normalized domain polarization, `opposition(v)` is
//! the fraction of domains anti-aligned with the field (reversible
//! domain-wall response), and `Ps_eff` folds in temperature and cycling
//! fatigue. Domain states evolve with Merz-law kinetics under applied
//! pulses, which yields:
//!
//! * full switching under write pulses (±3 V, < 300 ns — Fig 4(g,h)),
//! * a large read charge ΔQ₀ when the read field opposes the stored state
//!   and a small ΔQ₁ when aligned (QNRO contrast, Fig 2(b)),
//! * slow accumulative read disturb through the low-V_c tail of the domain
//!   distribution (the reason QNRO still eventually needs a write-back).

use crate::domain::{merz_tau, Domain, DomainBank, MerzSweep, Polarity};
use crate::endurance::pr_cycling_factor;
use crate::params::MfmParams;
use crate::temperature::TemperatureModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Outcome of applying a voltage pulse to an [`MfmCapacitor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PulseResult {
    /// Change in mean normalized polarization (dimensionless, in [-2, 2]).
    pub delta_p: f64,
    /// Irreversible switched charge in C (`A · Ps_eff · Δp̄`).
    pub switched_charge: f64,
    /// Total charge moved at the pulse plateau, in C, including the
    /// reversible linear + domain-wall components.
    pub total_charge: f64,
}

/// A multi-domain metal–ferroelectric–metal capacitor.
///
/// See the [module documentation](self) for the physical model. All charge
/// values are in coulombs, voltages in volts, times in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MfmCapacitor {
    params: MfmParams,
    temperature: TemperatureModel,
    /// Domain population in structure-of-arrays form: the per-iteration
    /// charge predictions sweep these as contiguous `f64` slices.
    domains: DomainBank,
    temperature_k: f64,
    /// Accumulated bipolar write cycles (two opposite writes = one cycle).
    cycles: f64,
    /// Reads performed since the last full write (disturb bookkeeping).
    reads_since_write: u64,
    last_write: Option<Polarity>,
}

impl MfmCapacitor {
    /// Creates a capacitor at 300 K with all domains in the `Down`
    /// (logical `'0'`) state, drawing the domain disorder deterministically
    /// from `params.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`MfmParams::validate`].
    pub fn new(params: &MfmParams) -> Self {
        params
            .validate()
            .expect("MfmCapacitor requires valid parameters");
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mu = params.vc_mean_v.ln();
        let domains: DomainBank = (0..params.n_domains)
            .map(|_| {
                // Box–Muller standard normal from two uniforms.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let vc = (mu + params.vc_sigma * z).exp();
                Domain::new(vc, -1.0)
            })
            .collect();
        Self {
            temperature: TemperatureModel::from_params(params),
            params: params.clone(),
            domains,
            temperature_k: crate::temperature::REFERENCE_K,
            cycles: 0.0,
            reads_since_write: 0,
            last_write: Some(Polarity::Down),
        }
    }

    /// The device parameters this capacitor was built from.
    pub fn params(&self) -> &MfmParams {
        &self.params
    }

    /// Current operating temperature in K.
    pub fn temperature_k(&self) -> f64 {
        self.temperature_k
    }

    /// Sets the operating temperature in K.
    pub fn set_temperature(&mut self, t_k: f64) {
        self.temperature_k = t_k;
    }

    /// Mean normalized polarization `p̄ ∈ [-1, +1]`.
    pub fn polarization(&self) -> f64 {
        let sum: f64 = self.domains.p_slice().iter().sum();
        sum / self.domains.len() as f64
    }

    /// Remanent polarization in C/m² including temperature and fatigue.
    pub fn polarization_c_m2(&self) -> f64 {
        self.ps_eff() * self.polarization()
    }

    /// Remanent polarization in µC/cm².
    pub fn polarization_uc_cm2(&self) -> f64 {
        crate::c_m2_to_uc_cm2(self.polarization_c_m2())
    }

    /// Accumulated bipolar write cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Number of QNRO reads since the last write (disturb bookkeeping).
    pub fn reads_since_write(&self) -> u64 {
        self.reads_since_write
    }

    /// Records one QNRO read against the disturb budget without applying
    /// any voltage — used by cell models that apply the read waveform via
    /// [`Self::apply_voltage`] themselves.
    pub fn count_read(&mut self) {
        self.reads_since_write += 1;
    }

    /// Effective spontaneous polarization (C/m²) after temperature and
    /// cycling-fatigue scaling.
    pub fn ps_eff(&self) -> f64 {
        self.params.ps_c_m2
            * self.temperature.ps_scale(self.temperature_k)
            * pr_cycling_factor(&self.params, self.cycles)
    }

    fn vc_scale(&self) -> f64 {
        self.temperature.vc_scale(self.temperature_k)
    }

    /// The relaxation kernel for a sweep of `dt` seconds at the current
    /// temperature.
    fn sweep(&self, dt: f64) -> MerzSweep {
        MerzSweep::new(
            self.vc_scale(),
            self.params.tau0_s,
            self.params.merz_alpha,
            self.params.merz_exp,
            dt,
        )
    }

    /// Fraction of domains anti-aligned with a field of sign `v_sign`,
    /// weighting each domain by how far it sits from the field target.
    fn opposition(&self, v_sign: f64) -> f64 {
        if v_sign == 0.0 {
            return 0.0;
        }
        let sum: f64 = self
            .domains
            .p_slice()
            .iter()
            .map(|&p| (1.0 - p * v_sign.signum()) * 0.5)
            .sum();
        sum / self.domains.len() as f64
    }

    /// Bias-dependent weight of the reversible domain-wall response:
    /// domain walls only depin above a threshold field (Rayleigh regime),
    /// modelled as a linear ramp reaching 1 at 30 % of the mean coercive
    /// voltage. Keeps weakly-biased (unselected) capacitors from loading
    /// a sense node state-dependently.
    fn dw_weight(&self, v: f64) -> f64 {
        (v.abs() / (0.3 * self.params.vc_mean_v)).clamp(0.0, 1.0)
    }

    /// Small-signal capacitance (F) at bias `v` with the current domain
    /// state frozen: background plus the (threshold-weighted) reversible
    /// domain-wall term.
    pub fn capacitance(&self, v: f64) -> f64 {
        self.params.background_capacitance()
            + self.params.domain_wall_capacitance()
                * self.opposition(v.signum())
                * self.dw_weight(v)
    }

    /// Total electrode charge (C) at voltage `v` with the current state.
    pub fn charge(&self, v: f64) -> f64 {
        self.capacitance(v) * v + self.params.area_m2 * self.ps_eff() * self.polarization()
    }

    /// Evolves the domain state for `dt` seconds at constant voltage `v`.
    /// Returns the change in mean normalized polarization.
    ///
    /// One fused stride-1 sweep over the domain bank, same scalar kernel
    /// per domain as [`Domain::step`].
    pub fn apply_voltage(&mut self, v: f64, dt: f64) -> f64 {
        if v == 0.0 || dt <= 0.0 {
            return 0.0;
        }
        let sweep = self.sweep(dt);
        let target = v.signum();
        let count = self.domains.len() as f64;
        let (vc, ps) = self.domains.vc_and_p_mut();
        let mut total = 0.0;
        for (&vc_v, p) in vc.iter().zip(ps) {
            let new = sweep.relax(vc_v, v, target, *p);
            total += new - std::mem::replace(p, new);
        }
        total / count
    }

    /// Predicts — without mutating state — the mean polarization after `dt`
    /// seconds at voltage `v`. Used by the circuit simulator's
    /// Newton–Raphson iterations.
    pub fn predict_polarization(&self, v: f64, dt: f64) -> f64 {
        if v == 0.0 || dt <= 0.0 {
            return self.polarization();
        }
        let sweep = self.sweep(dt);
        let target = v.signum();
        let sum: f64 = self
            .domains
            .vc_slice()
            .iter()
            .zip(self.domains.p_slice())
            .map(|(&vc_v, &p)| sweep.relax(vc_v, v, target, p))
            .sum();
        sum / self.domains.len() as f64
    }

    /// Predicted electrode charge (C) after `dt` seconds at voltage `v`,
    /// without mutating state. Companion of [`Self::predict_polarization`].
    ///
    /// Both the switched polarization and the domain-wall opposition are
    /// evaluated on the *predicted* domain state, so the value matches what
    /// [`Self::charge`] would report after committing the same step.
    pub fn predict_charge(&self, v: f64, dt: f64) -> f64 {
        let sweep = self.sweep(dt);
        let live = !(v == 0.0 || dt <= 0.0);
        let target = if v == 0.0 { 0.0 } else { v.signum() };
        let mut p_sum = 0.0;
        let mut opp_sum = 0.0;
        for (&vc_v, &p) in self.domains.vc_slice().iter().zip(self.domains.p_slice()) {
            let p_new = if live {
                sweep.relax(vc_v, v, target, p)
            } else {
                p
            };
            p_sum += p_new;
            opp_sum += (1.0 - p_new * target) * 0.5;
        }
        self.charge_from_sums(v, p_sum, opp_sum)
    }

    /// Predicted electrode charges at two voltages `v_a` and `v_b` after
    /// the same `dt`, in one fused pass over the domain bank.
    ///
    /// Bit-identical to calling [`Self::predict_charge`] twice — each
    /// voltage keeps its own accumulators, updated per domain in the same
    /// order — but evaluates the Merz kernel sweep once instead of
    /// twice-over. This is the circuit simulator's inner loop: every
    /// Newton iteration needs `Q(v)` and `Q(v + h)` for the finite-
    /// difference companion conductance.
    pub fn predict_charge_pair(&self, v_a: f64, v_b: f64, dt: f64) -> (f64, f64) {
        let sweep = self.sweep(dt);
        let live_a = !(v_a == 0.0 || dt <= 0.0);
        let live_b = !(v_b == 0.0 || dt <= 0.0);
        let target_a = if v_a == 0.0 { 0.0 } else { v_a.signum() };
        let target_b = if v_b == 0.0 { 0.0 } else { v_b.signum() };
        let (mut p_sum_a, mut opp_sum_a) = (0.0, 0.0);
        let (mut p_sum_b, mut opp_sum_b) = (0.0, 0.0);
        for (&vc_v, &p) in self.domains.vc_slice().iter().zip(self.domains.p_slice()) {
            let p_new_a = if live_a {
                sweep.relax(vc_v, v_a, target_a, p)
            } else {
                p
            };
            p_sum_a += p_new_a;
            opp_sum_a += (1.0 - p_new_a * target_a) * 0.5;
            let p_new_b = if live_b {
                sweep.relax(vc_v, v_b, target_b, p)
            } else {
                p
            };
            p_sum_b += p_new_b;
            opp_sum_b += (1.0 - p_new_b * target_b) * 0.5;
        }
        (
            self.charge_from_sums(v_a, p_sum_a, opp_sum_a),
            self.charge_from_sums(v_b, p_sum_b, opp_sum_b),
        )
    }

    /// Electrode charge at `v` from a predicted state's polarization sum
    /// and opposition sum over the domains.
    fn charge_from_sums(&self, v: f64, p_sum: f64, opp_sum: f64) -> f64 {
        let count = self.domains.len() as f64;
        let opposition = if v == 0.0 { 0.0 } else { opp_sum / count };
        let cap = self.params.background_capacitance()
            + self.params.domain_wall_capacitance() * opposition * self.dw_weight(v);
        cap * v + self.params.area_m2 * self.ps_eff() * p_sum / count
    }

    /// Evolves the domain state *stochastically*: instead of the mean-
    /// field exponential relaxation, each domain flips all-or-nothing
    /// with the Bernoulli probability `1 − exp(−dt/τ)` — the discrete
    /// nucleation events the Monte-Carlo model of Alessandri et al.
    /// describes. The expectation equals [`Self::apply_voltage`]; single
    /// shots show shot-to-shot switching noise. Returns the change in
    /// mean polarization.
    pub fn apply_voltage_stochastic<R: rand::Rng>(&mut self, v: f64, dt: f64, rng: &mut R) -> f64 {
        if v == 0.0 || dt <= 0.0 {
            return 0.0;
        }
        let vc_scale = self.vc_scale();
        let (tau0, alpha, n) = (
            self.params.tau0_s,
            self.params.merz_alpha,
            self.params.merz_exp,
        );
        let target = v.signum();
        let count = self.domains.len() as f64;
        let mut delta = 0.0;
        let (vc, ps) = self.domains.vc_and_p_mut();
        for (&vc_v, p) in vc.iter().zip(ps) {
            let tau = merz_tau(vc_v, v, vc_scale, tau0, alpha, n);
            if !tau.is_finite() {
                continue;
            }
            let p_flip = 1.0 - (-dt / tau).exp();
            if rng.gen_bool(p_flip.clamp(0.0, 1.0)) {
                let old = *p;
                *p = target;
                delta += target - old;
            }
        }
        delta / count
    }

    /// Applies a rectangular voltage pulse of amplitude `v` and width
    /// `width_s`, committing the domain-state change.
    pub fn apply_pulse(&mut self, v: f64, width_s: f64) -> PulseResult {
        let q_before = self.charge(0.0);
        let delta_p = self.apply_voltage(v, width_s);
        let q_peak = self.charge(v);
        PulseResult {
            delta_p,
            switched_charge: self.params.area_m2 * self.ps_eff() * delta_p,
            total_charge: q_peak - q_before,
        }
    }

    /// Charge moved at the plateau of a QNRO read pulse, in C, including
    /// the disturb bookkeeping (increments [`Self::reads_since_write`]).
    ///
    /// The sensed quantity of Fig 2(b): large for a stored `'0'` read with
    /// positive `v_read` (ΔQ₀), small for a stored `'1'` (ΔQ₁).
    pub fn read_pulse_charge(&mut self, v_read: f64, width_s: f64) -> f64 {
        let r = self.apply_pulse(v_read, width_s);
        self.reads_since_write += 1;
        r.total_charge
    }

    /// Programs the capacitor with a physical write pulse at the nominal
    /// write voltage and pulse width. Counts endurance cycles (one bipolar
    /// cycle per polarity reversal pair) and resets the read-disturb
    /// counter.
    pub fn write(&mut self, polarity: Polarity) -> PulseResult {
        let v = self.params.write_voltage_v * polarity.sign();
        let r = self.apply_pulse(v, self.params.write_pulse_s);
        if let Some(prev) = self.last_write {
            if prev != polarity {
                self.cycles += 0.5;
            }
        }
        self.last_write = Some(polarity);
        self.reads_since_write = 0;
        r
    }

    /// Instantly sets every domain to the given polarity without switching
    /// dynamics — the fast path used by behavioural (non-SPICE) cell
    /// models. Performs the same endurance/disturb bookkeeping as
    /// [`Self::write`].
    pub fn write_ideal(&mut self, polarity: Polarity) {
        self.domains.p_slice_mut().fill(polarity.sign());
        if let Some(prev) = self.last_write {
            if prev != polarity {
                self.cycles += 0.5;
            }
        }
        self.last_write = Some(polarity);
        self.reads_since_write = 0;
    }

    /// The stored logical state inferred from the polarization sign, or
    /// `None` if the state is degraded into the ambiguous band
    /// `|p̄| < margin`.
    pub fn stored_state(&self, margin: f64) -> Option<Polarity> {
        let p = self.polarization();
        if p > margin {
            Some(Polarity::Up)
        } else if p < -margin {
            Some(Polarity::Down)
        } else {
            None
        }
    }

    /// Adds `n` bipolar write cycles of fatigue without simulating each
    /// pulse (bulk endurance bookkeeping for Fig 4(f)).
    pub fn add_fatigue_cycles(&mut self, n: f64) {
        assert!(n >= 0.0, "cycle count must be non-negative");
        self.cycles += n;
    }

    /// Iterates over the domains (by value; the backing store is
    /// structure-of-arrays).
    pub fn domains(&self) -> impl Iterator<Item = Domain> + '_ {
        self.domains.iter()
    }

    /// The domain population in structure-of-arrays form.
    pub fn domain_bank(&self) -> &DomainBank {
        &self.domains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> MfmCapacitor {
        MfmCapacitor::new(&MfmParams::fabricated())
    }

    #[test]
    fn starts_fully_down_and_deterministic() {
        let a = cap();
        let b = cap();
        assert_eq!(a, b, "same seed must give identical devices");
        assert!((a.polarization() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn write_reaches_saturation_both_ways() {
        let mut c = cap();
        c.write(Polarity::Up);
        assert!(c.polarization() > 0.95, "3 V / 300 ns write must saturate");
        c.write(Polarity::Down);
        assert!(c.polarization() < -0.95);
    }

    #[test]
    fn remanent_polarization_matches_fabricated_device() {
        let mut c = cap();
        c.write(Polarity::Up);
        let pr = c.polarization_uc_cm2();
        // Fig 4(e): Pr = 22.3 µC/cm² (±1 tolerance for model granularity).
        assert!((pr - 22.3).abs() < 1.0, "Pr = {pr} µC/cm²");
    }

    #[test]
    fn qnro_contrast_dq0_much_larger_than_dq1() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Down);
        let dq0 = c.read_pulse_charge(p.read_voltage(), 100e-9);
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Up);
        let dq1 = c.read_pulse_charge(p.read_voltage(), 100e-9);
        assert!(
            dq0 > 2.0 * dq1,
            "QNRO contrast too small: dq0={dq0:e}, dq1={dq1:e}"
        );
        assert!(dq1 > 0.0);
    }

    #[test]
    fn qnro_read_is_quasi_nondestructive() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Down);
        let before = c.polarization();
        for _ in 0..10 {
            c.read_pulse_charge(p.read_voltage(), 100e-9);
        }
        let after = c.polarization();
        // Ten reads barely move the state (unlike destructive 1T-1C).
        assert!(
            (after - before).abs() < 0.05,
            "10 reads moved p by {}",
            after - before
        );
        assert_eq!(c.reads_since_write(), 10);
        // But the state *did* move a little in the field direction:
        // quasi-nondestructive, not perfectly nondestructive.
        assert!(after > before);
    }

    #[test]
    fn read_disturb_accumulates_over_many_reads() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Down);
        let mut margins = Vec::new();
        for _ in 0..50 {
            // Batch of 100 reads at a time.
            let mut dq_last = 0.0;
            for _ in 0..100 {
                dq_last = c.read_pulse_charge(p.read_voltage(), 100e-9);
            }
            margins.push(dq_last);
        }
        // Accumulated disturb: polarization drifts noticeably after 5000
        // reads, and the read margin decays monotonically in trend.
        assert!(c.polarization() > -0.999);
        let first = margins[0];
        let last = *margins.last().unwrap();
        assert!(last <= first, "margin must not grow with disturb");
    }

    #[test]
    fn write_resets_disturb_counter() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Down);
        c.read_pulse_charge(p.read_voltage(), 100e-9);
        assert_eq!(c.reads_since_write(), 1);
        c.write(Polarity::Down);
        assert_eq!(c.reads_since_write(), 0);
    }

    #[test]
    fn cycle_counting_counts_reversal_pairs() {
        let mut c = cap();
        assert_eq!(c.cycles(), 0.0);
        c.write(Polarity::Down); // no reversal (already down)
        assert_eq!(c.cycles(), 0.0);
        c.write(Polarity::Up); // reversal
        c.write(Polarity::Down); // reversal → one full bipolar cycle
        assert!((c.cycles() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_is_monotone_in_voltage_for_frozen_state() {
        let c = cap();
        let mut last = f64::NEG_INFINITY;
        for mv in (-3000..=3000).step_by(250) {
            let v = mv as f64 / 1000.0;
            let q = c.charge(v);
            assert!(q >= last, "Q(V) monotone at fixed state");
            last = q;
        }
    }

    #[test]
    fn capacitance_is_state_dependent() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write_ideal(Polarity::Down);
        let c_opposing = c.capacitance(1.0); // field against P: DW active
        let c_aligned = c.capacitance(-1.0); // field along P
        assert!(c_opposing > 2.0 * c_aligned);
        assert!((c_aligned - p.background_capacitance()).abs() < 1e-15);
    }

    #[test]
    fn predict_matches_commit() {
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Down);
        let predicted = c.predict_polarization(2.0, 50e-9);
        let q_pred = c.predict_charge(2.0, 50e-9);
        c.apply_voltage(2.0, 50e-9);
        assert!((c.polarization() - predicted).abs() < 1e-12);
        assert!((c.charge(2.0) - q_pred).abs() < 1e-22);
    }

    #[test]
    fn stored_state_detection() {
        let mut c = cap();
        c.write_ideal(Polarity::Up);
        assert_eq!(c.stored_state(0.5), Some(Polarity::Up));
        c.write_ideal(Polarity::Down);
        assert_eq!(c.stored_state(0.5), Some(Polarity::Down));
        // Degrade into the ambiguous band artificially.
        c.apply_voltage(3.0, 20e-9);
        if c.polarization().abs() < 0.5 {
            assert_eq!(c.stored_state(0.5), None);
        }
    }

    #[test]
    fn temperature_lowers_switching_barrier() {
        let p = MfmParams::fabricated();
        // Sub-nominal write pulse that barely switches at 300 K.
        let mut cold = MfmCapacitor::new(&p);
        cold.write_ideal(Polarity::Down);
        let moved_cold = cold.apply_voltage(1.6, 100e-9);
        let mut hot = MfmCapacitor::new(&p);
        hot.write_ideal(Polarity::Down);
        hot.set_temperature(390.0);
        let moved_hot = hot.apply_voltage(1.6, 100e-9);
        assert!(
            moved_hot > moved_cold,
            "hotter film must switch more: {moved_hot:e} vs {moved_cold:e}"
        );
    }

    #[test]
    fn fatigue_reduces_effective_polarization() {
        let mut c = cap();
        c.write_ideal(Polarity::Up);
        let fresh = c.polarization_uc_cm2();
        c.add_fatigue_cycles(1e8);
        let fatigued = c.polarization_uc_cm2();
        assert!(fatigued < fresh);
        // Paper Fig 4(f): still functional at 1e6 — checked in endurance.rs.
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_fatigue() {
        cap().add_fatigue_cycles(-1.0);
    }

    #[test]
    fn scaled_device_also_has_qnro_contrast() {
        let p = MfmParams::scaled_45nm();
        let mut c0 = MfmCapacitor::new(&p);
        c0.write(Polarity::Down);
        let dq0 = c0.read_pulse_charge(p.read_voltage(), 100e-9);
        let mut c1 = MfmCapacitor::new(&p);
        c1.write(Polarity::Up);
        let dq1 = c1.read_pulse_charge(p.read_voltage(), 100e-9);
        assert!(dq0 > 2.0 * dq1, "scaled: dq0={dq0:e} dq1={dq1:e}");
    }

    #[test]
    fn stochastic_switching_matches_mean_field_in_expectation() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = MfmParams::fabricated();
        // Mean-field prediction for a partial-switching pulse.
        let mut mean_field = MfmCapacitor::new(&p);
        mean_field.write_ideal(Polarity::Down);
        mean_field.apply_voltage(2.0, 40e-9);
        let expected = mean_field.polarization();

        // Average many stochastic shots of the same pulse.
        let mut rng = StdRng::seed_from_u64(44);
        let trials = 60;
        let mut acc = 0.0;
        let mut spread = 0.0f64;
        for _ in 0..trials {
            let mut c = MfmCapacitor::new(&p);
            c.write_ideal(Polarity::Down);
            c.apply_voltage_stochastic(2.0, 40e-9, &mut rng);
            acc += c.polarization();
            spread = spread.max((c.polarization() - expected).abs());
        }
        let mean = acc / trials as f64;
        assert!(
            (mean - expected).abs() < 0.05,
            "stochastic mean {mean} vs mean-field {expected}"
        );
        // And individual shots genuinely fluctuate (shot noise exists).
        assert!(spread > 0.005, "expected switching noise, spread {spread}");
    }

    #[test]
    fn stochastic_switching_is_all_or_nothing_per_domain() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write_ideal(Polarity::Down);
        let mut rng = StdRng::seed_from_u64(7);
        c.apply_voltage_stochastic(2.2, 60e-9, &mut rng);
        for d in c.domains() {
            let pd = d.polarization();
            assert!(
                pd == 1.0 || pd == -1.0,
                "domains must be fully up or down, got {pd}"
            );
        }
    }

    /// Every relaxation sweep agrees bit for bit with the formula
    /// applied domain by domain, on banks with saturated, partly switched
    /// and fresh domains, at field ratios across the cutoff and the inert
    /// band.
    #[test]
    fn sweeps_match_the_reference_formula_bit_for_bit() {
        use crate::domain::reference::relax as reference;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5357_4545);
        let voltages = [
            0.0,
            0.05,
            0.3,
            0.55,
            -0.7,
            0.9,
            1.2,
            -1.6,
            2.0,
            3.0,
            f64::NAN,
        ];
        for params in [MfmParams::fabricated(), MfmParams::scaled_45nm()] {
            let mut c = MfmCapacitor::new(&params);
            c.write_ideal(Polarity::Up);
            c.apply_voltage_stochastic(-2.0, 30e-9, &mut rng);
            c.apply_voltage(-1.5, 20e-9);
            for t_k in [300.0, 352.0] {
                c.set_temperature(t_k);
                for &v_a in &voltages {
                    for &v_b in &voltages {
                        for dt in [1e-12, 1e-10, 2.5e-9, 1e-8, 1e-6, 0.0] {
                            let s = c.sweep(dt);
                            let relaxed = |v: f64| -> (f64, f64) {
                                let target = if v == 0.0 { 0.0 } else { v.signum() };
                                let (mut p_sum, mut opp_sum) = (0.0, 0.0);
                                for d in c.domains() {
                                    let (vc, p) = (d.coercive_voltage(), d.polarization());
                                    let p_new = if v == 0.0 || dt <= 0.0 {
                                        p
                                    } else {
                                        reference(&s, vc, v, target, p)
                                    };
                                    p_sum += p_new;
                                    opp_sum += (1.0 - p_new * target) * 0.5;
                                }
                                (p_sum, opp_sum)
                            };
                            let ((pa, oa), (pb, ob)) = (relaxed(v_a), relaxed(v_b));
                            let want = (
                                c.charge_from_sums(v_a, pa, oa),
                                c.charge_from_sums(v_b, pb, ob),
                            );
                            let got = c.predict_charge_pair(v_a, v_b, dt);
                            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{v_a} {dt}");
                            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{v_b} {dt}");
                            let single = c.predict_charge(v_a, dt);
                            assert_eq!(single.to_bits(), want.0.to_bits());
                        }
                    }
                    // The committing sweeps, against a per-domain replay.
                    let dt = 3e-9;
                    let s = c.sweep(dt);
                    let mut committed = c.clone();
                    let moved = committed.apply_voltage(v_a, dt);
                    let mut total = 0.0;
                    let mut sum = 0.0;
                    for (d, after) in c.domains().zip(committed.domains()) {
                        let (vc, p) = (d.coercive_voltage(), d.polarization());
                        let want = if v_a == 0.0 {
                            p
                        } else {
                            reference(&s, vc, v_a, v_a.signum(), p)
                        };
                        assert_eq!(after.polarization().to_bits(), want.to_bits());
                        if !v_a.is_nan() && v_a != 0.0 {
                            total += want - p;
                        }
                        sum += want;
                    }
                    let n = c.domains.len() as f64;
                    assert_eq!(moved.to_bits(), (total / n).to_bits(), "{v_a}");
                    let predicted = c.predict_polarization(v_a, dt);
                    assert_eq!(predicted.to_bits(), (sum / n).to_bits(), "{v_a}");
                }
            }
        }
    }

    /// Pins `apply_voltage_stochastic`'s RNG stream: one Bernoulli draw
    /// per finite-τ domain, saturated ones included. A shortcut that
    /// skipped the draw for a domain already at its target would change
    /// both the polarizations and the next draw.
    #[test]
    fn stochastic_stream_is_pinned_on_a_partly_saturated_bank() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = MfmParams::fabricated();
        let mut c = MfmCapacitor::new(&p);
        c.write_ideal(Polarity::Down);
        let mut rng = StdRng::seed_from_u64(26);
        // A partial switch leaves every domain at exactly ±1.
        c.apply_voltage_stochastic(2.1, 50e-9, &mut rng);
        let up = c.domains().filter(|d| d.polarization() == 1.0).count();
        assert!(up > 0 && up < p.n_domains, "bank must be partly saturated");
        // The second pulse points along the switched domains.
        let delta = c.apply_voltage_stochastic(2.0, 40e-9, &mut rng);
        let digest = c.domains().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
            (h ^ d.polarization().to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        let after = c.domains().filter(|d| d.polarization() == 1.0).count();
        let next: u64 = rng.gen();
        // Recorded from the per-domain Bernoulli loop; any change to
        // which domains draw moves them.
        assert_eq!((up, after), (92, 136));
        assert_eq!(delta.to_bits(), 0x3fcc_28f5_c28f_5c29);
        assert_eq!(digest, 0x86bb_93da_afb3_4265);
        assert_eq!(next, 0xea5c_77c0_abdd_4839);
    }

    #[test]
    fn scaled_device_write_saturates_at_low_voltage() {
        let p = MfmParams::scaled_45nm();
        let mut c = MfmCapacitor::new(&p);
        c.write(Polarity::Up);
        assert!(c.polarization() > 0.9, "p = {}", c.polarization());
    }
}
