//! Single ferroelectric domain with Merz-law switching kinetics.
//!
//! Each domain is a two-well system with a normalized polarization
//! `p ∈ [-1, +1]`. Under an applied voltage `v` the domain relaxes toward
//! `sign(v)` with a field-activated Merz time constant
//!
//! ```text
//! τ(v) = τ₀ · exp(α · (V_c / |v|)ⁿ)
//! ```
//!
//! so strong fields switch in nanoseconds while sub-coercive read pulses
//! leave the bulk of the film untouched — except for the low-`V_c` tail of
//! the disorder distribution, which is what produces the paper's
//! *accumulative switching disturb* under QNRO reads.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Remanent polarization direction of a ferroelectric element.
///
/// The paper's bit convention (Section II) maps logical `'1'` to positive
/// remanent polarization — the state that shows *minimal* switching under a
/// positive read pulse — and `'0'` to negative polarization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// Positive remanent polarization (logical `'1'`).
    Up,
    /// Negative remanent polarization (logical `'0'`).
    Down,
}

impl Polarity {
    /// Signed unit value: `+1.0` for [`Polarity::Up`], `-1.0` for
    /// [`Polarity::Down`].
    ///
    /// ```
    /// use felim_ferro::Polarity;
    /// assert_eq!(Polarity::Up.sign(), 1.0);
    /// assert_eq!(Polarity::Down.sign(), -1.0);
    /// ```
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Up => 1.0,
            Polarity::Down => -1.0,
        }
    }

    /// The opposite polarity.
    ///
    /// ```
    /// use felim_ferro::Polarity;
    /// assert_eq!(Polarity::Up.flipped(), Polarity::Down);
    /// ```
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::Up => Polarity::Down,
            Polarity::Down => Polarity::Up,
        }
    }

    /// Maps the paper's bit convention: `true` (bit `1`) ↔ [`Polarity::Up`].
    ///
    /// ```
    /// use felim_ferro::Polarity;
    /// assert_eq!(Polarity::from_bit(true), Polarity::Up);
    /// assert_eq!(Polarity::from_bit(false), Polarity::Down);
    /// ```
    pub fn from_bit(bit: bool) -> Polarity {
        if bit {
            Polarity::Up
        } else {
            Polarity::Down
        }
    }

    /// Inverse of [`Polarity::from_bit`].
    pub fn to_bit(self) -> bool {
        self == Polarity::Up
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Up => write!(f, "P↑ ('1')"),
            Polarity::Down => write!(f, "P↓ ('0')"),
        }
    }
}

/// One Monte-Carlo domain of the polycrystalline film.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    /// Coercive voltage of this domain at the reference temperature, in V.
    vc_v: f64,
    /// Normalized polarization in `[-1, +1]`.
    p: f64,
}

/// Applied-voltage magnitudes below this fraction of a domain's coercive
/// voltage are treated as non-switching (infinite τ). This keeps the model
/// numerically benign at millivolt-level circuit noise while still letting
/// genuine read pulses disturb the low-`V_c` tail.
const FIELD_CUTOFF_FRACTION: f64 = 0.25;

/// Merz exponents `α·(V_c/|v|)ⁿ` above this give an infinite τ:
/// `exp(700)` overflows f64, and anything that slow is effectively frozen.
const MAX_ARG: f64 = 600.0;

/// `exp(x)` is exactly `1.0` once `|x| < 2⁻⁵⁴`: `1 − 2⁻⁵⁴` is the midpoint
/// between `1.0` and the next double below it. A Merz exponent past
/// `ln(dt/τ₀) + INERT_MARGIN` keeps `dt/τ` below `2⁻⁵⁴/e`; the spare
/// factor `e` absorbs the rounding of `dt/τ₀`, `ln`, `exp` and the
/// products (under 2⁻⁴⁰ relative in all) and leaves `exp(−dt/τ)` more
/// than 0.8 ulp from the next double below 1.
const INERT_MARGIN: f64 = 54.0 * std::f64::consts::LN_2 + 1.0;

/// Relative guard at each end of the inert band of field ratios, far
/// wider than any rounding of `powf` (glibc documents 0.52 ulp): a ratio
/// inside the guarded band has its exponent inside the inert range
/// whatever `powf` rounds to.
const RATIO_GUARD: f64 = 1.0 / (1u64 << 20) as f64;

/// `V_c/|v|` for a domain with coercive voltage `vc_v` scaled by
/// `vc_scale`, or `None` below the activation cutoff.
#[inline]
fn field_ratio(vc_v: f64, v: f64, vc_scale: f64) -> Option<f64> {
    let vc = vc_v * vc_scale;
    let mag = v.abs();
    if mag < FIELD_CUTOFF_FRACTION * vc {
        None
    } else {
        Some(vc / mag)
    }
}

/// Merz time constant (s) at field ratio `r = V_c/|v|`: infinite past
/// [`MAX_ARG`].
#[inline]
fn tau_at_ratio(r: f64, tau0_s: f64, alpha: f64, n: f64) -> f64 {
    let arg = alpha * r.powf(n);
    if arg > MAX_ARG {
        f64::INFINITY
    } else {
        tau0_s * arg.exp()
    }
}

/// Merz-law switching time constant (s) for a domain with coercive
/// voltage `vc_v` under applied voltage `v`, with the coercive voltage
/// scaled by `vc_scale`. Returns `f64::INFINITY` below the activation
/// cutoff. [`Domain::tau`], [`Domain::switches_under`] and the stochastic
/// sweep use it; the relaxation sweeps go through [`MerzSweep`].
#[inline]
pub(crate) fn merz_tau(vc_v: f64, v: f64, vc_scale: f64, tau0_s: f64, alpha: f64, n: f64) -> f64 {
    field_ratio(vc_v, v, vc_scale).map_or(f64::INFINITY, |r| tau_at_ratio(r, tau0_s, alpha, n))
}

/// The Merz exponent past which `exp(−dt/τ)` is exactly 1.0 for a step
/// of `dt` seconds ([`INERT_MARGIN`]), or infinity where the derivation
/// does not hold: it needs `dt` and `dt/τ₀` positive and normal, and τ
/// finite at every exponent up to [`MAX_ARG`].
fn inert_arg(dt: f64, tau0_s: f64) -> f64 {
    let ratio = dt / tau0_s;
    if dt > 0.0
        && dt.is_normal()
        && ratio.is_normal()
        && (tau0_s * (MAX_ARG + 1.0).exp()).is_finite()
    {
        ratio.ln() + INERT_MARGIN
    } else {
        f64::INFINITY
    }
}

/// The Merz relaxation kernel for one sweep over a domain population:
/// the parameters every domain shares, and the bounds that let a domain
/// skip work, computed once per sweep.
///
/// [`MerzSweep::relax`] returns exactly the bits of
/// `target + (p − target)·exp(−dt/τ)`, or `p` where τ is infinite. Two
/// exits skip work, each bit-exact (DESIGN.md §3d):
///
/// 1. a domain already at its target returns `p`;
/// 2. a field ratio inside the inert band, where `exp(−dt/τ)` is exactly
///    1.0, returns `target + (p − target)` without `powf` or either `exp`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MerzSweep {
    vc_scale: f64,
    tau0_s: f64,
    alpha: f64,
    n: f64,
    dt: f64,
    /// Exit 1 holds: `exp(−dt/τ)` is in `[0, 1]` wherever τ is finite,
    /// so `(p − target)·exp(−dt/τ)` is `+0` when `p == target`.
    settled_exit: bool,
    /// Exit 2: field ratios strictly between these give an exponent past
    /// [`inert_arg`] and at most [`MAX_ARG`]. Empty when the bounds
    /// cannot be derived.
    inert_ratio: f64,
    frozen_ratio: f64,
}

impl MerzSweep {
    /// The kernel for a sweep of `dt` seconds with coercive voltages
    /// scaled by `vc_scale` and Merz parameters `tau0_s`, `alpha`, `n`.
    pub(crate) fn new(vc_scale: f64, tau0_s: f64, alpha: f64, n: f64, dt: f64) -> Self {
        let inert = inert_arg(dt, tau0_s);
        // α·rⁿ is increasing in r for α > 0 and n ≥ 1: invert it at both
        // ends of the inert exponents and step inside by the guard.
        let invert = |arg: f64| (arg / alpha).powf(1.0 / n);
        let monotone = alpha > 0.0 && alpha.is_finite() && n >= 1.0 && n.is_finite();
        let (inert_ratio, frozen_ratio) = if monotone && inert > 0.0 && (inert / alpha).is_normal()
        {
            (
                invert(inert) * (1.0 + RATIO_GUARD),
                invert(MAX_ARG) * (1.0 - RATIO_GUARD),
            )
        } else {
            (f64::INFINITY, 0.0)
        };
        Self {
            vc_scale,
            tau0_s,
            alpha,
            n,
            dt,
            settled_exit: dt > 0.0 && tau0_s > 0.0,
            inert_ratio,
            frozen_ratio,
        }
    }

    /// A domain of coercive voltage `vc_v` at polarization `p` after the
    /// sweep's `dt` at voltage `v`, relaxing toward `target`.
    #[inline]
    pub(crate) fn relax(&self, vc_v: f64, v: f64, target: f64, p: f64) -> f64 {
        if self.settled_exit && p == target {
            return p;
        }
        let Some(r) = field_ratio(vc_v, v, self.vc_scale) else {
            return p;
        };
        if r > self.inert_ratio && r < self.frozen_ratio {
            return target + (p - target);
        }
        let tau = tau_at_ratio(r, self.tau0_s, self.alpha, self.n);
        if tau.is_finite() {
            target + (p - target) * (-self.dt / tau).exp()
        } else {
            p
        }
    }
}

/// Structure-of-arrays storage for the domain population of one MFM
/// capacitor.
///
/// The solver-facing hot loops (charge prediction inside every Newton
/// iteration, relaxation on every committed step) sweep all domains with
/// the same scalar kernel; splitting coercive voltages and polarizations
/// into two contiguous `f64` slices lets those sweeps run as fused,
/// stride-1 passes the compiler can unroll and vectorize, instead of
/// hopping over interleaved `{vc, p}` pairs.
///
/// Per-index values round-trip through [`Domain`] by value; the JSON
/// serialization is element-wise and therefore identical to what the
/// old `Vec<Domain>` field produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DomainBank {
    vc_v: Vec<f64>,
    p: Vec<f64>,
}

impl DomainBank {
    /// An empty bank with capacity for `n` domains.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            vc_v: Vec::with_capacity(n),
            p: Vec::with_capacity(n),
        }
    }

    /// Appends a domain.
    pub fn push(&mut self, d: Domain) {
        self.vc_v.push(d.vc_v);
        self.p.push(d.p);
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.vc_v.len()
    }

    /// Whether the bank holds no domains.
    pub fn is_empty(&self) -> bool {
        self.vc_v.is_empty()
    }

    /// The `i`-th domain, by value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Domain {
        Domain {
            vc_v: self.vc_v[i],
            p: self.p[i],
        }
    }

    /// Iterates over the domains by value.
    pub fn iter(&self) -> impl Iterator<Item = Domain> + '_ {
        self.vc_v
            .iter()
            .zip(&self.p)
            .map(|(&vc_v, &p)| Domain { vc_v, p })
    }

    /// Coercive voltages (V), one per domain.
    pub fn vc_slice(&self) -> &[f64] {
        &self.vc_v
    }

    /// Normalized polarizations in `[-1, 1]`, one per domain.
    pub fn p_slice(&self) -> &[f64] {
        &self.p
    }

    /// Mutable polarizations (callers must keep values in `[-1, 1]`).
    pub(crate) fn p_slice_mut(&mut self) -> &mut [f64] {
        &mut self.p
    }

    /// Borrows the coercive voltages and mutable polarizations together
    /// (the committed-relaxation sweep needs both at once).
    pub(crate) fn vc_and_p_mut(&mut self) -> (&[f64], &mut [f64]) {
        (&self.vc_v, &mut self.p)
    }
}

impl FromIterator<Domain> for DomainBank {
    fn from_iter<I: IntoIterator<Item = Domain>>(iter: I) -> Self {
        let mut bank = DomainBank::default();
        for d in iter {
            bank.push(d);
        }
        bank
    }
}

// Written as a JSON sequence of `{"vc_v": …, "p": …}` objects — the exact
// encoding the previous `Vec<Domain>` representation produced. (The
// vendored serde derive cannot express this flattening, hence manual.)
impl Serialize for DomainBank {
    fn json_write(&self, out: &mut String) {
        out.push('[');
        for i in 0..self.len() {
            if i > 0 {
                out.push(',');
            }
            self.get(i).json_write(out);
        }
        out.push(']');
    }
}

impl Deserialize for DomainBank {}

impl Domain {
    /// Creates a domain with coercive voltage `vc_v` (V) in polarization
    /// state `p` (normalized, clamped to `[-1, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `vc_v` is not strictly positive and finite.
    pub fn new(vc_v: f64, p: f64) -> Self {
        assert!(
            vc_v > 0.0 && vc_v.is_finite(),
            "domain coercive voltage must be positive, got {vc_v}"
        );
        Self {
            vc_v,
            p: p.clamp(-1.0, 1.0),
        }
    }

    /// Coercive voltage at the reference temperature, in V.
    pub fn coercive_voltage(&self) -> f64 {
        self.vc_v
    }

    /// Current normalized polarization in `[-1, +1]`.
    pub fn polarization(&self) -> f64 {
        self.p
    }

    /// Forces the polarization state (clamped to `[-1, 1]`).
    pub fn set_polarization(&mut self, p: f64) {
        self.p = p.clamp(-1.0, 1.0);
    }

    /// Merz-law switching time constant (s) under applied voltage `v`,
    /// with the coercive voltage scaled by `vc_scale` (temperature
    /// dependence enters here).
    ///
    /// Returns `f64::INFINITY` below the activation cutoff.
    pub fn tau(&self, v: f64, vc_scale: f64, tau0_s: f64, alpha: f64, n: f64) -> f64 {
        merz_tau(self.vc_v, v, vc_scale, tau0_s, alpha, n)
    }

    /// Evolves the domain for `dt` seconds under constant voltage `v`.
    ///
    /// The polarization relaxes exponentially toward `sign(v)`:
    /// `p ← target + (p − target)·exp(−dt/τ)`. Returns the change in `p`.
    pub fn step(&mut self, v: f64, dt: f64, vc_scale: f64, tau0_s: f64, alpha: f64, n: f64) -> f64 {
        if v == 0.0 || dt <= 0.0 {
            return 0.0;
        }
        let sweep = MerzSweep::new(vc_scale, tau0_s, alpha, n, dt);
        let new = sweep.relax(self.vc_v, v, v.signum(), self.p);
        new - std::mem::replace(&mut self.p, new)
    }

    /// Would a pulse of `width_s` seconds at voltage `v` switch (move the
    /// polarization more than half way toward the target)?
    pub fn switches_under(
        &self,
        v: f64,
        width_s: f64,
        vc_scale: f64,
        tau0_s: f64,
        alpha: f64,
        n: f64,
    ) -> bool {
        let tau = self.tau(v, vc_scale, tau0_s, alpha, n);
        tau.is_finite() && width_s / tau > std::f64::consts::LN_2
    }
}

/// The relaxation formula written out in full, with no exits: the oracle
/// the kernel's tests compare [`MerzSweep::relax`] against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{MerzSweep, FIELD_CUTOFF_FRACTION};

    /// τ by the Merz law, cutoff and overflow guard included.
    fn tau(vc_v: f64, v: f64, vc_scale: f64, tau0_s: f64, alpha: f64, n: f64) -> f64 {
        let vc = vc_v * vc_scale;
        let mag = v.abs();
        if mag < FIELD_CUTOFF_FRACTION * vc {
            return f64::INFINITY;
        }
        let arg = alpha * (vc / mag).powf(n);
        if arg > 600.0 {
            f64::INFINITY
        } else {
            tau0_s * arg.exp()
        }
    }

    /// One domain's relaxation over the sweep `s`.
    pub(crate) fn relax(s: &MerzSweep, vc_v: f64, v: f64, target: f64, p: f64) -> f64 {
        let tau = tau(vc_v, v, s.vc_scale, s.tau0_s, s.alpha, s.n);
        if tau.is_finite() {
            target + (p - target) * (-s.dt / tau).exp()
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::relax as reference;
    use super::*;
    use rand::{Rng, SeedableRng};

    const TAU0: f64 = 6.6e-9;
    const ALPHA: f64 = 14.0;
    const N: f64 = 2.0;

    fn d() -> Domain {
        Domain::new(1.05, -1.0)
    }

    #[test]
    fn polarity_roundtrips() {
        for bit in [true, false] {
            assert_eq!(Polarity::from_bit(bit).to_bit(), bit);
        }
        assert_eq!(Polarity::Up.flipped().flipped(), Polarity::Up);
        assert_eq!(Polarity::Up.sign() * Polarity::Down.sign(), -1.0);
        assert!(Polarity::Down.to_string().contains('0'));
    }

    #[test]
    fn strong_field_switches_fast() {
        let dom = d();
        let tau = dom.tau(3.0, 1.0, TAU0, ALPHA, N);
        // Paper Fig 4(g,h): the MFM switches in < 300 ns at ±3 V.
        assert!(tau < 300e-9, "tau at 3 V = {tau:e}");
        assert!(dom.switches_under(3.0, 300e-9, 1.0, TAU0, ALPHA, N));
    }

    #[test]
    fn weak_field_is_frozen() {
        let dom = d();
        // Millivolt noise: below cutoff, infinite tau.
        assert_eq!(dom.tau(0.05, 1.0, TAU0, ALPHA, N), f64::INFINITY);
        // Near-coercive bias: finite but extremely slow.
        let tau = dom.tau(1.05, 1.0, TAU0, ALPHA, N);
        assert!(tau > 1e-3, "tau at Vc should exceed 1 ms, got {tau:e}");
    }

    #[test]
    fn tau_is_monotone_decreasing_in_field() {
        let dom = d();
        let mut last = f64::INFINITY;
        for mv in (300..=3000).step_by(100) {
            let v = mv as f64 / 1000.0;
            let tau = dom.tau(v, 1.0, TAU0, ALPHA, N);
            assert!(tau <= last, "tau must fall with |V| (v={v})");
            last = tau;
        }
    }

    #[test]
    fn step_moves_toward_field_sign() {
        let mut dom = d();
        let dp = dom.step(3.0, 1e-6, 1.0, TAU0, ALPHA, N);
        assert!(dp > 0.0);
        assert!(dom.polarization() > 0.99, "1 µs at 3 V fully switches");
        // And back.
        dom.step(-3.0, 1e-6, 1.0, TAU0, ALPHA, N);
        assert!(dom.polarization() < -0.99);
    }

    #[test]
    fn step_conserves_bounds() {
        let mut dom = d();
        for _ in 0..100 {
            dom.step(3.0, 1e-5, 1.0, TAU0, ALPHA, N);
            let p = dom.polarization();
            assert!((-1.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn aligned_field_is_a_no_op() {
        let mut dom = Domain::new(1.05, 1.0);
        let dp = dom.step(3.0, 1e-3, 1.0, TAU0, ALPHA, N);
        assert!(dp.abs() < 1e-12, "field along P must not move charge");
    }

    #[test]
    fn zero_voltage_or_time_is_a_no_op() {
        let mut dom = d();
        assert_eq!(dom.step(0.0, 1.0, 1.0, TAU0, ALPHA, N), 0.0);
        assert_eq!(dom.step(3.0, 0.0, 1.0, TAU0, ALPHA, N), 0.0);
        assert_eq!(dom.step(3.0, -1.0, 1.0, TAU0, ALPHA, N), 0.0);
    }

    #[test]
    fn vc_scale_models_temperature() {
        let dom = d();
        // Lower effective Vc (hotter device) → faster switching.
        let tau_cold = dom.tau(1.5, 1.0, TAU0, ALPHA, N);
        let tau_hot = dom.tau(1.5, 0.8, TAU0, ALPHA, N);
        assert!(tau_hot < tau_cold);
    }

    #[test]
    #[should_panic(expected = "coercive voltage")]
    fn rejects_nonpositive_vc() {
        let _ = Domain::new(0.0, 0.0);
    }

    #[test]
    fn clamps_initial_polarization() {
        assert_eq!(Domain::new(1.0, 7.0).polarization(), 1.0);
        assert_eq!(Domain::new(1.0, -7.0).polarization(), -1.0);
    }

    /// Which exit (if any) `relax` takes for one input, mirroring its
    /// branches, so the oracle sweep can show it reaches each one.
    fn exit_taken(s: &MerzSweep, vc_v: f64, v: f64, target: f64, p: f64) -> usize {
        if s.settled_exit && p == target {
            return 1;
        }
        match field_ratio(vc_v, v, s.vc_scale) {
            Some(r) if r > s.inert_ratio && r < s.frozen_ratio => 2,
            _ => 0,
        }
    }

    fn log_uniform(rng: &mut rand::rngs::StdRng, lo: f64, hi: f64) -> f64 {
        (lo.ln() + rng.gen_range(0.0..1.0) * (hi.ln() - lo.ln())).exp()
    }

    /// A field magnitude that puts the Merz exponent at `arg`.
    fn mag_for_arg(s: &MerzSweep, vc_v: f64, arg: f64) -> f64 {
        vc_v * s.vc_scale / (arg / s.alpha).powf(1.0 / s.n)
    }

    #[test]
    fn relax_matches_the_reference_formula_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4d65_727a);
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut exits = [0usize; 3];
        let mut squares_differ = 0usize;
        for case in 0..200_000usize {
            // Opaque, so an optimised build cannot fold `powf(r, 2.0)`
            // into `r * r` in the kernel and the oracle alike.
            let n = std::hint::black_box([1.5, 2.0, 2.5][case % 3]);
            let dt = match case % 97 {
                0..=2 => special[case % 97],
                3 => 0.0,
                4 => -1e-9,
                _ => log_uniform(&mut rng, 1e-15, 1e-3),
            };
            let s = MerzSweep::new(
                rng.gen_range(0.8..1.2),
                log_uniform(&mut rng, 1e-12, 1e-6),
                rng.gen_range(5.0..60.0),
                n,
                dt,
            );
            let vc_v = log_uniform(&mut rng, 0.3, 3.0);
            let vc = vc_v * s.vc_scale;
            let nudge = 1.0 + rng.gen_range(-1e-9..1e-9);
            let mag = match rng.gen_range(0..10) {
                0 => FIELD_CUTOFF_FRACTION * vc * (1.0 + rng.gen_range(-1e-3..1e-3)),
                1 => mag_for_arg(&s, vc_v, inert_arg(dt, s.tau0_s) * nudge),
                2 => mag_for_arg(&s, vc_v, MAX_ARG * nudge),
                3 => vc / (s.inert_ratio * nudge),
                4 => vc / (s.frozen_ratio * nudge),
                5 => special[rng.gen_range(0..3usize)],
                _ => log_uniform(&mut rng, 0.1, 5.0),
            };
            let v = if rng.gen_bool(0.5) { mag } else { -mag };
            let target = v.signum();
            let p = match rng.gen_range(0..6) {
                0 => 1.0,
                1 => -1.0,
                2 => below_one,
                3 => -below_one,
                _ => rng.gen_range(-1.0..1.0),
            };
            let got = s.relax(vc_v, v, target, p);
            let want = reference(&s, vc_v, v, target, p);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "vc_v={vc_v:e} v={v:e} p={p:e} dt={dt:e} {s:?}: {got:e} vs {want:e}"
            );
            exits[exit_taken(&s, vc_v, v, target, p)] += 1;
        }
        // Every exit is exercised, and so is the full formula.
        assert!(exits.iter().all(|&e| e > 10_000), "exits taken: {exits:?}");

        // Ratios where `powf(r, 2.0)` and `r * r` differ, at the step
        // where the decay is most sensitive to τ (`dt = τ`): a kernel that
        // squared would disagree with the formula here. How many such
        // ratios exist depends on the libm, so the count is not asserted.
        let two = std::hint::black_box(2.0);
        for _ in 0..200_000 {
            let mag = rng.gen_range(0.25..3.3);
            let r = 1.0 / mag;
            if r.powf(two) == r * r {
                continue;
            }
            squares_differ += 1;
            let tau = TAU0 * (ALPHA * r.powf(two)).exp();
            let s = MerzSweep::new(1.0, TAU0, ALPHA, two, tau);
            let got = s.relax(1.0, mag, 1.0, 0.3);
            let want = reference(&s, 1.0, mag, 1.0, 0.3);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "r={r:e}: {got:e} vs {want:e}"
            );
        }
        println!("exits taken {exits:?}; powf(r, 2.0) != r * r for {squares_differ} ratios");
    }

    #[test]
    fn non_finite_steps_match_the_formula() {
        let live = |dt: f64| MerzSweep::new(1.0, TAU0, ALPHA, N, dt);
        // A NaN step turns every domain with a finite τ into NaN, the
        // saturated ones included; a frozen domain keeps its state.
        assert!(live(f64::NAN).relax(1.05, 3.0, 1.0, 1.0).is_nan());
        assert!(live(f64::NAN).relax(1.05, 3.0, 1.0, -1.0).is_nan());
        assert_eq!(live(f64::NAN).relax(1.05, 0.1, 1.0, -1.0), -1.0);
        // An infinite step lands on the target; a negative one blows up,
        // and a saturated domain gets 0·∞ = NaN rather than its own value.
        assert_eq!(live(f64::INFINITY).relax(1.05, 3.0, 1.0, -0.5), 1.0);
        assert!(live(f64::NEG_INFINITY).relax(1.05, 3.0, 1.0, 1.0).is_nan());
        // NaN or infinite fields.
        assert_eq!(live(1e-9).relax(1.05, f64::NAN, f64::NAN, 0.5), 0.5);
        let inf = live(1e-9).relax(1.05, f64::INFINITY, 1.0, -1.0);
        assert_eq!(
            inf.to_bits(),
            reference(&live(1e-9), 1.05, f64::INFINITY, 1.0, -1.0).to_bits()
        );
    }

    /// The inert bound, checked directly: just past `inert_arg`,
    /// `exp(−dt/τ)` is exactly 1.0; two units of exponent below it, it is
    /// not, so the margin is within a factor e² of the exact edge.
    #[test]
    fn inert_bound_is_exact_and_tight() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(54);
        for _ in 0..20_000 {
            let tau0 = log_uniform(&mut rng, 1e-12, 1e-6);
            let dt = log_uniform(&mut rng, 1e-15, 1e-3);
            let bound = inert_arg(dt, tau0);
            let decay = |arg: f64| (-dt / (tau0 * arg.exp())).exp();
            let past = bound + bound.abs() * f64::EPSILON;
            assert_eq!(decay(past), 1.0, "dt={dt:e} tau0={tau0:e}");
            assert!(decay(bound - 2.0) < 1.0, "dt={dt:e} tau0={tau0:e}");
        }
    }

    /// Exit 2's premise: the first and last ratios inside the band give
    /// exponents past the inert bound and at most `MAX_ARG`.
    #[test]
    fn inert_ratio_band_sits_inside_the_inert_exponents() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let mut checked = 0;
        for case in 0..20_000usize {
            let n = [1.0, 1.5, 2.0, 2.5, 3.0][case % 5];
            let alpha = rng.gen_range(1.0..80.0);
            let dt = log_uniform(&mut rng, 1e-15, 1e-3);
            let s = MerzSweep::new(1.0, TAU0, alpha, n, dt);
            assert!(s.inert_ratio.is_finite(), "{s:?}");
            let arg = |r: f64| alpha * r.powf(n);
            let lo = f64::from_bits(s.inert_ratio.to_bits() + 1);
            let hi = f64::from_bits(s.frozen_ratio.to_bits() - 1);
            if lo < hi {
                assert!(arg(lo) > inert_arg(dt, TAU0) && arg(hi) <= MAX_ARG, "{s:?}");
                checked += 1;
            }
        }
        assert!(checked > 10_000, "only {checked} non-empty bands");
    }

    /// [`Domain::step`] goes through the kernel too.
    #[test]
    fn step_matches_the_reference_formula() {
        for (p, v, dt) in [
            (-1.0, 3.0, 1e-9),
            (0.3, -2.0, 5e-9),
            (1.0, 3.0, 1e-6),
            (-1.0, 1.2, 1e-8),
        ] {
            let mut dom = Domain::new(1.05, p);
            let s = MerzSweep::new(1.0, TAU0, ALPHA, N, dt);
            let want = reference(&s, 1.05, v, v.signum(), p);
            dom.step(v, dt, 1.0, TAU0, ALPHA, N);
            assert_eq!(dom.polarization().to_bits(), want.to_bits());
        }
    }
}
