//! Uncached Monte-Carlo campaign over transistor-level cell transients.
//!
//! Unlike the behavioural-model study in [`crate::margin`], every sample
//! here is a full Newton/MNA transient of the 2T-nC netlist with its own
//! *varied* ferroelectric device (drawn via [`felim_ferro::variation`]).
//! Because each sample's [`felim_ferro::MfmParams`] differ, the
//! content-addressed memo cache in [`crate::transients`] can never serve
//! a hit — this campaign measures (and stresses) the raw solver.
//!
//! Samples fan out over the scoped thread pool; sample `i` draws from a
//! generator seeded with `derive_seed(seed, i)`, so the report is
//! bit-identical for any worker count. The index-order reduction keeps
//! the aggregates deterministic too.

use crate::netlists::{
    run_with_solver, sensed_current, tba_testbench, NetlistConfig, SolverOptions,
};
use felim_ferro::{DeviceSampler, VariationSpec};
use felim_spice::SpiceError;
use serde::{Deserialize, Serialize};

/// Aggregates of an uncached Monte-Carlo transient campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McTransientReport {
    /// Cell transients simulated.
    pub samples: usize,
    /// Mean sensed RSL current over the population, in A.
    pub mean_sensed_current_a: f64,
    /// Smallest sensed RSL current, in A.
    pub min_sensed_current_a: f64,
    /// Largest sensed RSL current, in A.
    pub max_sensed_current_a: f64,
    /// Mean number of recorded time points per transient (the adaptive
    /// controller's step-count savings show up here).
    pub mean_time_points: f64,
}

/// One sampled transient, reduced in index order afterwards.
struct SampleOutcome {
    sensed_a: f64,
    time_points: usize,
}

/// Runs `samples` uncached TBA read transients, each over a freshly
/// varied device population, with the given transient-solver options.
///
/// Sample `i` pre-programs TBA pattern `i % 8` so the campaign sweeps
/// every input state class, and draws its device from a sampler seeded
/// with `derive_seed(seed, i)`.
///
/// # Errors
///
/// Propagates the first simulator failure ([`SpiceError`]) in index
/// order.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn monte_carlo_transients(
    cfg: &NetlistConfig,
    variation: VariationSpec,
    samples: usize,
    seed: u64,
    solver: &SolverOptions,
) -> Result<McTransientReport, SpiceError> {
    assert!(samples > 0, "need at least one sample");
    let _span = felim_telemetry::span("cell.monte_carlo_transients");
    felim_telemetry::counter("montecarlo.transient.samples").add(samples as u64);

    let indices: Vec<u64> = (0..samples as u64).collect();
    let outcomes = felim_exec::parallel_map(&indices, |_, &i| {
        let mut sampler =
            DeviceSampler::new(&cfg.mfm, variation, felim_exec::derive_seed(seed, i));
        let mut sample_cfg = cfg.clone();
        sample_cfg.mfm = sampler.sample();
        let mut tb = tba_testbench(&sample_cfg, (i % 8) as u8);
        let trace = run_with_solver(&mut tb, &sample_cfg, solver)?;
        let sensed_a = sensed_current(&trace, &tb.schedule)?;
        Ok(SampleOutcome {
            sensed_a,
            time_points: trace.times().len(),
        })
    });

    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut points = 0usize;
    for o in outcomes {
        let o: SampleOutcome = o?;
        sum += o.sensed_a;
        min = min.min(o.sensed_a);
        max = max.max(o.sensed_a);
        points += o.time_points;
    }
    Ok(McTransientReport {
        samples,
        mean_sensed_current_a: sum / samples as f64,
        min_sensed_current_a: min,
        max_sensed_current_a: max,
        mean_time_points: points as f64 / samples as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NetlistConfig {
        NetlistConfig::fast()
    }

    #[test]
    fn campaign_is_deterministic_and_sane() {
        let a = monte_carlo_transients(
            &cfg(),
            VariationSpec::typical(),
            4,
            21,
            &SolverOptions::default(),
        )
        .unwrap();
        let b = monte_carlo_transients(
            &cfg(),
            VariationSpec::typical(),
            4,
            21,
            &SolverOptions::default(),
        )
        .unwrap();
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        assert!(a.min_sensed_current_a > 0.0);
        assert!(a.min_sensed_current_a <= a.mean_sensed_current_a);
        assert!(a.mean_sensed_current_a <= a.max_sensed_current_a);
    }

    #[test]
    fn optimized_solver_agrees_with_dense_fixed_step() {
        let dense = monte_carlo_transients(
            &cfg(),
            VariationSpec::typical(),
            4,
            33,
            &SolverOptions::default(),
        )
        .unwrap();
        let fast = monte_carlo_transients(
            &cfg(),
            VariationSpec::typical(),
            4,
            33,
            &SolverOptions::optimized(),
        )
        .unwrap();
        // The sensed currents are physics, not schedule artefacts: the
        // adaptive + modified-Newton path must land within a small
        // relative tolerance of the dense fixed-step reference...
        let rel = (fast.mean_sensed_current_a - dense.mean_sensed_current_a).abs()
            / dense.mean_sensed_current_a;
        assert!(rel < 0.05, "adaptive drifted {rel:.4} from dense reference");
        // ...while taking meaningfully fewer steps.
        assert!(
            fast.mean_time_points < 0.7 * dense.mean_time_points,
            "adaptive {} points vs dense {}",
            fast.mean_time_points,
            dense.mean_time_points
        );
    }
}

