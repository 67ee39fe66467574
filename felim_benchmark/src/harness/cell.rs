//! `cell_transients`: uncached transistor-level TBA read transients on
//! the golden-path solver. spice, cell and ferro do all the work.

use super::metrics::Sheet;
use super::tracer::Tracer;
use super::workloads::Rep;
use felim::cell::netlists::{
    run_with_solver, sensed_current, tba_testbench, NetlistConfig, SolverOptions,
};
use felim::cell::{monte_carlo_transients, McTransientReport};
use felim::exec::{derive_seed, fnv1a_str};
use felim::ferro::{DeviceSampler, VariationSpec};
use std::time::Instant;

const SETUP_STREAM: u64 = u64::MAX;
const WARM_UP_STREAM: u64 = u64::MAX - 1;
const TRACE_STREAM: u64 = u64::MAX - 2;

/// Transients per `monte_carlo_transients` call: one per TBA input
/// pattern, so every call covers all eight state classes.
const SAMPLES_PER_CALL: usize = 8;

/// `cell_transients` inputs: each call draws its device population from
/// its own derived seed.
pub struct Fixture {
    seed: u64,
    calls: u64,
    cfg: NetlistConfig,
    variation: VariationSpec,
    solver: SolverOptions,
}

impl Fixture {
    /// Builds the netlist and produces the first population.
    ///
    /// # Errors
    ///
    /// A simulator failure.
    pub fn set_up(seed: u64, smoke: bool) -> Result<Self, String> {
        let fixture = Self {
            seed,
            calls: if smoke { 1 } else { 20 },
            cfg: NetlistConfig::standard(),
            variation: VariationSpec::typical(),
            solver: SolverOptions::default(),
        };
        fixture.call(SETUP_STREAM, 0)?;
        Ok(fixture)
    }

    fn call_seed(&self, stream: u64, call: u64) -> u64 {
        derive_seed(derive_seed(self.seed, stream), call)
    }

    fn call(&self, stream: u64, call: u64) -> Result<McTransientReport, String> {
        let seed = self.call_seed(stream, call);
        monte_carlo_transients(
            &self.cfg,
            self.variation,
            SAMPLES_PER_CALL,
            seed,
            &self.solver,
        )
        .map_err(|e| format!("monte_carlo_transients: {e}"))
    }

    /// One repetition: `calls` populations of eight transients.
    ///
    /// # Errors
    ///
    /// A simulator failure.
    pub fn rep(&mut self, index: Option<u64>, tracer: &mut Tracer) -> Result<Rep, String> {
        let stream = index.unwrap_or(WARM_UP_STREAM);
        let transients = self.calls * SAMPLES_PER_CALL as u64;
        let mut rep = Rep {
            attempted: transients,
            work: transients,
            ..Rep::default()
        };
        let started = Instant::now();
        for c in 0..self.calls {
            let t = Instant::now();
            let report = self.call(stream, c)?;
            let end = Instant::now();
            tracer.record("cell.monte_carlo_transients", t, end, None);
            rep.latencies_us.push((end - t).as_secs_f64() * 1e6);
            if c == 0 {
                rep.digest = digest(&report);
                rep.exact.push((
                    "cell.mean_sensed_current_na",
                    report.mean_sensed_current_a * 1e9,
                ));
            }
        }
        rep.host_s = started.elapsed().as_secs_f64();
        Ok(rep)
    }

    /// Digest of timed repetition 0's first population, recomputed.
    ///
    /// # Errors
    ///
    /// A simulator failure.
    pub fn recompute_first(&self) -> Result<u64, String> {
        self.call(0, 0).map(|r| digest(&r))
    }

    /// The repetition shape.
    pub fn shape(&self) -> String {
        format!(
            "{} x monte_carlo_transients(standard, typical, {SAMPLES_PER_CALL} samples, default solver)",
            self.calls
        )
    }

    /// Per-layer attribution: `calls` traced populations recomposed
    /// from the cell and spice entry points `monte_carlo_transients`
    /// itself uses — device sampling, testbench build, transient solve,
    /// sense — each transient timed on its own. The recomposed mean
    /// sensed current must equal the library call's exactly.
    ///
    /// # Errors
    ///
    /// A simulator failure or a recomposition that disagrees.
    pub fn measure_layers(&self, calls: u64, sheet: &mut Sheet) -> Result<(), String> {
        let (mut solve_ms, mut points, mut n) = (0.0, 0u64, 0u64);
        for c in 0..calls {
            let seed = self.call_seed(TRACE_STREAM, c);
            let report = monte_carlo_transients(
                &self.cfg,
                self.variation,
                SAMPLES_PER_CALL,
                seed,
                &self.solver,
            )
            .map_err(|e| format!("monte_carlo_transients: {e}"))?;
            let mut sum = 0.0;
            for i in 0..SAMPLES_PER_CALL as u64 {
                let mut sampler =
                    DeviceSampler::new(&self.cfg.mfm, self.variation, derive_seed(seed, i));
                let mut cfg = self.cfg.clone();
                cfg.mfm = sampler.sample();
                let mut tb = tba_testbench(&cfg, (i % 8) as u8);
                let t = Instant::now();
                let trace =
                    run_with_solver(&mut tb, &cfg, &self.solver).map_err(|e| e.to_string())?;
                solve_ms += t.elapsed().as_secs_f64() * 1e3;
                sum += sensed_current(&trace, &tb.schedule).map_err(|e| e.to_string())?;
                points += trace.times().len() as u64;
                n += 1;
            }
            if sum / SAMPLES_PER_CALL as f64 != report.mean_sensed_current_a {
                return Err("recomposed transients disagree with monte_carlo_transients".into());
            }
        }
        sheet.set_mean("cell.transient.ms", solve_ms, n);
        sheet.set_mean("cell.mean_time_points", points as f64, n);
        Ok(())
    }
}

fn digest(report: &McTransientReport) -> u64 {
    fnv1a_str(&serde_json::to_string(report).expect("report serialises"))
}
