//! `fig6_eval`: the paper's headline evaluation, `run_fig6` at 64
//! simulated rows extrapolated to 1 GiB. The arch backends and the
//! workload kernels do almost all the work.

use super::metrics::Sheet;
use super::tracer::Tracer;
use super::workloads::Rep;
use felim::arch::{ArchError, BulkBackend, CommandClass, ExecStats, MemoryGeometry, RowId};
use felim::exec::{derive_seed, fnv1a_str};
use felim::workloads::all_workloads;
use felim::workloads::driver::{make_backend, run_workload, Tech};
use felim::Fig6Row;
use std::time::Instant;

/// Logical workload size every evaluation extrapolates to.
pub const LOGICAL_BYTES: u64 = 1 << 30;
/// Seed of the paper's golden Fig 6 table.
pub const GOLDEN_SEED: u64 = 42;
/// The paper's reported geomeans: energy reduction and speedup over DRAM.
pub const PAPER_GEOMEANS: (f64, f64) = (2.5, 2.0);
/// This repository's golden geomeans at [`GOLDEN_SEED`], as printed.
pub const GOLDEN_GEOMEANS: (&str, &str) = ("2.57", "2.02");

/// Seed streams of the set-up and warm-up evaluations (timed
/// repetition `r` uses stream `r`).
const SETUP_STREAM: u64 = u64::MAX;
const WARM_UP_STREAM: u64 = u64::MAX - 1;
const TRACE_STREAM: u64 = u64::MAX - 2;

/// Host-time metrics of the eight kernels, in Fig 6 order.
const KERNEL_METRICS: [&str; 8] = [
    "workloads.crc8.ms",
    "workloads.xor_cipher.ms",
    "workloads.set_union.ms",
    "workloads.set_intersection.ms",
    "workloads.set_difference.ms",
    "workloads.masked_init.ms",
    "workloads.bitmap_index.ms",
    "workloads.bnn.ms",
];

/// `fig6_eval` inputs: every evaluation draws its own derived seed, so
/// the content-addressed data caches start cold for it, as in a user's
/// single run.
pub struct Fixture {
    seed: u64,
    rows: u64,
    evals: u64,
}

impl Fixture {
    /// Builds the fixture and produces its first figure.
    pub fn set_up(seed: u64, smoke: bool) -> Self {
        let fixture = Self {
            seed,
            rows: if smoke { 8 } else { 64 },
            evals: if smoke { 1 } else { 4 },
        };
        let _ = felim::run_fig6(
            fixture.rows,
            LOGICAL_BYTES,
            fixture.eval_seed(SETUP_STREAM, 0),
        );
        fixture
    }

    fn eval_seed(&self, stream: u64, eval: u64) -> u64 {
        derive_seed(derive_seed(self.seed, stream), eval)
    }

    /// One repetition: `evals` full Fig 6 evaluations.
    pub fn rep(&mut self, index: Option<u64>, tracer: &mut Tracer) -> Rep {
        let stream = index.unwrap_or(WARM_UP_STREAM);
        let mut rep = Rep {
            attempted: self.evals,
            work: self.evals,
            ..Rep::default()
        };
        let started = Instant::now();
        for e in 0..self.evals {
            let t = Instant::now();
            let (rows, _, _) = felim::run_fig6(self.rows, LOGICAL_BYTES, self.eval_seed(stream, e));
            let end = Instant::now();
            tracer.record("fig6.run_fig6", t, end, None);
            rep.latencies_us.push((end - t).as_secs_f64() * 1e6);
            if e == 0 {
                rep.digest = digest(&rows);
            }
        }
        rep.host_s = started.elapsed().as_secs_f64();
        rep
    }

    /// Digest of timed repetition 0's first evaluation, recomputed.
    pub fn recompute_first(&self) -> u64 {
        digest(&felim::run_fig6(self.rows, LOGICAL_BYTES, self.eval_seed(0, 0)).0)
    }

    /// The repetition shape.
    pub fn shape(&self) -> String {
        format!("{} x run_fig6({} rows, 1 GiB)", self.evals, self.rows)
    }

    /// Per-layer attribution: each traced evaluation is timed through
    /// `run_fig6`, then recomposed from `run_workload` per kernel and
    /// technology (its rows must match `run_fig6`'s exactly), and the
    /// kernels run once more against a timing wrapper around
    /// `make_backend` to price single backend calls.
    ///
    /// # Errors
    ///
    /// A kernel that fails verification, or a composition that
    /// disagrees with `run_fig6`.
    pub fn measure_layers(&self, evals: u64, sheet: &mut Sheet) -> Result<(), String> {
        let workloads = all_workloads();
        let mut kernel_ms = [0.0f64; 8];
        let (mut fig6_s, mut sim_cmds) = (0.0, 0u64);
        let (mut calls, mut call_ns) = (0u64, 0u128);
        let mut cmds = ExecStats::new();
        for e in 0..evals {
            let seed = self.eval_seed(TRACE_STREAM, e);
            let t = Instant::now();
            let (rows, _, _) = felim::run_fig6(self.rows, LOGICAL_BYTES, seed);
            fig6_s += t.elapsed().as_secs_f64();
            for (k, w) in workloads.iter().enumerate() {
                let t = Instant::now();
                let run = |tech| {
                    run_workload(w.as_ref(), tech, self.rows, LOGICAL_BYTES, seed)
                        .map_err(|err| format!("{}: {err}", w.name()))
                };
                let (dram, feram) = (run(Tech::Dram)?, run(Tech::Feram)?);
                kernel_ms[k] += t.elapsed().as_secs_f64() * 1e3;
                let row = Fig6Row::from(&felim::workloads::driver::Comparison {
                    workload: w.name().to_owned(),
                    dram,
                    feram,
                });
                if digest(std::slice::from_ref(&row)) != digest(&rows[k..=k]) {
                    return Err(format!(
                        "{}: run_workload disagrees with run_fig6",
                        w.name()
                    ));
                }
                for tech in [Tech::Dram, Tech::Feram] {
                    let mut backend =
                        TimedBackend::new(make_backend(tech, MemoryGeometry::paper_8gb()));
                    w.execute(&mut backend, self.rows, seed)
                        .map_err(|err| format!("{}: {err}", w.name()))?;
                    calls += backend.calls;
                    call_ns += backend.ns;
                    sim_cmds += backend.stats().total_commands();
                    cmds.merge(backend.stats());
                }
            }
        }
        for (metric, ms) in KERNEL_METRICS.into_iter().zip(kernel_ms) {
            sheet.set_mean(metric, ms, evals);
        }
        sheet.set("sim_cmds_per_host_s", sim_cmds as f64 / fig6_s, evals);
        sheet.set_mean("arch.backend.ns_per_call", call_ns as f64, calls);
        for class in CommandClass::ALL {
            sheet.set_mean(command_metric(class), cmds.count(class) as f64, evals);
        }
        Ok(())
    }
}

/// The catalogue name of a command-class count.
pub fn command_metric(class: CommandClass) -> &'static str {
    match class {
        CommandClass::Activate => "arch.cmds.activate",
        CommandClass::Copy => "arch.cmds.copy",
        CommandClass::Precharge => "arch.cmds.precharge",
        CommandClass::Write => "arch.cmds.write",
        CommandClass::Read => "arch.cmds.read",
        CommandClass::Refresh => "arch.cmds.refresh",
    }
}

/// The seed-42 geomeans `(energy reduction, speedup)` of the golden
/// table; `run_fig6` panics if any kernel fails its software reference.
pub fn golden_geomeans() -> (f64, f64) {
    let (_, energy, speedup) = felim::run_fig6(64, LOGICAL_BYTES, GOLDEN_SEED);
    (energy, speedup)
}

fn digest(rows: &[Fig6Row]) -> u64 {
    fnv1a_str(&serde_json::to_string(rows).expect("rows serialise"))
}

/// A [`BulkBackend`] that forwards every call to the backend
/// `make_backend` built and times the data-touching ones.
struct TimedBackend {
    inner: Box<dyn BulkBackend>,
    calls: u64,
    ns: u128,
}

impl TimedBackend {
    fn new(inner: Box<dyn BulkBackend>) -> Self {
        Self {
            inner,
            calls: 0,
            ns: 0,
        }
    }

    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn BulkBackend) -> T) -> T {
        let t = Instant::now();
        let out = call(self.inner.as_mut());
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        out
    }
}

impl BulkBackend for TimedBackend {
    fn geometry(&self) -> &MemoryGeometry {
        self.inner.geometry()
    }
    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.timed(|b| b.write_row(row, data))
    }
    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.timed(|b| b.install_row(row, data))
    }
    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.timed(|b| b.read_row(row))
    }
    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.not(src, dst))
    }
    fn and(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.and(a, b2, dst))
    }
    fn or(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.or(a, b2, dst))
    }
    fn nand(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.nand(a, b2, dst))
    }
    fn nor(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.nor(a, b2, dst))
    }
    fn xor(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.xor(a, b2, dst))
    }
    fn xnor(&mut self, a: RowId, b2: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.xnor(a, b2, dst))
    }
    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.timed(|b| b.copy(src, dst))
    }
    fn scratch_rows(&self, count: usize) -> Vec<RowId> {
        self.inner.scratch_rows(count)
    }
    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }
    fn reliability(&self) -> Option<&felim::arch::ReliabilityStats> {
        self.inner.reliability()
    }
    fn finish(&mut self) -> ExecStats {
        self.inner.finish()
    }
    fn tech_name(&self) -> &'static str {
        self.inner.tech_name()
    }
    fn peek_row(&self, row: RowId) -> Result<Option<Vec<u64>>, ArchError> {
        self.inner.peek_row(row)
    }
    fn decay_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        self.inner.decay_row(row, mask)
    }
    fn wear_fraction(&self, row: RowId) -> f64 {
        self.inner.wear_fraction(row)
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.inner.restore_state(snapshot)
    }
}
