//! The backends' online batch clock against the offline replay: for
//! every batch of a random campaign, `take_batch_cycles()` must equal
//! `schedule()` over that batch's command log with one slot per
//! subarray — raw and under the reliability controller, where drift
//! decay and patrol-scrub traffic land inside the batches.

use felim_arch::batch::{execute_batch, RowOp};
use felim_arch::{
    schedule, BulkBackend, Command, ControllerConfig, DramBackend, DriftSpec, FeramBackend,
    LatencyModel, MemoryGeometry, ReliabilityController, RowId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: std::ops::Range<u64> = 0..20;
const BATCHES: usize = 10;
const POOL: u64 = 32;

/// Access to the command log of a backend built `.with_command_log()`.
trait Logged: BulkBackend {
    fn log(&self) -> &[Command];
    fn clear_log(&mut self);
}

impl Logged for FeramBackend {
    fn log(&self) -> &[Command] {
        self.command_log()
    }
    fn clear_log(&mut self) {
        self.clear_command_log();
    }
}

impl Logged for DramBackend {
    fn log(&self) -> &[Command] {
        self.command_log()
    }
    fn clear_log(&mut self) {
        self.clear_command_log();
    }
}

impl<B: Logged> Logged for ReliabilityController<B> {
    fn log(&self) -> &[Command] {
        self.inner().log()
    }
    fn clear_log(&mut self) {
        self.inner_mut().clear_log();
    }
}

/// A batch of random ops over `POOL` rows striped across the data rows,
/// so every subarray sees traffic but the drift-tracked set stays small.
fn random_batch(rng: &mut StdRng, data_rows: u64, words: usize) -> Vec<RowOp> {
    let stride = data_rows / POOL;
    let mut row = || RowId(rng.gen_range(0..POOL) * stride);
    let ops: Vec<(RowId, RowId, RowId)> = (0..16).map(|_| (row(), row(), row())).collect();
    ops.into_iter()
        .map(|(a, b, dst)| match rng.gen_range(0..10) {
            0 => RowOp::Not { src: a, dst },
            1 => RowOp::And { a, b, dst },
            2 => RowOp::Or { a, b, dst },
            3 => RowOp::Xor { a, b, dst },
            4 => RowOp::Nand { a, b, dst },
            5 => RowOp::Nor { a, b, dst },
            6 => RowOp::Xnor { a, b, dst },
            7 => RowOp::Copy { src: a, dst },
            8 => RowOp::Write {
                row: dst,
                data: (0..words).map(|_| rng.gen()).collect(),
            },
            _ => RowOp::Read { row: a },
        })
        .collect()
}

/// Runs a seeded campaign of ticked batches on `backend`, checking every
/// batch's clock against the replay of its log, and a restore midway.
fn check_campaign<B: Logged>(backend: &mut B, seed: u64, data_rows: u64, tick_s: f64) {
    let geometry = *backend.geometry();
    let latency = LatencyModel::paper_default();
    let slots = geometry.subarrays() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut snapshot = None;
    for batch in 0..BATCHES {
        // Maintenance errors are the controller's business; the clock
        // must price whatever traffic the tick issued either way.
        let _ = backend.tick(tick_s);
        let ops = random_batch(&mut rng, data_rows, geometry.row_words());
        execute_batch(backend, &ops);
        let cycles = backend.take_batch_cycles();
        let replay = schedule(backend.log(), &geometry, &latency, slots);
        assert_eq!(
            cycles,
            (replay.serial_cycles, replay.makespan_cycles),
            "seed {seed}, batch {batch}"
        );
        assert!(cycles.1 > 0 && cycles.1 <= cycles.0);
        backend.clear_log();

        if batch == BATCHES / 2 {
            snapshot = backend.snapshot_state();
        }
    }
    // Traffic issued before a restore is not charged after it.
    let ops = random_batch(&mut rng, data_rows, geometry.row_words());
    execute_batch(backend, &ops);
    assert!(backend.restore_state(&snapshot.expect("no injector, so snapshots work")));
    assert_eq!(backend.take_batch_cycles(), (0, 0), "seed {seed}: restore");
    assert!(backend.log().is_empty());
}

#[test]
fn feram_clock_matches_replay_every_batch() {
    for seed in SEEDS {
        let mut m = FeramBackend::new(MemoryGeometry::tiny()).with_command_log();
        let rows = m.first_reserved_row().0;
        check_campaign(&mut m, seed, rows, 1e-3);
    }
}

#[test]
fn dram_clock_matches_replay_every_batch() {
    for seed in SEEDS {
        let mut m = DramBackend::new(MemoryGeometry::tiny()).with_command_log();
        let rows = m.first_reserved_row().0;
        check_campaign(&mut m, seed, rows, 1e-3);
    }
}

#[test]
fn protected_feram_clock_matches_replay_with_drift_and_scrub() {
    let mut scrub_passes = 0;
    let mut drift_flips = 0;
    for seed in SEEDS {
        let m = FeramBackend::new(MemoryGeometry::tiny()).with_command_log();
        let rows = m.first_reserved_row().0;
        let drift = DriftSpec::accelerated(seed, 390.0, 1e-4);
        let mut c = ReliabilityController::new(m, ControllerConfig::protected(drift, 1800.0));
        check_campaign(&mut c, seed, rows, 3600.0);
        scrub_passes += c.controller_stats().scrub_passes;
        drift_flips += c.controller_stats().drift_flips;
    }
    // The campaign must actually exercise in-batch maintenance traffic.
    assert!(drift_flips > 0, "no decay landed");
    assert!(scrub_passes > 0, "no patrol pass landed");
}

#[test]
fn protected_dram_clock_matches_replay_every_batch() {
    for seed in SEEDS {
        let m = DramBackend::new(MemoryGeometry::tiny()).with_command_log();
        let rows = m.first_reserved_row().0;
        let drift = DriftSpec::accelerated(seed, 390.0, 0.0);
        let mut c = ReliabilityController::new(m, ControllerConfig::protected(drift, 1800.0));
        check_campaign(&mut c, seed, rows, 3600.0);
    }
}
