//! One shard of the service: a command-logging backend plus its batch
//! execution entry point.
//!
//! A shard owns an independent [`BulkBackend`] instance — FeRAM, the
//! Ambit DRAM baseline, or either wrapped in a
//! [`ReliabilityController`] — always built `.with_command_log()`. Each
//! dispatch runs one coalesced [`RowOp`] batch through
//! [`execute_batch`], then replays the batch's command log with
//! [`schedule`] to price it as a *makespan* under subarray parallelism
//! (one slot per subarray), and finally clears the log so the next
//! batch's replay stands alone. The service charges each virtual tick
//! the slowest shard's makespan, so more shards shrink simulated time
//! for the same row-work.

use felim_arch::batch::{execute_batch, RowOp, RowOpOutput};
use felim_arch::controller::{ControllerConfig, ReliabilityController};
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::MemoryGeometry;
use felim_arch::schedule::schedule;
use felim_arch::{ArchError, BulkBackend, DramBackend, FeramBackend};
use serde::Serialize;

/// Which memory technology backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Technology {
    /// The paper's 2T-nC FeRAM logic-in-memory array.
    Feram,
    /// The Ambit-style triple-row-activation DRAM baseline.
    Dram,
}

impl Technology {
    /// Lower-case label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Technology::Feram => "feram",
            Technology::Dram => "dram",
        }
    }
}

/// The backend behind one shard. Reliability-tiered shards wrap the raw
/// backend in a [`ReliabilityController`] (SECDED ECC + patrol scrub).
enum ShardBackend {
    Feram(Box<FeramBackend>),
    Dram(Box<DramBackend>),
    ReliableFeram(Box<ReliabilityController<FeramBackend>>),
    ReliableDram(Box<ReliabilityController<DramBackend>>),
}

/// Outcome of one batch dispatch on one shard. `Clone + PartialEq` so
/// outcomes can cross the [`wire`](crate::wire) protocol and be
/// compared end-to-end in transport tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBatchOutcome {
    /// Per-op results, in batch order (empty batches yield an empty
    /// vector — the dispatch still ticks the reliability clock).
    pub outputs: Vec<Result<RowOpOutput, ArchError>>,
    /// Serial cycles the batch's commands would take back-to-back.
    pub serial_cycles: u64,
    /// Makespan of the batch under subarray-parallel replay — the
    /// shard's contribution to the tick's duration.
    pub makespan_cycles: u64,
    /// Energy charged for the batch, nanojoules.
    pub energy_nj: f64,
    /// A maintenance (scrub/drift tick) fault, if one fired. Recorded,
    /// not escalated: maintenance failures do not fail client requests.
    pub maintenance_error: Option<ArchError>,
}

/// One shard: an isolated backend plus its dispatch state.
pub struct Shard {
    backend: ShardBackend,
    slots: usize,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("tech", &self.tech_name())
            .field("slots", &self.slots)
            .finish()
    }
}

impl Shard {
    /// Builds a shard over `geometry`. `tier_config` of `None` gives the
    /// raw backend; `Some((drift, scrub_period_s))` wraps it in a
    /// protected [`ReliabilityController`].
    pub fn new(
        technology: Technology,
        geometry: MemoryGeometry,
        tier_config: Option<(DriftSpec, f64)>,
    ) -> Self {
        let slots = geometry.subarrays().max(1) as usize;
        let backend = match (technology, tier_config) {
            (Technology::Feram, None) => {
                ShardBackend::Feram(Box::new(FeramBackend::new(geometry).with_command_log()))
            }
            (Technology::Dram, None) => {
                ShardBackend::Dram(Box::new(DramBackend::new(geometry).with_command_log()))
            }
            (Technology::Feram, Some((drift, period))) => {
                let inner = FeramBackend::new(geometry).with_command_log();
                ShardBackend::ReliableFeram(Box::new(ReliabilityController::new(
                    inner,
                    ControllerConfig::protected(drift, period),
                )))
            }
            (Technology::Dram, Some((drift, period))) => {
                let inner = DramBackend::new(geometry).with_command_log();
                ShardBackend::ReliableDram(Box::new(ReliabilityController::new(
                    inner,
                    ControllerConfig::protected(drift, period),
                )))
            }
        };
        Self { backend, slots }
    }

    /// The shard's technology label (`"feram"` / `"dram"`).
    pub fn tech_name(&self) -> &'static str {
        match &self.backend {
            ShardBackend::Feram(_) | ShardBackend::ReliableFeram(_) => "feram",
            ShardBackend::Dram(_) | ShardBackend::ReliableDram(_) => "dram",
        }
    }

    /// First reserved local row — data rows live strictly below it.
    pub fn data_rows(&self) -> u64 {
        match &self.backend {
            ShardBackend::Feram(m) => m.first_reserved_row().0,
            ShardBackend::Dram(m) => m.first_reserved_row().0,
            ShardBackend::ReliableFeram(c) => c.inner().first_reserved_row().0,
            ShardBackend::ReliableDram(c) => c.inner().first_reserved_row().0,
        }
    }

    /// Runs one coalesced batch: advances the reliability clock by
    /// `tick_s` (protected tiers), executes the ops, and prices the
    /// batch's command log as a subarray-parallel makespan.
    pub fn execute(&mut self, ops: &[RowOp], tick_s: f64) -> ShardBatchOutcome {
        let maintenance_error = match &mut self.backend {
            ShardBackend::ReliableFeram(c) => c.tick(tick_s).err(),
            ShardBackend::ReliableDram(c) => c.tick(tick_s).err(),
            _ => None,
        };

        let report = execute_batch(self.backend_mut(), ops);

        let (serial_cycles, makespan_cycles) = {
            let (log, geometry, latency) = match &self.backend {
                ShardBackend::Feram(m) => (m.command_log(), m.geometry(), m.latency_model()),
                ShardBackend::Dram(m) => (m.command_log(), m.geometry(), m.latency_model()),
                ShardBackend::ReliableFeram(c) => {
                    let m = c.inner();
                    (m.command_log(), m.geometry(), m.latency_model())
                }
                ShardBackend::ReliableDram(c) => {
                    let m = c.inner();
                    (m.command_log(), m.geometry(), m.latency_model())
                }
            };
            if log.is_empty() {
                (0, 0)
            } else {
                let replay = schedule(log, geometry, latency, self.slots);
                (replay.serial_cycles, replay.makespan_cycles)
            }
        };
        match &mut self.backend {
            ShardBackend::Feram(m) => m.clear_command_log(),
            ShardBackend::Dram(m) => m.clear_command_log(),
            ShardBackend::ReliableFeram(c) => c.inner_mut().clear_command_log(),
            ShardBackend::ReliableDram(c) => c.inner_mut().clear_command_log(),
        }

        ShardBatchOutcome {
            outputs: report.outputs,
            serial_cycles,
            makespan_cycles,
            energy_nj: report.energy_nj,
            maintenance_error,
        }
    }

    /// Direct maintenance read of a local row (bypasses the queue; used
    /// by [`BulkService::read_vector`](crate::BulkService::read_vector)).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`ArchError`].
    pub fn read_local_row(&mut self, row: u64) -> Result<Vec<u64>, ArchError> {
        let row = felim_arch::geometry::RowId(row);
        let data = self.backend_mut().read_row(row);
        // Keep maintenance traffic out of the next batch's makespan.
        match &mut self.backend {
            ShardBackend::Feram(m) => m.clear_command_log(),
            ShardBackend::Dram(m) => m.clear_command_log(),
            ShardBackend::ReliableFeram(c) => c.inner_mut().clear_command_log(),
            ShardBackend::ReliableDram(c) => c.inner_mut().clear_command_log(),
        }
        data
    }

    /// Serialises the complete backend state (rows, wear, ECC
    /// side-bands, drift clocks) for replica transfer. `None` when the
    /// backend cannot snapshot (e.g. a fault injector is attached).
    pub fn snapshot_state(&self) -> Option<Vec<u8>> {
        match &self.backend {
            ShardBackend::Feram(m) => BulkBackend::snapshot_state(m.as_ref()),
            ShardBackend::Dram(m) => BulkBackend::snapshot_state(m.as_ref()),
            ShardBackend::ReliableFeram(c) => BulkBackend::snapshot_state(c.as_ref()),
            ShardBackend::ReliableDram(c) => BulkBackend::snapshot_state(c.as_ref()),
        }
    }

    /// Restores the backend from a [`snapshot_state`](Self::snapshot_state)
    /// buffer. `false` (state untouched) on any mismatch or corruption.
    pub fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.backend_mut().restore_state(snapshot)
    }

    /// Current reliability-health counters. Raw (Baseline) shards report
    /// all-zero health: nothing is tracked, so nothing can degrade.
    pub fn health(&self) -> felim_arch::ControllerHealth {
        match &self.backend {
            ShardBackend::ReliableFeram(c) => c.health(),
            ShardBackend::ReliableDram(c) => c.health(),
            ShardBackend::Feram(_) | ShardBackend::Dram(_) => {
                felim_arch::ControllerHealth::default()
            }
        }
    }

    /// Cumulative backend statistics (cycles, energy, command mix).
    pub fn stats(&self) -> &felim_arch::stats::ExecStats {
        match &self.backend {
            ShardBackend::Feram(m) => m.stats(),
            ShardBackend::Dram(m) => m.stats(),
            ShardBackend::ReliableFeram(c) => c.stats(),
            ShardBackend::ReliableDram(c) => c.stats(),
        }
    }

    fn backend_mut(&mut self) -> &mut dyn BulkBackend {
        match &mut self.backend {
            ShardBackend::Feram(m) => m.as_mut(),
            ShardBackend::Dram(m) => m.as_mut(),
            ShardBackend::ReliableFeram(c) => c.as_mut(),
            ShardBackend::ReliableDram(c) => c.as_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felim_arch::geometry::RowId;

    #[test]
    fn batch_prices_as_makespan_not_serial_sum() {
        let mut shard = Shard::new(Technology::Feram, MemoryGeometry::tiny(), None);
        // Ops in different subarrays overlap under replay.
        let ops: Vec<RowOp> = (0..8)
            .map(|i| RowOp::Write {
                row: RowId(i * 64),
                data: vec![i; 128],
            })
            .collect();
        let out = shard.execute(&ops, 1e-3);
        assert!(out.outputs.iter().all(|o| o.is_ok()));
        assert!(out.makespan_cycles > 0);
        assert!(
            out.makespan_cycles < out.serial_cycles,
            "8 subarrays must overlap: makespan {} vs serial {}",
            out.makespan_cycles,
            out.serial_cycles
        );
    }

    #[test]
    fn consecutive_batches_price_independently() {
        let mut shard = Shard::new(Technology::Dram, MemoryGeometry::tiny(), None);
        let ops = vec![RowOp::Write {
            row: RowId(0),
            data: vec![7; 128],
        }];
        let first = shard.execute(&ops, 1e-3);
        let second = shard.execute(&ops, 1e-3);
        assert_eq!(
            first.makespan_cycles, second.makespan_cycles,
            "log must be cleared between batches"
        );
    }

    #[test]
    fn protected_shard_serves_and_ticks() {
        let mut shard = Shard::new(
            Technology::Feram,
            MemoryGeometry::tiny(),
            Some((DriftSpec::quiet(7), 1.0)),
        );
        assert_eq!(shard.tech_name(), "feram");
        let ops = vec![
            RowOp::Write {
                row: RowId(0),
                data: vec![0b1100; 128],
            },
            RowOp::Write {
                row: RowId(1),
                data: vec![0b1010; 128],
            },
            RowOp::And {
                a: RowId(0),
                b: RowId(1),
                dst: RowId(2),
            },
            RowOp::Read { row: RowId(2) },
        ];
        let out = shard.execute(&ops, 0.5);
        assert!(out.maintenance_error.is_none());
        match &out.outputs[3] {
            Ok(RowOpOutput::Data(words)) => assert_eq!(words[0], 0b1000),
            other => panic!("expected read data, got {other:?}"),
        }
        assert_eq!(shard.read_local_row(2).unwrap()[0], 0b1000);
    }

    #[test]
    fn empty_batch_is_a_priced_noop() {
        let mut shard = Shard::new(Technology::Feram, MemoryGeometry::tiny(), None);
        let out = shard.execute(&[], 1e-3);
        assert!(out.outputs.is_empty());
        assert_eq!(out.makespan_cycles, 0);
    }
}
