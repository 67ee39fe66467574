//! One shard of the service: a backend plus its batch execution entry
//! point.
//!
//! A shard owns an independent [`BulkBackend`] instance — FeRAM, the
//! Ambit DRAM baseline, or either wrapped in a
//! [`ReliabilityController`]. Each dispatch advances the backend's
//! reliability clock, runs one coalesced [`RowOp`] batch through
//! [`execute_batch`], and takes the batch's serial and makespan cycles
//! from the backend with
//! [`take_batch_cycles`](BulkBackend::take_batch_cycles). The backends
//! price every command as they issue it, one execution slot per
//! subarray, so the makespan is the one
//! [`schedule`](felim_arch::schedule::schedule) would compute from the
//! batch's command log. The service charges each virtual tick the
//! slowest shard's makespan, so more shards shrink simulated time for
//! the same row-work.

use felim_arch::batch::{execute_batch, RowOp, RowOpOutput};
use felim_arch::controller::{ControllerConfig, ReliabilityController};
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::{MemoryGeometry, RowId};
use felim_arch::{ArchError, BulkBackend, ControllerHealth, DramBackend, FeramBackend};
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
    /// Makespan of the batch under subarray parallelism — the shard's
    /// contribution to the tick's duration.
    pub makespan_cycles: u64,
    /// Energy charged for the batch, nanojoules.
    pub energy_nj: f64,
    /// A maintenance (scrub/drift tick) fault, if one fired. Recorded,
    /// not escalated: maintenance failures do not fail client requests.
    pub maintenance_error: Option<ArchError>,
}

/// One shard: an isolated backend plus its dispatch state.
/// Reliability-tiered shards wrap the raw backend in a
/// [`ReliabilityController`] (SECDED ECC + patrol scrub).
pub struct Shard {
    backend: Box<dyn BulkBackend + Send>,
    technology: Technology,
    data_rows: u64,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("tech", &self.tech_name())
            .field("data_rows", &self.data_rows)
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
        fn tiered<B: BulkBackend + Send + 'static>(
            backend: B,
            tier_config: Option<(DriftSpec, f64)>,
        ) -> Box<dyn BulkBackend + Send> {
            match tier_config {
                None => Box::new(backend),
                Some((drift, period)) => Box::new(ReliabilityController::new(
                    backend,
                    ControllerConfig::protected(drift, period),
                )),
            }
        }
        let (data_rows, backend) = match technology {
            Technology::Feram => {
                let m = FeramBackend::new(geometry);
                (m.first_reserved_row().0, tiered(m, tier_config))
            }
            Technology::Dram => {
                let m = DramBackend::new(geometry);
                (m.first_reserved_row().0, tiered(m, tier_config))
            }
        };
        Self {
            backend,
            technology,
            data_rows,
        }
    }

    /// The shard's technology label (`"feram"` / `"dram"`).
    pub fn tech_name(&self) -> &'static str {
        self.technology.label()
    }

    /// First reserved local row — data rows live strictly below it.
    pub fn data_rows(&self) -> u64 {
        self.data_rows
    }

    /// Runs one coalesced batch: advances the reliability clock by
    /// `tick_s` (protected tiers), executes the ops, and takes the
    /// cycles the backend charged since the last batch, maintenance
    /// traffic included.
    pub fn execute(&mut self, ops: &[RowOp], tick_s: f64) -> ShardBatchOutcome {
        let maintenance_error = self.backend.tick(tick_s).err();
        let report = execute_batch(self.backend.as_mut(), ops);
        let (serial_cycles, makespan_cycles) = self.backend.take_batch_cycles();
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
        let data = self.backend.read_row(RowId(row));
        // Keep maintenance traffic out of the next batch's makespan.
        self.backend.take_batch_cycles();
        data
    }

    /// Serialises the complete backend state (rows, wear, ECC
    /// side-bands, drift clocks) for replica transfer. `None` when the
    /// backend cannot snapshot (e.g. a fault injector is attached).
    pub fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.backend.snapshot_state()
    }

    /// An upper bound on the length of any snapshot this shard can
    /// encode: [`snapshot_len_bound`] of its geometry. The daemon
    /// refuses a snapshot push that claims more.
    pub fn snapshot_len_bound(&self) -> u64 {
        snapshot_len_bound(self.backend.geometry())
    }

    /// Restores the backend from a [`snapshot_state`](Self::snapshot_state)
    /// buffer. `false` (state untouched) on any mismatch or corruption.
    pub fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.backend.restore_state(snapshot)
    }

    /// Current reliability-health counters. Raw (Baseline) shards report
    /// all-zero health: nothing is tracked, so nothing can degrade.
    pub fn health(&self) -> ControllerHealth {
        self.backend.health()
    }
}

/// An upper bound on the length of any snapshot a shard of `geometry`
/// can encode, from the geometry alone. Per row, a FeRAM snapshot holds
/// three keyed bit-planes (`3 × (row_bytes + 16)`) and at most one entry
/// in each keyed side-band: disturb counter, wear counter, remap, spare,
/// ECC checks (`row_bytes / 8 + 16`) and drift clock, under
/// `3.2 × row_bytes + 160` bytes in all. The bound allows
/// `4 × row_bytes + 256` per row plus 1 MiB for the fixed-size
/// sections. Both ends of a snapshot transfer hold the peer to it.
pub fn snapshot_len_bound(geometry: &MemoryGeometry) -> u64 {
    let per_row = geometry.row_bytes.saturating_mul(4).saturating_add(256);
    geometry
        .total_rows()
        .saturating_mul(per_row)
        .saturating_add(1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            (first.serial_cycles, first.makespan_cycles),
            (second.serial_cycles, second.makespan_cycles),
            "the clock must restart between batches"
        );

        // A maintenance read between batches is not charged to the next.
        shard.read_local_row(0).unwrap();
        let after_read = shard.execute(&ops, 1e-3);
        assert_eq!(
            (first.serial_cycles, first.makespan_cycles),
            (after_read.serial_cycles, after_read.makespan_cycles),
            "a local read must not leak into the next batch"
        );

        // Nor does a snapshot round trip.
        let snapshot = shard.snapshot_state().unwrap();
        assert!(shard.restore_state(&snapshot));
        let after_restore = shard.execute(&ops, 1e-3);
        assert_eq!(
            (first.serial_cycles, first.makespan_cycles),
            (after_restore.serial_cycles, after_restore.makespan_cycles),
            "a snapshot round trip must not perturb pricing"
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
