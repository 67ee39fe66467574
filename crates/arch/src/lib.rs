//! # felim-arch — memory + processing-in-memory architecture simulator
//!
//! The paper's Section VI evaluation extends the pLUTo simulator with a
//! 2T-nC FeRAM model and a 64 ms-refresh DRAM model, then runs eight
//! bulk-bitwise workloads on an 8 GB memory with 8 KB rows. This crate is
//! that simulator, rebuilt from scratch:
//!
//! * [`geometry`] — capacity/row addressing (8 GB, 8 KB rows by default),
//! * [`command`] — the row-level command vocabulary (ACTIVATE, PRECHARGE,
//!   COPY, TRA, TBA, RowClone, refresh),
//! * [`energy`] — the per-command energy/latency constants from the
//!   paper's cell-level SPICE study (22.6 nJ vs 16.6 nJ ACTIVATE,
//!   0.32 nJ PRECHARGE, 1 cycle per primitive),
//! * [`engine`] — a bit-accurate functional row store, so every simulated
//!   primitive also computes its real result (verified against software),
//! * [`dram_backend`] — Ambit-style execution: logic via triple-row
//!   activation (MAJORITY) with operand copies through RowClone AAPs,
//!   DCC-based NOT, and periodic refresh,
//! * [`feram_backend`] — 2T-nC execution: in-place TBA (MINORITY) via the
//!   ACP primitive, free inverting reads, no refresh, QNRO disturb
//!   tracking with occasional write-backs,
//! * [`fault`] — deterministic fault injection (bit-flips on the read,
//!   write and TBA sense paths, wear-out cell death) plus the graceful-
//!   degradation policy knobs (verify-after-write, redundant sensing,
//!   scratch-row rotation, row retirement),
//! * [`stats`] — cycle and energy accounting with per-command breakdowns.
//!
//! Both backends implement the [`BulkBackend`] trait so workloads are
//! written once and executed on either technology. Every operation is
//! fallible: out-of-range rows, uncorrectable writes and spare-pool
//! exhaustion surface as typed [`ArchError`]s instead of panics.
//!
//! ## Quickstart
//!
//! ```
//! use felim_arch::{BulkBackend, feram_backend::FeramBackend, geometry::RowId};
//!
//! # fn main() -> Result<(), felim_arch::ArchError> {
//! let mut mem = FeramBackend::default_8gb();
//! let a = RowId(0);
//! let b = RowId(1);
//! let d = RowId(2);
//! mem.write_row(a, &vec![0b1100; 1024])?;
//! mem.write_row(b, &vec![0b1010; 1024])?;
//! mem.nand(a, b, d)?;
//! assert_eq!(mem.read_row(d)?[0], !0b1000u64);
//! assert!(mem.stats().total_energy_nj() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bandwidth;
pub mod batch;
pub mod command;
pub mod controller;
pub mod dram_backend;
pub mod drift;
pub mod ecc;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod feram_backend;
pub mod geometry;
pub mod schedule;
pub mod scrub;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod wear;

pub use bandwidth::{compute_bandwidth, ComputeBandwidth};
pub use batch::{execute_batch, BatchReport, RowOp, RowOpOutput};
pub use command::Command;
pub use controller::{ControllerConfig, ControllerHealth, ControllerStats, ReliabilityController};
pub use dram_backend::DramBackend;
pub use drift::{DriftProcess, DriftSpec};
pub use ecc::{RowCheck, RowCode, WordDecode};
pub use energy::{EnergyModel, LatencyModel};
pub use fault::{DegradationPolicy, FaultInjector, FaultSpec, ReliabilityStats};
pub use feram_backend::FeramBackend;
pub use geometry::{MemoryGeometry, RowId};
pub use schedule::{schedule, ScheduleReport};
pub use scrub::{PatrolScrubber, ScrubConfig};
pub use shard::{ShardId, ShardMap};
pub use stats::{CommandClass, ExecStats};
pub use wear::{WearReport, WearTracker};

/// A technology-agnostic bulk-bitwise row-operation interface.
///
/// Rows are full memory rows (8 KB by default — 65536 bits); all logic
/// operations are bitwise across entire rows. Implementations account
/// energy and cycles for every primitive they issue and keep the row
/// contents bit-accurate.
///
/// All data-touching operations return [`ArchError`] on out-of-range
/// rows, mismatched row lengths, or — under fault injection — writes
/// that could not be completed even after retry and row retirement.
pub trait BulkBackend {
    /// The memory geometry.
    fn geometry(&self) -> &MemoryGeometry;

    /// Writes a full row of data (from the host), charged to the
    /// energy/cycle budget.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] / [`ArchError::RowSizeMismatch`] for
    /// bad addresses or lengths; under fault injection with verification
    /// enabled, [`ArchError::UncorrectableWrite`] or
    /// [`ArchError::SparesExhausted`] when degradation runs out of road.
    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError>;

    /// Installs a row of *pre-resident* input data without charging any
    /// command cost. The paper's workloads operate on data already living
    /// in memory — loading it is not part of the evaluated kernel, and
    /// both technologies would pay the identical host-write cost anyway.
    /// Installation bypasses the fault model (the data is presumed to
    /// have been scrubbed into place before the kernel starts).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] / [`ArchError::RowSizeMismatch`].
    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError>;

    /// Reads a full row of data (to the host).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`].
    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError>;

    /// `dst = NOT src`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError>;

    /// `dst = a AND b`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError>;

    /// `dst = a OR b`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError>;

    /// `dst = NOT (a AND b)`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn nand(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError>;

    /// `dst = NOT (a OR b)`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn nor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError>;

    /// `dst = a XOR b` (composed from the technology's primitives).
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn xor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        // Default composition: xor = (a NAND (a NAND b)) NAND (b NAND (a NAND b)).
        let scratch = self.scratch_rows(3);
        let (nab, x, y) = (scratch[0], scratch[1], scratch[2]);
        self.nand(a, b, nab)?;
        self.nand(a, nab, x)?;
        self.nand(b, nab, y)?;
        self.nand(x, y, dst)
    }

    /// `dst = NOT (a XOR b)`.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn xnor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        let scratch = self.scratch_rows(4);
        let t = scratch[3];
        self.xor(a, b, t)?;
        self.not(t, dst)
    }

    /// Copies a row.
    ///
    /// # Errors
    ///
    /// As for [`BulkBackend::write_row`].
    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError>;

    /// Rows reserved for intermediate results, disjoint from data rows.
    /// Implementations guarantee at least 5; a backend may panic when
    /// asked for more than it has (the DRAM backend has exactly 5).
    fn scratch_rows(&self, count: usize) -> Vec<RowId>;

    /// Execution statistics so far.
    fn stats(&self) -> &ExecStats;

    /// Reliability bookkeeping, for backends with a fault model attached
    /// (`None` otherwise).
    fn reliability(&self) -> Option<&ReliabilityStats> {
        None
    }

    /// Finalises background costs (e.g. DRAM refresh for the elapsed
    /// runtime) and returns the final statistics.
    fn finish(&mut self) -> ExecStats;

    /// Human-readable technology name.
    fn tech_name(&self) -> &'static str;

    /// Maintenance view of a row's stored bits, borrowed: free of
    /// charge, free of fault injection and free of any copy — what the
    /// reliability controller re-encodes its SECDED side-band from after
    /// every write. `Ok(None)` when the row holds no data yet or the
    /// backend does not expose raw storage (the default). A wrapping
    /// backend forwards this (and so [`BulkBackend::peek_row`] with it)
    /// to the backend it wraps.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`].
    fn stored_row(&self, _row: RowId) -> Result<Option<&[u64]>, ArchError> {
        Ok(None)
    }

    /// [`BulkBackend::stored_row`] as an owned copy — what an oracle (or
    /// a ground-truth snapshot of the stored bits) keeps.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`].
    fn peek_row(&self, row: RowId) -> Result<Option<Vec<u64>>, ArchError> {
        Ok(self.stored_row(row)?.map(<[u64]>::to_vec))
    }

    /// XORs `mask` into the row's *stored* bits, modelling an
    /// environmental upset (retention loss, imprint, read disturb). No
    /// energy, cycles, wear or fault-injection paths are charged — the
    /// physics did this, not a command. Returns `Ok(false)` when the
    /// backend does not model raw storage (the default) or the row holds
    /// no data yet.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] / [`ArchError::RowSizeMismatch`].
    fn decay_row(&mut self, _row: RowId, _mask: &[u64]) -> Result<bool, ArchError> {
        Ok(false)
    }

    /// Fraction of the row's write-endurance budget consumed so far,
    /// in `[0, 1]`; `0.0` for backends without wear tracking (the
    /// default).
    fn wear_fraction(&self, _row: RowId) -> f64 {
        0.0
    }

    /// Serialises the backend's complete behavioural state — row
    /// contents, cost accounting, wear/disturb bookkeeping, and any
    /// protection side-bands — into a self-contained byte blob that
    /// [`BulkBackend::restore_state`] can replay onto a freshly built
    /// backend of the same configuration. Returns `None` when the
    /// backend cannot guarantee a bit-identical replay (the default, and
    /// e.g. when an active fault injector holds untracked RNG state).
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replaces this backend's state with a snapshot produced by
    /// [`BulkBackend::snapshot_state`] on an identically configured
    /// backend. Returns `false` (leaving this backend unchanged) on
    /// malformed input, a configuration mismatch, or a backend that does
    /// not support snapshots (the default).
    fn restore_state(&mut self, _snapshot: &[u8]) -> bool {
        false
    }

    /// `(serial, makespan)` cycles of the commands issued since the last
    /// call, then restarts the count. The makespan prices those commands
    /// with one execution slot per subarray, exactly as
    /// [`schedule()`] would price their command log. `(0, 0)` for
    /// backends that keep no clock (the default).
    fn take_batch_cycles(&mut self) -> (u64, u64) {
        (0, 0)
    }

    /// Advances process time by `dt_s` seconds: storage drift and due
    /// maintenance for backends that model them, nothing otherwise (the
    /// default).
    ///
    /// # Errors
    ///
    /// Propagates backend errors from the maintenance row traffic.
    fn tick(&mut self, _dt_s: f64) -> Result<(), ArchError> {
        Ok(())
    }

    /// Reliability-health counters, for replica managers deciding
    /// whether this memory should keep serving as a primary. All zero
    /// for backends that track nothing (the default): nothing is
    /// tracked, so nothing can degrade.
    fn health(&self) -> ControllerHealth {
        ControllerHealth::default()
    }
}

/// Error type for architecture-level failures.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum ArchError {
    /// A row address outside the memory.
    RowOutOfRange {
        /// The offending row.
        row: u64,
        /// Total rows available.
        rows: u64,
    },
    /// Row data of the wrong length.
    RowSizeMismatch {
        /// Words a row must hold.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
    /// A write kept failing verification even after the configured
    /// retries (and row retirement, if enabled, could not be applied).
    UncorrectableWrite {
        /// The logical row that could not be written.
        row: u64,
        /// Write attempts made before giving up.
        attempts: u32,
    },
    /// A row needed to be retired but the spare-row pool is empty.
    SparesExhausted {
        /// The logical row that needed a spare.
        row: u64,
    },
    /// SECDED decoding found a multi-bit upset it can detect but not
    /// correct — the data is known-bad and the error is *reported*
    /// rather than silently returned.
    Uncorrectable {
        /// The logical row holding the uncorrectable words.
        row: u64,
        /// Word indices within the row whose codewords failed.
        words: Vec<usize>,
    },
}

impl std::fmt::Display for ArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (memory has {rows} rows)")
            }
            ArchError::RowSizeMismatch { expected, got } => {
                write!(f, "row data must be exactly {expected} words, got {got}")
            }
            ArchError::UncorrectableWrite { row, attempts } => {
                write!(
                    f,
                    "row {row} failed write verification after {attempts} attempts"
                )
            }
            ArchError::SparesExhausted { row } => {
                write!(f, "no spare rows left to retire row {row} to")
            }
            ArchError::Uncorrectable { row, words } => {
                write!(
                    f,
                    "row {row} has {} uncorrectable SECDED word(s), first at index {}",
                    words.len(),
                    words.first().copied().unwrap_or(0)
                )
            }
        }
    }
}

impl std::error::Error for ArchError {}
