//! 2T-nC FeRAM bulk-bitwise execution with the ACP primitive.
//!
//! Data layout: each memory row is a *logic group* — every 2T-nC cell in
//! the row has `n = 3` capacitors, so the row carries three bit-planes
//! (slots). Slot 0 holds the resident data; slots 1 and 2 stage the second
//! operand and the control bits for TBA.
//!
//! A NAND/NOR between rows `a` and `b` is two ACPs (6 cycles):
//!
//! 1. **co-locate** — `ACP` moving row `b` into slot 1 of group `a`:
//!    ACTIVATE reads `b` through QNRO, COPY writes it — complemented by
//!    the differential write drivers to undo the inverting sense — into
//!    the slot, PRECHARGE resets. Because multiple capacitors of a cell
//!    can be written simultaneously in one cycle (Fig 3(e) step 1), the
//!    same COPY also drives the control pattern (all-0 for NAND, all-1
//!    for NOR) into slot 2 — no separate control-write cycle.
//! 2. **ACP** — ACTIVATE performs the TBA (per-cell MINORITY), COPY drives
//!    the result into the destination row, PRECHARGE resets the RSL
//!    buffer.
//!
//! Because QNRO reads are only *quasi*-nondestructive, the backend tracks
//! reads-per-group and issues a write-back once the disturb budget is
//! exhausted — the residual maintenance cost of the scheme (orders of
//! magnitude rarer than DRAM refresh).
//!
//! ## Faults and graceful degradation
//!
//! A [`FaultInjector`] (see [`FeramBackend::with_faults`]) flips bits on
//! the write, read and TBA sense paths and kills a row's cells once its
//! wear crosses the spec's budget. A [`DegradationPolicy`] decides what
//! the controller does about it: verify-after-write with bounded retry,
//! triple-modular sensing and reading with majority vote, scratch-row
//! rotation at a wear threshold, and retirement of persistently-failing
//! rows into a spare pool carved out of the reserved region. With the
//! default [`DegradationPolicy::none`] every mitigation is off and the
//! backend's cost accounting is bit-identical to a fault-free one.

use crate::command::Command;
use crate::energy::{EnergyModel, LatencyModel};
use crate::engine::{minority_words, RowStore};
use crate::fault::{DegradationPolicy, FaultInjector, FaultSpec, ReliabilityStats};
use crate::geometry::{MemoryGeometry, RowId, RowTable};
use crate::schedule::MakespanClock;
use crate::stats::ExecStats;
use crate::wear::WearTracker;
use crate::{ArchError, BulkBackend};

/// Rows reserved at the top of the address space for scratch and spares.
const RESERVED_ROWS: u64 = 16;

/// General scratch rows live at `base+1 ..= base+SCRATCH_ROWS`.
const SCRATCH_ROWS: u64 = 8;

/// Spare rows for retirement/rotation at `base+9 ..= base+9+SPARE_ROWS-1`.
const SPARE_ROWS: u64 = 7;

/// Capacitors per cell.
const N_CAPS: u64 = 3;

/// The 2T-nC FeRAM backend.
#[derive(Debug, Clone)]
pub struct FeramBackend {
    geometry: MemoryGeometry,
    /// Bit-plane store: plane key = physical row * N_CAPS + slot.
    planes: RowStore,
    energy: EnergyModel,
    latency: LatencyModel,
    stats: ExecStats,
    /// QNRO reads absorbed per group since its last write.
    reads_since_write: RowTable<u32>,
    /// Reads allowed before a maintenance write-back.
    disturb_budget: u32,
    /// Write-backs issued due to disturb exhaustion.
    writebacks: u64,
    /// Per-physical-row write-endurance bookkeeping.
    wear: WearTracker,
    /// Optional deterministic fault injection.
    faults: Option<FaultInjector>,
    /// Controller response to faults.
    policy: DegradationPolicy,
    /// Ground-truth fault bookkeeping.
    reliability: ReliabilityStats,
    /// Logical → physical row remapping (retirement + scratch rotation).
    remap: RowTable<u64>,
    /// Free physical spare rows (popped from the back).
    spares: Vec<u64>,
    command_log: Option<Vec<Command>>,
    /// Serial and subarray-parallel cycles since the last
    /// [`take_batch_cycles`](BulkBackend::take_batch_cycles).
    clock: MakespanClock,
    /// Row buffer op results are computed into. A fault-free commit
    /// swaps it into the destination plane and takes the plane's old
    /// buffer back, so that path neither copies nor allocates per op in
    /// steady state.
    row_buf: Vec<u64>,
}

impl FeramBackend {
    /// Creates a backend with the paper's energy/latency constants and a
    /// disturb budget of 64 reads between write-backs.
    pub fn new(geometry: MemoryGeometry) -> Self {
        // The plane store needs N_CAPS addresses per visible row.
        let plane_geometry = MemoryGeometry {
            capacity_bytes: geometry.capacity_bytes * N_CAPS,
            ..geometry
        };
        let base = geometry.total_rows() - RESERVED_ROWS;
        let spares: Vec<u64> = (base + 1 + SCRATCH_ROWS..base + 1 + SCRATCH_ROWS + SPARE_ROWS)
            .rev()
            .collect();
        Self {
            geometry,
            planes: RowStore::new(plane_geometry),
            energy: EnergyModel::feram_2tnc(),
            latency: LatencyModel::paper_default(),
            stats: ExecStats::new(),
            reads_since_write: RowTable::new(geometry.total_rows()),
            disturb_budget: 64,
            writebacks: 0,
            wear: WearTracker::new(&geometry),
            faults: None,
            policy: DegradationPolicy::none(),
            reliability: ReliabilityStats::default(),
            remap: RowTable::new(geometry.total_rows()),
            spares,
            command_log: None,
            clock: MakespanClock::per_subarray(&geometry),
            row_buf: Vec::new(),
        }
    }

    /// The paper's 8 GB configuration.
    pub fn default_8gb() -> Self {
        Self::new(MemoryGeometry::paper_8gb())
    }

    /// A small instance for tests.
    pub fn tiny() -> Self {
        Self::new(MemoryGeometry::tiny())
    }

    /// Overrides the QNRO disturb budget (reads per group between
    /// write-backs) — ablation A4.
    ///
    /// # Panics
    ///
    /// Panics on a zero budget.
    pub fn with_disturb_budget(mut self, budget: u32) -> Self {
        assert!(budget > 0, "disturb budget must be positive");
        self.disturb_budget = budget;
        self
    }

    /// Number of maintenance write-backs issued so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Per-row write-endurance bookkeeping (Fig 4(f) budget).
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Attaches a deterministic fault environment. If the spec carries a
    /// wear budget, the wear tracker is rebuilt with it so endurance
    /// reports and cell death agree.
    ///
    /// # Panics
    ///
    /// Panics unless every rate in the spec is a probability.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        if spec.wear_budget > 0 {
            self.wear = WearTracker::with_budget(&self.geometry, spec.wear_budget);
        }
        self.faults = Some(FaultInjector::new(spec));
        self
    }

    /// Sets the controller's degradation policy.
    pub fn with_policy(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables sense-fault injection only: every bit of every TBA output
    /// is flipped with probability `rate` (deterministic from `seed`).
    /// Equivalent to `with_faults(FaultSpec::sense_only(rate, seed))`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate <= 1`.
    pub fn with_fault_injection(self, rate: f64, seed: u64) -> Self {
        self.with_faults(FaultSpec::sense_only(rate, seed))
    }

    /// Ground-truth reliability statistics for this run.
    pub fn reliability_stats(&self) -> &ReliabilityStats {
        &self.reliability
    }

    /// Logical rows currently remapped to spares.
    pub fn remapped_rows(&self) -> usize {
        self.remap.len()
    }

    /// Spare rows still available for retirement/rotation.
    pub fn spares_left(&self) -> usize {
        self.spares.len()
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    fn reserved_base(&self) -> u64 {
        self.geometry.total_rows() - RESERVED_ROWS
    }

    /// First reserved row: data rows live strictly below this boundary
    /// (the top of the array holds compute, scratch and spare rows).
    pub fn first_reserved_row(&self) -> RowId {
        RowId(self.reserved_base())
    }

    /// Physical row a logical row currently maps to.
    fn resolve(&self, row: RowId) -> u64 {
        self.remap.get(row.0).copied().unwrap_or(row.0)
    }

    fn plane_of(&self, physical_row: u64, slot: u64) -> RowId {
        debug_assert!(slot < N_CAPS);
        RowId(physical_row * N_CAPS + slot)
    }

    fn check_row(&self, row: RowId) -> Result<(), ArchError> {
        if self.geometry.contains(row) {
            Ok(())
        } else {
            Err(ArchError::RowOutOfRange {
                row: row.0,
                rows: self.geometry.total_rows(),
            })
        }
    }

    /// Has this physical row's cell population worn out?
    fn is_dead(&self, physical_row: u64) -> bool {
        match &self.faults {
            Some(inj) if inj.spec().wear_budget > 0 => {
                self.wear.writes(RowId(physical_row)) >= inj.spec().wear_budget
            }
            _ => false,
        }
    }

    fn is_scratch(&self, row: RowId) -> bool {
        let base = self.reserved_base();
        (base + 1..=base + SCRATCH_ROWS).contains(&row.0)
    }

    fn issue(&mut self, cmd: Command) {
        let cycles = self.latency.cycles(&cmd);
        self.stats
            .record(cmd.class(), cycles, self.energy.energy_nj(&cmd));
        self.clock.charge(&cmd, cycles, &self.geometry);
        if let Some(log) = &mut self.command_log {
            log.push(cmd);
        }
    }

    /// Enables command-sequence logging (for inspection and tests).
    pub fn with_command_log(mut self) -> Self {
        self.command_log = Some(Vec::new());
        self
    }

    /// The logged command sequence (empty slice if logging is off).
    pub fn command_log(&self) -> &[Command] {
        self.command_log.as_deref().unwrap_or(&[])
    }

    /// Empties the command log (no-op when logging is off), so a caller
    /// replaying one batch's log at a time sees each batch alone.
    pub fn clear_command_log(&mut self) {
        if let Some(log) = &mut self.command_log {
            log.clear();
        }
    }

    /// Records a QNRO read on a group; issues a write-back if the disturb
    /// budget is exhausted. Callers check the row first.
    fn note_read(&mut self, row: RowId) {
        let Some(count) = self.reads_since_write.get_or_default(row.0) else {
            return;
        };
        *count += 1;
        if *count >= self.disturb_budget {
            *count = 0;
            self.writebacks += 1;
            // One multi-cap row write refreshes all slots of the group.
            self.issue(Command::WriteRow(row));
        }
    }

    /// Resets the disturb counter for a logical group and records wear on
    /// the physical row actually written. Callers check the row first.
    fn note_write(&mut self, logical: RowId, physical_row: u64) {
        if let Some(count) = self.reads_since_write.get_or_default(logical.0) {
            *count = 0;
        }
        self.wear.record_write(RowId(physical_row));
    }

    /// Decodes a [`snapshot_state`](BulkBackend::snapshot_state) buffer
    /// into a fresh backend with this one's configuration, or `None` on
    /// malformed input or another geometry. The command log (if kept) and
    /// the batch clock restart empty.
    fn decode_snapshot(&self, buf: &[u8]) -> Option<Self> {
        use crate::snapshot::{take_table, take_u32, take_u64, take_u8, take_words};
        if self.faults.is_some() {
            // Nor can a live injector's RNG state be restored.
            return None;
        }
        let mut pos = 0usize;
        let rows = self.geometry.total_rows();
        let header_ok = take_u8(buf, &mut pos)? == 1
            && take_u64(buf, &mut pos)? == rows
            && take_u64(buf, &mut pos)? == self.geometry.row_words() as u64;
        if !header_ok {
            return None;
        }
        let pos = &mut pos;
        let restored = Self {
            geometry: self.geometry,
            planes: RowStore::decode_state(*self.planes.geometry(), buf, pos)?,
            energy: self.energy,
            latency: self.latency,
            stats: ExecStats::decode_state(buf, pos)?,
            // Disturb counters are keyed by visible row, wear counters by
            // the physical row written; both lie inside the array.
            reads_since_write: take_table(buf, pos, rows, 12, |buf, pos| {
                Some((take_u64(buf, pos)?, take_u32(buf, pos)?))
            })?,
            disturb_budget: take_u32(buf, pos)?,
            writebacks: take_u64(buf, pos)?,
            wear: WearTracker::decode_state(self.geometry, buf, pos)?,
            faults: None,
            policy: DegradationPolicy::decode_state(buf, pos)?,
            reliability: ReliabilityStats::decode_state(buf, pos)?,
            // Remaps and spares name rows of the visible array.
            remap: take_table(buf, pos, rows, 16, |buf, pos| {
                let (logical, physical) = (take_u64(buf, pos)?, take_u64(buf, pos)?);
                (physical < rows).then_some((logical, physical))
            })?,
            spares: take_words(buf, pos).filter(|spares| spares.iter().all(|&r| r < rows))?,
            command_log: self.command_log.as_ref().map(|_| Vec::new()),
            clock: MakespanClock::per_subarray(&self.geometry),
            row_buf: Vec::new(),
        };
        // A group's disturb count is reset whenever it reaches the budget,
        // so a count at or past it is no state a backend reaches (and one
        // at `u32::MAX` would overflow on the next read).
        let budget = restored.disturb_budget;
        let counts_ok = restored.reads_since_write.values().all(|&n| n < budget);
        (*pos == buf.len() && counts_ok).then_some(restored)
    }

    /// Rotates a scratch row to a fresh spare once its wear crosses the
    /// policy's fraction of the wear budget.
    fn maybe_rotate_scratch(&mut self, logical: RowId) {
        if !self.policy.rotates_scratch() || !self.is_scratch(logical) {
            return;
        }
        let physical = self.resolve(logical);
        let threshold = self.policy.scratch_rotation_fraction * self.wear.budget() as f64;
        if (self.wear.writes(RowId(physical)) as f64) < threshold {
            return;
        }
        if let Some(spare) = self.spares.pop() {
            // A scratch row lies inside the array, so the insert holds.
            let _ = self.remap.insert(logical.0, spare);
            self.reliability.note_scratch_rotation();
        }
        // Pool empty: keep using the worn row — retirement-on-failure is
        // still behind it as the last line of defence.
    }

    /// What slot 0 of a physical row currently holds.
    fn stored(&self, physical_row: u64) -> Result<Vec<u64>, ArchError> {
        self.planes.read(self.plane_of(physical_row, 0))
    }

    /// Commits `intended` into slot 0 of `logical`, applying the fault
    /// model (write flips, dead cells) and the degradation policy
    /// (verify-after-write, bounded retry, retirement). The op-level
    /// command cost is charged by the caller; only mitigation overhead
    /// (verify reads, retry writes) is charged here.
    fn commit_data(&mut self, logical: RowId, intended: &[u64]) -> Result<(), ArchError> {
        self.check_row(logical)?;
        self.maybe_rotate_scratch(logical);
        let mut attempts: u32 = 0;
        loop {
            let physical = self.resolve(logical);
            if self.is_dead(physical) {
                self.reliability.note_dead_row_write();
                // The cells no longer switch: stored data stays stale.
            } else if self.faults.is_some() {
                let mut written = intended.to_vec();
                if let Some(inj) = self.faults.as_mut() {
                    let flips = inj.corrupt_write(&mut written);
                    self.reliability.note_write_flips(flips);
                }
                self.planes.write(self.plane_of(physical, 0), &written)?;
            } else {
                // Fault-free: the intended data lands verbatim, straight
                // into the plane's existing buffer.
                self.planes.write(self.plane_of(physical, 0), intended)?;
            }
            self.note_write(logical, physical);
            attempts += 1;
            if !self.policy.verify_writes {
                return Ok(());
            }
            // Verify: read the row back and compare to the write buffer.
            self.issue(Command::ReadRow(logical));
            let verified = match self.planes.row(self.plane_of(physical, 0))? {
                Some(stored) => stored == intended,
                None => intended.iter().all(|&w| w == 0),
            };
            if verified {
                if attempts > 1 {
                    self.reliability.note_corrected_write();
                }
                return Ok(());
            }
            if attempts <= self.policy.max_write_retries {
                self.reliability.note_write_retry();
                self.issue(Command::WriteRow(logical));
                continue;
            }
            // Retries exhausted: retire the row to a spare, if allowed.
            if !self.policy.retire_rows {
                return Err(ArchError::UncorrectableWrite {
                    row: logical.0,
                    attempts,
                });
            }
            match self.spares.pop() {
                Some(spare) => {
                    // `logical` was checked on entry, so the insert holds.
                    let _ = self.remap.insert(logical.0, spare);
                    self.reliability.note_retired_row();
                    attempts = 0;
                    self.issue(Command::WriteRow(logical));
                }
                None => return Err(ArchError::SparesExhausted { row: logical.0 }),
            }
        }
    }

    /// Commits an op's result `truth` into slot 0 of `logical`. Under
    /// faults it goes through [`Self::commit_data`] and the oracle check.
    /// Fault-free it lands verbatim, so the buffer moves into the plane
    /// (and `truth` gets the plane's old buffer); a verify read-back,
    /// when the policy asks for one, is charged and always matches.
    fn commit_op(&mut self, logical: RowId, truth: &mut Vec<u64>) -> Result<(), ArchError> {
        if self.faults.is_some() {
            self.commit_data(logical, truth)?;
            return self.oracle_check(logical, truth);
        }
        self.check_row(logical)?;
        self.maybe_rotate_scratch(logical);
        let physical = self.resolve(logical);
        self.planes.swap_in(self.plane_of(physical, 0), truth)?;
        self.note_write(logical, physical);
        if self.policy.verify_writes {
            self.issue(Command::ReadRow(logical));
        }
        Ok(())
    }

    /// Oracle check after a committed operation: if what ended up in
    /// storage differs from the ideal result and no error was raised,
    /// that is a silent corruption.
    fn oracle_check(&mut self, logical: RowId, truth: &[u64]) -> Result<(), ArchError> {
        if self.faults.is_none() {
            return Ok(());
        }
        let physical = self.resolve(logical);
        let matches = match self.planes.row(self.plane_of(physical, 0))? {
            Some(stored) => stored == truth,
            None => truth.iter().all(|&w| w == 0),
        };
        if !matches {
            self.reliability.note_escaped_fault();
        }
        Ok(())
    }

    /// Samples the TBA sense path: single sense by default, triple
    /// sense with majority vote under `policy.redundant_sense` (charged
    /// as two extra activate/precharge pairs).
    fn sense(&mut self, group: RowId, truth: &[u64]) -> Vec<u64> {
        let Some(inj) = self.faults.as_mut() else {
            return truth.to_vec();
        };
        if inj.spec().sense_fault_rate <= 0.0 {
            return truth.to_vec();
        }
        if self.policy.redundant_sense {
            let (voted, disagreements) = inj.vote3_sense(truth);
            self.reliability.note_sense_flips(disagreements);
            self.reliability.note_sense_corrected(disagreements);
            // Two extra senses of the already-staged group.
            self.issue(Command::TripleBitActivate(group));
            self.issue(Command::Precharge);
            self.issue(Command::TripleBitActivate(group));
            self.issue(Command::Precharge);
            voted
        } else {
            let mut sensed = truth.to_vec();
            let flips = inj.corrupt_sense(&mut sensed);
            self.reliability.note_sense_flips(flips);
            sensed
        }
    }

    /// ACP move of a source row's slot-0 data into a caller buffer,
    /// optionally complementing. 3 cycles. The caller decides whether
    /// the landing site is a staging slot (direct write) or a data row
    /// (committed through the degradation path).
    fn acp_read_into(
        &mut self,
        src: RowId,
        invert: bool,
        out: &mut Vec<u64>,
    ) -> Result<(), ArchError> {
        self.check_row(src)?;
        self.note_read(src);
        let p_src = self.plane_of(self.resolve(src), 0);
        self.planes.read_into(p_src, out)?;
        if invert {
            for w in out.iter_mut() {
                *w = !*w;
            }
        }
        Ok(())
    }

    /// The TBA-based two-operand op (MINORITY with a control plane):
    /// co-locate `b` together with the control plane, then ACP into
    /// `dst`. The sense amplifier is differential, so the COPY can drive
    /// either polarity for free: `complement = false` stores the MINORITY
    /// (NAND/NOR), `complement = true` stores the MAJORITY (AND/OR).
    /// 6 cycles, 79.0 nJ — vs 12 cycles / 182.1 nJ for the DRAM AAP chain.
    fn tba_op(
        &mut self,
        a: RowId,
        b: RowId,
        control_word: u64,
        complement: bool,
        dst: RowId,
    ) -> Result<(), ArchError> {
        self.check_row(dst)?;
        let phys_a = self.resolve(a);
        // 1. Co-locate operand B into slot 1 of group A; the same
        //    multi-cap write cycle drives the control bits into slot 2.
        let slot1 = self.plane_of(phys_a, 1);
        self.issue(Command::Activate(b));
        self.issue(Command::Copy {
            dst: slot1,
            complement: true,
        });
        self.issue(Command::Precharge);
        self.check_row(b)?;
        self.note_read(b);
        let pb0 = self.plane_of(self.resolve(b), 0);
        self.note_write(a, phys_a);
        // 2. ACP: TBA + COPY(result → dst) + PRECHARGE.
        let pd = self.plane_of(self.resolve(dst), 0);
        self.issue(Command::TripleBitActivate(a));
        self.issue(Command::Copy {
            dst: pd,
            complement,
        });
        self.issue(Command::Precharge);
        self.note_read(a);
        // Slots 1 and 2 of group A (the staged operand and control plane,
        // `slot1` above) are only ever observed by the TBA that just
        // staged them, so the functional model evaluates the minority
        // directly from the operand planes and the constant control word
        // instead of materialising the staging slots — the command stream
        // and cost accounting above are identical either way.
        let mut truth = std::mem::take(&mut self.row_buf);
        let result = (|| {
            self.planes
                .combine2_into(self.plane_of(phys_a, 0), pb0, &mut truth, |x, y| {
                    let m = minority_words(x, y, control_word);
                    if complement {
                        !m
                    } else {
                        m
                    }
                })?;
            if self.faults.is_some() {
                let sensed = self.sense(a, &truth);
                self.commit_data(dst, &sensed)?;
                self.oracle_check(dst, &truth)
            } else {
                // Fault-free sense is the truth itself: commit directly.
                self.commit_op(dst, &mut truth)
            }
        })();
        self.row_buf = truth;
        result
    }
}

impl BulkBackend for FeramBackend {
    fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.check_row(row)?;
        if data.len() != self.geometry.row_words() {
            return Err(ArchError::RowSizeMismatch {
                expected: self.geometry.row_words(),
                got: data.len(),
            });
        }
        self.issue(Command::WriteRow(row));
        self.commit_data(row, data)?;
        self.oracle_check(row, data)
    }

    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.check_row(row)?;
        let physical = self.resolve(row);
        let p = self.plane_of(physical, 0);
        self.planes.write(p, data)?;
        self.note_write(row, physical);
        Ok(())
    }

    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.check_row(row)?;
        self.issue(Command::ReadRow(row));
        self.note_read(row);
        let stored = self.stored(self.resolve(row))?;
        let Some(inj) = self.faults.as_mut() else {
            return Ok(stored);
        };
        if inj.spec().read_bitflip_rate <= 0.0 {
            return Ok(stored);
        }
        if self.policy.redundant_reads {
            // Two extra reads, majority vote across the three senses.
            let (voted, disagreements) = inj.vote3_read(&stored);
            self.reliability.note_read_flips(disagreements);
            self.reliability.note_read_corrected(disagreements);
            self.issue(Command::ReadRow(row));
            self.note_read(row);
            self.issue(Command::ReadRow(row));
            self.note_read(row);
            if voted != stored {
                // A double fault slipped through the vote.
                self.reliability.note_escaped_fault();
            }
            Ok(voted)
        } else {
            let mut out = stored.clone();
            let flips = inj.corrupt_read(&mut out);
            self.reliability.note_read_flips(flips);
            if out != stored {
                self.reliability.note_escaped_fault();
            }
            Ok(out)
        }
    }

    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        // The QNRO sense *is* the inversion: a single ACP, no DCC rows.
        self.check_row(dst)?;
        let pd = self.plane_of(self.resolve(dst), 0);
        self.issue(Command::Activate(src));
        self.issue(Command::Copy {
            dst: pd,
            complement: false,
        });
        self.issue(Command::Precharge);
        let mut truth = std::mem::take(&mut self.row_buf);
        let result = (|| {
            self.acp_read_into(src, true, &mut truth)?;
            self.commit_op(dst, &mut truth)
        })();
        self.row_buf = truth;
        result
    }

    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        // MAJ(a, b, 0) = a AND b: the differential COPY complements the
        // sensed MINORITY for free.
        self.tba_op(a, b, 0, true, dst)
    }

    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.tba_op(a, b, !0, true, dst)
    }

    fn nand(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.tba_op(a, b, 0, false, dst)
    }

    fn nor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.tba_op(a, b, !0, false, dst)
    }

    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.check_row(dst)?;
        let pd = self.plane_of(self.resolve(dst), 0);
        self.issue(Command::Activate(src));
        self.issue(Command::Copy {
            dst: pd,
            complement: true,
        });
        self.issue(Command::Precharge);
        let mut truth = std::mem::take(&mut self.row_buf);
        let result = (|| {
            self.acp_read_into(src, false, &mut truth)?;
            self.commit_op(dst, &mut truth)
        })();
        self.row_buf = truth;
        result
    }

    fn scratch_rows(&self, count: usize) -> Vec<RowId> {
        assert!(
            count <= SCRATCH_ROWS as usize,
            "at most 8 general scratch rows"
        );
        (0..count as u64)
            .map(|i| RowId(self.reserved_base() + 1 + i))
            .collect()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn reliability(&self) -> Option<&ReliabilityStats> {
        Some(&self.reliability)
    }

    fn finish(&mut self) -> ExecStats {
        // Non-volatile: no refresh to settle.
        self.stats.clone()
    }

    fn tech_name(&self) -> &'static str {
        "2T-nC FeRAM (ACP/TBA)"
    }

    fn stored_row(&self, row: RowId) -> Result<Option<&[u64]>, ArchError> {
        self.check_row(row)?;
        let physical = self.resolve(row);
        self.planes.row(self.plane_of(physical, 0))
    }

    fn decay_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        self.check_row(row)?;
        let physical = self.resolve(row);
        let plane = self.plane_of(physical, 0);
        // Environmental upset: flip the stored bits directly — no
        // command, no energy, no wear, no disturb-counter reset.
        self.planes.xor_row(plane, mask)
    }

    fn wear_fraction(&self, row: RowId) -> f64 {
        let physical = self.resolve(row);
        (self.wear.writes(RowId(physical)) as f64 / self.wear.budget() as f64).clamp(0.0, 1.0)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        use crate::snapshot::{put_table, put_u32, put_u64, put_u8, put_words};
        if self.faults.is_some() {
            // A live injector holds RNG state this codec cannot replay;
            // a restored copy would diverge from the original.
            return None;
        }
        let mut out = Vec::new();
        put_u8(&mut out, 1); // FeRAM snapshot version
        put_u64(&mut out, self.geometry.total_rows());
        put_u64(&mut out, self.geometry.row_words() as u64);
        self.planes.encode_state(&mut out);
        self.stats.encode_state(&mut out);
        put_table(&mut out, &self.reads_since_write, |out, row, &count| {
            put_u64(out, row);
            put_u32(out, count);
        });
        put_u32(&mut out, self.disturb_budget);
        put_u64(&mut out, self.writebacks);
        self.wear.encode_state(&mut out);
        self.policy.encode_state(&mut out);
        self.reliability.encode_state(&mut out);
        put_table(&mut out, &self.remap, |out, logical, &physical| {
            put_u64(out, logical);
            put_u64(out, physical);
        });
        // Spares pop from the back: order is state, keep it verbatim.
        put_words(&mut out, &self.spares);
        Some(out)
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        let Some(restored) = self.decode_snapshot(snapshot) else {
            return false;
        };
        *self = restored;
        true
    }

    fn take_batch_cycles(&mut self) -> (u64, u64) {
        self.clock.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CommandClass;

    fn backend() -> FeramBackend {
        FeramBackend::tiny()
    }

    fn row_of(backend: &FeramBackend, word: u64) -> Vec<u64> {
        vec![word; backend.geometry().row_words()]
    }

    #[test]
    fn all_logic_ops_functional() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 0b1100)).unwrap();
        m.write_row(b, &row_of(&m, 0b1010)).unwrap();
        m.nand(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1000u64);
        m.nor(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1110u64);
        m.and(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b1000);
        m.or(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b1110);
        m.not(a, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1100u64);
        m.xor(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b0110);
        m.copy(a, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b1100);
    }

    #[test]
    fn operands_survive_logic_ops_in_place() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 0xAA)).unwrap();
        m.write_row(b, &row_of(&m, 0x55)).unwrap();
        m.nand(a, b, d).unwrap();
        // QNRO: A stays in place, B is only read.
        assert_eq!(m.read_row(a).unwrap()[0], 0xAA);
        assert_eq!(m.read_row(b).unwrap()[0], 0x55);
    }

    #[test]
    fn nand_costs_six_cycles() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 1)).unwrap();
        m.write_row(b, &row_of(&m, 2)).unwrap();
        let before = m.stats().clone();
        m.nand(a, b, d).unwrap();
        let d_cycles = m.stats().total_cycles() - before.total_cycles();
        assert_eq!(d_cycles, 6, "colocate+control ACP (3) + logic ACP (3)");
        let d_energy = m.stats().total_energy_nj() - before.total_energy_nj();
        // 2 × (16.6 + 22.6 + 0.32) = 79.04 nJ.
        assert!((d_energy - 79.04).abs() < 1e-9, "got {d_energy}");
    }

    #[test]
    fn not_costs_single_acp() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        let before = m.stats().total_cycles();
        m.not(RowId(0), RowId(1)).unwrap();
        assert_eq!(m.stats().total_cycles() - before, 3, "one ACP, no DCC");
    }

    #[test]
    fn feram_beats_dram_on_energy_and_cycles_per_op() {
        use crate::dram_backend::DramBackend;
        let mut f = backend();
        let mut d = DramBackend::tiny();
        let (a, b, o) = (RowId(0), RowId(1), RowId(2));
        for m in [
            &mut f as &mut dyn BulkBackend,
            &mut d as &mut dyn BulkBackend,
        ] {
            let data_a = vec![0xF0F0u64; m.geometry().row_words()];
            let data_b = vec![0x0FF0u64; m.geometry().row_words()];
            m.write_row(a, &data_a).unwrap();
            m.write_row(b, &data_b).unwrap();
            m.nand(a, b, o).unwrap();
        }
        let (fs, ds) = (f.stats(), d.stats());
        assert!(ds.total_cycles() > fs.total_cycles());
        assert!(ds.total_energy_nj() > 2.0 * fs.total_energy_nj());
        // And both computed the same result.
        assert_eq!(f.read_row(o).unwrap(), d.read_row(o).unwrap());
    }

    #[test]
    fn disturb_budget_triggers_writebacks() {
        let mut m = FeramBackend::tiny().with_disturb_budget(4);
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        for _ in 0..12 {
            let _ = m.read_row(RowId(0)).unwrap();
        }
        assert_eq!(m.writebacks(), 3, "12 reads / budget 4");
        let wb_writes = m.stats().count(CommandClass::Write);
        assert!(wb_writes >= 4, "write-backs issue real write commands");
    }

    #[test]
    fn writes_reset_disturb_counter() {
        let mut m = FeramBackend::tiny().with_disturb_budget(4);
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        for _ in 0..3 {
            let _ = m.read_row(RowId(0)).unwrap();
            m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        }
        assert_eq!(m.writebacks(), 0);
    }

    #[test]
    fn finish_adds_nothing() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        let before = m.stats().clone();
        let after = m.finish();
        assert_eq!(before, after, "no refresh in FeRAM");
    }

    #[test]
    fn xor_via_default_composition() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 0b0110)).unwrap();
        m.write_row(b, &row_of(&m, 0b0101)).unwrap();
        let before = m.stats().total_cycles();
        m.xor(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b0011);
        // 4 NANDs at 6 cycles each.
        assert_eq!(m.stats().total_cycles() - before - 1, 24);
    }

    #[test]
    #[should_panic(expected = "disturb budget must be positive")]
    fn rejects_zero_budget() {
        let _ = FeramBackend::tiny().with_disturb_budget(0);
    }

    #[test]
    fn out_of_range_rows_are_typed_errors() {
        let mut m = backend();
        let far = RowId(m.geometry().total_rows() + 5);
        assert!(matches!(
            m.write_row(far, &row_of(&m, 1)),
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            m.read_row(far),
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            m.nand(RowId(0), RowId(1), far),
            Err(ArchError::RowOutOfRange { .. })
        ));
        let err = m.write_row(RowId(0), &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, ArchError::RowSizeMismatch { got: 3, .. }));
    }

    #[test]
    fn fault_injection_corrupts_results_detectably() {
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        // Clean backend: correct NAND.
        let mut clean = FeramBackend::tiny();
        clean.install_row(a, &row_of(&clean, 0xF0F0)).unwrap();
        clean.install_row(b, &row_of(&clean, 0xFF00)).unwrap();
        clean.nand(a, b, d).unwrap();
        assert_eq!(clean.read_row(d).unwrap()[0], !0xF000u64);
        // Zero rate behaves exactly like no injection.
        let mut zero = FeramBackend::tiny().with_fault_injection(0.0, 9);
        zero.install_row(a, &row_of(&zero, 0xF0F0)).unwrap();
        zero.install_row(b, &row_of(&zero, 0xFF00)).unwrap();
        zero.nand(a, b, d).unwrap();
        assert_eq!(zero.read_row(d).unwrap(), clean.read_row(d).unwrap());
        // Aggressive rate: output must differ from the oracle somewhere.
        let mut faulty = FeramBackend::tiny().with_fault_injection(0.05, 9);
        faulty.install_row(a, &row_of(&faulty, 0xF0F0)).unwrap();
        faulty.install_row(b, &row_of(&faulty, 0xFF00)).unwrap();
        faulty.nand(a, b, d).unwrap();
        assert_ne!(faulty.read_row(d).unwrap(), clean.read_row(d).unwrap());
        // The oracle saw the divergence: without a policy it escaped.
        assert!(faulty.reliability_stats().escaped_faults > 0);
        assert!(faulty.reliability_stats().injected_sense_flips > 0);
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = FeramBackend::tiny().with_fault_injection(0.02, seed);
            m.install_row(RowId(0), &row_of(&m, 0xAB)).unwrap();
            m.install_row(RowId(1), &row_of(&m, 0xCD)).unwrap();
            m.nand(RowId(0), RowId(1), RowId(2)).unwrap();
            m.read_row(RowId(2)).unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn wear_tracking_counts_destination_writes() {
        let mut m = FeramBackend::tiny();
        m.install_row(RowId(0), &row_of(&m, 1)).unwrap();
        m.install_row(RowId(1), &row_of(&m, 2)).unwrap();
        for _ in 0..5 {
            m.nand(RowId(0), RowId(1), RowId(2)).unwrap();
        }
        // Destination written 5x; operand group A also wears (colocation
        // writes slots 1 and 2 each op).
        assert_eq!(m.wear().writes(RowId(2)), 5);
        assert!(m.wear().writes(RowId(0)) >= 5);
        let report = m.wear().report();
        assert!(
            report.repeatable_runs.unwrap() > 1e4,
            "well inside the budget"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be a probability")]
    fn rejects_bad_fault_rate() {
        let _ = FeramBackend::tiny().with_fault_injection(1.5, 0);
    }

    #[test]
    fn verify_after_write_corrects_write_flips() {
        let spec = FaultSpec {
            seed: 21,
            write_bitflip_rate: 5e-5,
            read_bitflip_rate: 0.0,
            sense_fault_rate: 0.0,
            wear_budget: 0,
        };
        let policy = DegradationPolicy {
            verify_writes: true,
            max_write_retries: 8,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let data = row_of(&m, 0xDEAD_BEEF);
        for r in 0..20 {
            m.write_row(RowId(r), &data).unwrap();
            assert_eq!(m.read_row(RowId(r)).unwrap(), data, "row {r}");
        }
        let rel = m.reliability_stats();
        assert!(
            rel.injected_write_flips > 0,
            "flips must have been injected"
        );
        assert!(rel.write_retries > 0, "some writes must have needed retry");
        assert_eq!(rel.escaped_faults, 0, "verification must catch everything");
    }

    #[test]
    fn unverified_write_flips_escape_and_are_counted() {
        let spec = FaultSpec {
            seed: 21,
            write_bitflip_rate: 5e-5,
            read_bitflip_rate: 0.0,
            sense_fault_rate: 0.0,
            wear_budget: 0,
        };
        let mut m = FeramBackend::tiny().with_faults(spec);
        let data = row_of(&m, 0xDEAD_BEEF);
        for r in 0..20 {
            m.write_row(RowId(r), &data).unwrap();
        }
        assert!(m.reliability_stats().escaped_faults > 0);
    }

    #[test]
    fn dead_rows_are_retired_to_spares() {
        // Tiny wear budget: rows die after 3 writes.
        let spec = FaultSpec::none(3).with_wear_budget(3);
        let policy = DegradationPolicy {
            verify_writes: true,
            max_write_retries: 1,
            retire_rows: true,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let spares_before = m.spares_left();
        for i in 0..8u64 {
            let data = row_of(&m, i);
            m.write_row(RowId(0), &data).unwrap();
            assert_eq!(m.read_row(RowId(0)).unwrap(), data, "write {i}");
        }
        let rel = m.reliability_stats().clone();
        assert!(rel.retired_rows >= 1, "row 0 must have been retired");
        assert!(rel.dead_row_writes >= 1);
        assert_eq!(rel.escaped_faults, 0);
        assert!(m.spares_left() < spares_before);
        assert!(m.remapped_rows() >= 1);
    }

    #[test]
    fn retirement_disabled_surfaces_uncorrectable_write() {
        let spec = FaultSpec::none(3).with_wear_budget(2);
        let policy = DegradationPolicy {
            verify_writes: true,
            max_write_retries: 1,
            retire_rows: false,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let mut saw_error = false;
        for i in 0..6u64 {
            // Vary the data so the dead row's stale contents cannot verify.
            let data = row_of(&m, i + 7);
            match m.write_row(RowId(0), &data) {
                Ok(()) => {}
                Err(ArchError::UncorrectableWrite { row: 0, .. }) => {
                    saw_error = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_error, "the dead row must surface a typed error");
    }

    #[test]
    fn spare_exhaustion_is_a_typed_error() {
        let spec = FaultSpec::none(3).with_wear_budget(1);
        let policy = DegradationPolicy {
            verify_writes: true,
            max_write_retries: 0,
            retire_rows: true,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let mut last = Ok(());
        for i in 0..40u64 {
            // Vary the data so a dead (stale) row cannot pass verification.
            let data = row_of(&m, i + 1);
            last = m.write_row(RowId(0), &data);
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(ArchError::SparesExhausted { row: 0 })));
        assert_eq!(m.spares_left(), 0);
    }

    #[test]
    fn scratch_rotation_remaps_hot_scratch_rows() {
        let spec = FaultSpec::none(3).with_wear_budget(100);
        let policy = DegradationPolicy {
            scratch_rotation_fraction: 0.1,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let (a, b) = (RowId(0), RowId(1));
        m.install_row(a, &row_of(&m, 0xAA)).unwrap();
        m.install_row(b, &row_of(&m, 0x55)).unwrap();
        // xor hammers the scratch rows; 10 % of a 100-write budget → the
        // scratch destinations rotate after ~10 writes each.
        for _ in 0..30 {
            m.xor(a, b, RowId(2)).unwrap();
        }
        let rel = m.reliability_stats();
        assert!(rel.scratch_rotations >= 1, "hot scratch must rotate");
        assert!(m.remapped_rows() >= 1);
        // The results stay correct throughout.
        assert_eq!(m.read_row(RowId(2)).unwrap()[0], 0xAA ^ 0x55);
    }

    #[test]
    fn redundant_sense_outvotes_transient_faults() {
        let spec = FaultSpec::sense_only(2e-4, 17);
        let policy = DegradationPolicy {
            redundant_sense: true,
            verify_writes: true,
            max_write_retries: 2,
            retire_rows: true,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny().with_faults(spec).with_policy(policy);
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.install_row(a, &row_of(&m, 0xF0F0)).unwrap();
        m.install_row(b, &row_of(&m, 0xFF00)).unwrap();
        for _ in 0..50 {
            m.nand(a, b, d).unwrap();
            assert_eq!(m.read_row(d).unwrap()[0], !0xF000u64);
        }
        let rel = m.reliability_stats();
        assert!(rel.injected_sense_flips > 0, "faults must have fired");
        assert_eq!(rel.sense_faults_corrected, rel.injected_sense_flips);
        assert_eq!(rel.escaped_faults, 0);
    }

    #[test]
    fn redundant_reads_outvote_read_flips() {
        let spec = FaultSpec {
            seed: 23,
            write_bitflip_rate: 0.0,
            read_bitflip_rate: 2e-4,
            sense_fault_rate: 0.0,
            wear_budget: 0,
        };
        let policy = DegradationPolicy {
            redundant_reads: true,
            ..DegradationPolicy::none()
        };
        let mut m = FeramBackend::tiny()
            .with_faults(spec.clone())
            .with_policy(policy);
        let data = row_of(&m, 0x1234_5678_9ABC_DEF0);
        m.install_row(RowId(0), &data).unwrap();
        for _ in 0..30 {
            assert_eq!(m.read_row(RowId(0)).unwrap(), data);
        }
        let rel = m.reliability_stats();
        assert!(rel.injected_read_flips > 0);
        assert_eq!(rel.escaped_faults, 0);

        // Without redundancy the same spec corrupts host reads.
        let mut naked = FeramBackend::tiny().with_faults(spec);
        naked.install_row(RowId(0), &data).unwrap();
        let mut diverged = false;
        for _ in 0..30 {
            if naked.read_row(RowId(0)).unwrap() != data {
                diverged = true;
            }
        }
        assert!(diverged);
        assert!(naked.reliability_stats().escaped_faults > 0);
    }

    #[test]
    fn hardened_policy_keeps_costs_above_baseline() {
        // Mitigation is not free: verify reads and redundant senses must
        // show up in the cost accounting.
        let run = |policy: DegradationPolicy| {
            let mut m = FeramBackend::tiny()
                .with_faults(FaultSpec::sense_only(0.001, 3))
                .with_policy(policy);
            m.install_row(RowId(0), &row_of(&m, 0xAA)).unwrap();
            m.install_row(RowId(1), &row_of(&m, 0x55)).unwrap();
            for _ in 0..10 {
                m.nand(RowId(0), RowId(1), RowId(2)).unwrap();
            }
            m.stats().total_cycles()
        };
        let baseline = run(DegradationPolicy::none());
        let hardened = run(DegradationPolicy::hardened());
        assert!(hardened > baseline, "{hardened} vs {baseline}");
    }

    /// Disturb counters and wear counters name rows too; a snapshot with
    /// one outside the array is refused like a stored row would be. The
    /// bad snapshots patch the row key of a valid one.
    #[test]
    fn restore_refuses_counter_rows_outside_the_array() {
        let rows = backend().geometry().total_rows();
        let last = rows - 1;
        let mut disturb = backend();
        disturb.reads_since_write.insert(last, 0).unwrap();
        let mut wear = backend();
        wear.wear.record_write(RowId(last));
        // Version, geometry, an empty plane store and the cost counters,
        // then the disturb run's count and its first key. The wear run's
        // first key follows an empty disturb run, the disturb budget, the
        // write-back count, the wear budget and the wear run's count.
        let mut stats = Vec::new();
        backend().stats.encode_state(&mut stats);
        let disturb_key = 1 + 8 + 8 + 8 + stats.len() + 8;
        let wear_key = disturb_key + 4 + 8 + 8 + 8;
        for (name, b, at) in [("disturb", disturb, disturb_key), ("wear", wear, wear_key)] {
            let good = b.snapshot_state().unwrap();
            assert_eq!(good[at..at + 8], last.to_le_bytes(), "{name}");
            for (row, accepted) in [(last, true), (rows, false), (u64::MAX, false)] {
                let mut snap = good.clone();
                snap[at..at + 8].copy_from_slice(&row.to_le_bytes());
                let mut target = backend();
                assert_eq!(target.restore_state(&snap), accepted, "{name} row {row}");
            }
        }
    }
}
