//! Ambit-style in-DRAM bulk-bitwise execution.
//!
//! Logic runs in designated compute rows (`T0`–`T2`), control rows (`C0` =
//! all zeros, `C1` = all ones) and dual-contact-cell rows (`DCC`), exactly
//! as in Seshadri et al.: because TRA destroys its operands and only works
//! in the designated rows, every logic operation pays AAP copies to stage
//! its operands — the overhead the paper's 2T-nC design eliminates.
//!
//! Cost model (from Section VI): `AAP = ACTIVATE + ACTIVATE + PRECHARGE`,
//! 22.6 nJ per activate, 0.32 nJ per precharge, 1 cycle per primitive,
//! plus whole-region refresh every 64 ms.
//!
//! The command stream is the full Ambit sequence, but the functional
//! model does only the data work something can observe. A MAJ computes
//! straight from the rows its staging copies would read, and its TRA
//! write-back into T0–T2 stays owed: the next MAJ restages all three
//! rows anyway. Until the debt is settled, T0–T2 read, snapshot and
//! count (for refresh) as materialised copies of the result row; it is
//! settled only before T0–T2 or the result row change.

use crate::command::Command;
use crate::energy::{EnergyModel, LatencyModel};
use crate::engine::{majority_words, RowStore};
use crate::geometry::{MemoryGeometry, RowId};
use crate::schedule::MakespanClock;
use crate::stats::ExecStats;
use crate::{ArchError, BulkBackend};

/// Number of rows reserved at the top of the address space for compute
/// (T0–T2), control (C0, C1), DCC and general scratch.
const RESERVED_ROWS: u64 = 16;

/// The Ambit-style DRAM backend.
#[derive(Debug, Clone)]
pub struct DramBackend {
    geometry: MemoryGeometry,
    store: RowStore,
    energy: EnergyModel,
    latency: LatencyModel,
    stats: ExecStats,
    refreshed: bool,
    command_log: Option<Vec<Command>>,
    /// Serial and subarray-parallel cycles since the last
    /// [`take_batch_cycles`](BulkBackend::take_batch_cycles).
    clock: MakespanClock,
    /// The row whose copy T0–T2 still owe from the last TRA write-back.
    owed: Option<RowId>,
}

impl DramBackend {
    /// Creates a backend over the given geometry with the paper's energy
    /// and latency constants.
    pub fn new(geometry: MemoryGeometry) -> Self {
        let mut backend = Self {
            geometry,
            energy: EnergyModel::dram(),
            latency: LatencyModel::paper_default(),
            stats: ExecStats::new(),
            refreshed: false,
            store: RowStore::new(geometry),
            command_log: None,
            clock: MakespanClock::per_subarray(&geometry),
            owed: None,
        };
        // Control rows hold their constants from initialisation on.
        let (c0, c1) = (backend.c0(), backend.c1());
        backend.store.fill(c0, 0).expect("control row C0 in range");
        backend.store.fill(c1, !0).expect("control row C1 in range");
        backend
    }

    /// Decodes a [`snapshot_state`](BulkBackend::snapshot_state) buffer
    /// into a fresh backend with this one's configuration, or `None` on
    /// malformed input or another geometry. The command log (if kept) and
    /// the batch clock restart empty.
    fn decode_snapshot(&self, buf: &[u8]) -> Option<Self> {
        use crate::snapshot::{take_bool, take_u64, take_u8};
        let mut pos = 0usize;
        let header_ok = take_u8(buf, &mut pos)? == 1
            && take_u64(buf, &mut pos)? == self.geometry.total_rows()
            && take_u64(buf, &mut pos)? == self.geometry.row_words() as u64;
        if !header_ok {
            return None;
        }
        let pos = &mut pos;
        let restored = Self {
            geometry: self.geometry,
            store: RowStore::decode_state(self.geometry, buf, pos)?,
            energy: self.energy,
            latency: self.latency,
            stats: ExecStats::decode_state(buf, pos)?,
            refreshed: take_bool(buf, pos)?,
            command_log: self.command_log.as_ref().map(|_| Vec::new()),
            clock: MakespanClock::per_subarray(&self.geometry),
            owed: None,
        };
        (*pos == buf.len()).then_some(restored)
    }

    /// The paper's 8 GB configuration.
    pub fn default_8gb() -> Self {
        Self::new(MemoryGeometry::paper_8gb())
    }

    /// A small instance for tests.
    pub fn tiny() -> Self {
        Self::new(MemoryGeometry::tiny())
    }

    fn reserved_base(&self) -> u64 {
        self.geometry.total_rows() - RESERVED_ROWS
    }

    fn t(&self, i: u64) -> RowId {
        RowId(self.reserved_base() + i) // T0..T2
    }

    fn c0(&self) -> RowId {
        RowId(self.reserved_base() + 3)
    }

    fn c1(&self) -> RowId {
        RowId(self.reserved_base() + 4)
    }

    fn dcc(&self) -> RowId {
        RowId(self.reserved_base() + 5)
    }

    fn is_compute_row(&self, row: RowId) -> bool {
        (self.t(0).0..=self.t(2).0).contains(&row.0)
    }

    /// The row holding `row`'s words: the owed result row for T0–T2,
    /// `row` itself otherwise.
    fn holding(&self, row: RowId) -> RowId {
        match self.owed {
            Some(result) if self.is_compute_row(row) => result,
            _ => row,
        }
    }

    /// Makes the owed TRA write-back: copies the result row into T0–T2.
    fn settle(&mut self) {
        if let Some(result) = self.owed.take() {
            for i in 0..3 {
                let t = self.t(i);
                self.store
                    .copy_row(result, t)
                    .expect("the result and compute rows lie in the array");
            }
        }
    }

    /// Settles the owed write-back before `row` changes: a compute row
    /// would be overwritten by it later, the result row would take its
    /// copies' contents with it.
    fn before_write(&mut self, row: RowId) {
        if self.is_compute_row(row) || self.owed == Some(row) {
            self.settle();
        }
    }

    /// First data row that user code must not exceed.
    pub fn first_reserved_row(&self) -> RowId {
        RowId(self.reserved_base())
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

    /// AAP copy: ACTIVATE(src) + RowClone(dst) + PRECHARGE.
    fn aap_copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.issue(Command::Activate(src));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        self.before_write(dst);
        self.store.copy_row(self.holding(src), dst)
    }

    /// The MAJ-based two-operand op: AAPs stage `a`, `b` and the control
    /// row into T0–T2, then an AAP with TRA writes their MAJORITY into
    /// `dst` and back into all three compute rows — 4 AAPs total
    /// (12 cycles, 182.1 nJ).
    ///
    /// The functional model computes the MAJORITY straight from the rows
    /// the staging copies would read and leaves the write-back owed.
    fn maj_op(&mut self, a: RowId, b: RowId, control: RowId, dst: RowId) -> Result<(), ArchError> {
        let staged = [a, b, control];
        for (i, src) in staged.into_iter().enumerate() {
            self.issue(Command::Activate(src));
            self.issue(Command::RowClone {
                dst: self.t(i as u64),
            });
            self.issue(Command::Precharge);
            if !self.geometry.contains(src) {
                return self.abort_staging(&staged[..i], src);
            }
        }
        let (t0, t1, t2) = (self.t(0), self.t(1), self.t(2));
        self.issue(Command::TripleRowActivate(t0, t1, t2));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        if !self.geometry.contains(dst) {
            return self.abort_staging(&staged, dst);
        }
        // Stage i copies into T_i, so a later stage naming an earlier
        // stage's compute row reads that stage's source.
        let mut sources = staged;
        for i in 0..3 {
            sources[i] = match (0..i).find(|&j| staged[i] == self.t(j as u64)) {
                Some(j) => sources[j],
                None => self.holding(staged[i]),
            };
        }
        let [x, y, z] = sources;
        self.store.combine3(x, y, z, dst, majority_words)?;
        self.owed = Some(dst);
        Ok(())
    }

    /// The effects of a MAJ whose chain stops at out-of-range `bad`: the
    /// staging copies of `done` landed, then the command failed.
    fn abort_staging(&mut self, done: &[RowId], bad: RowId) -> Result<(), ArchError> {
        self.settle();
        for (i, &src) in done.iter().enumerate() {
            self.store.copy_row(src, self.t(i as u64))?;
        }
        Err(ArchError::RowOutOfRange {
            row: bad.0,
            rows: self.geometry.total_rows(),
        })
    }

    /// Refresh statistics for a full-scale run of `runtime_s` seconds over
    /// `live_rows` materialised rows: one whole-region refresh sweep per
    /// elapsed 64 ms window. Exposed separately so workload drivers can
    /// apply refresh to *extrapolated* runtimes.
    pub fn refresh_stats(
        energy: &EnergyModel,
        latency: &LatencyModel,
        runtime_s: f64,
        live_rows: u64,
    ) -> ExecStats {
        let mut stats = ExecStats::new();
        let windows = (runtime_s / latency.refresh_interval_s()).floor() as u64;
        if windows > 0 && live_rows > 0 {
            let cmd = Command::Refresh { rows: live_rows };
            for _ in 0..windows {
                stats.record(cmd.class(), latency.cycles(&cmd), energy.energy_nj(&cmd));
            }
        }
        stats
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Rows materialised so far (the refresh-liable region), counting
    /// T0–T2 as materialised while they owe their write-back.
    pub fn live_rows(&self) -> u64 {
        let pending = match self.owed {
            Some(_) => (0..3)
                .filter(|&i| matches!(self.store.row(self.t(i)), Ok(None)))
                .count(),
            None => 0,
        };
        self.store.touched_rows() + pending as u64
    }
}

impl BulkBackend for DramBackend {
    fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.issue(Command::WriteRow(row));
        self.before_write(row);
        self.store.write(row, data)
    }

    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.before_write(row);
        self.store.write(row, data)
    }

    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.issue(Command::ReadRow(row));
        self.store.read(self.holding(row))
    }

    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        // AAP(src → DCC); AAP(DCC̄ → dst): the dual-contact cell exposes
        // the complemented plate on the second activation.
        self.aap_copy(src, self.dcc())?;
        let dcc = self.dcc();
        self.issue(Command::Activate(dcc));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        self.before_write(dst);
        self.store.map(dcc, dst, |w| !w)
    }

    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.maj_op(a, b, self.c0(), dst)
    }

    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.maj_op(a, b, self.c1(), dst)
    }

    fn nand(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        let t3 = RowId(self.reserved_base() + 6);
        self.and(a, b, t3)?;
        self.not(t3, dst)
    }

    fn nor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        let t3 = RowId(self.reserved_base() + 6);
        self.or(a, b, t3)?;
        self.not(t3, dst)
    }

    fn xor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        // or(and(a, !b), and(!a, b)) — Ambit's composition.
        let na = RowId(self.reserved_base() + 7);
        let nb = RowId(self.reserved_base() + 8);
        let x = RowId(self.reserved_base() + 9);
        let y = RowId(self.reserved_base() + 10);
        self.not(a, na)?;
        self.not(b, nb)?;
        self.and(a, nb, x)?;
        self.and(na, b, y)?;
        self.or(x, y, dst)
    }

    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.aap_copy(src, dst)
    }

    fn scratch_rows(&self, count: usize) -> Vec<RowId> {
        assert!(count <= 5, "at most 5 general scratch rows");
        (0..count as u64)
            .map(|i| RowId(self.reserved_base() + 11 + i))
            .collect()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn finish(&mut self) -> ExecStats {
        if !self.refreshed {
            let runtime = self.latency.seconds(self.stats.total_cycles());
            let refresh =
                Self::refresh_stats(&self.energy, &self.latency, runtime, self.live_rows());
            self.stats.merge(&refresh);
            self.refreshed = true;
        }
        self.stats.clone()
    }

    fn tech_name(&self) -> &'static str {
        "1T-1C DRAM (Ambit AAP)"
    }

    fn stored_row(&self, row: RowId) -> Result<Option<&[u64]>, ArchError> {
        self.store.row(self.holding(row))
    }

    fn decay_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        // Charge-leakage upset: flip the stored bits without issuing any
        // command or charging the cost model.
        self.before_write(row);
        self.store.xor_row(row, mask)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        use crate::snapshot::{put_bool, put_u64, put_u8};
        let mut out = Vec::new();
        put_u8(&mut out, 1); // DRAM snapshot version
        put_u64(&mut out, self.geometry.total_rows());
        put_u64(&mut out, self.geometry.row_words() as u64);
        match self.owed {
            Some(result) => {
                let compute = [self.t(0), self.t(1), self.t(2)];
                self.store.encode_state_copying(&mut out, result, &compute);
            }
            None => self.store.encode_state(&mut out),
        }
        self.stats.encode_state(&mut out);
        put_bool(&mut out, self.refreshed);
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

    fn backend() -> DramBackend {
        DramBackend::tiny()
    }

    fn row_of(backend: &DramBackend, word: u64) -> Vec<u64> {
        vec![word; backend.geometry().row_words()]
    }

    #[test]
    fn and_or_not_functional() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 0b1100)).unwrap();
        m.write_row(b, &row_of(&m, 0b1010)).unwrap();
        m.and(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b1000);
        m.or(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b1110);
        m.not(a, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1100u64);
        m.nand(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1000u64);
        m.nor(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], !0b1110u64);
        m.xor(a, b, d).unwrap();
        assert_eq!(m.read_row(d).unwrap()[0], 0b0110);
    }

    #[test]
    fn operands_survive_logic_ops() {
        // The whole point of the AAP staging: user rows are only read.
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 0xDEAD)).unwrap();
        m.write_row(b, &row_of(&m, 0xBEEF)).unwrap();
        m.and(a, b, d).unwrap();
        assert_eq!(m.read_row(a).unwrap()[0], 0xDEAD);
        assert_eq!(m.read_row(b).unwrap()[0], 0xBEEF);
    }

    #[test]
    fn and_costs_four_aaps() {
        let mut m = backend();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        m.write_row(a, &row_of(&m, 1)).unwrap();
        m.write_row(b, &row_of(&m, 2)).unwrap();
        let before = m.stats().clone();
        m.and(a, b, d).unwrap();
        let act = m.stats().count(CommandClass::Activate) - before.count(CommandClass::Activate);
        let pre = m.stats().count(CommandClass::Precharge) - before.count(CommandClass::Precharge);
        assert_eq!(act, 8, "4 AAPs = 8 activates");
        assert_eq!(pre, 4);
        let d_cycles = m.stats().total_cycles() - before.total_cycles();
        assert_eq!(d_cycles, 12);
        let d_energy = m.stats().total_energy_nj() - before.total_energy_nj();
        assert!((d_energy - 4.0 * 45.52).abs() < 1e-9, "got {d_energy}");
    }

    #[test]
    fn not_costs_two_aaps() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        let before = m.stats().total_cycles();
        m.not(RowId(0), RowId(1)).unwrap();
        assert_eq!(m.stats().total_cycles() - before, 6);
    }

    #[test]
    fn copy_costs_one_aap() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 7)).unwrap();
        let before = m.stats().total_cycles();
        m.copy(RowId(0), RowId(1)).unwrap();
        assert_eq!(m.stats().total_cycles() - before, 3);
        assert_eq!(m.read_row(RowId(1)).unwrap()[0], 7);
    }

    #[test]
    fn refresh_charged_per_window() {
        let e = EnergyModel::dram();
        let l = LatencyModel::paper_default();
        // 0.5 s runtime → 7 windows of 64 ms; 100 live rows.
        let s = DramBackend::refresh_stats(&e, &l, 0.5, 100);
        assert_eq!(s.count(CommandClass::Refresh), 7);
        assert!((s.total_energy_nj() - 7.0 * 100.0 * 22.92).abs() < 1e-6);
        // Short runs refresh nothing.
        let s = DramBackend::refresh_stats(&e, &l, 0.01, 100);
        assert_eq!(s.total_cycles(), 0);
    }

    #[test]
    fn finish_adds_refresh_once() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 1)).unwrap();
        let s1 = m.finish();
        let s2 = m.finish();
        assert_eq!(s1, s2, "finish must be idempotent");
    }

    #[test]
    fn live_rows_count_the_owed_compute_rows() {
        let mut m = backend();
        m.write_row(RowId(0), &row_of(&m, 3)).unwrap();
        m.write_row(RowId(1), &row_of(&m, 5)).unwrap();
        assert_eq!(m.live_rows(), 4, "two data rows, C0 and C1");
        m.and(RowId(0), RowId(1), RowId(2)).unwrap();
        assert_eq!(m.live_rows(), 8, "and T0–T2 and the result");
        let t1 = RowId(m.first_reserved_row().0 + 1);
        assert_eq!(m.read_row(t1).unwrap()[0], 1, "T1 holds the result");
        m.write_row(RowId(2), &row_of(&m, 0)).unwrap();
        assert_eq!(m.live_rows(), 8);
        assert_eq!(m.read_row(t1).unwrap()[0], 1, "T1 kept its copy");
    }

    #[test]
    fn scratch_rows_are_reserved_and_disjoint() {
        let m = backend();
        let s = m.scratch_rows(5);
        assert_eq!(s.len(), 5);
        for r in &s {
            assert!(r.0 >= m.first_reserved_row().0);
            assert!(m.geometry().contains(*r));
        }
    }

    #[test]
    fn out_of_range_rows_are_typed_errors() {
        let mut m = backend();
        let far = RowId(m.geometry().total_rows() + 1);
        assert!(matches!(
            m.write_row(far, &row_of(&m, 0)),
            Err(ArchError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            m.and(RowId(0), RowId(1), far),
            Err(ArchError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn tech_name_mentions_dram() {
        assert!(backend().tech_name().contains("DRAM"));
    }
}
