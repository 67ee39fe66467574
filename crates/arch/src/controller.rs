//! The reliability controller: SECDED + patrol scrub + drift, composed.
//!
//! [`ReliabilityController`] wraps any [`BulkBackend`] and closes the
//! storage-reliability loop that [`DegradationPolicy`](crate::fault::DegradationPolicy)
//! leaves open. The degradation policy defends the *compute path* —
//! transient sense and read-wire flips are outvoted, failed writes are
//! retried and retired. It has no answer for *storage* decay: a bit that
//! rots in place after a verified write reads back consistently wrong,
//! so a majority vote over three reads of the same rotten cell happily
//! confirms the corruption. The controller's three pieces close exactly
//! that gap:
//!
//! * **SECDED** ([`crate::ecc`]) — every row written through the
//!   controller carries a per-word (72,64) side-band. Reads repair
//!   single-bit upsets transparently; double-bit upsets escalate as
//!   [`ArchError::Uncorrectable`] instead of returning silent garbage.
//! * **drift** ([`crate::drift`]) — the physics that rots the bits:
//!   retention, imprint and read disturb, derived from `felim-ferro` and
//!   advanced by [`ReliabilityController::tick`]. Upsets land in the
//!   backing store through [`BulkBackend::decay_row`], costing nothing —
//!   the environment did it, not a command.
//! * **patrol scrub** ([`crate::scrub`]) — the repair loop: on its
//!   period the controller re-reads every protected row (real reads,
//!   real cost), rewrites any row that needed correction (real writes —
//!   which also reset the row's retention/imprint hold clocks), and
//!   proactively rewrites wear-hot scratch rows so the backend's
//!   rotation machinery moves them to spares *before* they fail.
//!
//! With the controller disabled (i.e. not constructed) nothing in this
//! module runs: backends, cost model and Fig 6 goldens are bit-identical
//! to the pre-controller stack.
//!
//! The controller is itself a [`BulkBackend`], so wrapping is the whole
//! integration — callers keep issuing the same row ops:
//!
//! ```
//! use felim_arch::{
//!     BulkBackend, ControllerConfig, DriftSpec, FeramBackend, ReliabilityController, RowId,
//! };
//!
//! let inner = FeramBackend::tiny();
//! let config = ControllerConfig::protected(DriftSpec::quiet(42), 300.0);
//! let mut mem = ReliabilityController::new(inner, config);
//!
//! let words = mem.geometry().row_words();
//! mem.write_row(RowId(7), &vec![0xDEAD_BEEF; words])?;   // encodes SECDED side-band
//! mem.tick(600.0)?;                                      // 10 min of drift + a patrol pass
//! assert_eq!(mem.read_row(RowId(7))?[0], 0xDEAD_BEEF);   // decoded (and repaired) on read
//! assert!(mem.controller_stats().scrub_passes >= 1);
//! # Ok::<(), felim_arch::ArchError>(())
//! ```

use crate::drift::{DriftProcess, DriftSpec};
use crate::ecc::RowCode;
use crate::fault::ReliabilityStats;
use crate::geometry::{MemoryGeometry, RowId, RowTable};
use crate::scrub::{PatrolScrubber, ScrubConfig};
use crate::stats::ExecStats;
use crate::{ArchError, BulkBackend};
use felim_telemetry::CachedCounter;
use serde::Serialize;

/// What the controller runs: ECC on/off, an optional scrub schedule, and
/// the drift environment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControllerConfig {
    /// Keep a SECDED side-band per written row, check on every read.
    pub ecc: bool,
    /// Patrol-scrub schedule; `None` disables scrubbing.
    pub scrub: Option<ScrubConfig>,
    /// The storage fault environment.
    pub drift: DriftSpec,
}

impl ControllerConfig {
    /// Full protection: ECC plus a patrol pass every `scrub_period_s`.
    pub fn protected(drift: DriftSpec, scrub_period_s: f64) -> Self {
        Self {
            ecc: true,
            scrub: Some(ScrubConfig::every(scrub_period_s)),
            drift,
        }
    }

    /// ECC only — detect and correct, never repair in place.
    pub fn ecc_only(drift: DriftSpec) -> Self {
        Self {
            ecc: true,
            scrub: None,
            drift,
        }
    }

    /// Neither ECC nor scrub: the drift environment runs against a bare
    /// backend — the ablation baseline that quantifies silent corruption.
    pub fn unprotected(drift: DriftSpec) -> Self {
        Self {
            ecc: false,
            scrub: None,
            drift,
        }
    }
}

/// Counters kept by the controller itself (the wrapped backend keeps its
/// own [`ReliabilityStats`] and [`ExecStats`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ControllerStats {
    /// Data bits repaired by SECDED on reads and scrub passes.
    pub corrected_bits: u64,
    /// Check-bit upsets absorbed (data was never wrong).
    pub corrected_check_bits: u64,
    /// Words that decoded uncorrectable (each is also surfaced to the
    /// caller as [`ArchError::Uncorrectable`]).
    pub uncorrectable_words: u64,
    /// Completed patrol passes.
    pub scrub_passes: u64,
    /// Rows rewritten by the patrol (corrections + hot-row rotation).
    pub scrub_rewrites: u64,
    /// Drift clock ticks taken.
    pub drift_ticks: u64,
    /// Storage bits the drift process flipped.
    pub drift_flips: u64,
}

impl ControllerStats {
    fn note_corrected(&mut self, bits: u64) {
        static CORRECTED: CachedCounter = CachedCounter::new("arch.ecc.corrected");
        self.corrected_bits += bits;
        CORRECTED.add(bits);
    }

    fn note_uncorrectable(&mut self, words: u64) {
        static UNCORRECTABLE: CachedCounter = CachedCounter::new("arch.ecc.uncorrectable");
        self.uncorrectable_words += words;
        UNCORRECTABLE.add(words);
    }

    /// Appends every counter to a state snapshot, in declaration order.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::put_u64;
        for v in [
            self.corrected_bits,
            self.corrected_check_bits,
            self.uncorrectable_words,
            self.scrub_passes,
            self.scrub_rewrites,
            self.drift_ticks,
            self.drift_flips,
        ] {
            put_u64(out, v);
        }
    }

    /// Decodes counters written by [`ControllerStats::encode_state`].
    /// `None` on short input.
    pub fn decode_state(buf: &[u8], pos: &mut usize) -> Option<ControllerStats> {
        use crate::snapshot::take_u64;
        Some(ControllerStats {
            corrected_bits: take_u64(buf, pos)?,
            corrected_check_bits: take_u64(buf, pos)?,
            uncorrectable_words: take_u64(buf, pos)?,
            scrub_passes: take_u64(buf, pos)?,
            scrub_rewrites: take_u64(buf, pos)?,
            drift_ticks: take_u64(buf, pos)?,
            drift_flips: take_u64(buf, pos)?,
        })
    }
}

/// Point-in-time health of a protected memory, exported for the serving
/// layer's replica manager: failover decisions compare these signals
/// against configurable thresholds (see `felim-serve`'s
/// `ReplicationConfig`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ControllerHealth {
    /// Words that decoded uncorrectable — each one also surfaced to a
    /// caller as [`ArchError::Uncorrectable`].
    pub uncorrectable_words: u64,
    /// Data bits SECDED repaired (a leading indicator: correction load
    /// rises before escalations start).
    pub corrected_bits: u64,
    /// Rows the patrol rewrote (corrections plus hot-row rotation).
    pub scrub_rewrites: u64,
    /// Storage bits the drift environment flipped.
    pub drift_flips: u64,
    /// Worst wear fraction across all drift-tracked rows, in `[0, 1]`.
    pub max_wear_fraction: f64,
}

/// A [`BulkBackend`] wrapper that adds SECDED ECC, time-driven storage
/// drift, and patrol scrubbing. See the module docs for the division of
/// labour against [`DegradationPolicy`](crate::fault::DegradationPolicy).
#[derive(Debug, Clone)]
pub struct ReliabilityController<B: BulkBackend> {
    inner: B,
    config: ControllerConfig,
    drift: DriftProcess,
    scrubber: Option<PatrolScrubber>,
    /// SECDED side-bands for every row written through the controller.
    codes: RowTable<RowCode>,
    stats: ControllerStats,
}

impl<B: BulkBackend> ReliabilityController<B> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: B, config: ControllerConfig) -> Self {
        let geometry = *inner.geometry();
        let drift = DriftProcess::new(config.drift.clone(), &geometry);
        let scrubber = config.scrub.map(PatrolScrubber::new);
        Self {
            inner,
            config,
            drift,
            scrubber,
            codes: RowTable::new(geometry.total_rows()),
            stats: ControllerStats::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend — for maintenance paths
    /// that live on the concrete type (e.g. clearing a command log
    /// between batches). Mutating row *contents* through this handle
    /// bypasses the SECDED side-band and will surface as corruption on
    /// the next protected read.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwraps the controller, returning the backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The configuration in force.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The controller's own counters.
    pub fn controller_stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The drift process (clock, flip totals).
    pub fn drift(&self) -> &DriftProcess {
        &self.drift
    }

    /// The patrol scrubber, if scrubbing is enabled.
    pub fn scrubber(&self) -> Option<&PatrolScrubber> {
        self.scrubber.as_ref()
    }

    /// Restores from a [`snapshot_state`](BulkBackend::snapshot_state)
    /// buffer. `None` on malformed input or a configuration that differs
    /// from this controller's, with the controller unchanged: every part
    /// is decoded into temporaries, and the wrapped backend (which
    /// restores atomically itself) is restored before any is committed.
    fn try_restore(&mut self, buf: &[u8]) -> Option<()> {
        use crate::snapshot::{take_bool, take_bytes, take_table, take_u64, take_u8};
        let mut pos = 0usize;
        if take_u8(buf, &mut pos)? != 2 || take_bool(buf, &mut pos)? != self.config.ecc {
            return None;
        }
        let geometry = *self.inner.geometry();
        let mut drift = self.drift.clone();
        drift.restore_state(buf, &mut pos)?;
        let scrubber = match (take_bool(buf, &mut pos)?, self.scrubber.clone()) {
            (true, Some(mut s)) => {
                s.restore_state(buf, &mut pos)?;
                Some(s)
            }
            (false, None) => None,
            _ => return None,
        };
        // One SECDED check byte per 64-bit word; every entry is at least
        // a row key and a length prefix.
        let codes = take_table(buf, &mut pos, geometry.total_rows(), 16, |buf, pos| {
            let row = take_u64(buf, pos)?;
            let checks = take_bytes(buf, pos)?;
            (checks.len() == geometry.row_words()).then(|| (row, RowCode::from_checks(checks)))
        })?;
        let stats = ControllerStats::decode_state(buf, &mut pos)?;
        let inner = take_bytes(buf, &mut pos)?;
        if pos != buf.len() || !self.inner.restore_state(&inner) {
            return None;
        }
        self.drift = drift;
        self.scrubber = scrubber;
        self.codes = codes;
        self.stats = stats;
        Some(())
    }

    /// Re-encodes the side-band for a row that now holds fresh data and
    /// restarts its drift clocks.
    fn protect(&mut self, row: RowId) -> Result<(), ArchError> {
        self.drift.note_write(row);
        if !self.config.ecc {
            return Ok(());
        }
        // When `stored_row` is `None` the backend either holds implicit
        // zeros or exposes no raw storage; encode over zeros in the first
        // case and drop protection in the second (`stored_row` cannot
        // distinguish them — both decode every all-zero read as clean, so
        // the conservative choice is identical).
        let stored = self.inner.stored_row(row)?;
        // `stored_row` checked the row, so the table holds it.
        let Some(code) = self.codes.get_or_default(row.0) else {
            return Ok(());
        };
        match stored {
            Some(stored) => code.reencode(stored),
            None => code.reencode_zeros(self.inner.geometry().row_words()),
        }
        Ok(())
    }

    /// Runs the SECDED check over freshly read data, repairing in place.
    /// Uncorrectable words escalate as [`ArchError::Uncorrectable`].
    fn check_read(&mut self, row: RowId, data: &mut [u64]) -> Result<(), ArchError> {
        if !self.config.ecc {
            return Ok(());
        }
        let Some(code) = self.codes.get(row.0) else {
            return Ok(());
        };
        let outcome = code.check_row(data);
        self.stats.corrected_check_bits += outcome.corrected_check_bits;
        if outcome.corrected_bits > 0 {
            self.stats.note_corrected(outcome.corrected_bits);
        }
        if !outcome.is_correctable() {
            self.stats
                .note_uncorrectable(outcome.uncorrectable_words.len() as u64);
            return Err(ArchError::Uncorrectable {
                row: row.0,
                words: outcome.uncorrectable_words,
            });
        }
        Ok(())
    }

    fn run_due_scrub_passes(&mut self) -> Result<(), ArchError> {
        while self.scrubber.as_ref().is_some_and(PatrolScrubber::due) {
            let tracked = self.drift.tracked_count();
            let pass = self.scrubber.as_mut().and_then(|s| s.begin_pass(tracked));
            // `None` here: nothing tracked, the due pass was consumed
            // empty — keep draining periods. A visit rewrites only
            // tracked rows, so the walk order holds still under it.
            if let Some((start, count)) = pass {
                for i in 0..count {
                    if let Some(row) = self.drift.tracked_row((start + i) % tracked) {
                        self.scrub_row(row)?;
                    }
                }
            }
        }
        if let Some(scrubber) = self.scrubber.as_ref() {
            self.stats.scrub_passes = scrubber.passes();
            self.stats.scrub_rewrites = scrubber.rewrites();
        }
        Ok(())
    }

    /// One patrol visit: read the row (real cost), repair what SECDED
    /// can, rewrite when repair or wear-rotation calls for it.
    fn scrub_row(&mut self, row: RowId) -> Result<(), ArchError> {
        let mut data = self.inner.read_row(row)?;
        let hot = self
            .config
            .scrub
            .is_some_and(|s| self.inner.wear_fraction(row) >= s.hot_row_fraction);
        let mut rewrite = hot;
        if self.config.ecc {
            if let Some(code) = self.codes.get(row.0) {
                let outcome = code.check_row(&mut data);
                self.stats.corrected_check_bits += outcome.corrected_check_bits;
                if outcome.corrected_bits > 0 {
                    self.stats.note_corrected(outcome.corrected_bits);
                }
                if !outcome.is_correctable() {
                    // Known-bad row: counted here, escalated by the next
                    // host read. Rewriting would bless the corruption.
                    self.stats
                        .note_uncorrectable(outcome.uncorrectable_words.len() as u64);
                    return Ok(());
                }
                rewrite |= !outcome.is_clean();
            }
        } else {
            // Without ECC the patrol cannot see rot: it degrades to a
            // refresh loop, rewriting each visited row as-read.
            rewrite = true;
        }
        if rewrite {
            self.write_row(row, &data)?;
            if let Some(scrubber) = self.scrubber.as_mut() {
                scrubber.note_rewrite();
            }
        }
        Ok(())
    }
}

impl<B: BulkBackend> BulkBackend for ReliabilityController<B> {
    fn geometry(&self) -> &MemoryGeometry {
        self.inner.geometry()
    }

    fn write_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.inner.write_row(row, data)?;
        self.protect(row)
    }

    fn install_row(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.inner.install_row(row, data)?;
        self.protect(row)
    }

    fn read_row(&mut self, row: RowId) -> Result<Vec<u64>, ArchError> {
        let mut data = self.inner.read_row(row)?;
        self.drift.note_read(row);
        self.check_read(row, &mut data)?;
        Ok(data)
    }

    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.not(src, dst)?;
        self.drift.note_read(src);
        self.protect(dst)
    }

    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.and(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.or(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn nand(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.nand(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn nor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.nor(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn xor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        // Delegate so the wrapped technology keeps its native composition
        // (and its native cost); the scratch intermediates stay outside
        // the protected set — they never outlive the op.
        self.inner.xor(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn xnor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.xnor(a, b, dst)?;
        self.drift.note_read(a);
        self.drift.note_read(b);
        self.protect(dst)
    }

    fn copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.inner.copy(src, dst)?;
        self.drift.note_read(src);
        self.protect(dst)
    }

    fn scratch_rows(&self, count: usize) -> Vec<RowId> {
        self.inner.scratch_rows(count)
    }

    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }

    fn reliability(&self) -> Option<&ReliabilityStats> {
        self.inner.reliability()
    }

    fn finish(&mut self) -> ExecStats {
        self.inner.finish()
    }

    fn tech_name(&self) -> &'static str {
        self.inner.tech_name()
    }

    fn stored_row(&self, row: RowId) -> Result<Option<&[u64]>, ArchError> {
        self.inner.stored_row(row)
    }

    fn decay_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        self.inner.decay_row(row, mask)
    }

    fn wear_fraction(&self, row: RowId) -> f64 {
        self.inner.wear_fraction(row)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        use crate::snapshot::{put_bool, put_bytes, put_table, put_u64, put_u8};
        let inner = self.inner.snapshot_state()?;
        let mut out = Vec::new();
        put_u8(&mut out, 2); // controller snapshot version
        put_bool(&mut out, self.config.ecc);
        self.drift.encode_state(&mut out);
        match self.scrubber.as_ref() {
            Some(s) => {
                put_bool(&mut out, true);
                s.encode_state(&mut out);
            }
            None => put_bool(&mut out, false),
        }
        put_table(&mut out, &self.codes, |out, row, code| {
            put_u64(out, row);
            put_bytes(out, code.checks());
        });
        self.stats.encode_state(&mut out);
        put_bytes(&mut out, &inner);
        Some(out)
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> bool {
        self.try_restore(snapshot).is_some()
    }

    fn take_batch_cycles(&mut self) -> (u64, u64) {
        self.inner.take_batch_cycles()
    }

    /// Drift upsets land in storage, then any due patrol passes run.
    /// Uncorrectable rows found *by the patrol* do not error — they are
    /// counted and left for the owning read to escalate.
    fn tick(&mut self, dt_s: f64) -> Result<(), ArchError> {
        static TICKS: CachedCounter = CachedCounter::new("arch.drift.ticks");
        self.drift.tick(dt_s);
        self.stats.drift_ticks += 1;
        TICKS.inc();
        let words = self.inner.geometry().row_words();
        // Sampling never tracks a row, so the walk order holds still.
        let mut index = 0;
        while let Some(row) = self.drift.tracked_row(index) {
            let wear = self.inner.wear_fraction(row);
            if let Some(mask) = self.drift.sample_row(row, words, dt_s, wear) {
                self.inner.decay_row(row, &mask)?;
            }
            index += 1;
        }
        self.stats.drift_flips = self.drift.flips_injected();
        if let Some(scrubber) = self.scrubber.as_mut() {
            scrubber.advance(dt_s);
            self.run_due_scrub_passes()?;
        }
        Ok(())
    }

    fn health(&self) -> ControllerHealth {
        let max_wear_fraction = self
            .drift
            .tracked()
            .map(|row| self.inner.wear_fraction(row))
            .fold(0.0, f64::max);
        ControllerHealth {
            uncorrectable_words: self.stats.uncorrectable_words,
            corrected_bits: self.stats.corrected_bits,
            scrub_rewrites: self.stats.scrub_rewrites,
            drift_flips: self.stats.drift_flips,
            max_wear_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feram_backend::FeramBackend;

    fn row_of(words: usize, word: u64) -> Vec<u64> {
        vec![word; words]
    }

    fn protected(period_s: f64) -> ReliabilityController<FeramBackend> {
        let spec = DriftSpec::accelerated(42, 390.0, 0.0);
        ReliabilityController::new(
            FeramBackend::tiny(),
            ControllerConfig::protected(spec, period_s),
        )
    }

    #[test]
    fn clean_path_is_transparent() {
        let mut c = protected(3600.0);
        let words = c.geometry().row_words();
        let (a, b, d) = (RowId(0), RowId(1), RowId(2));
        c.write_row(a, &row_of(words, 0b1100)).unwrap();
        c.write_row(b, &row_of(words, 0b1010)).unwrap();
        c.nand(a, b, d).unwrap();
        assert_eq!(c.read_row(d).unwrap()[0], !0b1000u64);
        assert!(c.controller_stats().corrected_bits == 0);
    }

    #[test]
    fn single_bit_upsets_are_corrected_on_read() {
        let mut c = protected(3600.0);
        let words = c.geometry().row_words();
        let data = row_of(words, 0xDEAD_BEEF_F00D_CAFE);
        c.write_row(RowId(0), &data).unwrap();
        // One environmental flip.
        let mut mask = vec![0u64; words];
        mask[5] = 1 << 17;
        assert!(c.decay_row(RowId(0), &mask).unwrap());
        assert_eq!(c.read_row(RowId(0)).unwrap(), data, "repaired");
        assert_eq!(c.controller_stats().corrected_bits, 1);
    }

    #[test]
    fn double_bit_upsets_escalate_as_uncorrectable() {
        let mut c = protected(3600.0);
        let words = c.geometry().row_words();
        c.write_row(RowId(0), &row_of(words, 0xAAAA)).unwrap();
        let mut mask = vec![0u64; words];
        mask[2] = (1 << 3) | (1 << 40);
        c.decay_row(RowId(0), &mask).unwrap();
        match c.read_row(RowId(0)) {
            Err(ArchError::Uncorrectable { row: 0, words }) => assert_eq!(words, vec![2]),
            other => panic!("expected Uncorrectable, got {other:?}"),
        }
        assert_eq!(c.controller_stats().uncorrectable_words, 1);
    }

    #[test]
    fn scrub_repairs_before_upsets_accumulate() {
        // Two single-bit upsets in the same word, separated by a scrub
        // pass: each alone is correctable, together they would not be.
        let mut c = protected(10.0);
        let words = c.geometry().row_words();
        let data = row_of(words, 0x1234_5678);
        c.write_row(RowId(0), &data).unwrap();
        let mut mask = vec![0u64; words];
        mask[7] = 1 << 9;
        c.decay_row(RowId(0), &mask).unwrap();
        // The patrol pass lands between the two upsets and rewrites.
        c.tick(10.0).unwrap();
        assert!(c.scrubber().unwrap().passes() >= 1);
        assert!(c.controller_stats().scrub_rewrites >= 1);
        mask[7] = 1 << 45; // second upset, after repair
        c.decay_row(RowId(0), &mask).unwrap();
        assert_eq!(c.read_row(RowId(0)).unwrap(), data, "never two at once");
    }

    #[test]
    fn skipping_scrub_lets_upsets_accumulate() {
        // The same two upsets without the intervening patrol: double-bit.
        let spec = DriftSpec::accelerated(42, 390.0, 0.0);
        let mut c =
            ReliabilityController::new(FeramBackend::tiny(), ControllerConfig::ecc_only(spec));
        let words = c.geometry().row_words();
        c.write_row(RowId(0), &row_of(words, 0x1234_5678)).unwrap();
        let mut mask = vec![0u64; words];
        mask[7] = 1 << 9;
        c.decay_row(RowId(0), &mask).unwrap();
        c.tick(10.0).unwrap(); // no scrubber: nothing repairs
        mask[7] = 1 << 45;
        c.decay_row(RowId(0), &mask).unwrap();
        assert!(matches!(
            c.read_row(RowId(0)),
            Err(ArchError::Uncorrectable { .. })
        ));
    }

    #[test]
    fn drift_ticks_decay_storage_through_the_backend() {
        let mut c = protected(1e9); // scrub effectively off
        let words = c.geometry().row_words();
        c.write_row(RowId(0), &row_of(words, 0xFFFF_0000_FFFF_0000))
            .unwrap();
        // Hours at 390 K under the accelerated spec: flips must land.
        for _ in 0..10 {
            c.tick(3600.0).unwrap();
        }
        assert!(c.drift().flips_injected() > 0);
        assert_eq!(c.controller_stats().drift_ticks, 10);
        // And the flips are visible in raw storage.
        let raw = c.peek_row(RowId(0)).unwrap().unwrap();
        assert_ne!(raw, row_of(words, 0xFFFF_0000_FFFF_0000));
    }

    #[test]
    fn controller_results_match_bare_backend_when_quiet() {
        // A quiet environment and no faults: the controller must neither
        // change results nor charge differently than the bare backend.
        let mut bare = FeramBackend::tiny();
        let mut c = ReliabilityController::new(
            FeramBackend::tiny(),
            ControllerConfig::protected(DriftSpec::quiet(7), 3600.0),
        );
        let words = bare.geometry().row_words();
        for m in [&mut bare as &mut dyn BulkBackend, &mut c] {
            m.write_row(RowId(0), &row_of(words, 0xF0F0)).unwrap();
            m.write_row(RowId(1), &row_of(words, 0x0FF0)).unwrap();
            m.xor(RowId(0), RowId(1), RowId(2)).unwrap();
        }
        assert_eq!(
            bare.read_row(RowId(2)).unwrap(),
            c.read_row(RowId(2)).unwrap()
        );
        assert_eq!(bare.stats().total_cycles(), c.stats().total_cycles());
        assert_eq!(bare.stats().total_energy_nj(), c.stats().total_energy_nj());
    }

    #[test]
    fn hot_rows_are_rewritten_for_rotation() {
        use crate::fault::{DegradationPolicy, FaultSpec};
        // Tiny wear budget so scratch rows go hot fast, rotating policy.
        let backend = FeramBackend::tiny()
            .with_faults(FaultSpec::none(3).with_wear_budget(50))
            .with_policy(DegradationPolicy {
                scratch_rotation_fraction: 0.2,
                ..DegradationPolicy::none()
            });
        let mut c = ReliabilityController::new(
            backend,
            ControllerConfig::protected(DriftSpec::quiet(3), 1.0),
        );
        let words = c.geometry().row_words();
        c.write_row(RowId(0), &row_of(words, 0xAA)).unwrap();
        c.write_row(RowId(1), &row_of(words, 0x55)).unwrap();
        // Hammer a destination row hot, then let patrols rotate it.
        for _ in 0..15 {
            c.xor(RowId(0), RowId(1), RowId(2)).unwrap();
        }
        c.tick(1.0).unwrap();
        assert!(
            c.controller_stats().scrub_rewrites > 0,
            "hot rows rewritten"
        );
        assert_eq!(c.read_row(RowId(2)).unwrap()[0], 0xAA ^ 0x55);
    }

    #[test]
    fn scrub_without_ecc_degrades_to_refresh() {
        let spec = DriftSpec::quiet(5);
        let mut c = ReliabilityController::new(
            FeramBackend::tiny(),
            ControllerConfig {
                ecc: false,
                scrub: Some(ScrubConfig::every(1.0)),
                drift: spec,
            },
        );
        let words = c.geometry().row_words();
        c.write_row(RowId(0), &row_of(words, 1)).unwrap();
        c.write_row(RowId(1), &row_of(words, 2)).unwrap();
        c.tick(1.0).unwrap();
        // Every tracked row was rewritten blind.
        assert_eq!(c.controller_stats().scrub_rewrites, 2);
    }

    #[test]
    fn tick_composes_deterministically() {
        let run = || {
            let mut c = protected(100.0);
            let words = c.geometry().row_words();
            c.write_row(RowId(0), &row_of(words, 0xABCD)).unwrap();
            c.write_row(RowId(1), &row_of(words, 0x1234)).unwrap();
            for _ in 0..20 {
                c.tick(60.0).unwrap();
            }
            (c.peek_row(RowId(0)).unwrap(), c.controller_stats().clone())
        };
        let (a1, s1) = run();
        let (a2, s2) = run();
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
    }

    /// [`BulkBackend::tick`] as it ran before the hold-time cache and
    /// the kept walk order: a fresh `tracked_rows()` copy per pass and
    /// the pure per-row probability.
    fn reference_tick(
        c: &mut ReliabilityController<FeramBackend>,
        dt_s: f64,
    ) -> Result<(), ArchError> {
        c.drift.tick(dt_s);
        c.stats.drift_ticks += 1;
        let words = c.inner.geometry().row_words();
        for row in c.drift.tracked_rows() {
            let wear = c.inner.wear_fraction(row);
            if let Some(mask) = c.drift.reference_sample_row(row, words, dt_s, wear) {
                c.inner.decay_row(row, &mask)?;
            }
        }
        c.stats.drift_flips = c.drift.flips_injected();
        let Some(scrubber) = c.scrubber.as_mut() else {
            return Ok(());
        };
        scrubber.advance(dt_s);
        while c.scrubber.as_ref().is_some_and(PatrolScrubber::due) {
            let tracked = c.drift.tracked_rows();
            let pass = c
                .scrubber
                .as_mut()
                .and_then(|s| s.begin_pass(tracked.len()));
            if let Some((start, count)) = pass {
                for i in 0..count {
                    c.scrub_row(tracked[(start + i) % tracked.len()])?;
                }
            }
        }
        if let Some(scrubber) = c.scrubber.as_ref() {
            c.stats.scrub_passes = scrubber.passes();
            c.stats.scrub_rewrites = scrubber.rewrites();
        }
        Ok(())
    }

    #[test]
    fn tick_matches_the_per_row_reference_tick() {
        use crate::fault::{DegradationPolicy, FaultSpec};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Two shards: a snapshotable one (compared byte for byte, with a
        // restore midway) and one with a small wear budget and scratch
        // rotation, whose rows reach wear fractions well above zero and
        // whose patrol rewrites hot rows (compared by drift state,
        // counters and every stored row).
        for (seed, worn) in [(3u64, false), (11, true), (29, false), (57, true)] {
            let config =
                ControllerConfig::protected(DriftSpec::accelerated(seed, 390.0, 2e-4), 30.0);
            let build = || {
                let backend = if worn {
                    FeramBackend::tiny()
                        .with_faults(FaultSpec::none(seed).with_wear_budget(400))
                        .with_policy(DegradationPolicy {
                            scratch_rotation_fraction: 0.5,
                            ..DegradationPolicy::none()
                        })
                } else {
                    FeramBackend::tiny()
                };
                ReliabilityController::new(backend, config.clone())
            };
            let (mut fast, mut oracle) = (build(), build());
            let words = fast.geometry().row_words();
            let mut script = StdRng::seed_from_u64(seed ^ 0xc0de);
            let mut flips_seen = false;
            for step in 0..40 {
                let mut outcomes = Vec::new();
                for _ in 0..script.gen_range(0..12) {
                    let (a, b, d) = (
                        RowId(script.gen_range(0..24u64)),
                        RowId(script.gen_range(0..24u64)),
                        RowId(script.gen_range(0..24u64)),
                    );
                    let word = script.gen::<u64>();
                    let kind = script.gen_range(0..4u8);
                    for c in [&mut fast, &mut oracle] {
                        outcomes.push(match kind {
                            0 => c.write_row(d, &row_of(words, word)).map(|()| Vec::new()),
                            1 => c.xor(a, b, d).map(|()| Vec::new()),
                            2 => c.and(a, b, d).map(|()| Vec::new()),
                            _ => c.read_row(a),
                        });
                    }
                }
                let dt = [0.0, 1.0, 10.0, 60.0][script.gen_range(0..4usize)];
                let fast_tick = fast.tick(dt);
                assert_eq!(
                    fast_tick,
                    reference_tick(&mut oracle, dt),
                    "seed {seed} step {step}"
                );
                for pair in outcomes.chunks(2) {
                    assert_eq!(pair[0], pair[1], "seed {seed} step {step}");
                }
                assert_eq!(fast.controller_stats(), oracle.controller_stats());
                assert_eq!(fast.health(), oracle.health());
                let (mut f, mut o) = (Vec::new(), Vec::new());
                fast.drift.encode_state(&mut f);
                oracle.drift.encode_state(&mut o);
                assert_eq!(f, o, "seed {seed} step {step}");
                for row in 0..24 {
                    assert_eq!(fast.peek_row(RowId(row)), oracle.peek_row(RowId(row)));
                }
                assert_eq!(fast.snapshot_state(), oracle.snapshot_state());
                flips_seen |= fast.drift().flips_injected() > 0;
                if step == 20 && !worn {
                    let (mut f2, mut o2) = (build(), build());
                    assert!(f2.restore_state(&fast.snapshot_state().unwrap()));
                    assert!(o2.restore_state(&oracle.snapshot_state().unwrap()));
                    (fast, oracle) = (f2, o2);
                }
            }
            assert!(flips_seen, "seed {seed}: drift never flipped a bit");
            assert!(
                fast.controller_stats().scrub_rewrites > 0,
                "seed {seed}: no patrol rewrite"
            );
            if worn {
                let wear = fast.health().max_wear_fraction;
                assert!(wear > 0.01 && wear < 1.0, "seed {seed}: wear {wear}");
            }
        }
    }

    /// The bad snapshots patch the drift row key of a valid one.
    #[test]
    fn restore_refuses_drift_rows_outside_the_array() {
        let rows = protected(7200.0).geometry().total_rows();
        let mut c = protected(7200.0);
        c.drift.note_write(RowId(rows - 1));
        let good = c.snapshot_state().unwrap();
        // Version and ECC flag; the drift seed, generator state, clock,
        // tick and flip counts and row count; then the only row's key.
        let key = 1 + 1 + 8 + 32 + 8 + 8 + 8 + 8;
        assert_eq!(good[key..key + 8], (rows - 1).to_le_bytes());
        for (row, accepted) in [(rows - 1, true), (rows, false), (u64::MAX, false)] {
            let mut snap = good.clone();
            snap[key..key + 8].copy_from_slice(&row.to_le_bytes());
            let mut target = protected(7200.0);
            assert_eq!(target.restore_state(&snap), accepted, "row {row}");
            assert_eq!(target.drift().tracked_rows().len(), usize::from(accepted));
        }
    }
}
