//! Time-advancing, physics-derived storage fault processes.
//!
//! PR 1's [`FaultSpec`](crate::fault::FaultSpec) drives faults from
//! *static* per-operation rates; real FeRAM errors accumulate with
//! *time*. This module closes the device-to-architecture loop: per-row
//! flip probabilities are derived from `felim-ferro`'s calibrated
//! models instead of hand-picked constants —
//!
//! * **retention** — the stretched-exponential decay of
//!   [`RetentionModel`], applied as an incremental Weibull hazard over
//!   each tick of hold time since the row's last write
//!   ([`RetentionModel::bit_failure_hazard`]);
//! * **imprint** — the logarithmic V_c shift of [`ImprintModel`] eating
//!   the sense margin ([`ImprintModel::bit_upset_probability`]),
//!   differenced per tick the same way;
//! * **read disturb** — the QNRO tail: each sense since the last write
//!   nudges the stored minority decision, at a per-read rate that can
//!   be taken straight from a Monte-Carlo
//!   [`MarginReport`] sense tail;
//! * **wear acceleration** — rows near their Fig 4(f) endurance budget
//!   decay faster: every probability above is scaled by
//!   `1 + wear_acceleration · wear_fraction`.
//!
//! A [`DriftProcess`] owns the clock: the campaign driver (or the
//! [`ReliabilityController`](crate::controller::ReliabilityController))
//! steps it with `tick(dt)`, and the process deterministically samples
//! per-row XOR masks from one seed, so a drift campaign reproduces bit
//! for bit.

use crate::geometry::{MemoryGeometry, RowHasher, RowId, RowTable};
use felim_cell::margin::MarginReport;
use felim_ferro::imprint::ImprintModel;
use felim_ferro::retention::RetentionModel;
use felim_telemetry::CachedCounter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The drift environment: which physical processes run, how hot the die
/// is, and the single seed the whole fault stream derives from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriftSpec {
    /// Seed of the deterministic flip sampler.
    pub seed: u64,
    /// Die temperature, K (the Fig 7 stack point is 352 K).
    pub temperature_k: f64,
    /// Retention decay model (stretched-exponential, Arrhenius).
    pub retention: RetentionModel,
    /// Fraction of remanent polarization below which a bit no longer
    /// senses — feeds the retention hazard.
    pub sense_floor: f64,
    /// Imprint (V_c shift) model.
    pub imprint: ImprintModel,
    /// Sense margin the imprint shift competes against, V.
    pub sense_margin_v: f64,
    /// Per-bit flip probability for each QNRO sense since the last
    /// write — the Monte-Carlo margin study's sense-failure tail.
    pub disturb_per_read: f64,
    /// Extra decay multiplier at full wear: probabilities scale by
    /// `1 + wear_acceleration · wear_fraction`.
    pub wear_acceleration: f64,
}

impl DriftSpec {
    /// A quiet environment: calibrated HfO₂ models at room temperature,
    /// no disturb tail. At realistic timescales this injects nothing —
    /// the paper's reliability claims, restated as a fault process.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            temperature_k: 300.0,
            retention: RetentionModel::hfo2_default(),
            sense_floor: 0.5,
            imprint: ImprintModel::hfo2_default(),
            sense_margin_v: 0.4,
            disturb_per_read: 0.0,
            wear_acceleration: 1.0,
        }
    }

    /// An accelerated-stress environment for campaigns: the same model
    /// *shapes*, but with the retention constant compressed so that
    /// decades of decay happen over simulated seconds, the die held at
    /// `temperature_k`, and a nonzero QNRO disturb tail. This is the
    /// lab's bake-oven protocol, not a different physics.
    pub fn accelerated(seed: u64, temperature_k: f64, disturb_per_read: f64) -> Self {
        Self {
            seed,
            temperature_k,
            retention: RetentionModel {
                // Compress τ(300 K) from ~8·10¹¹ s to 2·10⁹ s: at a
                // 390 K bake the per-bit retention figure of merit drops
                // to ~12 simulated hours, so hour-scale ticks sit on the
                // rising part of the failure CDF instead of decades out.
                tau_300k_s: 2e9,
                ..RetentionModel::hfo2_default()
            },
            sense_floor: 0.5,
            imprint: ImprintModel {
                // Imprint onset compressed to match.
                onset_s: 1e-3,
                ..ImprintModel::hfo2_default()
            },
            sense_margin_v: 0.4,
            disturb_per_read: disturb_per_read.clamp(0.0, 1.0),
            wear_acceleration: 4.0,
        }
    }

    /// Survival of the two hold-time processes, retention and imprint,
    /// over the hold interval `(hold_start, hold_end]`: the factor
    /// `(1 − p_ret) · (1 − p_imp)` that leads the survival product in
    /// [`DriftProcess::row_flip_probability`], computed by the same
    /// operations in the same order. It depends on nothing but the spec
    /// and the two hold times, so rows written at the same instant share
    /// it.
    fn hold_survival(&self, hold_start: f64, hold_end: f64) -> f64 {
        let t_k = self.temperature_k;
        let p_ret = self
            .retention
            .bit_failure_hazard(hold_start, hold_end, t_k, self.sense_floor);
        let p_imp_end = self
            .imprint
            .bit_upset_probability(hold_end, t_k, self.sense_margin_v);
        let p_imp_start = self
            .imprint
            .bit_upset_probability(hold_start, t_k, self.sense_margin_v);
        let p_imp = (p_imp_end - p_imp_start).max(0.0);
        (1.0 - p_ret) * (1.0 - p_imp)
    }

    /// Sets the disturb tail from a Monte-Carlo margin study: the
    /// worst-case sense-failure rate becomes the per-read flip
    /// probability.
    pub fn with_margin_tail(mut self, report: &MarginReport) -> Self {
        self.disturb_per_read = report.sense_failure_rate().clamp(0.0, 1.0);
        self
    }
}

/// Per-row drift bookkeeping.
#[derive(Debug, Clone, Default)]
struct RowDrift {
    /// Process-clock time of the row's last write, s.
    last_write_s: f64,
    /// QNRO senses absorbed since the last write.
    reads_since_write: u64,
    /// Reads already charged to the disturb process.
    reads_charged: u64,
}

/// The seeded, time-stepped storage fault process.
///
/// Rows become *tracked* when [`DriftProcess::note_write`] is called
/// (they now hold data that can decay); [`DriftProcess::tick`] advances
/// the clock, and [`DriftProcess::sample_row`] draws each tracked row's
/// XOR upset mask for the elapsed interval.
///
/// A state snapshot carries the flip sampler's full generator state
/// (four words), so a restore resumes the stream exactly where the
/// snapshotted process left it, in constant time.
#[derive(Debug, Clone)]
pub struct DriftProcess {
    spec: DriftSpec,
    rng: StdRng,
    now_s: f64,
    rows: RowTable<RowDrift>,
    /// The keys of `rows` in ascending order: the walk order of every
    /// sampling pass. A row joins it on its first write and never
    /// leaves, since nothing untracks a row.
    order: Vec<u64>,
    /// [`DriftSpec::hold_survival`] per exact `(hold_start, hold_end)`
    /// bit pattern, emptied by every [`DriftProcess::tick`]. Within one
    /// tick every row last written at the same instant has the same
    /// hold interval, so the pass evaluates the hazard once per write
    /// time rather than once per row. A hit returns the value the same
    /// pure function gave for the same arguments, so the cache changes
    /// no bit of any probability. It holds at most one entry per
    /// tracked row, which the geometry bounds.
    hold_cache: HashMap<(u64, u64), f64, BuildHasherDefault<RowHasher>>,
    ticks: u64,
    flips_injected: u64,
}

impl DriftProcess {
    /// Creates a process at `t = 0` with no tracked rows, for the rows
    /// of `geometry`.
    ///
    /// # Panics
    ///
    /// Panics unless `disturb_per_read` is a probability and
    /// `sense_floor ∈ (0, 1)`.
    pub fn new(spec: DriftSpec, geometry: &MemoryGeometry) -> Self {
        assert!(
            (0.0..=1.0).contains(&spec.disturb_per_read),
            "disturb rate must be a probability"
        );
        assert!(
            spec.sense_floor > 0.0 && spec.sense_floor < 1.0,
            "sense floor must be in (0, 1)"
        );
        let rng = StdRng::seed_from_u64(spec.seed);
        Self {
            spec,
            rng,
            now_s: 0.0,
            rows: RowTable::new(geometry.total_rows()),
            order: Vec::new(),
            hold_cache: HashMap::default(),
            ticks: 0,
            flips_injected: 0,
        }
    }

    /// One Bernoulli draw: `p >= 1` is certainly true *without*
    /// consuming the stream (the `Bernoulli` always-true fast path, which
    /// fixes the stream every drift mask is drawn from), anything else
    /// costs one 64-bit draw.
    fn bernoulli(&mut self, p: f64) -> bool {
        p >= 1.0 || self.rng.gen_bool(p)
    }

    /// The spec in force.
    pub fn spec(&self) -> &DriftSpec {
        &self.spec
    }

    /// Process-clock time, s.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total storage bits flipped by the process so far.
    pub fn flips_injected(&self) -> u64 {
        self.flips_injected
    }

    /// Marks `row` as freshly written: its hold time and disturb count
    /// restart, and it is tracked from now on. A row outside the
    /// geometry is not tracked.
    pub fn note_write(&mut self, row: RowId) {
        let fresh = self.rows.get(row.0).is_none();
        let Some(state) = self.rows.get_or_default(row.0) else {
            return;
        };
        *state = RowDrift {
            last_write_s: self.now_s,
            ..RowDrift::default()
        };
        if fresh {
            let at = self.order.partition_point(|&k| k < row.0);
            self.order.insert(at, row.0);
        }
    }

    /// Records one QNRO sense of `row` (only tracked rows accumulate
    /// disturb — an unwritten row has nothing to disturb).
    pub fn note_read(&mut self, row: RowId) {
        if let Some(state) = self.rows.get_mut(row.0) {
            state.reads_since_write += 1;
        }
    }

    /// Tracked rows in ascending order — the deterministic iteration
    /// order every sampling pass must use. A fresh copy of the order the
    /// process keeps.
    pub fn tracked_rows(&self) -> Vec<RowId> {
        self.tracked().collect()
    }

    /// Tracked rows in ascending order, borrowed.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = RowId> + '_ {
        self.order.iter().map(|&r| RowId(r))
    }

    /// How many rows are tracked.
    pub(crate) fn tracked_count(&self) -> usize {
        self.order.len()
    }

    /// The `index`-th tracked row in ascending order, `None` past the
    /// last. Rows only ever join the order, and only through
    /// [`DriftProcess::note_write`] of a row not yet tracked, so a pass
    /// that writes only tracked rows can walk the indices while it
    /// samples and rewrites them.
    pub(crate) fn tracked_row(&self, index: usize) -> Option<RowId> {
        self.order.get(index).map(|&r| RowId(r))
    }

    /// Advances the process clock by `dt_s`. The caller then samples
    /// each tracked row (in [`DriftProcess::tracked_rows`] order) with
    /// [`DriftProcess::sample_row`] for the upset mask of this interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or non-finite.
    pub fn tick(&mut self, dt_s: f64) {
        assert!(dt_s.is_finite() && dt_s >= 0.0, "bad tick dt {dt_s}");
        self.now_s += dt_s;
        self.ticks += 1;
        self.hold_cache.clear();
    }

    /// The per-bit upset probability `row` accumulated over the last
    /// tick interval `(now − dt, now]`, given its current wear
    /// fraction. Pure — the sampling draw happens in
    /// [`DriftProcess::sample_row`], which reaches the same value
    /// through the per-tick hold-time cache.
    pub fn row_flip_probability(&self, row: RowId, dt_s: f64, wear_fraction: f64) -> f64 {
        let Some(state) = self.rows.get(row.0) else {
            return 0.0;
        };
        let t_k = self.spec.temperature_k;
        let hold_end = (self.now_s - state.last_write_s).max(0.0);
        let hold_start = (hold_end - dt_s).max(0.0);
        // Retention: incremental Weibull hazard over the tick.
        let p_ret = self.spec.retention.bit_failure_hazard(
            hold_start,
            hold_end,
            t_k,
            self.spec.sense_floor,
        );
        // Imprint: the V_c-shift tail differenced over the tick.
        let p_imp_end =
            self.spec
                .imprint
                .bit_upset_probability(hold_end, t_k, self.spec.sense_margin_v);
        let p_imp_start =
            self.spec
                .imprint
                .bit_upset_probability(hold_start, t_k, self.spec.sense_margin_v);
        let p_imp = (p_imp_end - p_imp_start).max(0.0);
        // QNRO disturb: every not-yet-charged sense contributes.
        let new_reads = state.reads_since_write - state.reads_charged;
        let p_disturb =
            1.0 - (1.0 - self.spec.disturb_per_read).powi(new_reads.min(1 << 30) as i32);
        // Independent processes compose as survival products; wear
        // acceleration scales the combined hazard.
        let survive = (1.0 - p_ret) * (1.0 - p_imp) * (1.0 - p_disturb);
        let p = 1.0 - survive;
        let wear_scale = 1.0 + self.spec.wear_acceleration * wear_fraction.clamp(0.0, 1.0);
        (p * wear_scale).clamp(0.0, 1.0)
    }

    /// Draws the upset XOR mask for one tracked row over the last tick:
    /// each of the row's `words × 64` bits flips with
    /// [`DriftProcess::row_flip_probability`]. Returns `None` when no
    /// bit flipped (the overwhelmingly common case). Marks the row's
    /// pending disturb reads as charged.
    pub fn sample_row(
        &mut self,
        row: RowId,
        words: usize,
        dt_s: f64,
        wear_fraction: f64,
    ) -> Option<Vec<u64>> {
        let p = self.charge_row(row, dt_s, wear_fraction);
        self.draw_mask(p, words)
    }

    /// [`DriftProcess::row_flip_probability`], with the hold-time factor
    /// taken from the per-tick cache, and the row's pending disturb
    /// reads marked as charged (whatever the probability comes to: the
    /// charge is part of the snapshot).
    fn charge_row(&mut self, row: RowId, dt_s: f64, wear_fraction: f64) -> f64 {
        let Some(state) = self.rows.get_mut(row.0) else {
            return 0.0;
        };
        let spec = &self.spec;
        let hold_end = (self.now_s - state.last_write_s).max(0.0);
        let hold_start = (hold_end - dt_s).max(0.0);
        let hold = *self
            .hold_cache
            .entry((hold_start.to_bits(), hold_end.to_bits()))
            .or_insert_with(|| spec.hold_survival(hold_start, hold_end));
        let new_reads = state.reads_since_write - state.reads_charged;
        state.reads_charged = state.reads_since_write;
        let p_disturb = 1.0 - (1.0 - spec.disturb_per_read).powi(new_reads.min(1 << 30) as i32);
        let survive = hold * (1.0 - p_disturb);
        let p = 1.0 - survive;
        let wear_scale = 1.0 + spec.wear_acceleration * wear_fraction.clamp(0.0, 1.0);
        (p * wear_scale).clamp(0.0, 1.0)
    }

    /// One Bernoulli(`p`) draw per bit of a `words`-word row; `None`
    /// (and no draw) when `p <= 0`, or when no bit flipped.
    fn draw_mask(&mut self, p: f64, words: usize) -> Option<Vec<u64>> {
        static FLIPS: CachedCounter = CachedCounter::new("arch.drift.flips");
        if p <= 0.0 {
            return None;
        }
        let mut mask = vec![0u64; words];
        let mut flips = 0u64;
        for word in &mut mask {
            for bit in 0..64 {
                if self.bernoulli(p) {
                    *word |= 1 << bit;
                    flips += 1;
                }
            }
        }
        if flips == 0 {
            return None;
        }
        self.flips_injected += flips;
        FLIPS.add(flips);
        Some(mask)
    }

    /// [`DriftProcess::sample_row`] as it ran before the hold-time
    /// cache: the pure [`DriftProcess::row_flip_probability`], then the
    /// charge and the draw. The oracle the cached path is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn reference_sample_row(
        &mut self,
        row: RowId,
        words: usize,
        dt_s: f64,
        wear_fraction: f64,
    ) -> Option<Vec<u64>> {
        let p = self.row_flip_probability(row, dt_s, wear_fraction);
        if let Some(state) = self.rows.get_mut(row.0) {
            state.reads_charged = state.reads_since_write;
        }
        self.draw_mask(p, words)
    }

    /// Appends the full process state to a state snapshot: the spec
    /// seed (for validation; the restored process must have been built
    /// from the same spec), the sampler's generator state (4 × u64), the
    /// clock and counters, then per-row bookkeeping in row order.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_f64, put_table, put_u64};
        put_u64(out, self.spec.seed);
        for word in self.rng.state() {
            put_u64(out, word);
        }
        put_f64(out, self.now_s);
        put_u64(out, self.ticks);
        put_u64(out, self.flips_injected);
        put_table(out, &self.rows, |out, k, state| {
            put_u64(out, k);
            put_f64(out, state.last_write_s);
            put_u64(out, state.reads_since_write);
            put_u64(out, state.reads_charged);
        });
    }

    /// Restores state written by [`DriftProcess::encode_state`]: the
    /// sampler resumes from the recorded generator state, so subsequent
    /// [`DriftProcess::sample_row`] calls produce masks bit-identical to
    /// the snapshotted process's. `None` (process unchanged) on malformed
    /// input, a seed mismatch, the all-zero generator state (which no
    /// seeded stream reaches, and which would only ever emit zeros), or
    /// a clock that no process reaches: a `now_s` or a row's
    /// `last_write_s` that is negative or not finite, or a row written
    /// after `now_s`. A NaN clock would make every hold time zero and
    /// stop drift for good. A row outside the geometry the process was
    /// built for is refused before it is stored, which bounds the table
    /// by the array.
    pub fn restore_state(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        use crate::snapshot::{take_f64, take_table, take_u64};
        let mut probe = *pos;
        if take_u64(buf, &mut probe)? != self.spec.seed {
            return None;
        }
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = take_u64(buf, &mut probe)?;
        }
        if state == [0; 4] {
            return None;
        }
        let now_s = take_f64(buf, &mut probe)?;
        if !(now_s.is_finite() && now_s >= 0.0) {
            return None;
        }
        let ticks = take_u64(buf, &mut probe)?;
        let flips_injected = take_u64(buf, &mut probe)?;
        let rows = take_table(buf, &mut probe, self.rows.capacity(), 32, |buf, pos| {
            let key = take_u64(buf, pos)?;
            let state = RowDrift {
                last_write_s: take_f64(buf, pos)?,
                reads_since_write: take_u64(buf, pos)?,
                reads_charged: take_u64(buf, pos)?,
            };
            // The write happened on the clock, and charged reads are a
            // prefix of the reads since the write.
            ((0.0..=now_s).contains(&state.last_write_s)
                && state.reads_charged <= state.reads_since_write)
                .then_some((key, state))
        })?;
        self.rng = StdRng::from_state(state);
        self.now_s = now_s;
        self.ticks = ticks;
        self.flips_injected = flips_injected;
        self.order = rows.iter().map(|(key, _)| key).collect();
        self.rows = rows;
        *pos = probe;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryGeometry {
        MemoryGeometry::tiny()
    }

    fn hot(seed: u64) -> DriftSpec {
        DriftSpec::accelerated(seed, 390.0, 1e-4)
    }

    #[test]
    fn quiet_spec_injects_nothing_at_operating_conditions() {
        let mut p = DriftProcess::new(DriftSpec::quiet(1), &tiny());
        p.note_write(RowId(0));
        // A full simulated day at 300 K.
        p.tick(86_400.0);
        assert_eq!(p.sample_row(RowId(0), 16, 86_400.0, 0.0), None);
        assert_eq!(p.flips_injected(), 0);
    }

    #[test]
    fn accelerated_spec_decays_held_rows() {
        let mut p = DriftProcess::new(hot(7), &tiny());
        p.note_write(RowId(3));
        // Hours at 390 K under the compressed τ: decay must fire.
        let mut total = 0u64;
        for _ in 0..10 {
            p.tick(3600.0);
            if let Some(mask) = p.sample_row(RowId(3), 16, 3600.0, 0.0) {
                total += mask.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            }
        }
        assert!(total > 0, "accelerated retention must flip bits");
        assert_eq!(p.flips_injected(), total);
        assert_eq!(p.ticks(), 10);
    }

    #[test]
    fn untracked_rows_never_flip() {
        let mut p = DriftProcess::new(hot(3), &tiny());
        p.tick(1e6);
        assert_eq!(p.row_flip_probability(RowId(9), 1e6, 1.0), 0.0);
        assert_eq!(p.sample_row(RowId(9), 16, 1e6, 1.0), None);
    }

    #[test]
    fn rewrites_reset_the_hold_clock() {
        let mut p = DriftProcess::new(hot(5), &tiny());
        p.note_write(RowId(0));
        p.tick(7200.0);
        let aged = p.row_flip_probability(RowId(0), 7200.0, 0.0);
        assert!(aged > 0.0);
        p.note_write(RowId(0)); // refresh
        p.tick(1.0);
        let fresh = p.row_flip_probability(RowId(0), 1.0, 0.0);
        assert!(fresh < aged / 10.0, "{fresh} vs {aged}");
    }

    #[test]
    fn reads_accumulate_disturb_and_are_charged_once() {
        let mut p = DriftProcess::new(
            DriftSpec {
                disturb_per_read: 0.01,
                ..DriftSpec::quiet(11)
            },
            &tiny(),
        );
        p.note_write(RowId(0));
        for _ in 0..50 {
            p.note_read(RowId(0));
        }
        p.tick(1e-9);
        let with_reads = p.row_flip_probability(RowId(0), 1e-9, 0.0);
        assert!(with_reads > 0.3, "50 reads at 1 % each: {with_reads}");
        let _ = p.sample_row(RowId(0), 4, 1e-9, 0.0);
        // Charged: the next tick sees no *new* reads.
        p.tick(1e-9);
        assert!(p.row_flip_probability(RowId(0), 1e-9, 0.0) < 1e-6);
    }

    #[test]
    fn wear_accelerates_decay() {
        let mut p = DriftProcess::new(hot(13), &tiny());
        p.note_write(RowId(0));
        p.tick(3600.0);
        let fresh = p.row_flip_probability(RowId(0), 3600.0, 0.0);
        let worn = p.row_flip_probability(RowId(0), 3600.0, 1.0);
        assert!(worn > 2.0 * fresh, "{worn} vs {fresh}");
    }

    #[test]
    fn process_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = DriftProcess::new(hot(seed), &tiny());
            p.note_write(RowId(0));
            p.note_write(RowId(1));
            let mut masks = Vec::new();
            for _ in 0..5 {
                p.tick(3600.0);
                for row in p.tracked_rows() {
                    masks.push(p.sample_row(row, 16, 3600.0, 0.2));
                }
            }
            masks
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(2), run(3));
    }

    #[test]
    fn margin_tail_feeds_disturb() {
        use felim_cell::margin::MarginReport;
        let report = MarginReport {
            samples: 100,
            tba_yield: 0.995,
            not_yield: 0.999,
            worst_level_separation: 1.5,
            mean_level_separation: 2.0,
        };
        let spec = DriftSpec::quiet(1).with_margin_tail(&report);
        assert!((spec.disturb_per_read - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad tick dt")]
    fn rejects_negative_ticks() {
        DriftProcess::new(DriftSpec::quiet(0), &tiny()).tick(-1.0);
    }

    #[test]
    fn restored_process_replays_identical_masks() {
        // Age a process far enough that its RNG stream has been consumed,
        // snapshot it, restore into a fresh process, then run both
        // forward: every subsequent mask must match bit for bit.
        let mut original = DriftProcess::new(hot(21), &tiny());
        original.note_write(RowId(0));
        original.note_write(RowId(5));
        for _ in 0..6 {
            original.tick(3600.0);
            for row in original.tracked_rows() {
                let _ = original.sample_row(row, 16, 3600.0, 0.1);
            }
        }
        let mut snap = Vec::new();
        original.encode_state(&mut snap);

        let mut restored = DriftProcess::new(hot(21), &tiny());
        let mut pos = 0;
        assert!(restored.restore_state(&snap, &mut pos).is_some());
        assert_eq!(pos, snap.len(), "consume exactly what was written");
        assert_eq!(restored.now_s(), original.now_s());
        assert_eq!(restored.ticks(), original.ticks());
        assert_eq!(restored.flips_injected(), original.flips_injected());

        for _ in 0..6 {
            original.tick(3600.0);
            restored.tick(3600.0);
            for row in original.tracked_rows() {
                assert_eq!(
                    original.sample_row(row, 16, 3600.0, 0.1),
                    restored.sample_row(row, 16, 3600.0, 0.1),
                    "row {row:?} diverged after restore"
                );
            }
        }

        // A seed mismatch must refuse, leaving the target untouched.
        let mut wrong = DriftProcess::new(hot(22), &tiny());
        let mut pos = 0;
        assert!(wrong.restore_state(&snap, &mut pos).is_none());
        assert_eq!(pos, 0);
    }

    #[test]
    fn restore_resumes_the_generator_and_refuses_the_zero_state() {
        let mut original = DriftProcess::new(hot(33), &tiny());
        original.note_write(RowId(2));
        for _ in 0..4 {
            original.tick(3600.0);
            let _ = original.sample_row(RowId(2), 16, 3600.0, 0.0);
        }
        let mut snap = Vec::new();
        original.encode_state(&mut snap);
        let mut restored = DriftProcess::new(hot(33), &tiny());
        assert!(restored.restore_state(&snap, &mut 0).is_some());
        let mut flipped = false;
        for _ in 0..4 {
            original.tick(3600.0);
            restored.tick(3600.0);
            let mask = original.sample_row(RowId(2), 16, 3600.0, 0.0);
            assert_eq!(mask, restored.sample_row(RowId(2), 16, 3600.0, 0.0));
            flipped |= mask.is_some();
        }
        assert!(flipped, "the compared masks must not all be empty");

        // The generator state follows the 8-byte seed; all-zero is not
        // a state any seed reaches, so it is refused untouched.
        snap[8..40].fill(0);
        let mut target = DriftProcess::new(hot(33), &tiny());
        let mut pos = 0;
        assert!(target.restore_state(&snap, &mut pos).is_none());
        assert_eq!((pos, target.ticks()), (0, 0));
    }

    #[test]
    fn restore_refuses_clocks_no_process_reaches() {
        let mut original = DriftProcess::new(hot(44), &tiny());
        original.tick(60.0);
        original.note_write(RowId(3));
        original.tick(60.0);
        let mut good = Vec::new();
        original.encode_state(&mut good);
        // Seed, four generator words, then the clock; the only row's
        // write time follows the ticks, flip count, row count and key.
        let now = 40..48;
        let last_write = 80..88;
        assert_eq!(good[last_write.clone()], 60.0f64.to_le_bytes());
        for (field, bad) in [
            (&now, f64::NAN),
            (&now, f64::INFINITY),
            (&now, -1.0),
            (&last_write, f64::NAN),
            (&last_write, f64::NEG_INFINITY),
            (&last_write, -1.0),
            (&last_write, 121.0),
        ] {
            let mut crafted = good.clone();
            crafted[field.clone()].copy_from_slice(&bad.to_le_bytes());
            let mut target = DriftProcess::new(hot(44), &tiny());
            let mut pos = 0;
            let restored = target.restore_state(&crafted, &mut pos);
            assert!(restored.is_none(), "{field:?} = {bad}");
            assert_eq!((pos, target.now_s()), (0, 0.0));
        }
        let mut target = DriftProcess::new(hot(44), &tiny());
        assert!(target.restore_state(&good, &mut 0).is_some());
        assert_eq!(target.now_s(), 120.0);
    }

    fn state_bytes(p: &DriftProcess) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_state(&mut out);
        out
    }

    /// A snapshot restored into a fresh process built from `spec`.
    fn restored(spec: &DriftSpec, from: &DriftProcess) -> DriftProcess {
        let mut p = DriftProcess::new(spec.clone(), &tiny());
        let snap = state_bytes(from);
        assert!(p.restore_state(&snap, &mut 0).is_some());
        p
    }

    #[test]
    fn cached_tick_matches_the_per_row_oracle() {
        // Rows written in bursts at mixed instants (so some hold
        // intervals are shared and some are not), reads pending across
        // ticks, wear fractions at 0, 1 and in between, a zero-length
        // tick, and a snapshot restore midway: the cached pass over the
        // walk order must reproduce the per-row oracle over a fresh
        // `tracked_rows()` copy in every mask, counter, generator word
        // and snapshot byte.
        const ROWS: u64 = 48;
        const WORDS: usize = 4;
        for seed in [1u64, 7, 42, 2024] {
            let spec = DriftSpec::accelerated(seed, 390.0, 2e-3);
            let mut script = StdRng::seed_from_u64(seed ^ 0x5eed);
            let wear: Vec<f64> = (0..ROWS)
                .map(|row| match row % 3 {
                    0 => 0.0,
                    1 => script.gen::<f64>(),
                    _ => 1.0,
                })
                .collect();
            let mut fast = DriftProcess::new(spec.clone(), &tiny());
            let mut oracle = DriftProcess::new(spec.clone(), &tiny());
            let (mut shared, mut flipped) = (false, false);
            for step in 0..80 {
                for _ in 0..script.gen_range(0..6) {
                    let row = RowId(script.gen_range(0..ROWS));
                    fast.note_write(row);
                    oracle.note_write(row);
                }
                for _ in 0..script.gen_range(0..24) {
                    let row = RowId(script.gen_range(0..ROWS));
                    fast.note_read(row);
                    oracle.note_read(row);
                }
                let dt = [0.0, 60.0, 600.0, 3600.0][script.gen_range(0..4usize)];
                fast.tick(dt);
                oracle.tick(dt);
                let mut fast_masks = Vec::new();
                let mut index = 0;
                while let Some(row) = fast.tracked_row(index) {
                    let mask = fast.sample_row(row, WORDS, dt, wear[row.0 as usize]);
                    fast_masks.push((row, mask));
                    index += 1;
                }
                let oracle_masks: Vec<_> = oracle
                    .tracked_rows()
                    .into_iter()
                    .map(|row| {
                        let mask =
                            oracle.reference_sample_row(row, WORDS, dt, wear[row.0 as usize]);
                        (row, mask)
                    })
                    .collect();
                assert_eq!(fast_masks, oracle_masks, "seed {seed} step {step}");
                assert_eq!(fast.flips_injected(), oracle.flips_injected());
                assert_eq!(fast.rng.state(), oracle.rng.state());
                assert_eq!(
                    state_bytes(&fast),
                    state_bytes(&oracle),
                    "seed {seed} step {step}"
                );
                shared |= fast.hold_cache.len() < fast.tracked_count();
                flipped |= fast_masks.iter().any(|(_, m)| m.is_some());
                if step == 40 {
                    fast = restored(&spec, &fast);
                    oracle = restored(&spec, &oracle);
                }
            }
            assert!(shared, "seed {seed}: no tick shared a hold interval");
            assert!(flipped, "seed {seed}: the compared masks are all empty");
        }
    }

    #[test]
    fn walk_order_is_ascending_and_survives_a_restore() {
        let mut p = DriftProcess::new(hot(46), &tiny());
        for row in [9, 3, 40, 3, 0, 17, 9] {
            p.note_write(RowId(row));
        }
        let order: Vec<u64> = p.tracked().map(|r| r.0).collect();
        assert_eq!(order, vec![0, 3, 9, 17, 40]);
        assert_eq!(p.tracked_count(), 5);
        assert_eq!(p.tracked_row(5), None);
        let back = restored(&hot(46), &p);
        assert_eq!(back.tracked_rows(), p.tracked_rows());
    }

    #[test]
    fn restore_refuses_rows_outside_the_geometry() {
        let geometry = MemoryGeometry::tiny();
        let last = geometry.total_rows() - 1;
        let mut original = DriftProcess::new(hot(45), &geometry);
        original.note_write(RowId(last));
        let mut good = Vec::new();
        original.encode_state(&mut good);
        // Seed, four generator words, clock, ticks, flip count and row
        // count, then the only row's key.
        let key = 72..80;
        assert_eq!(good[key.clone()], last.to_le_bytes());
        for (row, accepted) in [(last, true), (last + 1, false), (u64::MAX, false)] {
            let mut snap = good.clone();
            snap[key.clone()].copy_from_slice(&row.to_le_bytes());
            let mut target = DriftProcess::new(hot(45), &geometry);
            let mut pos = 0;
            let restored = target.restore_state(&snap, &mut pos);
            assert_eq!(restored.is_some(), accepted, "row {row}");
            assert_eq!(target.tracked_rows().len(), usize::from(accepted));
        }
    }
}
