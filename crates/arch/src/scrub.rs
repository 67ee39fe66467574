//! Deterministic patrol scrubbing schedule.
//!
//! A patrol scrubber walks the protected rows on a fixed period,
//! re-reading each row through the SECDED decoder and rewriting any row
//! with a correctable upset — refreshing its retention clock and
//! resetting its imprint hold time before errors can accumulate into
//! uncorrectable double-bit words. This module holds the *schedule*
//! (period, walk cursor, pass counters); the walk itself is executed by
//! [`ReliabilityController`](crate::controller::ReliabilityController),
//! which owns the backend and the ECC side-band.
//!
//! The scrubber also fronts wear-levelling: rows whose wear crosses
//! `hot_row_fraction` of the endurance budget are rewritten even when
//! clean, which routes them through the backend's scratch-rotation /
//! spare-pool machinery *before* they die and need retirement.

use felim_telemetry::CachedCounter;
use serde::Serialize;

/// Most due periods a restored scrub clock may owe
/// (`since_pass_s / period_s`). A live scrubber drains every due period
/// in the tick that made it due, so a snapshot's clock is normally under
/// one period. A larger backlog comes from a corrupt or crafted
/// snapshot, and past about 2^52 periods `since_pass_s -= period_s` no
/// longer changes the clock: the drain would never end, under the
/// shard's lock. The cap bounds a restore's catch-up far below that.
pub const MAX_RESTORED_BACKLOG_PASSES: f64 = 65_536.0;

/// Patrol-scrub configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScrubConfig {
    /// Seconds of process time between the starts of two passes.
    pub period_s: f64,
    /// Rows visited per pass; `0` means every tracked row each pass.
    pub rows_per_pass: usize,
    /// Rewrite (and thereby rotate, under a rotating policy) any row
    /// whose wear fraction exceeds this, even if it decodes clean.
    /// `>= 1.0` disables proactive hot-row rewrites.
    pub hot_row_fraction: f64,
}

impl ScrubConfig {
    /// A full-array pass every `period_s` seconds, with hot-row
    /// rotation at 50 % of the wear budget.
    ///
    /// # Panics
    ///
    /// Panics unless `period_s` is positive and finite.
    pub fn every(period_s: f64) -> Self {
        assert!(
            period_s.is_finite() && period_s > 0.0,
            "scrub period must be positive, got {period_s}"
        );
        Self {
            period_s,
            rows_per_pass: 0,
            hot_row_fraction: 0.5,
        }
    }
}

/// Schedule state of the patrol scrubber.
#[derive(Debug, Clone)]
pub struct PatrolScrubber {
    config: ScrubConfig,
    /// Process time accumulated since the last pass began.
    since_pass_s: f64,
    /// Completed passes.
    passes: u64,
    /// Rows rewritten across all passes (correctable upsets + hot rows).
    rewrites: u64,
    /// Walk cursor for partial (`rows_per_pass > 0`) passes.
    cursor: usize,
}

impl PatrolScrubber {
    /// Creates an idle scrubber; the first pass becomes due after one
    /// full period.
    pub fn new(config: ScrubConfig) -> Self {
        assert!(
            config.period_s.is_finite() && config.period_s > 0.0,
            "scrub period must be positive, got {}",
            config.period_s
        );
        Self {
            config,
            since_pass_s: 0.0,
            passes: 0,
            rewrites: 0,
            cursor: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ScrubConfig {
        &self.config
    }

    /// Completed passes.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Rows rewritten across all passes.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }

    /// Advances the scrub clock.
    pub fn advance(&mut self, dt_s: f64) {
        assert!(dt_s.is_finite() && dt_s >= 0.0, "bad scrub dt {dt_s}");
        self.since_pass_s += dt_s;
    }

    /// Is a pass due?
    pub fn due(&self) -> bool {
        self.since_pass_s >= self.config.period_s
    }

    /// Consumes one due period and returns the slice of the row walk
    /// this pass covers, as `(start_index, count)` over a tracked-row
    /// list of length `tracked`; `count == tracked` for full passes.
    /// Returns `None` when no pass is due or there is nothing to walk.
    pub fn begin_pass(&mut self, tracked: usize) -> Option<(usize, usize)> {
        static PASSES: CachedCounter = CachedCounter::new("arch.scrub.passes");
        if !self.due() {
            return None;
        }
        self.since_pass_s -= self.config.period_s;
        self.passes += 1;
        PASSES.inc();
        if tracked == 0 {
            return None;
        }
        if self.config.rows_per_pass == 0 || self.config.rows_per_pass >= tracked {
            return Some((0, tracked));
        }
        let start = self.cursor % tracked;
        self.cursor = (start + self.config.rows_per_pass) % tracked;
        Some((start, self.config.rows_per_pass))
    }

    /// Records one row rewrite performed by the executing controller.
    pub fn note_rewrite(&mut self) {
        static REWRITES: CachedCounter = CachedCounter::new("arch.scrub.rewrites");
        self.rewrites += 1;
        REWRITES.inc();
    }

    /// Appends the schedule state (clock, counters, cursor) to a state
    /// snapshot. The config travels too, so a restore can verify the
    /// receiving scrubber runs the same schedule.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_f64, put_u64};
        put_f64(out, self.config.period_s);
        put_u64(out, self.config.rows_per_pass as u64);
        put_f64(out, self.config.hot_row_fraction);
        put_f64(out, self.since_pass_s);
        put_u64(out, self.passes);
        put_u64(out, self.rewrites);
        put_u64(out, self.cursor as u64);
    }

    /// Restores schedule state written by
    /// [`PatrolScrubber::encode_state`]. `None` (scrubber unchanged) on
    /// malformed input, a config that differs from this scrubber's, or a
    /// clock that is negative, not finite, or owes more than
    /// [`MAX_RESTORED_BACKLOG_PASSES`] periods (a NaN clock is never due,
    /// an infinite or huge one never stops being due: each would wedge
    /// the patrol).
    pub fn restore_state(&mut self, buf: &[u8], pos: &mut usize) -> Option<()> {
        use crate::snapshot::{take_f64, take_u64};
        let mut probe = *pos;
        let period_s = take_f64(buf, &mut probe)?;
        let rows_per_pass = take_u64(buf, &mut probe)? as usize;
        let hot_row_fraction = take_f64(buf, &mut probe)?;
        if period_s.to_bits() != self.config.period_s.to_bits()
            || rows_per_pass != self.config.rows_per_pass
            || hot_row_fraction.to_bits() != self.config.hot_row_fraction.to_bits()
        {
            return None;
        }
        let since_pass_s = take_f64(buf, &mut probe)?;
        // NaN fails both comparisons; infinity exceeds the cap.
        if !(since_pass_s >= 0.0
            && since_pass_s / self.config.period_s <= MAX_RESTORED_BACKLOG_PASSES)
        {
            return None;
        }
        let passes = take_u64(buf, &mut probe)?;
        let rewrites = take_u64(buf, &mut probe)?;
        let cursor = take_u64(buf, &mut probe)? as usize;
        self.since_pass_s = since_pass_s;
        self.passes = passes;
        self.rewrites = rewrites;
        self.cursor = cursor;
        *pos = probe;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_fire_on_the_period() {
        let mut s = PatrolScrubber::new(ScrubConfig::every(10.0));
        s.advance(9.9);
        assert!(!s.due());
        assert_eq!(s.begin_pass(4), None);
        s.advance(0.2);
        assert!(s.due());
        assert_eq!(s.begin_pass(4), Some((0, 4)));
        assert_eq!(s.passes(), 1);
        assert!(!s.due(), "the due period was consumed");
    }

    #[test]
    fn long_sleeps_yield_multiple_passes() {
        let mut s = PatrolScrubber::new(ScrubConfig::every(5.0));
        s.advance(17.5);
        let mut fired = 0;
        while s.begin_pass(2).is_some() {
            fired += 1;
        }
        assert_eq!(fired, 3, "17.5 s / 5 s period");
    }

    #[test]
    fn partial_passes_walk_a_rotating_window() {
        let cfg = ScrubConfig {
            rows_per_pass: 3,
            ..ScrubConfig::every(1.0)
        };
        let mut s = PatrolScrubber::new(cfg);
        s.advance(3.0);
        assert_eq!(s.begin_pass(8), Some((0, 3)));
        assert_eq!(s.begin_pass(8), Some((3, 3)));
        assert_eq!(s.begin_pass(8), Some((6, 3)));
        assert_eq!(s.begin_pass(8), None, "period consumed");
    }

    #[test]
    fn empty_walks_still_count_the_pass() {
        let mut s = PatrolScrubber::new(ScrubConfig::every(1.0));
        s.advance(1.0);
        assert_eq!(s.begin_pass(0), None);
        assert_eq!(s.passes(), 1);
    }

    #[test]
    fn rewrites_accumulate() {
        let mut s = PatrolScrubber::new(ScrubConfig::every(1.0));
        s.note_rewrite();
        s.note_rewrite();
        assert_eq!(s.rewrites(), 2);
    }

    #[test]
    fn restore_refuses_clocks_that_are_not_finite_or_negative() {
        let mut donor = PatrolScrubber::new(ScrubConfig::every(1.0));
        donor.advance(0.25);
        let mut good = Vec::new();
        donor.encode_state(&mut good);
        // The clock follows the three config words.
        let clock = 3 * 8..4 * 8;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut crafted = good.clone();
            crafted[clock.clone()].copy_from_slice(&bad.to_le_bytes());
            let mut target = PatrolScrubber::new(ScrubConfig::every(1.0));
            let mut pos = 0;
            let restored = target.restore_state(&crafted, &mut pos);
            assert_eq!(restored, None, "clock {bad}");
            assert_eq!(pos, 0, "a refused restore consumes nothing");
            target.advance(1.0);
            assert!(target.due(), "clock {bad}: refused, yet not patrolling");
        }
        let mut target = PatrolScrubber::new(ScrubConfig::every(1.0));
        assert_eq!(target.restore_state(&good, &mut 0), Some(()));
        target.advance(0.75);
        assert!(target.due());
    }

    #[test]
    fn restore_refuses_a_backlog_past_the_cap() {
        let donor = PatrolScrubber::new(ScrubConfig::every(1.0));
        let mut good = Vec::new();
        donor.encode_state(&mut good);
        let clock = 3 * 8..4 * 8;
        let crafted = |since_pass_s: f64| {
            let mut buf = good.clone();
            buf[clock.clone()].copy_from_slice(&since_pass_s.to_le_bytes());
            buf
        };
        // At 1e20 s a 1 s period no longer moves the clock: draining the
        // backlog would loop forever.
        let mut target = PatrolScrubber::new(ScrubConfig::every(1.0));
        assert_eq!(target.restore_state(&crafted(1e20), &mut 0), None);
        assert!(!target.due(), "a refused restore leaves the clock alone");
        // A backlog at the cap is accepted and drains in that many passes.
        assert_eq!(
            target.restore_state(&crafted(MAX_RESTORED_BACKLOG_PASSES), &mut 0),
            Some(())
        );
        let mut drained = 0;
        while target.due() {
            target.begin_pass(0);
            drained += 1;
        }
        assert_eq!(f64::from(drained), MAX_RESTORED_BACKLOG_PASSES);
    }

    #[test]
    #[should_panic(expected = "scrub period must be positive")]
    fn rejects_zero_period() {
        let _ = ScrubConfig::every(0.0);
    }
}
