//! Write-endurance wear tracking.
//!
//! Ferroelectric capacitors endure ~10⁶–10⁸ full write cycles (Fig 4(f));
//! a bulk-bitwise engine that funnels every result through the same
//! scratch rows would wear them out orders of magnitude before the data
//! rows. This module tracks per-row write counts and grades them against
//! an endurance budget, so workloads can check their wear profile and
//! future controllers could rotate scratch rows.

use crate::geometry::{MemoryGeometry, RowId, RowTable};
use serde::{Deserialize, Serialize};

/// Per-row write counters with an endurance budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WearTracker {
    writes: RowTable<u64>,
    endurance_budget: u64,
}

/// Summary of a wear profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearReport {
    /// Distinct rows ever written.
    pub rows_written: u64,
    /// Total writes recorded.
    pub total_writes: u64,
    /// Largest per-row write count.
    pub max_row_writes: u64,
    /// Fraction of the endurance budget consumed by the hottest row.
    pub worst_budget_fraction: f64,
    /// How many times the observed workload could repeat before the
    /// hottest row reaches the budget; `None` when nothing was written
    /// (an unbounded figure — JSON has no representation for infinity,
    /// so the report uses `null` rather than a sentinel number).
    pub repeatable_runs: Option<f64>,
}

impl WearTracker {
    /// A tracker for the rows of `geometry` with the paper's
    /// demonstrated 10⁶-cycle budget.
    pub fn new(geometry: &MemoryGeometry) -> Self {
        Self::with_budget(geometry, 1_000_000)
    }

    /// A tracker for the rows of `geometry` with a custom endurance
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if the budget is zero.
    pub fn with_budget(geometry: &MemoryGeometry, endurance_budget: u64) -> Self {
        assert!(endurance_budget > 0, "endurance budget must be positive");
        Self {
            writes: RowTable::new(geometry.total_rows()),
            endurance_budget,
        }
    }

    /// Records one full write of `row`. A row outside the geometry is
    /// not counted.
    pub fn record_write(&mut self, row: RowId) {
        if let Some(n) = self.writes.get_or_default(row.0) {
            *n += 1;
        }
    }

    /// Write count of a row.
    pub fn writes(&self, row: RowId) -> u64 {
        self.writes.get(row.0).copied().unwrap_or(0)
    }

    /// The endurance budget.
    pub fn budget(&self) -> u64 {
        self.endurance_budget
    }

    /// Builds the wear report.
    pub fn report(&self) -> WearReport {
        let max = self.writes.values().copied().max().unwrap_or(0);
        let total: u64 = self.writes.values().sum();
        WearReport {
            rows_written: self.writes.len() as u64,
            total_writes: total,
            max_row_writes: max,
            worst_budget_fraction: max as f64 / self.endurance_budget as f64,
            repeatable_runs: if max == 0 {
                None
            } else {
                Some(self.endurance_budget as f64 / max as f64)
            },
        }
    }

    /// Appends budget and per-row counters (in row order) to a state
    /// snapshot.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_table, put_u64};
        put_u64(out, self.endurance_budget);
        put_table(out, &self.writes, |out, row, &n| {
            put_u64(out, row);
            put_u64(out, n);
        });
    }

    /// Decodes a tracker written by [`WearTracker::encode_state`] for a
    /// backend over `geometry`. `None` on malformed input, including a
    /// zero budget or a row outside the geometry (refused before it is
    /// stored, which bounds the table by the array).
    pub fn decode_state(
        geometry: MemoryGeometry,
        buf: &[u8],
        pos: &mut usize,
    ) -> Option<WearTracker> {
        use crate::snapshot::{take_table, take_u64};
        let endurance_budget = take_u64(buf, pos)?;
        if endurance_budget == 0 {
            return None;
        }
        let writes = take_table(buf, pos, geometry.total_rows(), 16, |buf, pos| {
            Some((take_u64(buf, pos)?, take_u64(buf, pos)?))
        })?;
        Some(WearTracker {
            writes,
            endurance_budget,
        })
    }

    /// Rows whose write count exceeds `fraction` of the budget, in row
    /// order — the candidates for wear-levelling rotation.
    pub fn hot_rows(&self, fraction: f64) -> Vec<RowId> {
        let threshold = (self.endurance_budget as f64 * fraction) as u64;
        self.writes
            .iter()
            .filter(|&(_, &n)| n > threshold)
            .map(|(r, _)| RowId(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryGeometry {
        MemoryGeometry::tiny()
    }

    #[test]
    fn counts_and_reports() {
        let mut w = WearTracker::with_budget(&tiny(), 100);
        for _ in 0..10 {
            w.record_write(RowId(1));
        }
        w.record_write(RowId(2));
        assert_eq!(w.writes(RowId(1)), 10);
        assert_eq!(w.writes(RowId(3)), 0);
        let r = w.report();
        assert_eq!(r.rows_written, 2);
        assert_eq!(r.total_writes, 11);
        assert_eq!(r.max_row_writes, 10);
        assert!((r.worst_budget_fraction - 0.1).abs() < 1e-12);
        assert!((r.repeatable_runs.unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_immortal() {
        let w = WearTracker::new(&tiny());
        let r = w.report();
        assert_eq!(r.max_row_writes, 0);
        assert_eq!(r.repeatable_runs, None);
        assert_eq!(w.budget(), 1_000_000);
    }

    #[test]
    fn wear_report_json_round_trips() {
        // Regression: `repeatable_runs` used to be a bare f64 that held
        // `f64::INFINITY` for an empty tracker — which serializes to JSON
        // `null` and then failed to parse back as a number. The unbounded
        // case must round-trip as an explicit null.
        let empty = WearTracker::new(&tiny()).report();
        let json = serde_json::to_string(&empty).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).expect("report JSON must parse");
        assert!(
            value
                .get("repeatable_runs")
                .is_some_and(|v| matches!(v, serde_json::Value::Null)),
            "unbounded runs must be an explicit null: {json}"
        );

        let mut w = WearTracker::with_budget(&tiny(), 100);
        w.record_write(RowId(4));
        let bounded = w.report();
        let json = serde_json::to_string(&bounded).unwrap();
        let value: serde_json::Value = serde_json::from_str(&json).expect("report JSON must parse");
        assert_eq!(
            value.get("repeatable_runs").and_then(|v| v.as_f64()),
            Some(100.0)
        );
        assert_eq!(value.get("total_writes").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn tracker_json_uses_stringified_row_keys() {
        // The map moved from `u64` to `RowId` keys; the JSON shape must
        // not change (stringified numeric keys).
        let mut w = WearTracker::with_budget(&tiny(), 10);
        w.record_write(RowId(3));
        w.record_write(RowId(3));
        let json = serde_json::to_string(&w).unwrap();
        assert!(json.contains(r#""writes":{"3":2}"#), "got {json}");
    }

    #[test]
    fn hot_rows_are_sorted_and_thresholded() {
        let mut w = WearTracker::with_budget(&tiny(), 10);
        for _ in 0..9 {
            w.record_write(RowId(7));
        }
        for _ in 0..9 {
            w.record_write(RowId(3));
        }
        w.record_write(RowId(5));
        assert_eq!(w.hot_rows(0.5), vec![RowId(3), RowId(7)]);
        assert!(w.hot_rows(0.95).is_empty());
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_zero_budget() {
        let _ = WearTracker::with_budget(&tiny(), 0);
    }

    #[test]
    fn decode_refuses_rows_outside_the_geometry() {
        let geometry = MemoryGeometry::tiny();
        let last = geometry.total_rows() - 1;
        let mut w = WearTracker::with_budget(&geometry, 100);
        w.record_write(RowId(last));
        let mut good = Vec::new();
        w.encode_state(&mut good);
        // The budget and the entry count, then the only entry's row key.
        let key = 16..24;
        assert_eq!(good[key.clone()], last.to_le_bytes());
        for (row, accepted) in [(last, true), (last + 1, false), (u64::MAX, false)] {
            let mut snap = good.clone();
            snap[key.clone()].copy_from_slice(&row.to_le_bytes());
            let decoded = WearTracker::decode_state(geometry, &snap, &mut 0);
            let writes = decoded.map(|d| d.writes(RowId(row)));
            assert_eq!(writes, accepted.then_some(1), "row {row}");
        }
    }
}
