//! Subarray-parallel scheduling: turning a serial command stream into a
//! makespan under concurrent subarray execution.
//!
//! The backends account cycles serially (every primitive takes its slot),
//! which is the paper's single-stream model. Real arrays overlap
//! operations on independent subarrays; this module maps a command
//! stream onto `k` concurrent execution slots (subarrays statically
//! striped across slots, commands of one subarray serialised, refresh a
//! global barrier) and reports the resulting makespan — the quantitative
//! form of Section V's "increasing the computational bandwidth" argument.
//!
//! [`MakespanClock`] is the online form: the backends charge it from
//! `issue()` as they go, one slot per subarray, and a batch dispatcher
//! reads and resets it through
//! [`BulkBackend::take_batch_cycles`](crate::BulkBackend::take_batch_cycles).
//! [`schedule`] is the offline form, a fold of the same clock over a
//! recorded command log.

use crate::command::Command;
use crate::energy::LatencyModel;
use crate::geometry::{MemoryGeometry, RowId};
use serde::{Deserialize, Serialize};

/// Result of replaying a command log with subarray parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Serial cycle count (the backends' accounting).
    pub serial_cycles: u64,
    /// Makespan under the given parallelism.
    pub makespan_cycles: u64,
    /// Achieved speedup.
    pub speedup: f64,
    /// Concurrency slots used.
    pub slots: usize,
}

/// Serial and makespan cycles of a command stream, charged one command
/// at a time onto a fixed set of execution slots.
#[derive(Debug, Clone)]
pub struct MakespanClock {
    /// Time each slot is busy until. A slot below `floor` is idle at the
    /// floor.
    slot_time: Vec<u64>,
    /// The last refresh barrier: no slot starts work before it.
    floor: u64,
    /// Latest finish time over all slots (and the floor).
    makespan: u64,
    /// Sum of every charged command's cycles.
    serial: u64,
    /// Slot of the last command with a row, which a row-less command
    /// (PRECHARGE) continues.
    last_slot: usize,
}

impl MakespanClock {
    /// A clock over `slots` concurrent execution slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one execution slot");
        Self {
            slot_time: vec![0; slots],
            floor: 0,
            makespan: 0,
            serial: 0,
            last_slot: 0,
        }
    }

    /// A clock with one slot per subarray of `geometry`.
    pub fn per_subarray(geometry: &MemoryGeometry) -> Self {
        Self::new(geometry.subarrays().max(1) as usize)
    }

    /// Charges `cmd`, which takes `cycles`, to its subarray's slot.
    pub fn charge(&mut self, cmd: &Command, cycles: u64, geometry: &MemoryGeometry) {
        self.serial += cycles;
        let slot = match (command_row(cmd), cmd) {
            (Some(row), _) => (geometry.subarray_of(row) as usize) % self.slot_time.len(),
            // Global barrier: every slot waits, then pays.
            (None, Command::Refresh { .. }) => {
                self.makespan += cycles;
                self.floor = self.makespan;
                return;
            }
            (None, _) => self.last_slot,
        };
        let t = self.slot_time[slot].max(self.floor) + cycles;
        self.slot_time[slot] = t;
        self.makespan = self.makespan.max(t);
        self.last_slot = slot;
    }

    /// `(serial, makespan)` cycles charged since the last reset, then
    /// resets.
    pub fn take(&mut self) -> (u64, u64) {
        let cycles = (self.serial, self.makespan);
        self.reset();
        cycles
    }

    /// Forgets every charge.
    pub fn reset(&mut self) {
        self.slot_time.fill(0);
        (self.floor, self.makespan, self.serial, self.last_slot) = (0, 0, 0, 0);
    }
}

/// Replays `log` with `slots` concurrent subarray-groups.
///
/// # Panics
///
/// Panics if `slots` is zero.
pub fn schedule(
    log: &[Command],
    geometry: &MemoryGeometry,
    latency: &LatencyModel,
    slots: usize,
) -> ScheduleReport {
    let mut clock = MakespanClock::new(slots);
    for cmd in log {
        clock.charge(cmd, latency.cycles(cmd), geometry);
    }
    let (serial, makespan) = clock.take();
    ScheduleReport {
        serial_cycles: serial,
        makespan_cycles: makespan,
        speedup: if makespan > 0 {
            serial as f64 / makespan as f64
        } else {
            1.0
        },
        slots,
    }
}

/// The row a command operates on, if any.
fn command_row(cmd: &Command) -> Option<RowId> {
    match cmd {
        Command::Activate(r)
        | Command::TripleBitActivate(r)
        | Command::WriteRow(r)
        | Command::ReadRow(r) => Some(*r),
        Command::TripleRowActivate(r, _, _) => Some(*r),
        Command::RowClone { dst } | Command::Copy { dst, .. } => Some(*dst),
        Command::Precharge | Command::Refresh { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feram_backend::FeramBackend;
    use crate::BulkBackend;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (MemoryGeometry, LatencyModel) {
        (MemoryGeometry::tiny(), LatencyModel::paper_default())
    }

    /// Reference oracle: the direct per-slot loop, with the refresh
    /// barrier rewriting every slot. Returns `(serial, makespan)`.
    fn schedule_reference(
        log: &[Command],
        geometry: &MemoryGeometry,
        latency: &LatencyModel,
        slots: usize,
    ) -> (u64, u64) {
        let mut slot_time = vec![0u64; slots];
        let mut serial = 0u64;
        let mut last_slot = 0usize;
        for cmd in log {
            let cycles = latency.cycles(cmd);
            serial += cycles;
            let slot = match command_row(cmd) {
                Some(row) => (geometry.subarray_of(row) as usize) % slots,
                None => match cmd {
                    Command::Refresh { .. } => {
                        let t = *slot_time.iter().max().unwrap() + cycles;
                        slot_time.iter_mut().for_each(|s| *s = t);
                        continue;
                    }
                    _ => last_slot,
                },
            };
            slot_time[slot] += cycles;
            last_slot = slot;
        }
        (serial, slot_time.into_iter().max().unwrap_or(0))
    }

    fn random_log(rng: &mut StdRng, geometry: &MemoryGeometry, len: usize) -> Vec<Command> {
        let rows = geometry.total_rows();
        (0..len)
            .map(|_| {
                let row = RowId(rng.gen_range(0..rows));
                match rng.gen_range(0..5) {
                    0 => Command::Activate(row),
                    1 => Command::WriteRow(row),
                    2 => Command::RowClone { dst: row },
                    3 => Command::Precharge,
                    _ => Command::Refresh {
                        rows: rng.gen_range(1..64u64),
                    },
                }
            })
            .collect()
    }

    #[test]
    fn clock_fold_matches_the_reference_loop_on_random_logs() {
        let (g, l) = setup();
        let mut rng = StdRng::seed_from_u64(0x5CED);
        for trial in 0..200 {
            let log = random_log(&mut rng, &g, trial % 97);
            for slots in [1, 3, 8, 16] {
                let r = schedule(&log, &g, &l, slots);
                assert_eq!(
                    (r.serial_cycles, r.makespan_cycles),
                    schedule_reference(&log, &g, &l, slots),
                    "trial {trial}, {slots} slots"
                );
            }
        }
    }

    #[test]
    fn clock_restarts_cleanly_after_take() {
        let (g, l) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let mut clock = MakespanClock::per_subarray(&g);
        let slots = g.subarrays() as usize;
        for trial in 0..50 {
            let log = random_log(&mut rng, &g, 1 + trial % 31);
            for cmd in &log {
                clock.charge(cmd, l.cycles(cmd), &g);
            }
            assert_eq!(
                clock.take(),
                schedule_reference(&log, &g, &l, slots),
                "batch {trial} must not see the previous batch"
            );
        }
        assert_eq!(clock.take(), (0, 0));
    }

    #[test]
    fn single_subarray_gets_no_speedup() {
        let (g, l) = setup();
        // All rows in subarray 0 (rows 0..64 in the tiny geometry).
        let log = vec![
            Command::Activate(RowId(1)),
            Command::Copy {
                dst: RowId(2),
                complement: false,
            },
            Command::Precharge,
            Command::Activate(RowId(3)),
            Command::Copy {
                dst: RowId(4),
                complement: false,
            },
            Command::Precharge,
        ];
        let r = schedule(&log, &g, &l, 8);
        assert_eq!(r.serial_cycles, 6);
        assert_eq!(r.makespan_cycles, 6, "same subarray must serialise");
        assert!((r.speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_subarrays_overlap() {
        let (g, l) = setup();
        // Two chains in different subarrays (tiny: 64 rows/subarray).
        let log = vec![
            Command::Activate(RowId(1)),
            Command::Precharge,
            Command::Activate(RowId(65)),
            Command::Precharge,
        ];
        let r = schedule(&log, &g, &l, 2);
        assert_eq!(r.serial_cycles, 4);
        assert_eq!(r.makespan_cycles, 2, "chains must overlap fully");
        assert!((r.speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_is_a_global_barrier() {
        let (g, l) = setup();
        let log = vec![
            Command::Activate(RowId(1)),
            Command::Activate(RowId(65)),
            Command::Refresh { rows: 4 },
            Command::Activate(RowId(129)),
        ];
        let r = schedule(&log, &g, &l, 4);
        // Parallel phase: 1 cycle; refresh 2 cycles on top of the max;
        // then 1 more.
        assert_eq!(r.makespan_cycles, 1 + 2 + 1);
    }

    #[test]
    fn real_workload_log_speeds_up_with_spread_rows() {
        let (g, _) = setup();
        let mut m = FeramBackend::new(g).with_command_log();
        let words = m.geometry().row_words();
        // Eight NANDs in eight different subarrays.
        for i in 0..8u64 {
            let base = i * 64;
            m.install_row(RowId(base), &vec![1u64; words]).unwrap();
            m.install_row(RowId(base + 1), &vec![2u64; words]).unwrap();
            m.nand(RowId(base), RowId(base + 1), RowId(base + 2))
                .unwrap();
        }
        let l = *m.latency_model();
        let r = schedule(m.command_log(), m.geometry(), &l, 8);
        assert!(
            r.speedup > 6.0,
            "spread ops must parallelise: {}",
            r.speedup
        );
        // And with one slot it degenerates to the serial count.
        let r1 = schedule(m.command_log(), m.geometry(), &l, 1);
        assert_eq!(r1.makespan_cycles, r1.serial_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one execution slot")]
    fn rejects_zero_slots() {
        let (g, l) = setup();
        let _ = schedule(&[], &g, &l, 0);
    }
}
