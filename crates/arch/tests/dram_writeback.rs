//! `DramBackend` against an eager Ambit model. The model runs every
//! AAP's data work as it happens: the staging copies into T0–T2, the
//! TRA into the destination and the write-back of the result into all
//! three compute rows, on a plain `RowStore`. The backend defers that
//! write-back until something can observe it. After every step the two
//! must agree on every row's stored bits (compute rows included), the
//! refresh-liable row count, the statistics, the command log, the batch
//! clock and the snapshot bytes; at the end, on `finish()`.
//!
//! Operands and destinations are drawn from data rows, the compute,
//! control, DCC and composite-internal rows, a row past the array, and
//! the previous step's destination, so a deferred write-back is often
//! read, overwritten, decayed, snapshotted or restored over.

use felim_arch::engine::{majority_words, RowStore};
use felim_arch::schedule::MakespanClock;
use felim_arch::{
    ArchError, BulkBackend, Command, DramBackend, EnergyModel, ExecStats, LatencyModel,
    MemoryGeometry, RowId,
};
use proptest::prelude::*;

/// Offsets into the reserved region at the top of the array, as the
/// backend lays it out.
const T0: u64 = 0;
const C0: u64 = 3;
const C1: u64 = 4;
const DCC: u64 = 5;
const T3: u64 = 6;
const XOR_NA: u64 = 7;
const XOR_NB: u64 = 8;
const XOR_X: u64 = 9;
const XOR_Y: u64 = 10;
const SCRATCH: u64 = 11;
const RESERVED: u64 = 16;

/// Where an operand or destination comes from.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// A data row at the bottom of the array.
    Data(u64),
    /// A row at this offset into the reserved region.
    Reserved(u64),
    /// The row just past the array.
    OutOfRange,
    /// The previous step's destination (a data row before any).
    Last,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64),
    Install(u64),
    Read,
    Decay {
        seed: u64,
        short: bool,
    },
    Not,
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    Copy,
    /// Snapshot the backend and restore it onto itself.
    Restore,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    op: Op,
    a: Pick,
    b: Pick,
    dst: Pick,
}

/// Data rows 3/11, reserved rows 4/11 (uniform), past the array 1/11,
/// the previous destination 3/11.
fn pick_strategy() -> impl Strategy<Value = Pick> {
    (0..11u64, 0..RESERVED).prop_map(|(kind, offset)| match kind {
        0..=2 => Pick::Data(kind),
        3..=6 => Pick::Reserved(offset),
        7 => Pick::OutOfRange,
        _ => Pick::Last,
    })
}

/// AND and OR twice as often as the other ops; one decay mask in ten
/// short.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0..15u64, any::<u64>(), 0..10u8).prop_map(|(kind, seed, tenth)| match kind {
        0 => Op::Write(seed),
        1 => Op::Install(seed),
        2 => Op::Read,
        3 => Op::Decay {
            seed,
            short: tenth == 0,
        },
        4 => Op::Not,
        5 | 6 => Op::And,
        7 | 8 => Op::Or,
        9 => Op::Nand,
        10 => Op::Nor,
        11 => Op::Xor,
        12 => Op::Xnor,
        13 => Op::Copy,
        _ => Op::Restore,
    })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        op_strategy(),
        pick_strategy(),
        pick_strategy(),
        pick_strategy(),
    )
        .prop_map(|(op, a, b, dst)| Step { op, a, b, dst })
}

/// A row whose words all differ, so a word-order mistake shows.
fn row_data(seed: u64, words: usize) -> Vec<u64> {
    (0..words as u64)
        .map(|i| seed.rotate_left(i as u32) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Ambit with every data pass made when its command issues.
struct EagerAmbit {
    geometry: MemoryGeometry,
    store: RowStore,
    energy: EnergyModel,
    latency: LatencyModel,
    stats: ExecStats,
    log: Vec<Command>,
    clock: MakespanClock,
    refreshed: bool,
}

impl EagerAmbit {
    fn new(geometry: MemoryGeometry) -> Self {
        let mut model = Self {
            geometry,
            store: RowStore::new(geometry),
            energy: EnergyModel::dram(),
            latency: LatencyModel::paper_default(),
            stats: ExecStats::new(),
            log: Vec::new(),
            clock: MakespanClock::per_subarray(&geometry),
            refreshed: false,
        };
        model.store.fill(model.r(C0), 0).unwrap();
        model.store.fill(model.r(C1), !0).unwrap();
        model
    }

    fn r(&self, offset: u64) -> RowId {
        RowId(self.geometry.total_rows() - RESERVED + offset)
    }

    fn issue(&mut self, cmd: Command) {
        let cycles = self.latency.cycles(&cmd);
        self.stats
            .record(cmd.class(), cycles, self.energy.energy_nj(&cmd));
        self.clock.charge(&cmd, cycles, &self.geometry);
        self.log.push(cmd);
    }

    fn aap_copy(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.issue(Command::Activate(src));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        self.store.copy_row(src, dst)
    }

    fn maj(&mut self, a: RowId, b: RowId, control: RowId, dst: RowId) -> Result<(), ArchError> {
        let t = [self.r(T0), self.r(T0 + 1), self.r(T0 + 2)];
        self.aap_copy(a, t[0])?;
        self.aap_copy(b, t[1])?;
        self.aap_copy(control, t[2])?;
        self.issue(Command::TripleRowActivate(t[0], t[1], t[2]));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        self.store.combine3(t[0], t[1], t[2], dst, majority_words)?;
        for row in t {
            self.store.copy_row(dst, row)?;
        }
        Ok(())
    }

    fn and(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.maj(a, b, self.r(C0), dst)
    }

    fn or(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        self.maj(a, b, self.r(C1), dst)
    }

    fn not(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        let dcc = self.r(DCC);
        self.aap_copy(src, dcc)?;
        self.issue(Command::Activate(dcc));
        self.issue(Command::RowClone { dst });
        self.issue(Command::Precharge);
        self.store.map(dcc, dst, |w| !w)
    }

    fn xor(&mut self, a: RowId, b: RowId, dst: RowId) -> Result<(), ArchError> {
        let [na, nb, x, y] = [XOR_NA, XOR_NB, XOR_X, XOR_Y].map(|o| self.r(o));
        self.not(a, na)?;
        self.not(b, nb)?;
        self.and(a, nb, x)?;
        self.and(na, b, y)?;
        self.or(x, y, dst)
    }

    /// Runs one step; `Ok(Some(row))` for a read.
    fn apply(
        &mut self,
        op: Op,
        a: RowId,
        b: RowId,
        dst: RowId,
    ) -> Result<Option<Vec<u64>>, ArchError> {
        let words = self.geometry.row_words();
        match op {
            Op::Write(seed) => {
                self.issue(Command::WriteRow(dst));
                self.store.write(dst, &row_data(seed, words))?;
            }
            Op::Install(seed) => self.store.write(dst, &row_data(seed, words))?,
            Op::Read => {
                self.issue(Command::ReadRow(a));
                return self.store.read(a).map(Some);
            }
            Op::Decay { seed, short } => {
                let mask = decay_mask(seed, short, words);
                let stored = self.store.row(dst)?.map(<[u64]>::to_vec);
                if mask.len() != words {
                    return Err(ArchError::RowSizeMismatch {
                        expected: words,
                        got: mask.len(),
                    });
                }
                if let Some(stored) = stored {
                    let decayed: Vec<u64> = stored.iter().zip(&mask).map(|(w, m)| w ^ m).collect();
                    self.store.write(dst, &decayed)?;
                }
            }
            Op::Not => self.not(a, dst)?,
            Op::And => self.and(a, b, dst)?,
            Op::Or => self.or(a, b, dst)?,
            Op::Nand => {
                let t3 = self.r(T3);
                self.and(a, b, t3)?;
                self.not(t3, dst)?;
            }
            Op::Nor => {
                let t3 = self.r(T3);
                self.or(a, b, t3)?;
                self.not(t3, dst)?;
            }
            Op::Xor => self.xor(a, b, dst)?,
            Op::Xnor => {
                let t = self.r(SCRATCH + 3);
                self.xor(a, b, t)?;
                self.not(t, dst)?;
            }
            Op::Copy => self.aap_copy(a, dst)?,
            // A restored backend starts a fresh command log and clock.
            Op::Restore => {
                self.log.clear();
                self.clock.take();
            }
        }
        Ok(None)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![1];
        out.extend_from_slice(&self.geometry.total_rows().to_le_bytes());
        out.extend_from_slice(&(self.geometry.row_words() as u64).to_le_bytes());
        self.store.encode_state(&mut out);
        self.stats.encode_state(&mut out);
        out.push(u8::from(self.refreshed));
        out
    }

    fn finish(&mut self) -> ExecStats {
        if !self.refreshed {
            let runtime = self.latency.seconds(self.stats.total_cycles());
            let refresh = DramBackend::refresh_stats(
                &self.energy,
                &self.latency,
                runtime,
                self.store.touched_rows(),
            );
            self.stats.merge(&refresh);
            self.refreshed = true;
        }
        self.stats.clone()
    }
}

fn decay_mask(seed: u64, short: bool, words: usize) -> Vec<u64> {
    let mask = row_data(seed | 1, words);
    if short {
        mask[..3].to_vec()
    } else {
        mask
    }
}

fn run(
    backend: &mut DramBackend,
    op: Op,
    a: RowId,
    b: RowId,
    dst: RowId,
) -> Result<Option<Vec<u64>>, ArchError> {
    let words = backend.geometry().row_words();
    match op {
        Op::Write(seed) => backend.write_row(dst, &row_data(seed, words))?,
        Op::Install(seed) => backend.install_row(dst, &row_data(seed, words))?,
        Op::Read => return backend.read_row(a).map(Some),
        Op::Decay { seed, short } => {
            backend.decay_row(dst, &decay_mask(seed, short, words))?;
        }
        Op::Not => backend.not(a, dst)?,
        Op::And => backend.and(a, b, dst)?,
        Op::Or => backend.or(a, b, dst)?,
        Op::Nand => backend.nand(a, b, dst)?,
        Op::Nor => backend.nor(a, b, dst)?,
        Op::Xor => backend.xor(a, b, dst)?,
        Op::Xnor => backend.xnor(a, b, dst)?,
        Op::Copy => backend.copy(a, dst)?,
        Op::Restore => {
            let snapshot = backend.snapshot_state().expect("DRAM snapshots");
            assert!(backend.restore_state(&snapshot));
        }
    }
    Ok(None)
}

/// Every row a program can touch, in a fixed order.
fn observed_rows(geometry: &MemoryGeometry) -> Vec<RowId> {
    let base = geometry.total_rows() - RESERVED;
    (0..3).chain(base..base + RESERVED).map(RowId).collect()
}

/// Asserts every view agrees; `at` names the point, formatted only on
/// failure.
fn check_agree(
    backend: &mut DramBackend,
    model: &mut EagerAmbit,
    rows: &[RowId],
    at: &dyn Fn() -> String,
) {
    for &row in rows {
        let expected = model.store.row(row).unwrap();
        assert_eq!(
            backend.stored_row(row),
            Ok(expected),
            "{}: row {}",
            at(),
            row.0
        );
        assert_eq!(backend.peek_row(row), Ok(expected.map(<[u64]>::to_vec)));
    }
    assert_eq!(
        backend.live_rows(),
        model.store.touched_rows(),
        "{}: live rows",
        at()
    );
    assert_eq!(backend.stats(), &model.stats, "{}: stats", at());
    assert_eq!(
        backend.command_log(),
        &model.log[..],
        "{}: command log",
        at()
    );
    assert_eq!(
        backend.take_batch_cycles(),
        model.clock.take(),
        "{}: batch clock",
        at()
    );
    assert_eq!(
        backend.snapshot_state(),
        Some(model.snapshot()),
        "{}: snapshot",
        at()
    );
}

fn check_program(program: &[Step]) {
    let geometry = MemoryGeometry::tiny();
    let mut backend = DramBackend::new(geometry).with_command_log();
    let mut model = EagerAmbit::new(geometry);
    let rows = observed_rows(&geometry);
    let base = geometry.total_rows() - RESERVED;
    let mut last = RowId(0);
    for (i, step) in program.iter().enumerate() {
        let at = || format!("step {i} of {program:?}");
        let resolve = |pick: Pick| match pick {
            Pick::Data(r) => RowId(r),
            Pick::Reserved(offset) => RowId(base + offset),
            Pick::OutOfRange => RowId(geometry.total_rows()),
            Pick::Last => last,
        };
        let (a, b, dst) = (resolve(step.a), resolve(step.b), resolve(step.dst));
        let got = run(&mut backend, step.op, a, b, dst);
        let expected = model.apply(step.op, a, b, dst);
        assert_eq!(got, expected, "{}: result", at());
        check_agree(&mut backend, &mut model, &rows, &at);
        if geometry.contains(dst) {
            last = dst;
        }
    }
    let at = || format!("finish of {program:?}");
    assert_eq!(backend.finish(), model.finish(), "{}", at());
    check_agree(&mut backend, &mut model, &rows, &at);
    assert_eq!(backend.finish(), model.finish(), "{}: again", at());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    fn deferred_writeback_matches_eager_ambit(program in prop::collection::vec(step_strategy(), 1..40)) {
        check_program(&program);
    }
}

/// Each way a deferred write-back is observed, in isolation.
#[test]
fn each_observer_sees_the_written_back_rows() {
    let t = |i: u64| Pick::Reserved(T0 + i);
    let data = Pick::Data;
    let step = |op, a, b, dst| Step { op, a, b, dst };
    let programs: Vec<Vec<Step>> = vec![
        // A compute row read, copied and negated.
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Read, t(1), t(1), t(1)),
        ],
        vec![
            step(Op::Or, data(0), data(1), data(2)),
            step(Op::Copy, t(2), t(2), data(0)),
        ],
        vec![
            step(Op::Or, data(0), data(1), data(2)),
            step(Op::Not, t(0), t(0), data(1)),
        ],
        // A compute row written, installed or decayed.
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Write(5), t(0), t(0), t(1)),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Install(5), t(0), t(0), t(2)),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(
                Op::Decay {
                    seed: 3,
                    short: false,
                },
                t(0),
                t(0),
                t(0),
            ),
        ],
        // The result row overwritten by every kind of write.
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Write(5), data(0), data(0), data(2)),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Install(5), data(0), data(0), data(2)),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(
                Op::Decay {
                    seed: 3,
                    short: false,
                },
                data(0),
                data(0),
                data(2),
            ),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Copy, data(0), data(0), data(2)),
        ],
        vec![
            step(Op::And, data(0), data(1), data(2)),
            step(Op::Not, data(0), data(0), data(2)),
        ],
        // A result in a composite's internal rows.
        vec![
            step(Op::Or, data(0), data(1), Pick::Reserved(DCC)),
            step(Op::Not, data(0), data(0), data(1)),
        ],
        vec![
            step(Op::Or, data(0), data(1), Pick::Reserved(T3)),
            step(Op::Nand, data(0), data(1), data(2)),
        ],
        vec![
            step(Op::Or, data(0), data(1), Pick::Reserved(XOR_NA)),
            step(Op::Xor, data(0), data(1), data(2)),
        ],
        // MAJ operands and destinations in the compute rows.
        vec![
            step(Op::Or, data(0), data(1), data(2)),
            step(Op::And, t(1), t(0), data(0)),
        ],
        vec![
            step(Op::Or, data(0), data(1), data(2)),
            step(Op::And, data(0), t(0), t(2)),
        ],
        vec![
            step(Op::Write(9), data(0), data(0), t(0)),
            step(Op::Or, t(2), t(0), data(1)),
        ],
        // The control row replaced by the result.
        vec![
            step(Op::And, data(0), data(1), Pick::Reserved(C0)),
            step(Op::And, data(1), data(0), data(2)),
        ],
        // Snapshot and restore with the write-back owed.
        vec![
            step(Op::Xor, data(0), data(1), data(2)),
            step(Op::Restore, data(0), data(0), data(0)),
            step(Op::Read, t(0), t(0), t(0)),
        ],
    ];
    for program in programs {
        let mut full = vec![
            step(Op::Write(11), data(0), data(0), data(0)),
            step(Op::Write(12), data(0), data(0), data(1)),
        ];
        full.extend(program);
        check_program(&full);
    }
}
