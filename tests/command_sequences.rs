//! Command-sequence verification: the backends must issue *exactly* the
//! primitive chains the paper describes — AAP for DRAM, ACP for FeRAM.

use felim::arch::{
    schedule, BulkBackend, Command, DramBackend, FeramBackend, LatencyModel, MemoryGeometry, RowId,
};

fn fill(words: usize, w: u64) -> Vec<u64> {
    vec![w; words]
}

/// The backend's online clock must price a sequence exactly as the
/// offline replay of its command log does, one slot per subarray.
fn assert_clock_matches_replay(cycles: (u64, u64), log: &[Command], geometry: &MemoryGeometry) {
    let slots = geometry.subarrays() as usize;
    let replay = schedule(log, geometry, &LatencyModel::paper_default(), slots);
    assert_eq!(cycles, (replay.serial_cycles, replay.makespan_cycles));
}

#[test]
fn dram_and_is_exactly_four_aaps() {
    let mut m = DramBackend::new(MemoryGeometry::tiny()).with_command_log();
    let words = m.geometry().row_words();
    m.install_row(RowId(0), &fill(words, 1)).unwrap();
    m.install_row(RowId(1), &fill(words, 2)).unwrap();
    m.and(RowId(0), RowId(1), RowId(2)).unwrap();

    let cycles = m.take_batch_cycles();
    let log = m.command_log();
    assert_clock_matches_replay(cycles, log, m.geometry());
    assert_eq!(log.len(), 12, "4 AAPs = 12 commands");
    // Three staging AAPs: ACTIVATE + RowClone + PRECHARGE each.
    for aap in 0..3 {
        assert!(matches!(log[3 * aap], Command::Activate(_)), "AAP {aap}");
        assert!(matches!(log[3 * aap + 1], Command::RowClone { .. }));
        assert!(matches!(log[3 * aap + 2], Command::Precharge));
    }
    // The compute AAP opens with the triple-row activation.
    assert!(matches!(log[9], Command::TripleRowActivate(..)));
    assert!(matches!(log[10], Command::RowClone { dst: RowId(2) }));
    assert!(matches!(log[11], Command::Precharge));
}

#[test]
fn dram_not_uses_the_dcc_chain() {
    let mut m = DramBackend::new(MemoryGeometry::tiny()).with_command_log();
    let words = m.geometry().row_words();
    m.install_row(RowId(0), &fill(words, 0xFF)).unwrap();
    m.not(RowId(0), RowId(1)).unwrap();
    let cycles = m.take_batch_cycles();
    let log = m.command_log();
    assert_clock_matches_replay(cycles, log, m.geometry());
    assert_eq!(log.len(), 6, "2 AAPs");
    assert!(matches!(log[0], Command::Activate(RowId(0))));
    assert!(matches!(log[3], Command::Activate(_)), "DCC activation");
    assert!(matches!(log[4], Command::RowClone { dst: RowId(1) }));
}

#[test]
fn feram_nand_is_exactly_two_acps() {
    let mut m = FeramBackend::new(MemoryGeometry::tiny()).with_command_log();
    let words = m.geometry().row_words();
    m.install_row(RowId(0), &fill(words, 1)).unwrap();
    m.install_row(RowId(1), &fill(words, 2)).unwrap();
    m.nand(RowId(0), RowId(1), RowId(2)).unwrap();

    let cycles = m.take_batch_cycles();
    let log = m.command_log();
    assert_clock_matches_replay(cycles, log, m.geometry());
    assert_eq!(log.len(), 6, "colocation ACP + logic ACP");
    // Colocation: read B, copy (complemented to undo QNRO inversion).
    assert!(matches!(log[0], Command::Activate(RowId(1))));
    assert!(matches!(
        log[1],
        Command::Copy {
            complement: true,
            ..
        }
    ));
    assert!(matches!(log[2], Command::Precharge));
    // Logic: TBA on group A, copy result out uncomplemented.
    assert!(matches!(log[3], Command::TripleBitActivate(RowId(0))));
    assert!(matches!(
        log[4],
        Command::Copy {
            complement: false,
            ..
        }
    ));
    assert!(matches!(log[5], Command::Precharge));
}

#[test]
fn feram_and_differs_from_nand_only_in_copy_polarity() {
    let words = MemoryGeometry::tiny().row_words();
    let run = |op: fn(&mut FeramBackend, RowId, RowId, RowId)| {
        let mut m = FeramBackend::new(MemoryGeometry::tiny()).with_command_log();
        m.install_row(RowId(0), &fill(words, 1)).unwrap();
        m.install_row(RowId(1), &fill(words, 2)).unwrap();
        op(&mut m, RowId(0), RowId(1), RowId(2));
        assert_clock_matches_replay(m.take_batch_cycles(), m.command_log(), m.geometry());
        m.command_log().to_vec()
    };
    let nand = run(|m, a, b, d| m.nand(a, b, d).unwrap());
    let and = run(|m, a, b, d| m.and(a, b, d).unwrap());
    assert_eq!(nand.len(), and.len());
    for (i, (x, y)) in nand.iter().zip(&and).enumerate() {
        if i == 4 {
            assert!(matches!(
                x,
                Command::Copy {
                    complement: false,
                    ..
                }
            ));
            assert!(matches!(
                y,
                Command::Copy {
                    complement: true,
                    ..
                }
            ));
        } else {
            assert_eq!(x, y, "command {i} must be identical");
        }
    }
}

#[test]
fn feram_not_is_one_acp_with_inverting_read_passthrough() {
    let mut m = FeramBackend::new(MemoryGeometry::tiny()).with_command_log();
    let words = m.geometry().row_words();
    m.install_row(RowId(0), &fill(words, 0xAA)).unwrap();
    m.not(RowId(0), RowId(1)).unwrap();
    let cycles = m.take_batch_cycles();
    let log = m.command_log();
    assert_clock_matches_replay(cycles, log, m.geometry());
    assert_eq!(log.len(), 3, "a single ACP — no DCC anywhere");
    assert!(matches!(log[0], Command::Activate(RowId(0))));
    // The QNRO read already inverted; the copy passes it through.
    assert!(matches!(
        log[1],
        Command::Copy {
            complement: false,
            ..
        }
    ));
    assert!(matches!(log[2], Command::Precharge));
}

#[test]
fn logging_off_means_empty_log() {
    let mut m = FeramBackend::new(MemoryGeometry::tiny());
    let words = m.geometry().row_words();
    m.install_row(RowId(0), &fill(words, 1)).unwrap();
    let _ = m.read_row(RowId(0));
    assert!(m.command_log().is_empty());
    // The batch clock runs without the log.
    assert!(m.take_batch_cycles().0 > 0);
}
