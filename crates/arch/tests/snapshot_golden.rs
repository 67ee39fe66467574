//! Golden snapshot bytes: a fixed op sequence on each snapshottable
//! backend must produce a snapshot of a pinned length and digest.
//!
//! The round-trip properties (`felim-serve`'s `snapshot_props`) only
//! prove that a build restores its *own* snapshots. A replica rebuild
//! crosses builds, so the byte format itself is the contract: any change
//! to these digests is a snapshot format change and must come with a
//! version-byte bump.

use felim_arch::{
    BulkBackend, ControllerConfig, DegradationPolicy, DramBackend, DriftSpec, FeramBackend,
    ReliabilityController, RowId,
};

/// 64-bit FNV-1a, the same function as `felim_exec::fnv1a_bytes`
/// (restated here so this crate's tests need no extra dependency).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed op sequence: distinct rows, every logic op, repeated reads
/// (QNRO disturb counters), kernel scratch traffic and drift ticks.
fn drive(b: &mut dyn BulkBackend) {
    let words = b.geometry().row_words() as u64;
    for r in 0..6u64 {
        let data: Vec<u64> = (0..words)
            .map(|w| (r + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w)
            .collect();
        b.install_row(RowId(r), &data).unwrap();
    }
    let row = RowId;
    b.and(row(0), row(1), row(6)).unwrap();
    b.or(row(2), row(3), row(7)).unwrap();
    b.xor(row(4), row(5), row(8)).unwrap();
    b.nand(row(6), row(7), row(9)).unwrap();
    b.nor(row(8), row(0), row(10)).unwrap();
    b.not(row(9), row(11)).unwrap();
    b.copy(row(10), row(12)).unwrap();
    let scratch = b.scratch_rows(2);
    for _ in 0..30 {
        b.xor(row(1), row(2), scratch[0]).unwrap();
        b.read_row(row(3)).unwrap();
    }
    b.copy(scratch[0], scratch[1]).unwrap();
    for _ in 0..4 {
        b.tick(3600.0).unwrap();
    }
}

/// FeRAM that rotates hot scratch rows after ten writes, so the remap
/// table and the spare list are part of the pinned bytes.
fn rotating_feram() -> FeramBackend {
    FeramBackend::tiny().with_policy(DegradationPolicy {
        scratch_rotation_fraction: 1e-5,
        ..DegradationPolicy::none()
    })
}

fn assert_golden(name: &str, snap: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (snap.len(), fnv1a(snap)),
        (len, digest),
        "{name} snapshot bytes changed: (len, digest) = ({}, {:#018x})",
        snap.len(),
        fnv1a(snap)
    );
}

#[test]
fn feram_snapshot_bytes_are_pinned() {
    let mut feram = rotating_feram();
    drive(&mut feram);
    assert!(
        feram.remapped_rows() > 0,
        "the sequence must rotate a scratch row"
    );
    let snap = feram.snapshot_state().unwrap();
    assert_golden("FeRAM", &snap, 24853, 0xe4a8_9c30_c662_b394);
}

#[test]
fn dram_snapshot_bytes_are_pinned() {
    let mut dram = DramBackend::tiny();
    drive(&mut dram);
    let snap = dram.snapshot_state().unwrap();
    assert_golden("DRAM", &snap, 27210, 0x6928_a30d_6ae2_c932);
}

#[test]
fn protected_controller_snapshot_bytes_are_pinned() {
    let config = ControllerConfig::protected(DriftSpec::accelerated(17, 390.0, 1e-4), 7200.0);
    let mut controller = ReliabilityController::new(FeramBackend::tiny(), config);
    drive(&mut controller);
    assert!(
        controller.drift().flips_injected() > 0,
        "the drift RNG must have been drawn from"
    );
    let snap = controller.snapshot_state().unwrap();
    assert_golden("protected controller", &snap, 20312, 0x7ef9_cd77_f23f_3727);
}

/// A snapshot naming a row outside the array is refused wherever the
/// row appears: a stored row, a remap target or a spare.
#[test]
fn rows_outside_the_array_are_refused() {
    let mut feram = rotating_feram();
    let words = feram.geometry().row_words();
    feram.install_row(RowId(0), &vec![0xAA; words]).unwrap();
    let scratch = feram.scratch_rows(1)[0];
    while feram.remapped_rows() == 0 {
        feram.copy(RowId(0), scratch).unwrap();
    }
    assert!(feram.spares_left() > 0);
    let good = feram.snapshot_state().unwrap();
    // The spare list ends the snapshot; the remap run precedes its count.
    let spares = good.len() - 8 * feram.spares_left();
    let first_row_key = 1 + 8 + 8 + 8; // version, geometry, row count
    for at in [first_row_key, spares - 16, good.len() - 8] {
        let mut crafted = good.clone();
        crafted[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(
            !rotating_feram().restore_state(&crafted),
            "row at byte {at} accepted"
        );
    }
    assert!(rotating_feram().restore_state(&good));
}
