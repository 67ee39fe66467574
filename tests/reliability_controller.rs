//! Integration tests for the reliability controller: the SECDED code's
//! exhaustive correction/detection guarantees (property-based), the
//! controller's end-to-end repair path over a real FeRAM backend, and
//! the campaign-level acceptance claim — at an operating point where
//! the hardened degradation policy provably leaks silent storage
//! corruption, the ECC + scrub controller leaks none.

use felim::arch::ecc::{decode_word, encode_word};
use felim::arch::{
    ArchError, BulkBackend, ControllerConfig, DegradationPolicy, DriftSpec, FeramBackend,
    MemoryGeometry, ReliabilityController, RowId, WordDecode,
};
use felim::workloads::driver::{
    campaign_silent_rows, run_reliability_campaign, ReliabilityCampaignSpec, ReliabilityTier,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SECDED corrects every possible single-bit flip — any data word,
    /// any of the 72 codeword positions (64 data + 8 check bits).
    #[test]
    fn every_single_bit_flip_is_corrected(data in any::<u64>(), bit in 0usize..72) {
        let check = encode_word(data);
        if bit < 64 {
            prop_assert_eq!(
                decode_word(data ^ (1u64 << bit), check),
                WordDecode::CorrectedData(data)
            );
        } else {
            prop_assert_eq!(
                decode_word(data, check ^ (1u8 << (bit - 64))),
                WordDecode::CorrectedCheck
            );
        }
    }

    /// Every double-bit flip is detected as uncorrectable — never
    /// silently "corrected" into the wrong word.
    #[test]
    fn every_double_bit_flip_is_detected(
        data in any::<u64>(),
        a in 0usize..72,
        b in 0usize..71,
    ) {
        // Map the second draw past the first so the two positions are
        // always distinct without rejection sampling.
        let b = if b >= a { b + 1 } else { b };
        let check = encode_word(data);
        let (mut d, mut c) = (data, check);
        for bit in [a, b] {
            if bit < 64 {
                d ^= 1u64 << bit;
            } else {
                c ^= 1u8 << (bit - 64);
            }
        }
        prop_assert_eq!(decode_word(d, c), WordDecode::Uncorrectable);
    }

    /// End-to-end through the controller and a real FeRAM backend: a
    /// single storage upset anywhere in a row is repaired on read, and
    /// the repair is invisible to the caller.
    #[test]
    fn controller_repairs_any_single_upset(
        fill in any::<u64>(),
        word in 0usize..8,
        bit in 0u32..64,
    ) {
        let mut c = ReliabilityController::new(
            FeramBackend::new(MemoryGeometry::tiny()),
            ControllerConfig::ecc_only(DriftSpec::quiet(1)),
        );
        let words = c.geometry().row_words();
        let data = vec![fill; words];
        c.write_row(RowId(0), &data).unwrap();
        let mut mask = vec![0u64; words];
        mask[word % words] = 1u64 << bit;
        prop_assert!(c.decay_row(RowId(0), &mask).unwrap());
        prop_assert_eq!(c.read_row(RowId(0)).unwrap(), data);
        prop_assert_eq!(c.controller_stats().corrected_bits, 1);
    }
}

#[test]
fn double_upsets_escalate_with_row_and_word_attribution() {
    let mut c = ReliabilityController::new(
        FeramBackend::new(MemoryGeometry::tiny()),
        ControllerConfig::ecc_only(DriftSpec::quiet(5)),
    );
    let words = c.geometry().row_words();
    c.write_row(RowId(3), &vec![0x5555u64; words]).unwrap();
    let mut mask = vec![0u64; words];
    mask[4] = (1 << 1) | (1 << 62);
    c.decay_row(RowId(3), &mask).unwrap();
    match c.read_row(RowId(3)) {
        Err(ArchError::Uncorrectable { row: 3, words }) => assert_eq!(words, vec![4]),
        other => panic!("expected typed escalation, got {other:?}"),
    }
}

#[test]
fn campaign_controller_eliminates_silent_corruption_where_hardened_leaks() {
    // The PR acceptance point, end to end through the public facade:
    // the hardened degradation policy defends the compute path, but at
    // the bake-oven drift operating point its storage still rots — and
    // rots *silently*, because triple-read voting faithfully confirms
    // whatever the decayed cells now hold. The controller tier reports
    // zero silent corruptions and zero unreported escapes at the exact
    // same operating point — with and without QNRO read disturb, and at
    // every patrol period from 5 to 20 minutes.
    let policy = DegradationPolicy::hardened();

    for disturb in [0.0, 1e-4] {
        let mut leaky = ReliabilityCampaignSpec::bake_oven(42, ReliabilityTier::Unprotected);
        leaky.drift.disturb_per_read = disturb;
        let hardened = run_reliability_campaign(8, 7, &leaky, &policy);
        let leaked = campaign_silent_rows(&hardened);
        assert!(leaked >= 1, "disturb {disturb}: hardened must provably leak, got {leaked}");

        for scrub_period_s in [300.0, 600.0, 1200.0] {
            let at = format!("disturb {disturb}, scrub {scrub_period_s} s");
            let mut guarded = ReliabilityCampaignSpec::bake_oven(42, ReliabilityTier::Protected);
            guarded.drift.disturb_per_read = disturb;
            guarded.scrub_period_s = scrub_period_s;
            let protected = run_reliability_campaign(8, 7, &guarded, &policy);
            assert_eq!(campaign_silent_rows(&protected), 0, "{at}: silent corruption");
            for o in &protected {
                assert!(o.completed, "{at}: {} must complete", o.workload);
                assert_eq!(o.silent_rows, 0, "{at}: {}: unreported escape", o.workload);
            }
            // The run was not vacuous: physics fired and the controller
            // worked.
            assert!(protected.iter().map(|o| o.drift_flips).sum::<u64>() > 0, "{at}");
            assert!(protected.iter().map(|o| o.corrected_bits).sum::<u64>() > 0, "{at}");
            assert!(protected.iter().map(|o| o.scrub_passes).sum::<u64>() > 0, "{at}");
        }
    }
}

#[test]
fn disabled_controller_is_cost_transparent() {
    // The default path (no controller) is covered bit-for-bit by
    // tests/cost_regression.rs; here: wrapping a backend with every
    // protection feature off must not change results or charges either.
    let mut bare = FeramBackend::new(MemoryGeometry::tiny());
    let mut wrapped = ReliabilityController::new(
        FeramBackend::new(MemoryGeometry::tiny()),
        ControllerConfig::unprotected(DriftSpec::quiet(2)),
    );
    let words = bare.geometry().row_words();
    for mem in [&mut bare as &mut dyn BulkBackend, &mut wrapped] {
        mem.write_row(RowId(0), &vec![0xF0F0u64; words]).unwrap();
        mem.write_row(RowId(1), &vec![0x3CC3u64; words]).unwrap();
        mem.xnor(RowId(0), RowId(1), RowId(2)).unwrap();
        mem.and(RowId(0), RowId(2), RowId(3)).unwrap();
    }
    assert_eq!(
        bare.read_row(RowId(3)).unwrap(),
        wrapped.read_row(RowId(3)).unwrap()
    );
    assert_eq!(bare.stats().total_cycles(), wrapped.stats().total_cycles());
    assert_eq!(
        bare.stats().total_energy_nj(),
        wrapped.stats().total_energy_nj()
    );
}
