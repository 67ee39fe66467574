//! Oracle for the borrowed stored-row view: `stored_row` must show
//! exactly the bits a software model of the writes predicts, agree with
//! `peek_row` (its owned copy), refuse rows outside the array the same
//! way, and — under the reliability controller — be the bits every SECDED
//! side-band was encoded from.

use felim_arch::{
    ArchError, BulkBackend, ControllerConfig, DegradationPolicy, DramBackend, DriftSpec,
    FeramBackend, ReliabilityController, RowId, ScrubConfig,
};
use proptest::prelude::*;

/// Data rows the tests write; rows `ROWS..ROWS + 2` are never touched.
const ROWS: u64 = 8;

fn fill(seed: u64, words: usize) -> Vec<u64> {
    (0..words as u64)
        .map(|w| (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w)
        .collect()
}

/// The model of `f` applied word by word to modelled rows `a` and `c`.
fn combine(model: &[Option<Vec<u64>>], a: u64, c: u64, f: fn(u64, u64) -> u64) -> Option<Vec<u64>> {
    let (a, c) = (model[a as usize].as_ref()?, model[c as usize].as_ref()?);
    Some(a.iter().zip(c).map(|(&x, &y)| f(x, y)).collect())
}

/// Writes rows `0..ROWS - 2`, derives the last two with logic ops, and
/// returns the software model of every row in `0..ROWS + 2`.
fn drive(b: &mut dyn BulkBackend) -> Vec<Option<Vec<u64>>> {
    let words = b.geometry().row_words();
    let mut model: Vec<Option<Vec<u64>>> = vec![None; ROWS as usize + 2];
    for r in 0..ROWS - 2 {
        let data = fill(r, words);
        if r % 2 == 0 {
            b.write_row(RowId(r), &data).unwrap();
        } else {
            b.install_row(RowId(r), &data).unwrap();
        }
        model[r as usize] = Some(data);
    }
    b.xor(RowId(0), RowId(1), RowId(ROWS - 2)).unwrap();
    model[ROWS as usize - 2] = combine(&model, 0, 1, |x, y| x ^ y);
    b.nand(RowId(2), RowId(3), RowId(ROWS - 1)).unwrap();
    model[ROWS as usize - 1] = combine(&model, 2, 3, |x, y| !(x & y));
    // An op whose destination is one of its operands.
    b.not(RowId(4), RowId(4)).unwrap();
    model[4] = combine(&model, 4, 4, |x, _| !x);
    model
}

/// Checks both views of every modelled row against the model, and of
/// rows past the array against `RowOutOfRange`.
fn assert_views(b: &dyn BulkBackend, model: &[Option<Vec<u64>>]) {
    let name = b.tech_name();
    for (r, expected) in model.iter().enumerate() {
        let row = RowId(r as u64);
        assert_eq!(
            b.stored_row(row),
            Ok(expected.as_deref()),
            "{name}: stored row {r}"
        );
        assert_eq!(
            b.peek_row(row),
            Ok(expected.clone()),
            "{name}: peeked row {r}"
        );
    }
    let rows = b.geometry().total_rows();
    for r in [rows, rows + 1, u64::MAX] {
        let err = ArchError::RowOutOfRange { row: r, rows };
        assert_eq!(
            b.stored_row(RowId(r)),
            Err(err.clone()),
            "{name}: stored row {r}"
        );
        assert_eq!(b.peek_row(RowId(r)), Err(err), "{name}: peeked row {r}");
    }
}

#[test]
fn feram_stored_rows_match_the_model() {
    let mut feram = FeramBackend::tiny();
    let model = drive(&mut feram);
    assert_views(&feram, &model);
}

#[test]
fn dram_stored_rows_match_the_model() {
    let mut dram = DramBackend::tiny();
    let model = drive(&mut dram);
    assert_views(&dram, &model);
}

#[test]
fn controller_stored_rows_are_the_wrapped_backends() {
    for config in [
        ControllerConfig::protected(DriftSpec::quiet(5), 3600.0),
        ControllerConfig::unprotected(DriftSpec::quiet(5)),
    ] {
        let mut feram = ReliabilityController::new(FeramBackend::tiny(), config.clone());
        let model = drive(&mut feram);
        assert_views(&feram, &model);
        assert_views(feram.inner(), &model);

        let mut dram = ReliabilityController::new(DramBackend::tiny(), config);
        let model = drive(&mut dram);
        assert_views(&dram, &model);
        assert_views(dram.inner(), &model);
    }
}

/// A row remapped to a spare is read through the remap: the view shows
/// the spare's bits, not the stale ones left in the retired row.
#[test]
fn feram_stored_row_follows_a_remap_to_a_spare() {
    let mut feram = FeramBackend::tiny().with_policy(DegradationPolicy {
        scratch_rotation_fraction: 1e-5,
        ..DegradationPolicy::none()
    });
    let mut model = drive(&mut feram);
    let scratch = feram.scratch_rows(1)[0];
    while feram.remapped_rows() == 0 {
        feram.copy(RowId(0), scratch).unwrap();
    }
    assert_eq!(feram.stored_row(scratch).unwrap(), model[0].as_deref());
    // A later copy lands wherever the remap points now.
    let remapped = feram.remapped_rows();
    feram.copy(RowId(1), scratch).unwrap();
    assert_eq!(
        feram.remapped_rows(),
        remapped,
        "the scratch row keeps one remap entry"
    );
    assert_eq!(feram.stored_row(scratch).unwrap(), model[1].as_deref());
    assert_eq!(feram.peek_row(scratch).unwrap(), model[1]);
    // The data rows are unaffected.
    feram.copy(RowId(ROWS - 1), RowId(0)).unwrap();
    model[0] = model[ROWS as usize - 1].clone();
    assert_views(&feram, &model);
}

/// One random step over the data rows.
#[derive(Debug, Clone)]
enum Step {
    Write(u64, u64),
    Install(u64, u64),
    Logic(u8, u64, u64, u64),
    Not(u64, u64),
    Copy(u64, u64),
    Read(u64),
    Tick,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let r = 0..ROWS;
    prop_oneof![
        (r.clone(), any::<u64>()).prop_map(|(a, w)| Step::Write(a, w)),
        (r.clone(), any::<u64>()).prop_map(|(a, w)| Step::Install(a, w)),
        (0u8..6, r.clone(), r.clone(), r.clone()).prop_map(|(k, a, b, d)| Step::Logic(k, a, b, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Not(a, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Copy(a, d)),
        r.prop_map(Step::Read),
        Just(Step::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under a quiet environment nothing upsets storage, so a side-band
    /// encoded from anything but the stored bits would show up as a
    /// correction or an uncorrectable word on a protected read. Each
    /// read (mid-program, by the patrol, and at the end) must decode
    /// clean.
    #[test]
    fn protected_reads_decode_clean(program in prop::collection::vec(step_strategy(), 1..32)) {
        let config = ControllerConfig {
            ecc: true,
            scrub: Some(ScrubConfig::every(1.0)),
            drift: DriftSpec::quiet(11),
        };
        let mut c = ReliabilityController::new(FeramBackend::tiny(), config);
        let words = c.geometry().row_words();
        for r in 0..ROWS {
            c.write_row(RowId(r), &fill(r, words)).unwrap();
        }
        for step in &program {
            let row = RowId;
            match *step {
                Step::Write(a, w) => c.write_row(row(a), &fill(w, words)),
                Step::Install(a, w) => c.install_row(row(a), &fill(w, words)),
                Step::Logic(k, a, b, d) => match k {
                    0 => c.and(row(a), row(b), row(d)),
                    1 => c.or(row(a), row(b), row(d)),
                    2 => c.nand(row(a), row(b), row(d)),
                    3 => c.nor(row(a), row(b), row(d)),
                    4 => c.xor(row(a), row(b), row(d)),
                    _ => c.xnor(row(a), row(b), row(d)),
                },
                Step::Not(a, d) => c.not(row(a), row(d)),
                Step::Copy(a, d) => c.copy(row(a), row(d)),
                Step::Read(a) => c.read_row(row(a)).map(drop),
                Step::Tick => c.tick(1.0),
            }
            .unwrap();
        }
        for r in 0..ROWS {
            let read = c.read_row(RowId(r)).unwrap();
            prop_assert_eq!(Some(&read[..]), c.stored_row(RowId(r)).unwrap());
        }
        let stats = c.controller_stats();
        prop_assert_eq!(stats.drift_flips, 0);
        prop_assert_eq!(
            (stats.corrected_bits, stats.corrected_check_bits, stats.uncorrectable_words),
            (0, 0, 0)
        );
    }
}
