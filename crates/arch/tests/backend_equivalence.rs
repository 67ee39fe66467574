//! Differential testing: the DRAM and FeRAM backends must compute
//! identical row contents for arbitrary random programs — they differ in
//! cost, never in semantics.

use felim_arch::{BulkBackend, DramBackend, FeramBackend, MemoryGeometry, RowId};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One random program step over a small row set.
#[derive(Debug, Clone)]
enum Step {
    And(u64, u64, u64),
    Or(u64, u64, u64),
    Xor(u64, u64, u64),
    Nand(u64, u64, u64),
    Nor(u64, u64, u64),
    Not(u64, u64),
    Copy(u64, u64),
    Write(u64, u64), // (row, fill word)
}

const ROWS: u64 = 12;

fn step_strategy() -> impl Strategy<Value = Step> {
    let r = 0..ROWS;
    prop_oneof![
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::And(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Or(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Xor(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Nand(a, b, d)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, d)| Step::Nor(a, b, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Not(a, d)),
        (r.clone(), r.clone()).prop_map(|(a, d)| Step::Copy(a, d)),
        (r, any::<u64>()).prop_map(|(a, w)| Step::Write(a, w)),
    ]
}

fn run_program(backend: &mut dyn BulkBackend, program: &[Step]) -> Vec<Vec<u64>> {
    let words = backend.geometry().row_words();
    // Deterministic starting contents.
    for row in 0..ROWS {
        backend
            .install_row(RowId(row), &vec![row.wrapping_mul(0x9E37_79B9); words])
            .unwrap();
    }
    for step in program {
        match *step {
            Step::And(a, b, d) => backend.and(RowId(a), RowId(b), RowId(d)),
            Step::Or(a, b, d) => backend.or(RowId(a), RowId(b), RowId(d)),
            Step::Xor(a, b, d) => backend.xor(RowId(a), RowId(b), RowId(d)),
            Step::Nand(a, b, d) => backend.nand(RowId(a), RowId(b), RowId(d)),
            Step::Nor(a, b, d) => backend.nor(RowId(a), RowId(b), RowId(d)),
            Step::Not(a, d) => backend.not(RowId(a), RowId(d)),
            Step::Copy(a, d) => backend.copy(RowId(a), RowId(d)),
            Step::Write(a, w) => backend.write_row(RowId(a), &vec![w; words]),
        }
        .unwrap();
    }
    (0..ROWS)
        .map(|r| backend.read_row(RowId(r)).unwrap())
        .collect()
}

/// Word-level software oracle of the same program.
fn run_oracle(program: &[Step], words: usize) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = (0..ROWS)
        .map(|r| vec![r.wrapping_mul(0x9E37_79B9); words])
        .collect();
    for step in program {
        let get = |rows: &Vec<Vec<u64>>, i: u64| rows[i as usize].clone();
        match *step {
            Step::And(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p & q).collect();
            }
            Step::Or(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p | q).collect();
            }
            Step::Xor(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| p ^ q).collect();
            }
            Step::Nand(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| !(p & q)).collect();
            }
            Step::Nor(a, b, d) => {
                let (x, y) = (get(&rows, a), get(&rows, b));
                rows[d as usize] = x.iter().zip(&y).map(|(p, q)| !(p | q)).collect();
            }
            Step::Not(a, d) => {
                let x = get(&rows, a);
                rows[d as usize] = x.iter().map(|p| !p).collect();
            }
            Step::Copy(a, d) => {
                rows[d as usize] = get(&rows, a);
            }
            Step::Write(a, w) => {
                rows[a as usize] = vec![w; words];
            }
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary programs (including aliased operands and in-place
    /// destinations) produce identical memory images on both backends and
    /// match the software oracle.
    #[test]
    fn backends_agree_with_oracle(program in prop::collection::vec(step_strategy(), 1..24)) {
        let words = MemoryGeometry::tiny().row_words();
        let oracle = run_oracle(&program, words);
        let mut feram = FeramBackend::new(MemoryGeometry::tiny());
        let feram_rows = run_program(&mut feram, &program);
        prop_assert_eq!(&feram_rows, &oracle, "FeRAM diverged from the oracle");
        let mut dram = DramBackend::new(MemoryGeometry::tiny());
        let dram_rows = run_program(&mut dram, &program);
        prop_assert_eq!(&dram_rows, &oracle, "DRAM diverged from the oracle");
    }

    /// FeRAM never loses to DRAM on cost, for any program.
    #[test]
    fn feram_cost_dominates_for_any_program(
        program in prop::collection::vec(step_strategy(), 1..16)
    ) {
        let mut feram = FeramBackend::new(MemoryGeometry::tiny());
        run_program(&mut feram, &program);
        let mut dram = DramBackend::new(MemoryGeometry::tiny());
        run_program(&mut dram, &program);
        prop_assert!(dram.stats().total_cycles() >= feram.stats().total_cycles());
        prop_assert!(dram.stats().total_energy_nj() >= feram.stats().total_energy_nj() - 1e-9);
    }
}

/// Both backends hand out the 5 scratch rows `BulkBackend::scratch_rows`
/// guarantees: distinct, inside the array and in the reserved region.
#[test]
fn both_backends_hand_out_the_guaranteed_scratch_rows() {
    let (feram, dram) = (FeramBackend::tiny(), DramBackend::tiny());
    for (backend, first_reserved) in [
        (&feram as &dyn BulkBackend, feram.first_reserved_row()),
        (&dram as &dyn BulkBackend, dram.first_reserved_row()),
    ] {
        let name = backend.tech_name();
        let rows = backend.scratch_rows(5);
        let distinct: BTreeSet<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!((rows.len(), distinct.len()), (5, 5), "{name}: {rows:?}");
        for row in rows {
            assert!(
                row.0 >= first_reserved.0,
                "{name}: {row:?} below the reserved region"
            );
            assert!(
                backend.geometry().contains(row),
                "{name}: {row:?} outside the array"
            );
        }
    }
}
