//! `RowStore` against a naive row map: random sequences of writes,
//! fills, copies and row kernels must leave the store with exactly the
//! model's contents *and* its materialised row set. The model stores
//! rows in a `BTreeMap` and reads zeros for absent rows; an operation
//! materialises its destination and nothing else.
//!
//! The row pool is small, so sequences routinely read unmaterialised
//! operands, copy a row onto itself and write a destination that is
//! also one of its operands.

use felim_arch::engine::{majority_words, minority_words, RowStore};
use felim_arch::{MemoryGeometry, RowId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Rows the programs touch: both ends of the tiny geometry, a few in
/// between, and both sides of the store's 512-row page boundary.
const POOL: [u64; 9] = [0, 1, 2, 63, 64, 511, 512, 513, 1023];

#[derive(Debug, Clone)]
enum Step {
    Write(usize, u64),
    Fill(usize, u64),
    Copy(usize, usize),
    Map(usize, usize, u64),
    Combine3 {
        rows: [usize; 3],
        dst: usize,
        majority: bool,
    },
    Combine2(usize, usize, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let r = 0..POOL.len();
    prop_oneof![
        (r.clone(), any::<u64>()).prop_map(|(d, w)| Step::Write(d, w)),
        (r.clone(), any::<u64>()).prop_map(|(d, w)| Step::Fill(d, w)),
        (r.clone(), r.clone()).prop_map(|(s, d)| Step::Copy(s, d)),
        (r.clone(), r.clone(), any::<u64>()).prop_map(|(s, d, m)| Step::Map(s, d, m)),
        (r.clone(), r.clone(), r.clone(), r.clone(), any::<bool>()).prop_map(
            |(a, b, c, dst, majority)| Step::Combine3 {
                rows: [a, b, c],
                dst,
                majority
            }
        ),
        (r.clone(), r.clone(), r).prop_map(|(a, b, d)| Step::Combine2(a, b, d)),
    ]
}

/// A row whose words all differ, so a word-order mistake shows.
fn row_data(seed: u64, words: usize) -> Vec<u64> {
    (0..words as u64)
        .map(|i| seed.rotate_left(i as u32) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn map_fn(mask: u64) -> impl Fn(u64) -> u64 {
    move |x| x.rotate_left(7) ^ mask
}

fn combine2_fn(x: u64, y: u64) -> u64 {
    x ^ y.rotate_left(1)
}

struct Model {
    rows: BTreeMap<u64, Vec<u64>>,
    words: usize,
}

impl Model {
    fn read(&self, row: u64) -> Vec<u64> {
        self.rows
            .get(&row)
            .cloned()
            .unwrap_or_else(|| vec![0; self.words])
    }

    fn apply(&mut self, step: &Step) {
        let row = |i: usize| POOL[i];
        let (dst, data) = match *step {
            Step::Write(d, w) => (d, row_data(w, self.words)),
            Step::Fill(d, w) => (d, vec![w; self.words]),
            Step::Copy(s, d) => (d, self.read(row(s))),
            Step::Map(s, d, m) => (d, self.read(row(s)).into_iter().map(map_fn(m)).collect()),
            Step::Combine3 {
                rows: [a, b, c],
                dst,
                majority,
            } => {
                let f = if majority {
                    majority_words
                } else {
                    minority_words
                };
                let (a, b, c) = (self.read(row(a)), self.read(row(b)), self.read(row(c)));
                let out = (0..self.words).map(|i| f(a[i], b[i], c[i])).collect();
                (dst, out)
            }
            Step::Combine2(a, b, d) => {
                let (a, b) = (self.read(row(a)), self.read(row(b)));
                (
                    d,
                    (0..self.words).map(|i| combine2_fn(a[i], b[i])).collect(),
                )
            }
        };
        self.rows.insert(row(dst), data);
    }
}

fn apply(store: &mut RowStore, step: &Step) {
    let row = |i: usize| RowId(POOL[i]);
    let words = store.geometry().row_words();
    match *step {
        Step::Write(d, w) => store.write(row(d), &row_data(w, words)),
        Step::Fill(d, w) => store.fill(row(d), w),
        Step::Copy(s, d) => store.copy_row(row(s), row(d)),
        Step::Map(s, d, m) => store.map(row(s), row(d), map_fn(m)),
        Step::Combine3 {
            rows: [a, b, c],
            dst,
            majority,
        } => {
            let f = if majority {
                majority_words
            } else {
                minority_words
            };
            store.combine3(row(a), row(b), row(c), row(dst), f)
        }
        Step::Combine2(a, b, d) => {
            let mut out = Vec::new();
            store
                .combine2_into(row(a), row(b), &mut out, combine2_fn)
                .and_then(|()| store.write(row(d), &out))
        }
    }
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_store_matches_naive_model(program in prop::collection::vec(step_strategy(), 1..40)) {
        let geometry = MemoryGeometry::tiny();
        let mut store = RowStore::new(geometry);
        let mut model = Model { rows: BTreeMap::new(), words: geometry.row_words() };
        for (i, step) in program.iter().enumerate() {
            apply(&mut store, step);
            model.apply(step);
            prop_assert_eq!(store.touched_rows(), model.rows.len() as u64, "step {}: {:?}", i, step);
            for r in POOL {
                let got = store.row(RowId(r)).unwrap();
                prop_assert_eq!(got, model.rows.get(&r).map(Vec::as_slice), "step {}: {:?}, row {}", i, step, r);
                prop_assert_eq!(store.read(RowId(r)).unwrap(), model.read(r));
            }
        }
    }
}
