//! `RowTable` against a `BTreeMap` model: random sequences of inserts,
//! lookups, get-or-inserts, in-place updates and removals must leave the
//! table with exactly the model's entries, its length, and its walk in
//! ascending row order. Keys sit on page edges (511, 512, 513), at both
//! ends of the table and anywhere in between; the capacity is the plane
//! store of a FeRAM backend over the paper's 8 GB geometry, so the last
//! key is its last plane id.
//!
//! A key past the capacity must be refused without allocating, which a
//! counting global allocator measures.

use felim_arch::geometry::{MemoryGeometry, RowTable};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    /// Allocations and the largest request this thread made since
    /// [`allocations_during`] armed it; `None` when not measuring.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = COUNT.try_with(|c| {
        if let Some((n, largest)) = c.get() {
            c.set(Some((n + 1, largest.max(size))));
        }
    });
}

/// `System`, counting each request on the requesting thread.
struct Probe;

// SAFETY: every call forwards to `System` unchanged; `note` only
// touches a const-initialised thread-local cell and never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Runs `f`, returning its result, the number of allocations it made on
/// this thread and the largest of them.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (n, largest) = COUNT.with(Cell::take).unwrap_or((0, 0));
    (out, n, largest)
}

/// Plane ids of a FeRAM backend over the paper geometry: three per row.
fn capacity() -> u64 {
    3 * MemoryGeometry::paper_8gb().total_rows()
}

/// Keys every program draws from often: page edges at both ends of the
/// table, and its last key.
fn edge_keys() -> [u64; 9] {
    let last = capacity() - 1;
    [0, 1, 511, 512, 513, 1024, last - 512, last - 1, last]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    Get(u64),
    GetOrDefault(u64),
    Update(u64, u32),
    Remove(u64),
}

fn key_strategy() -> impl Strategy<Value = u64> {
    let edges = edge_keys();
    prop_oneof![
        (0..edges.len()).prop_map(move |i| edges[i]),
        (0..edges.len()).prop_map(move |i| edges[i]),
        0..capacity(),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (key_strategy(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key_strategy().prop_map(Op::Get),
        key_strategy().prop_map(Op::GetOrDefault),
        (key_strategy(), any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
        key_strategy().prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_table_matches_a_btree_map(program in prop::collection::vec(op_strategy(), 1..60)) {
        let mut table: RowTable<u32> = RowTable::new(capacity());
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (i, op) in program.iter().enumerate() {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(table.insert(k, v), Ok(model.insert(k, v)), "step {}", i);
                }
                Op::Get(k) => {
                    prop_assert_eq!(table.get(k), model.get(&k), "step {}", i);
                }
                Op::GetOrDefault(k) => {
                    let got = table.get_or_default(k).copied();
                    prop_assert_eq!(got, Some(*model.entry(k).or_default()), "step {}", i);
                }
                Op::Update(k, v) => {
                    let got = table.get_mut(k).map(|slot| std::mem::replace(slot, v));
                    let want = model.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    prop_assert_eq!(got, want, "step {}", i);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(k), model.remove(&k), "step {}", i);
                }
            }
            prop_assert_eq!(table.len(), model.len(), "step {}: {:?}", i, op);
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let walk: Vec<(u64, u32)> = table.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(walk, want, "step {}: {:?}", i, op);
            prop_assert!(table.values().copied().eq(model.values().copied()));
        }
    }
}

#[test]
fn keys_past_the_capacity_are_refused_without_allocating() {
    let cap = capacity();
    let (mut table, allocations, largest) = allocations_during(|| RowTable::<Vec<u64>>::new(cap));
    // One null page pointer per 512 keys, in one allocation.
    assert_eq!(allocations, 1);
    assert!(largest <= 8 * cap.div_ceil(512) as usize, "{largest} bytes");
    let ((), allocations, _) = allocations_during(|| {
        for key in [cap, cap + 1, cap + 512, 1 << 59, u64::MAX] {
            assert!(table.get_or_default(key).is_none(), "key {key}");
            assert_eq!(table.insert(key, Vec::new()), Err(Vec::new()));
            assert!(table.get(key).is_none());
            assert!(table.get_mut(key).is_none());
            assert!(table.remove(key).is_none());
        }
    });
    assert_eq!(allocations, 0, "a refused key allocated");
    assert!(table.is_empty());
    // The last key is stored, in one page of its own.
    let ((), allocations, _) = allocations_during(|| {
        table.get_or_default(cap - 1).unwrap().push(7);
    });
    assert_eq!(allocations, 2, "the page and the row");
    let walk: Vec<(u64, &Vec<u64>)> = table.iter().collect();
    assert_eq!(walk, [(cap - 1, &vec![7])]);
}
