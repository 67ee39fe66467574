//! Property suite for backend state snapshots: for **every** backend
//! combination (FeRAM/DRAM × Baseline/Protected), a random workload's
//! state must survive `snapshot → chunked transfer → restore` into a
//! fresh instance **bit-identically** — including rows in the kernel
//! scratch region, the reliability controller's wear accumulators,
//! ECC check bytes, spare-row remaps, and the drift process's RNG
//! position. "Bit-identical" is checked two ways: the restored
//! instance re-snapshots to the very same bytes, and it produces the
//! same outcome as the original on an identical follow-up batch (the
//! property failover actually relies on).

use felim_arch::batch::RowOp;
use felim_arch::drift::DriftSpec;
use felim_arch::geometry::{MemoryGeometry, RowId};
use felim_exec::derive_seed;
use felim_serve::shard::{Shard, Technology};
use felim_serve::ServiceTier;
use proptest::prelude::*;

/// Tiny deterministic generator over a splitmix64 stream (the vendored
/// proptest hands each case a `u64` seed; everything else derives from
/// it so failures replay exactly).
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = derive_seed(self.state, 1);
        self.state
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random workload batch over the whole row space — including the
/// top rows, which the service reserves for kernel scratch (the
/// snapshot must not treat them specially).
fn gen_batch(g: &mut Gen, rows: u64, words: usize) -> Vec<RowOp> {
    let row = |g: &mut Gen| {
        // Bias toward the top of the array so scratch rows are hit in
        // every case.
        let r = if g.below(3) == 0 { rows - 1 - g.below(4.min(rows)) } else { g.below(rows) };
        RowId(r)
    };
    (0..4 + g.below(12))
        .map(|_| match g.below(6) {
            0 => RowOp::Write {
                row: row(g),
                data: (0..words).map(|_| g.next()).collect(),
            },
            1 => RowOp::Not { src: row(g), dst: row(g) },
            2 => RowOp::And { a: row(g), b: row(g), dst: row(g) },
            3 => RowOp::Xor { a: row(g), b: row(g), dst: row(g) },
            4 => RowOp::Copy { src: row(g), dst: row(g) },
            _ => RowOp::Read { row: row(g) },
        })
        .collect()
}

fn tiers(seed: u64) -> [ServiceTier; 2] {
    [
        ServiceTier::Baseline,
        ServiceTier::Protected {
            // Hot and disturb-prone: real drift flips, scrub rewrites,
            // and wear accumulate within a few virtual seconds, so the
            // snapshot has non-trivial controller state to carry.
            drift: DriftSpec::accelerated(seed, 390.0, 1e-4),
            scrub_period_s: 0.5,
        },
    ]
}

fn shard_for(technology: Technology, tier: &ServiceTier) -> Shard {
    let tier = match tier {
        ServiceTier::Baseline => None,
        ServiceTier::Protected { drift, scrub_period_s } => {
            Some((drift.clone(), *scrub_period_s))
        }
    };
    Shard::new(technology, MemoryGeometry::tiny(), tier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full matrix: random workload, snapshot, transfer in random
    /// chunk sizes, restore into a fresh shard — then both shards must
    /// agree byte-for-byte (re-snapshot) and behaviour-for-behaviour
    /// (identical follow-up batch, including faults and energy).
    fn snapshot_transfer_restore_is_bit_identical(seed in 0u64..u64::MAX) {
        for technology in [Technology::Feram, Technology::Dram] {
            for tier in tiers(seed ^ 0x7157) {
                let mut g = Gen::new(derive_seed(seed, 0x5eed));
                let mut original = shard_for(technology, &tier);
                let rows = original.data_rows();
                let words = MemoryGeometry::tiny().row_words();

                // A few ticks of real work (drift clock advancing on
                // the protected tier).
                for _ in 0..3 {
                    let batch = gen_batch(&mut g, rows, words);
                    let _ = original.execute(&batch, 0.75);
                }

                let snapshot = original
                    .snapshot_state()
                    .expect("unfaulted backends always snapshot");

                // Chunked transfer at a random chunk size — the frame
                // path reassembles exactly this way.
                let chunk = 1 + g.below(snapshot.len().max(2) as u64) as usize;
                let mut transferred = Vec::with_capacity(snapshot.len());
                for piece in snapshot.chunks(chunk) {
                    transferred.extend_from_slice(piece);
                }
                prop_assert_eq!(&transferred, &snapshot);

                let mut restored = shard_for(technology, &tier);
                prop_assert!(
                    restored.restore_state(&transferred),
                    "restore accepts its own snapshot ({:?})", technology
                );

                // Byte-identity: the restored shard re-snapshots to the
                // same bytes (wear, ECC, spares, RNG position and all).
                prop_assert_eq!(
                    restored.snapshot_state().as_deref(),
                    Some(&snapshot[..]),
                    "re-snapshot differs ({:?})", technology
                );

                // Behavioural identity: the same follow-up batch gives
                // the same outcome on both, fault-for-fault.
                let followup = gen_batch(&mut g, rows, words);
                let a = original.execute(&followup, 0.75);
                let b = restored.execute(&followup, 0.75);
                prop_assert_eq!(a, b, "follow-up diverged ({:?})", technology);
            }
        }
    }

    /// Corrupted or truncated snapshots are refused atomically: the
    /// target shard keeps serving its own pre-restore state.
    fn damaged_snapshots_are_refused_without_state_damage(seed in 0u64..u64::MAX) {
        let mut g = Gen::new(seed);
        for tier in tiers(seed ^ 0x60D) {
            let mut donor = shard_for(Technology::Feram, &tier);
            let rows = donor.data_rows();
            let words = MemoryGeometry::tiny().row_words();
            let _ = donor.execute(&gen_batch(&mut g, rows, words), 0.5);
            let good = donor.snapshot_state().expect("snapshots");

            let mut target = shard_for(Technology::Feram, &tier);
            let marker = vec![0xD1CE_D1CE_D1CE_D1CEu64; words];
            let _ = target.execute(
                &[RowOp::Write { row: RowId(0), data: marker.clone() }],
                0.5,
            );
            let before = target.snapshot_state().expect("snapshots");

            // Truncation and tail garbage are both refused...
            let cut = g.below(good.len() as u64) as usize;
            prop_assert!(!target.restore_state(&good[..cut]), "truncated at {}", cut);
            let mut extended = good.clone();
            extended.push(g.next() as u8);
            prop_assert!(!target.restore_state(&extended), "trailing garbage");

            // ...and the target's state is untouched by the attempts.
            prop_assert_eq!(
                target.snapshot_state().as_deref(),
                Some(&before[..]),
                "a refused restore must not dent existing state"
            );
        }
    }
}

/// No snapshot byte can panic or wedge a restore: every 8-byte window of
/// a small snapshot, overwritten with an absurd count or clock, must make
/// `restore_state` return — an accepted variant must then survive a
/// tick, and a refused variant must leave the target's state exactly as
/// it was. Each count-prefixed run (rows,
/// wear, disturb counters, remaps, spares, ECC side-bands, drift rows)
/// and the drift generator state sit under some window.
#[test]
fn crafted_counts_cannot_panic_or_wedge_a_restore() {
    let words = MemoryGeometry::tiny().row_words();
    for technology in [Technology::Feram, Technology::Dram] {
        for tier in tiers(0xC0DE) {
            // One materialised row keeps the sweep to a few seconds.
            let mut donor = shard_for(technology, &tier);
            let write = RowOp::Write { row: RowId(1), data: vec![0xA5; words] };
            let _ = donor.execute(&[write], 0.75);
            let good = donor.snapshot_state().expect("snapshots");
            let mut target = shard_for(technology, &tier);
            assert!(target.restore_state(&good));
            for at in 0..=good.len() - 8 {
                for evil in [u64::MAX >> 1, 1 << 40] {
                    let mut crafted = good.clone();
                    crafted[at..at + 8].copy_from_slice(&evil.to_le_bytes());
                    if target.restore_state(&crafted) {
                        // An accepted variant must still serve: one
                        // second is long enough for a scrub pass, so a
                        // wedged clock would hang or panic here.
                        let _ = target.execute(&[], 1.0);
                        assert!(target.restore_state(&good), "{technology:?}: good refused");
                    } else {
                        assert_eq!(
                            target.snapshot_state().as_deref(),
                            Some(&good[..]),
                            "{technology:?}: refused window {at} dented the target"
                        );
                    }
                }
            }
        }
    }
}

/// The daemon refuses a snapshot push longer than
/// [`Shard::snapshot_len_bound`], so no snapshot a shard can produce may
/// exceed it: every data row written, read and combined, on both
/// technologies, both tiers, and rows as small as the codec's per-row
/// keys.
#[test]
fn every_snapshot_fits_the_push_bound() {
    let small_rows = MemoryGeometry {
        capacity_bytes: 64 << 10,
        row_bytes: 64,
        rows_per_subarray: 64,
    };
    for geometry in [MemoryGeometry::tiny(), small_rows] {
        for technology in [Technology::Feram, Technology::Dram] {
            for tier in tiers(0xB0D) {
                let tier = match tier {
                    ServiceTier::Baseline => None,
                    ServiceTier::Protected {
                        drift,
                        scrub_period_s,
                    } => Some((drift, scrub_period_s)),
                };
                let mut shard = Shard::new(technology, geometry, tier);
                let rows = shard.data_rows();
                let words = geometry.row_words();
                let mut ops: Vec<RowOp> = (0..rows)
                    .map(|r| RowOp::Write {
                        row: RowId(r),
                        data: vec![r | 1 << 40; words],
                    })
                    .collect();
                ops.extend((0..rows).map(|r| RowOp::Read { row: RowId(r) }));
                ops.extend((0..rows).map(|r| RowOp::Xor {
                    a: RowId(r),
                    b: RowId((r + 1) % rows),
                    dst: RowId((r + 2) % rows),
                }));
                for tick in 0..3 {
                    let _ = shard.execute(&ops, 0.4 + f64::from(tick));
                }
                let snapshot = shard.snapshot_state().expect("snapshots");
                let bound = shard.snapshot_len_bound();
                assert!(
                    (snapshot.len() as u64) <= bound,
                    "{technology:?} {geometry:?}: {} bytes past the {bound}-byte bound",
                    snapshot.len()
                );
            }
        }
    }
}
