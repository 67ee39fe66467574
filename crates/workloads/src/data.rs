//! Deterministic synthetic datasets.
//!
//! The paper's applications run over proprietary 1 GB datasets; bulk-
//! bitwise primitive counts depend only on data *size and layout*, never
//! on values, so seeded pseudo-random rows preserve the evaluation while
//! the values still exercise functional verification.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Content-addressed replay cache for [`DataGen::sparse_row`].
///
/// A sparse row costs one RNG draw per bit (the draw stream is pinned by
/// the Fig 6 goldens), which makes regeneration the dominant cost of the
/// set/bitmap workloads — and every technology sweep regenerates the
/// identical rows. The generator state *before* a row, together with the
/// density and width, uniquely determines both the bits and the state
/// after, so a `(state, density, width) → (bits, state')` map is an exact
/// memoization: on a hit the generator fast-forwards to the recorded
/// state and the returned row is bit-identical to a fresh generation.
/// Values depend only on their key, so the cache is deterministic under
/// any thread interleaving. A full cache is cleared before the next
/// insert, so rows from the latest evaluations stay memoised however
/// many came before; a miss only costs the regeneration.
type SparseKey = ([u64; 4], u64, usize);

struct CachedSparseRow {
    bits: Vec<u64>,
    state_after: [u64; 4],
}

/// Bound on distinct cached rows (8 KiB each at bench width) so a long
/// exploratory run cannot grow the cache without limit: an insert into a
/// full cache clears it first.
const SPARSE_CACHE_CAP: usize = 4096;

fn sparse_cache() -> &'static Mutex<HashMap<SparseKey, CachedSparseRow>> {
    static CACHE: OnceLock<Mutex<HashMap<SparseKey, CachedSparseRow>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Deterministic row-data generator.
#[derive(Debug)]
pub struct DataGen {
    rng: StdRng,
    row_words: usize,
}

impl DataGen {
    /// Creates a generator for rows of `row_words` 64-bit words.
    pub fn new(seed: u64, row_words: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            row_words,
        }
    }

    /// One uniformly random row.
    pub fn row(&mut self) -> Vec<u64> {
        (0..self.row_words).map(|_| self.rng.gen()).collect()
    }

    /// `n` uniformly random rows.
    pub fn rows(&mut self, n: u64) -> Vec<Vec<u64>> {
        (0..n).map(|_| self.row()).collect()
    }

    /// A sparse bitmap row where each bit is set with probability
    /// `density` (models set/bitmap workload data).
    ///
    /// # Panics
    ///
    /// Panics unless `density` is a probability.
    pub fn sparse_row(&mut self, density: f64) -> Vec<u64> {
        use rand::RngCore;
        assert!(
            (0.0..=1.0).contains(&density),
            "density {density} is not a probability"
        );
        // One Bernoulli draw per bit, in bit order — the draw stream is
        // pinned by the Fig 6 golden tests, so only the per-draw cost may
        // change here, never the draw count or order. `gen_bool(p)` is
        // `(next_u64() >> 11) * 2^-53 < p`; scaling both sides by 2^53 is
        // an exact exponent shift, and for an integer left side `k < f`
        // equals `k < ceil(f)`, so the same boolean falls out of a pure
        // integer compare.
        let key = (self.rng.state(), density.to_bits(), self.row_words);
        {
            let cache = sparse_cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(hit) = cache.get(&key) {
                felim_telemetry::counter("datagen.sparse_hits").inc();
                self.rng = StdRng::from_state(hit.state_after);
                return hit.bits.clone();
            }
        }
        felim_telemetry::counter("datagen.sparse_misses").inc();
        let threshold = (density * (1u64 << 53) as f64).ceil() as u64;
        let row: Vec<u64> = (0..self.row_words)
            .map(|_| {
                let mut w = 0u64;
                for b in 0..64 {
                    w |= (((self.rng.next_u64() >> 11) < threshold) as u64) << b;
                }
                w
            })
            .collect();
        let mut cache = sparse_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if cache.len() >= SPARSE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(
            key,
            CachedSparseRow {
                bits: row.clone(),
                state_after: self.rng.state(),
            },
        );
        row
    }

    /// One random 64-bit word.
    pub fn word(&mut self) -> u64 {
        self.rng.gen()
    }

    /// A random boolean with the given probability.
    pub fn coin(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}

/// Extracts bit `lane` of every word-row in `rows` as a lane-serial bit
/// vector — used to verify bit-sliced workloads lane by lane.
pub fn lane_bits(rows: &[Vec<u64>], lane: usize) -> Vec<bool> {
    let (word, bit) = (lane / 64, lane % 64);
    rows.iter().map(|r| (r[word] >> bit) & 1 == 1).collect()
}

/// Sets bit `lane` of `row` to `value`.
pub fn set_lane_bit(row: &mut [u64], lane: usize, value: bool) {
    let (word, bit) = (lane / 64, lane % 64);
    if value {
        row[word] |= 1 << bit;
    } else {
        row[word] &= !(1 << bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = DataGen::new(7, 16);
        let mut b = DataGen::new(7, 16);
        assert_eq!(a.rows(5), b.rows(5));
        let mut c = DataGen::new(8, 16);
        assert_ne!(a.row(), c.row());
    }

    #[test]
    fn sparse_replay_cache_preserves_stream() {
        // Same seed twice: the second run hits the replay cache, and both
        // the row bits and the generator state afterwards (observed via
        // the next draw) must match a fresh generation exactly.
        let mut a = DataGen::new(99, 32);
        let r1 = a.sparse_row(0.3);
        let w1 = a.word();
        let mut b = DataGen::new(99, 32);
        let r2 = b.sparse_row(0.3);
        let w2 = b.word();
        assert_eq!(r1, r2);
        assert_eq!(w1, w2);
        // Different density at the same state is a different key.
        let mut c = DataGen::new(99, 32);
        assert_ne!(c.sparse_row(0.9), r1);
    }

    #[test]
    fn sparse_replay_cache_keeps_memoising_once_full() {
        // More distinct one-word rows than the cap, on seeds and a
        // density no other test uses; the cache never exceeds the cap.
        const DENSITY: f64 = 0.37;
        let cached = || {
            sparse_cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        };
        for seed in 0..SPARSE_CACHE_CAP as u64 + 64 {
            DataGen::new(0x5A7_0000 + seed, 1).sparse_row(DENSITY);
            assert!(cached() <= SPARSE_CACHE_CAP);
        }
        // A fresh seed's row is still memoised, and replaying it gives
        // the same bits and the same generator state afterwards.
        let seed = 0x5A7_0000 + SPARSE_CACHE_CAP as u64 + 64;
        let mut a = DataGen::new(seed, 1);
        let key = (a.rng.state(), DENSITY.to_bits(), 1);
        let r1 = a.sparse_row(DENSITY);
        assert!(sparse_cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .contains_key(&key));
        let mut b = DataGen::new(seed, 1);
        assert_eq!(b.sparse_row(DENSITY), r1);
        assert_eq!(b.word(), a.word());
        assert!(cached() <= SPARSE_CACHE_CAP);
    }

    #[test]
    fn sparse_rows_respect_density() {
        let mut g = DataGen::new(1, 64);
        let row = g.sparse_row(0.1);
        let ones: u32 = row.iter().map(|w| w.count_ones()).sum();
        let total = 64.0 * 64.0;
        let frac = ones as f64 / total;
        assert!((frac - 0.1).abs() < 0.05, "density {frac}");
    }

    #[test]
    fn lane_bit_roundtrip() {
        let mut row = vec![0u64; 4];
        set_lane_bit(&mut row, 70, true);
        assert_eq!(row[1], 1 << 6);
        let rows = vec![row.clone(), vec![0u64; 4]];
        let bits = lane_bits(&rows, 70);
        assert_eq!(bits, vec![true, false]);
        set_lane_bit(&mut row, 70, false);
        assert_eq!(row[1], 0);
    }
}
