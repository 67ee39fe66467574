//! Memory geometry and row addressing.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of one memory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// A map keyed by row address (a [`RowId`] or its raw `u64`), hashed by
/// [`RowHasher`].
pub type RowMap<K, V> = HashMap<K, V, BuildHasherDefault<RowHasher>>;

/// The fixed, unkeyed hasher of every row-keyed map.
///
/// A row operation looks rows up in several maps, so the per-lookup cost
/// of the default keyed SipHash is a large share of a 1 KB row-op. A
/// keyed hasher guards against a peer choosing colliding keys; for a row
/// map the geometry bounds that worst case instead: every key is checked
/// against it before it is inserted, by the row op or, on a restore, by
/// the snapshot decoder, so no map holds more entries than the array has
/// rows. Nothing depends on hash order: every
/// walk that produces bytes sorts by key first.
///
/// [`write_u64`](Hasher::write_u64) folds a word in with one multiply;
/// [`finish`](Hasher::finish) applies MurmurHash3's `fmix64` avalanche,
/// so strided addresses (`i * 512`, plane keys `3 * row + slot`) spread
/// over both the low bits that pick a bucket and the top bits that the
/// table keeps as a tag. Both steps are bijections (`write_u64` in the
/// state and in the word), so the serve layer's replica digest, which
/// feeds an outcome's words through one, changes whenever a word does.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHasher(u64);

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

// Maps keyed by `RowId` serialize with the same stringified-number keys
// as maps keyed by the raw `u64`.
impl serde::JsonKey for RowId {
    fn write_key(&self, out: &mut String) {
        serde::JsonKey::write_key(&self.0, out);
    }
}

/// Geometry of the simulated memory.
///
/// The paper's configuration: 8 GB capacity, 8 KB rows, subarrays of 512
/// rows (the granularity at which compute rows are reserved and at which
/// the thermal model applies power).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemoryGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Row size in bytes.
    pub row_bytes: u64,
    /// Rows per subarray.
    pub rows_per_subarray: u64,
}

impl MemoryGeometry {
    /// The paper's 8 GB / 8 KB-row configuration.
    pub fn paper_8gb() -> Self {
        Self {
            capacity_bytes: 8 << 30,
            row_bytes: 8 << 10,
            rows_per_subarray: 512,
        }
    }

    /// A small geometry for unit tests (1 MB, 1 KB rows).
    pub fn tiny() -> Self {
        Self {
            capacity_bytes: 1 << 20,
            row_bytes: 1 << 10,
            rows_per_subarray: 64,
        }
    }

    /// Validates divisibility constraints.
    ///
    /// # Errors
    ///
    /// Returns a message when the geometry is inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_bytes == 0 || !self.row_bytes.is_multiple_of(8) {
            return Err(format!(
                "row size must be a positive multiple of 8 bytes, got {}",
                self.row_bytes
            ));
        }
        if !self.capacity_bytes.is_multiple_of(self.row_bytes) {
            return Err("capacity must be a whole number of rows".into());
        }
        if self.rows_per_subarray == 0 || !self.total_rows().is_multiple_of(self.rows_per_subarray)
        {
            return Err("rows must divide evenly into subarrays".into());
        }
        Ok(())
    }

    /// Total number of rows.
    pub fn total_rows(&self) -> u64 {
        self.capacity_bytes / self.row_bytes
    }

    /// Number of 64-bit words per row.
    pub fn row_words(&self) -> usize {
        (self.row_bytes / 8) as usize
    }

    /// Number of bits per row.
    pub fn row_bits(&self) -> u64 {
        self.row_bytes * 8
    }

    /// Number of subarrays.
    pub fn subarrays(&self) -> u64 {
        self.total_rows() / self.rows_per_subarray
    }

    /// The subarray containing `row`.
    pub fn subarray_of(&self, row: RowId) -> u64 {
        row.0 / self.rows_per_subarray
    }

    /// Is `row` a valid address?
    pub fn contains(&self, row: RowId) -> bool {
        row.0 < self.total_rows()
    }

    /// Rows needed to hold `bytes` of data.
    pub fn rows_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.row_bytes)
    }
}

impl Default for MemoryGeometry {
    fn default() -> Self {
        Self::paper_8gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_vi() {
        let g = MemoryGeometry::paper_8gb();
        g.validate().unwrap();
        assert_eq!(g.capacity_bytes, 8 * 1024 * 1024 * 1024);
        assert_eq!(g.row_bytes, 8192);
        assert_eq!(g.total_rows(), 1 << 20); // 1 Mi rows
        assert_eq!(g.row_words(), 1024);
        assert_eq!(g.row_bits(), 65536);
        assert_eq!(g.subarrays(), 2048);
    }

    #[test]
    fn tiny_geometry_validates() {
        let g = MemoryGeometry::tiny();
        g.validate().unwrap();
        assert_eq!(g.total_rows(), 1024);
        assert_eq!(g.row_words(), 128);
    }

    #[test]
    fn subarray_mapping() {
        let g = MemoryGeometry::tiny();
        assert_eq!(g.subarray_of(RowId(0)), 0);
        assert_eq!(g.subarray_of(RowId(63)), 0);
        assert_eq!(g.subarray_of(RowId(64)), 1);
    }

    #[test]
    fn bounds_and_sizing() {
        let g = MemoryGeometry::tiny();
        assert!(g.contains(RowId(1023)));
        assert!(!g.contains(RowId(1024)));
        assert_eq!(g.rows_for_bytes(0), 0);
        assert_eq!(g.rows_for_bytes(1), 1);
        assert_eq!(g.rows_for_bytes(1024), 1);
        assert_eq!(g.rows_for_bytes(1025), 2);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut g = MemoryGeometry::tiny();
        g.row_bytes = 12;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.capacity_bytes = 1000;
        assert!(g.validate().is_err());
        let mut g = MemoryGeometry::tiny();
        g.rows_per_subarray = 7;
        assert!(g.validate().is_err());
    }

    /// Strided row addresses (unit, plane keys, subarray and row-size
    /// strides, a power of two past the geometry) must spread over both
    /// the bucket bits and the tag bits, and hash the same under every
    /// builder, whether keyed by `u64` or by `RowId`.
    #[test]
    fn row_hasher_spreads_strided_keys() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let (a, b) = (
            BuildHasherDefault::<RowHasher>::default(),
            BuildHasherDefault::<RowHasher>::default(),
        );
        for stride in [1u64, 3, 64, 512, 3 * 512, 1 << 20] {
            let hashes: Vec<u64> = (0..1024u64)
                .map(|i| {
                    let h = a.hash_one(i * stride);
                    assert_eq!(h, b.hash_one(i * stride), "stride {stride}");
                    assert_eq!(h, a.hash_one(RowId(i * stride)), "stride {stride}");
                    h
                })
                .collect();
            let low: HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                low.len() >= 600,
                "stride {stride}: {} low-bit values",
                low.len()
            );
            assert!(
                top.len() >= 100,
                "stride {stride}: {} tag values",
                top.len()
            );
        }
    }

    #[test]
    fn row_display() {
        assert_eq!(RowId(5).to_string(), "row#5");
    }
}
