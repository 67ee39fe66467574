//! Memory geometry and row addressing.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;

/// Identifier of one memory row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row#{}", self.0)
    }
}

/// The fixed, unkeyed hasher of the crate's hashed state that is not
/// keyed by one row: the serve layer's replica digest, and the drift
/// process's per-tick cache of hold intervals.
///
/// [`write_u64`](Hasher::write_u64) folds a word in with one multiply;
/// [`finish`](Hasher::finish) applies MurmurHash3's `fmix64` avalanche,
/// so strided words (`i * 512`, `3 * row + slot`) spread over both the
/// low bits that pick a bucket and the top bits that the table keeps as
/// a tag. Both steps are bijections (`write_u64` in the state and in the
/// word), so the replica digest, which feeds an outcome's words through
/// one, changes whenever a word does. An unkeyed hasher is safe for the
/// hold cache because it holds at most one entry per tracked row, which
/// the geometry bounds.
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

/// Slots per [`RowTable`] page.
const PAGE_ROWS: usize = 512;

/// One [`RowTable`] page: a presence bit per slot, and the slots. An
/// absent slot holds `T::default()`.
#[derive(Clone)]
struct Page<T> {
    present: [u64; PAGE_ROWS / 64],
    slots: [T; PAGE_ROWS],
}

/// Per-row state, indexed by row address: the store's rows, the FeRAM
/// disturb counters and remap, wear counters, ECC side-bands and drift
/// clocks.
///
/// Slots live in pages of 512 rows, allocated on the first write into
/// the page, so an 8 GB array costs one null page pointer per 512 rows
/// until it is used. The capacity is fixed at construction from the
/// geometry: a key at or past it is refused, and nothing is allocated
/// for it. That bounds every table by the array, whatever a row op or a
/// snapshot names. A lookup is a shift, a mask and two loads, with no
/// hashing; [`RowTable::iter`] walks present rows in ascending order, so
/// every byte walk over a table is deterministic without a sort.
#[derive(Clone)]
pub struct RowTable<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    capacity: u64,
    len: usize,
}

impl<T: Default> RowTable<T> {
    /// An empty table for keys `0..capacity` (normally a geometry's
    /// [`total_rows`](MemoryGeometry::total_rows)).
    pub fn new(capacity: u64) -> Self {
        let pages = capacity.div_ceil(PAGE_ROWS as u64);
        Self {
            pages: (0..pages).map(|_| None).collect(),
            capacity,
            len: 0,
        }
    }

    /// Keys `0..capacity` can be stored.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of present rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No row present?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `key`'s page index and slot, `None` past the capacity.
    fn locate(&self, key: u64) -> Option<(usize, usize)> {
        (key < self.capacity).then(|| {
            (
                (key / PAGE_ROWS as u64) as usize,
                (key % PAGE_ROWS as u64) as usize,
            )
        })
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        let (page, slot) = self.locate(key)?;
        let page = self.pages[page].as_deref()?;
        (page.present[slot / 64] >> (slot % 64) & 1 == 1).then(|| &page.slots[slot])
    }

    /// The value at `key`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (page, slot) = self.locate(key)?;
        let page = self.pages[page].as_deref_mut()?;
        (page.present[slot / 64] >> (slot % 64) & 1 == 1).then(|| &mut page.slots[slot])
    }

    /// The value at `key`, made present as `T::default()` if it was
    /// not. `None`, with nothing allocated, past the capacity.
    #[inline]
    pub fn get_or_default(&mut self, key: u64) -> Option<&mut T> {
        let (page, slot) = self.locate(key)?;
        let page = self.pages[page].get_or_insert_with(|| {
            Box::new(Page {
                present: [0; PAGE_ROWS / 64],
                slots: std::array::from_fn(|_| T::default()),
            })
        });
        let (word, bit) = (&mut page.present[slot / 64], 1u64 << (slot % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
        }
        Some(&mut page.slots[slot])
    }

    /// Stores `value` at `key`: `Ok` with the value it replaces, or
    /// `Err(value)`, with nothing allocated, past the capacity.
    pub fn insert(&mut self, key: u64, value: T) -> Result<Option<T>, T> {
        let had = self.get(key).is_some();
        match self.get_or_default(key) {
            Some(slot) => {
                let old = std::mem::replace(slot, value);
                Ok(had.then_some(old))
            }
            None => Err(value),
        }
    }

    /// Removes and returns the value at `key`, if present. The page
    /// stays allocated.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (page, slot) = self.locate(key)?;
        let page = self.pages[page].as_deref_mut()?;
        let (word, bit) = (&mut page.present[slot / 64], 1u64 << (slot % 64));
        if *word & bit == 0 {
            return None;
        }
        *word &= !bit;
        self.len -= 1;
        Some(std::mem::take(&mut page.slots[slot]))
    }

    /// Present rows and their values, in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(index, page)| Some((index, page.as_deref()?)))
            .flat_map(|(index, page)| {
                let base = (index * PAGE_ROWS) as u64;
                page.present
                    .iter()
                    .enumerate()
                    .flat_map(move |(w, &bits)| {
                        let mut bits = bits;
                        std::iter::from_fn(move || {
                            (bits != 0).then(|| {
                                let bit = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                w * 64 + bit
                            })
                        })
                    })
                    .map(move |slot| (base + slot as u64, &page.slots[slot]))
            })
    }

    /// Present values, in ascending row order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, value)| value)
    }
}

impl<T: Default + fmt::Debug> fmt::Debug for RowTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A JSON object of the present rows, keys stringified, in ascending
/// row order.
impl<T: Default + Serialize> Serialize for RowTable<T> {
    fn json_write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::JsonKey::write_key(&key, out);
            out.push(':');
            value.json_write(out);
        }
        out.push('}');
    }
}

impl<T> serde::Deserialize for RowTable<T> {}

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
        use std::hash::{BuildHasher, BuildHasherDefault};
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
