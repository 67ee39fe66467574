//! Bit-accurate functional row store.
//!
//! Every simulated command also computes its real result, so workload
//! outputs can be verified bit-for-bit against software references. Rows
//! are lazily materialised in a paged [`RowTable`] (an 8 GB memory is
//! addressable without 8 GB of host RAM). Addressing mistakes surface as [`ArchError`]s rather than
//! panics, so backends can propagate them as typed failures.

use crate::geometry::{MemoryGeometry, RowId, RowTable};
use crate::ArchError;

/// Lazily-materialised storage for full memory rows.
#[derive(Debug, Clone)]
pub struct RowStore {
    geometry: MemoryGeometry,
    /// Materialised rows. A present slot always holds a full row.
    rows: RowTable<Vec<u64>>,
    /// One row of zeros, read in place of every unmaterialised row.
    zero: Vec<u64>,
    /// Row buffer the combine/map operations compute into. The finished
    /// row is swapped into its destination and the destination's old
    /// buffer comes back, so the per-command hot path neither copies the
    /// result nor allocates in steady state.
    scratch: Vec<u64>,
}

impl Default for RowStore {
    /// An empty store over the default geometry.
    fn default() -> Self {
        Self::new(MemoryGeometry::default())
    }
}

impl RowStore {
    /// Creates an empty store over the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(geometry: MemoryGeometry) -> Self {
        geometry.validate().expect("valid geometry");
        Self {
            geometry,
            rows: RowTable::new(geometry.total_rows()),
            zero: vec![0; geometry.row_words()],
            scratch: Vec::new(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> &MemoryGeometry {
        &self.geometry
    }

    /// Number of rows ever touched (materialised).
    pub fn touched_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    /// A row's words: the stored row, or the zero row if it was never
    /// materialised.
    fn operand(&self, row: RowId) -> &[u64] {
        self.rows.get(row.0).map_or(&self.zero, Vec::as_slice)
    }

    fn check_in_range(&self, row: RowId) -> Result<(), ArchError> {
        if self.geometry.contains(row) {
            Ok(())
        } else {
            Err(ArchError::RowOutOfRange {
                row: row.0,
                rows: self.geometry.total_rows(),
            })
        }
    }

    /// Checks that `row` is in range and that `words` fill exactly one
    /// row.
    fn check_full_row(&self, row: RowId, words: usize) -> Result<(), ArchError> {
        self.check_in_range(row)?;
        if words != self.geometry.row_words() {
            return Err(ArchError::RowSizeMismatch {
                expected: self.geometry.row_words(),
                got: words,
            });
        }
        Ok(())
    }

    /// Reads a row (zeros if never written).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn read(&self, row: RowId) -> Result<Vec<u64>, ArchError> {
        self.check_in_range(row)?;
        Ok(self.operand(row).to_vec())
    }

    /// Borrows a row's words without copying; `None` if the row was
    /// never materialised (reads as zeros).
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn row(&self, row: RowId) -> Result<Option<&[u64]>, ArchError> {
        self.check_in_range(row)?;
        Ok(self.rows.get(row.0).map(Vec::as_slice))
    }

    /// Reads a row into a caller-owned buffer (cleared and refilled), so
    /// repeated reads reuse one allocation.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn read_into(&self, row: RowId, out: &mut Vec<u64>) -> Result<(), ArchError> {
        self.check_in_range(row)?;
        out.clear();
        out.extend_from_slice(self.operand(row));
        Ok(())
    }

    /// Writes a full row, reusing the row's existing buffer when it is
    /// already materialised.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry;
    /// [`ArchError::RowSizeMismatch`] unless `data` is exactly one row.
    pub fn write(&mut self, row: RowId, data: &[u64]) -> Result<(), ArchError> {
        self.check_full_row(row, data.len())?;
        let slot = self.slot(row)?;
        slot.clear();
        slot.extend_from_slice(data);
        Ok(())
    }

    /// `row`'s slot, materialised (as an empty buffer) if it was not.
    /// Callers check the row first and leave a full row in the slot.
    fn slot(&mut self, row: RowId) -> Result<&mut Vec<u64>, ArchError> {
        let rows = self.geometry.total_rows();
        self.rows
            .get_or_default(row.0)
            .ok_or(ArchError::RowOutOfRange { row: row.0, rows })
    }

    /// Moves a computed row into `row`'s slot without copying it. `buf`
    /// gets back the buffer it replaces, or an empty one when `row` was
    /// not materialised, so a caller's scratch buffer cycles through the
    /// store instead of being copied out of.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::write`]; `buf` is left as it was.
    pub(crate) fn swap_in(&mut self, row: RowId, buf: &mut Vec<u64>) -> Result<(), ArchError> {
        self.check_full_row(row, buf.len())?;
        std::mem::swap(self.slot(row)?, buf);
        Ok(())
    }

    /// XORs `mask` into a materialised row in place. `Ok(false)`, with
    /// nothing changed, when the row was never materialised.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry;
    /// [`ArchError::RowSizeMismatch`] unless `mask` is exactly one row.
    pub(crate) fn xor_row(&mut self, row: RowId, mask: &[u64]) -> Result<bool, ArchError> {
        self.check_full_row(row, mask.len())?;
        let Some(words) = self.rows.get_mut(row.0) else {
            return Ok(false);
        };
        for (w, m) in words.iter_mut().zip(mask) {
            *w ^= m;
        }
        Ok(true)
    }

    /// Copies one row onto another, in place when the destination is
    /// materialised. The destination is always materialised afterwards;
    /// an unmaterialised source copies zeros.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn copy_row(&mut self, src: RowId, dst: RowId) -> Result<(), ArchError> {
        self.check_in_range(src)?;
        self.check_in_range(dst)?;
        if src == dst {
            let words = self.geometry.row_words();
            let slot = self.slot(dst)?;
            if slot.is_empty() {
                slot.resize(words, 0);
            }
            return Ok(());
        }
        // The destination's buffer is taken out for the copy, so the
        // source can be read while it is filled.
        let mut out = std::mem::take(self.slot(dst)?);
        out.clear();
        out.extend_from_slice(self.operand(src));
        *self.slot(dst)? = out;
        Ok(())
    }

    /// `dst[i] = f(src[i])` across the whole row, computed into the
    /// scratch buffer and moved into `dst`.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::read`] / [`RowStore::write`].
    pub fn map(&mut self, src: RowId, dst: RowId, f: impl Fn(u64) -> u64) -> Result<(), ArchError> {
        self.check_in_range(src)?;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        out.extend(self.operand(src).iter().map(|&x| f(x)));
        let result = self.swap_in(dst, &mut out);
        self.scratch = out;
        result
    }

    /// `out[i] = f(a[i], b[i])` across the whole row, into a caller-owned
    /// buffer (cleared and refilled) — a pure read, no store mutation.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn combine2_into(
        &self,
        a: RowId,
        b: RowId,
        out: &mut Vec<u64>,
        f: impl Fn(u64, u64) -> u64,
    ) -> Result<(), ArchError> {
        self.check_in_range(a)?;
        self.check_in_range(b)?;
        let (ra, rb) = (self.operand(a), self.operand(b));
        out.clear();
        out.extend(ra.iter().zip(rb).map(|(&x, &y)| f(x, y)));
        Ok(())
    }

    /// `out[i] = f(a[i], b[i], c[i])` across the whole row, into a
    /// caller-owned buffer (cleared and refilled) — the read side of
    /// TRA/TBA without touching the store.
    ///
    /// # Errors
    ///
    /// [`ArchError::RowOutOfRange`] for rows outside the geometry.
    pub fn combine3_into(
        &self,
        a: RowId,
        b: RowId,
        c: RowId,
        out: &mut Vec<u64>,
        f: impl Fn(u64, u64, u64) -> u64,
    ) -> Result<(), ArchError> {
        self.check_in_range(a)?;
        self.check_in_range(b)?;
        self.check_in_range(c)?;
        let (ra, rb, rc) = (self.operand(a), self.operand(b), self.operand(c));
        out.clear();
        out.extend(ra.iter().zip(rb).zip(rc).map(|((&x, &y), &z)| f(x, y, z)));
        Ok(())
    }

    /// `dst[i] = f(a[i], b[i], c[i])` across the whole row (TRA/TBA),
    /// computed into the scratch buffer and moved into `dst`.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::read`] / [`RowStore::write`].
    pub fn combine3(
        &mut self,
        a: RowId,
        b: RowId,
        c: RowId,
        dst: RowId,
        f: impl Fn(u64, u64, u64) -> u64,
    ) -> Result<(), ArchError> {
        let mut out = std::mem::take(&mut self.scratch);
        let result = self
            .combine3_into(a, b, c, &mut out, f)
            .and_then(|()| self.swap_in(dst, &mut out));
        self.scratch = out;
        result
    }

    /// Fills a row with a constant word, in place when materialised.
    ///
    /// # Errors
    ///
    /// As for [`RowStore::write`].
    pub fn fill(&mut self, row: RowId, word: u64) -> Result<(), ArchError> {
        self.check_in_range(row)?;
        let words = self.geometry.row_words();
        let slot = self.slot(row)?;
        slot.clear();
        slot.resize(words, word);
        Ok(())
    }

    /// Appends every materialised row, in ascending address order, to a
    /// state snapshot.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.encode_state_copying(out, RowId(0), &[]);
    }

    /// [`RowStore::encode_state`] as if `src` had first been copied onto
    /// each row of `dsts` with [`RowStore::copy_row`]: the bytes of a
    /// pending copy, without making it.
    pub(crate) fn encode_state_copying(&self, out: &mut Vec<u8>, src: RowId, dsts: &[RowId]) {
        use crate::snapshot::{put_u64, put_words};
        let mut dsts: Vec<u64> = dsts.iter().map(|r| r.0).collect();
        dsts.sort_unstable();
        dsts.dedup();
        let copied = self.operand(src);
        let added = dsts.iter().filter(|&&d| self.rows.get(d).is_none()).count();
        put_u64(out, (self.rows.len() + added) as u64);
        // Merge the pending copies into the ascending walk of the store.
        let mut pending = dsts.into_iter().peekable();
        for (key, words) in self.rows.iter() {
            let mut replaced = false;
            while let Some(dst) = pending.next_if(|&d| d <= key) {
                put_u64(out, dst);
                put_words(out, copied);
                replaced |= dst == key;
            }
            if !replaced {
                put_u64(out, key);
                put_words(out, words);
            }
        }
        for dst in pending {
            put_u64(out, dst);
            put_words(out, copied);
        }
    }

    /// Decodes a store written by [`RowStore::encode_state`] over
    /// `geometry`. `None` on malformed input, including a row outside
    /// the geometry (refused by [`take_table`](crate::snapshot::take_table)
    /// before it is stored) or of the wrong length.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid, as [`RowStore::new`] does.
    pub fn decode_state(geometry: MemoryGeometry, buf: &[u8], pos: &mut usize) -> Option<RowStore> {
        use crate::snapshot::{take_table, take_u64, take_words};
        let words = geometry.row_words();
        // Every entry is at least a row key and a word count.
        let rows = take_table(buf, pos, geometry.total_rows(), 16, |buf, pos| {
            let key = take_u64(buf, pos)?;
            let data = take_words(buf, pos)?;
            (data.len() == words).then_some((key, data))
        })?;
        Some(RowStore {
            rows,
            ..RowStore::new(geometry)
        })
    }
}

/// Bitwise MAJORITY of three words (the TRA function).
pub fn majority_words(a: u64, b: u64, c: u64) -> u64 {
    (a & b) | (b & c) | (a & c)
}

/// Bitwise MINORITY of three words (the TBA function).
pub fn minority_words(a: u64, b: u64, c: u64) -> u64 {
    !majority_words(a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RowStore {
        RowStore::new(MemoryGeometry::tiny())
    }

    #[test]
    fn unwritten_rows_read_zero() {
        let s = store();
        assert!(s.read(RowId(5)).unwrap().iter().all(|&w| w == 0));
        assert_eq!(s.touched_rows(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i * 3).collect();
        s.write(RowId(7), &data).unwrap();
        assert_eq!(s.read(RowId(7)).unwrap(), data);
        assert_eq!(s.touched_rows(), 1);
    }

    #[test]
    fn combine_and_map() {
        let mut s = store();
        s.fill(RowId(0), 0b1100).unwrap();
        s.fill(RowId(1), 0b1010).unwrap();
        let mut and = Vec::new();
        s.combine2_into(RowId(0), RowId(1), &mut and, |a, b| a & b)
            .unwrap();
        s.write(RowId(2), &and).unwrap();
        assert_eq!(s.read(RowId(2)).unwrap()[0], 0b1000);
        s.map(RowId(2), RowId(3), |x| !x).unwrap();
        assert_eq!(s.read(RowId(3)).unwrap()[0], !0b1000u64);
    }

    #[test]
    fn combine3_majority_minority() {
        let mut s = store();
        s.fill(RowId(0), 0b1100).unwrap();
        s.fill(RowId(1), 0b1010).unwrap();
        s.fill(RowId(2), 0b0110).unwrap();
        s.combine3(RowId(0), RowId(1), RowId(2), RowId(3), majority_words)
            .unwrap();
        assert_eq!(s.read(RowId(3)).unwrap()[0], 0b1110);
        s.combine3(RowId(0), RowId(1), RowId(2), RowId(4), minority_words)
            .unwrap();
        assert_eq!(s.read(RowId(4)).unwrap()[0], !0b1110u64);
    }

    #[test]
    fn word_functions_are_complementary() {
        for v in 0..8u64 {
            let (a, b, c) = (
                if v & 4 != 0 { !0 } else { 0 },
                if v & 2 != 0 { !0 } else { 0 },
                if v & 1 != 0 { !0 } else { 0 },
            );
            assert_eq!(majority_words(a, b, c), !minority_words(a, b, c));
            let expect = if v.count_ones() >= 2 { !0u64 } else { 0 };
            assert_eq!(majority_words(a, b, c), expect, "pattern {v:03b}");
        }
    }

    #[test]
    fn borrow_and_buffer_reads_match_owned_reads() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i ^ 0x5A).collect();
        s.write(RowId(3), &data).unwrap();
        assert_eq!(s.row(RowId(3)).unwrap().unwrap(), &data[..]);
        assert!(s.row(RowId(4)).unwrap().is_none(), "unmaterialised row");
        let mut buf = vec![0xFFu64; 5]; // wrong size on purpose
        s.read_into(RowId(3), &mut buf).unwrap();
        assert_eq!(buf, data);
        s.read_into(RowId(4), &mut buf).unwrap();
        assert_eq!(buf, vec![0u64; s.geometry().row_words()]);
    }

    #[test]
    fn copy_row_materialises_and_copies() {
        let mut s = store();
        let data: Vec<u64> = (0..128).map(|i| i * 7).collect();
        s.write(RowId(0), &data).unwrap();
        s.copy_row(RowId(0), RowId(1)).unwrap();
        assert_eq!(s.read(RowId(1)).unwrap(), data);
        // Copying an unmaterialised row writes zeros.
        s.copy_row(RowId(9), RowId(1)).unwrap();
        assert!(s.read(RowId(1)).unwrap().iter().all(|&w| w == 0));
        // Self-copy is a materialising no-op.
        s.copy_row(RowId(0), RowId(0)).unwrap();
        assert_eq!(s.read(RowId(0)).unwrap(), data);
        s.copy_row(RowId(5), RowId(5)).unwrap();
        assert_eq!(s.touched_rows(), 3, "rows 0, 1, 5 and nothing else");
        assert!(matches!(
            s.copy_row(RowId(0), RowId(10_000)),
            Err(ArchError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn swap_in_moves_and_hands_back_the_old_row() {
        let mut s = store();
        let first: Vec<u64> = (0..128).collect();
        let mut buf = first.clone();
        s.swap_in(RowId(4), &mut buf).unwrap();
        assert!(buf.is_empty(), "an unmaterialised row hands back nothing");
        assert_eq!(s.read(RowId(4)).unwrap(), first);
        let mut buf = vec![9; 128];
        s.swap_in(RowId(4), &mut buf).unwrap();
        assert_eq!(buf, first, "the replaced row comes back");
        assert_eq!(s.read(RowId(4)).unwrap(), vec![9; 128]);
        let mut short = vec![1, 2];
        assert!(matches!(
            s.swap_in(RowId(4), &mut short),
            Err(ArchError::RowSizeMismatch { got: 2, .. })
        ));
        assert_eq!(short, vec![1, 2]);
        assert_eq!(s.touched_rows(), 1);
    }

    #[test]
    fn xor_row_flips_materialised_rows_only() {
        let mut s = store();
        let mask: Vec<u64> = (0..128).map(|i| 1 << (i % 64)).collect();
        assert_eq!(s.xor_row(RowId(2), &mask), Ok(false));
        assert_eq!(s.touched_rows(), 0);
        s.fill(RowId(2), 0xF0).unwrap();
        assert_eq!(s.xor_row(RowId(2), &mask), Ok(true));
        let expect: Vec<u64> = mask.iter().map(|m| 0xF0 ^ m).collect();
        assert_eq!(s.read(RowId(2)).unwrap(), expect);
        assert!(matches!(
            s.xor_row(RowId(2), &mask[..3]),
            Err(ArchError::RowSizeMismatch { .. })
        ));
        assert!(matches!(
            s.xor_row(RowId(10_000), &mask),
            Err(ArchError::RowOutOfRange { .. })
        ));
    }

    #[test]
    fn copying_encoding_matches_the_copy_made() {
        let mut s = store();
        s.fill(RowId(1), 7).unwrap();
        s.fill(RowId(3), 8).unwrap();
        let mut pending = Vec::new();
        s.encode_state_copying(&mut pending, RowId(1), &[RowId(3), RowId(9)]);
        s.copy_row(RowId(1), RowId(3)).unwrap();
        s.copy_row(RowId(1), RowId(9)).unwrap();
        let mut made = Vec::new();
        s.encode_state(&mut made);
        assert_eq!(pending, made);
    }

    #[test]
    fn out_of_range_rows_are_typed_errors() {
        let s = store();
        let err = s.read(RowId(10_000)).unwrap_err();
        assert!(matches!(err, ArchError::RowOutOfRange { row: 10_000, .. }));
        assert!(err.to_string().contains("out of range"));
        let mut s = store();
        let err = s.fill(RowId(10_000), 1).unwrap_err();
        assert!(matches!(err, ArchError::RowOutOfRange { .. }));
    }

    #[test]
    fn short_rows_are_typed_errors() {
        let mut s = store();
        let err = s.write(RowId(0), &[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            ArchError::RowSizeMismatch {
                expected: s.geometry().row_words(),
                got: 3
            }
        );
        assert!(err.to_string().contains("exactly"));
    }
}
