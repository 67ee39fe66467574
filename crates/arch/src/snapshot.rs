//! Binary state-snapshot codec helpers.
//!
//! The replication layer (`felim-serve`'s `replica` module) rebuilds a
//! standby shard by shipping the primary's *complete* backend state over
//! the wire: row contents, cost accounting, wear, disturb counters, ECC
//! side-bands, drift-process clocks — everything that influences future
//! behaviour. Each stateful type encodes itself next to its definition
//! (the same convention as the [`batch`](crate::batch) wire codecs) using
//! the little-endian primitives in this module, so a restored backend is
//! bit-identical to the snapshotted one and replays the same schedule to
//! the same results.
//!
//! Two invariants every codec here keeps, each owned by one primitive
//! so no caller can get it wrong:
//!
//! * **determinism** — per-row state lives in [`RowTable`]s, written
//!   only through [`put_table`], which emits them in ascending row order,
//!   so `snapshot(restore(snapshot(x))) == snapshot(x)` byte for byte;
//! * **allocation guards** — count-prefixed runs are read only through
//!   [`take_run`], its two specialisations for flat runs
//!   ([`take_words`], [`take_bytes`]), or [`take_table`], each of which
//!   checks the count against the remaining input before allocating, so
//!   a corrupt, truncated or crafted snapshot is rejected (`None`)
//!   instead of panicking or aborting. [`take_table`] also refuses a row
//!   past the table's capacity, which the decoder takes from the
//!   geometry, before storing it.

use crate::geometry::RowTable;

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Reads one byte, advancing `pos`. `None` on short input.
pub fn take_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let b = *buf.get(*pos)?;
    *pos += 1;
    Some(b)
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` little-endian, advancing `pos`. `None` on short input.
pub fn take_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` little-endian, advancing `pos`. `None` on short input.
pub fn take_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
}

/// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Reads an `f64` bit pattern, advancing `pos`. `None` on short input.
pub fn take_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
    take_u64(buf, pos).map(f64::from_bits)
}

/// Appends a bool as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

/// Reads a bool byte, advancing `pos`. `None` on short input or a value
/// other than 0/1 (a corrupt snapshot must not decode).
pub fn take_bool(buf: &[u8], pos: &mut usize) -> Option<bool> {
    match take_u8(buf, pos)? {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// Appends a word slice as a count-prefixed run: one reservation, then
/// a little-endian copy of each word into the reserved bytes. Every row
/// payload (batches, wire frames, snapshots) is written here.
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u64(out, words.len() as u64);
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (dst, w) in out[start..].as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *dst = w.to_le_bytes();
    }
}

/// Reads a count-prefixed word run. `None` on short input or a count
/// that exceeds the remaining bytes, checked before allocating exactly
/// as [`take_run`] checks it; the words then decode from one
/// bounds-checked slice, eight bytes at a time.
pub fn take_words(buf: &[u8], pos: &mut usize) -> Option<Vec<u64>> {
    let n = take_u64(buf, pos)?;
    let rest = &buf[*pos..];
    if n > (rest.len() / 8) as u64 {
        return None;
    }
    let (words, _) = rest.as_chunks::<8>();
    let words = &words[..n as usize];
    *pos += 8 * words.len();
    Some(words.iter().map(|&w| u64::from_le_bytes(w)).collect())
}

/// Appends a table as a count-prefixed run of its present rows in
/// ascending order, each written by `put_entry`.
pub fn put_table<T: Default>(
    out: &mut Vec<u8>,
    table: &RowTable<T>,
    mut put_entry: impl FnMut(&mut Vec<u8>, u64, &T),
) {
    put_u64(out, table.len() as u64);
    for (row, value) in table.iter() {
        put_entry(out, row, value);
    }
}

/// Reads a count-prefixed run of items, each decoded by `take_item` and
/// at least `min_item_len` (nonzero) bytes long, into a `Vec` (or any
/// other collection). The count is checked against the
/// remaining input *before* anything is allocated, and the checked count
/// is reserved once, so no count a peer can write makes this allocate
/// more than the input could describe. `None` on short input, an
/// impossible count, or an item `take_item` refuses.
pub fn take_run<T, C: FromIterator<T>>(
    buf: &[u8],
    pos: &mut usize,
    min_item_len: usize,
    mut take_item: impl FnMut(&[u8], &mut usize) -> Option<T>,
) -> Option<C> {
    let n = take_u64(buf, pos)?;
    if n > ((buf.len() - *pos) / min_item_len) as u64 {
        return None;
    }
    let mut items = Vec::with_capacity(n as usize);
    for _ in 0..n {
        items.push(take_item(buf, pos)?);
    }
    // Collecting a `Vec` back into a `Vec` reuses its buffer; a map
    // reserves the exact length once.
    Some(items.into_iter().collect())
}

/// Reads a run written by [`put_table`] into a fresh table for rows
/// `0..rows`: each `(row, value)` item is decoded by `take_item` and at
/// least `min_item_len` (nonzero) bytes long. The count is checked
/// against the remaining input as [`take_run`] checks it, and a row at
/// or past `rows` is refused before it is stored, so nothing a peer
/// writes makes the table allocate past its capacity. `None` on short
/// input, an impossible count, a row out of range, or an item
/// `take_item` refuses.
pub fn take_table<T: Default>(
    buf: &[u8],
    pos: &mut usize,
    rows: u64,
    min_item_len: usize,
    mut take_item: impl FnMut(&[u8], &mut usize) -> Option<(u64, T)>,
) -> Option<RowTable<T>> {
    let n = take_u64(buf, pos)?;
    if n > ((buf.len() - *pos) / min_item_len) as u64 {
        return None;
    }
    let mut table = RowTable::new(rows);
    for _ in 0..n {
        let (row, value) = take_item(buf, pos)?;
        table.insert(row, value).ok()?;
    }
    Some(table)
}

/// Appends a byte slice as a count-prefixed run.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a count-prefixed byte run, with the same allocation guard as
/// [`take_run`].
pub fn take_bytes(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let n = take_u64(buf, pos)?;
    if ((buf.len() - *pos) as u64) < n {
        return None;
    }
    let out = buf[*pos..*pos + n as usize].to_vec();
    *pos += n as usize;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, 1.5e-300);
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_words(&mut buf, &[1, 2, u64::MAX]);
        put_bytes(&mut buf, b"snapshot");
        let mut pos = 0;
        assert_eq!(take_u8(&buf, &mut pos), Some(0xAB));
        assert_eq!(take_u32(&buf, &mut pos), Some(0xDEAD_BEEF));
        assert_eq!(take_u64(&buf, &mut pos), Some(u64::MAX - 3));
        assert_eq!(
            take_f64(&buf, &mut pos).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(take_f64(&buf, &mut pos), Some(1.5e-300));
        assert_eq!(take_bool(&buf, &mut pos), Some(true));
        assert_eq!(take_bool(&buf, &mut pos), Some(false));
        assert_eq!(take_words(&buf, &mut pos), Some(vec![1, 2, u64::MAX]));
        assert_eq!(take_bytes(&buf, &mut pos), Some(b"snapshot".to_vec()));
        assert_eq!(pos, buf.len(), "codec must consume exactly what it wrote");
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let mut buf = Vec::new();
        put_words(&mut buf, &[7; 9]);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(take_words(&buf[..cut], &mut pos).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn absurd_counts_cannot_allocate() {
        let mut evil = Vec::new();
        put_u64(&mut evil, u64::MAX);
        let mut pos = 0;
        assert!(take_words(&evil, &mut pos).is_none());
        let mut pos = 0;
        assert!(take_bytes(&evil, &mut pos).is_none());
        // A run's guard scales with its item size: 16 bytes cannot hold
        // two 16-byte entries, whatever the declared count.
        let mut two = Vec::new();
        put_u64(&mut two, 2);
        put_u64(&mut two, 1);
        put_u64(&mut two, 2);
        let entry = |buf: &[u8], pos: &mut usize| Some((take_u64(buf, pos)?, take_u64(buf, pos)?));
        let mut pos = 0;
        assert!(take_run::<_, HashMap<u64, u64>>(&two, &mut pos, 16, entry).is_none());
        let mut pos = 0;
        assert!(take_run::<_, HashMap<u64, u64>>(&evil, &mut pos, 16, entry).is_none());
    }

    #[test]
    fn tables_are_emitted_in_row_order_and_read_back() {
        let rows = 4096;
        let mut keys: Vec<u64> = (0..8).map(|i| i * 512).collect();
        keys.extend([3, 511, 513, rows - 1]);
        keys.sort_unstable();
        let put = |table: &RowTable<u32>| {
            let mut buf = Vec::new();
            put_table(&mut buf, table, |out, k, &v| {
                put_u64(out, k);
                put_u32(out, v);
            });
            buf
        };
        // Ascending inserts against descending inserts interleaved with
        // inserts and removals of decoy rows: the bytes depend on the
        // contents alone.
        let mut ascending = RowTable::new(rows);
        for &k in &keys {
            assert_eq!(ascending.insert(k, k as u32 ^ 0x5A5A), Ok(None));
        }
        let mut descending = RowTable::new(rows);
        for &k in keys.iter().rev() {
            let decoy = k ^ 1;
            if !keys.contains(&decoy) {
                assert_eq!(descending.insert(decoy, 0), Ok(None));
            }
            descending.insert(k, k as u32 ^ 0x5A5A).unwrap();
            if !keys.contains(&decoy) {
                assert_eq!(descending.remove(decoy), Some(0));
            }
        }
        let buf = put(&ascending);
        assert_eq!(put(&descending), buf);
        let entry = |buf: &[u8], pos: &mut usize| Some((take_u64(buf, pos)?, take_u32(buf, pos)?));
        let mut pos = 0;
        let in_order: Vec<(u64, u32)> = take_run(&buf, &mut pos, 12, entry).unwrap();
        let want: Vec<(u64, u32)> = keys.iter().map(|&k| (k, k as u32 ^ 0x5A5A)).collect();
        assert_eq!(in_order, want);
        let mut pos = 0;
        let back = take_table(&buf, &mut pos, rows, 12, entry).unwrap();
        assert_eq!((pos, back.capacity()), (buf.len(), rows));
        assert_eq!(put(&back), buf);
        // The last row is one past a smaller table's capacity.
        assert!(take_table(&buf, &mut 0, rows - 1, 12, entry).is_none());
    }

    /// The chunked `take_words` against the per-word `take_run` it
    /// replaced: same result and same `pos` on whole, truncated and
    /// random inputs and on absurd counts.
    #[test]
    fn take_words_matches_the_per_word_run_decoder() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state ^ (state >> 29)
        };
        let check = |buf: &[u8], start: usize| {
            let (mut a, mut b) = (start, start);
            let got = take_words(buf, &mut a);
            let want: Option<Vec<u64>> = take_run(buf, &mut b, 8, take_u64);
            assert_eq!(got, want, "start {start} of {} bytes", buf.len());
            assert_eq!(a, b, "pos after start {start} of {} bytes", buf.len());
        };
        for len in 0..40 {
            let words: Vec<u64> = (0..len).map(|_| next()).collect();
            let mut buf = vec![0xEE; (next() % 3) as usize];
            let start = buf.len();
            put_words(&mut buf, &words);
            for cut in start..=buf.len() {
                check(&buf[..cut], start);
            }
            let random: Vec<u8> = (0..next() % 200).map(|_| next() as u8).collect();
            for start in 0..=random.len().min(9) {
                check(&random, start);
            }
        }
        for count in [u64::MAX, u64::MAX >> 1, 1 << 40, 1 << 61, 3, 4] {
            let mut buf = Vec::new();
            put_u64(&mut buf, count);
            buf.extend_from_slice(&[7; 24]);
            check(&buf, 0);
        }
    }

    #[test]
    fn bad_bool_bytes_are_rejected() {
        let mut pos = 0;
        assert!(take_bool(&[2], &mut pos).is_none());
    }
}
