//! Per-row SECDED error-correcting code (Hamming 72,64 + overall parity).
//!
//! Every stored 64-bit word gets an 8-bit side-band code: seven Hamming
//! check bits plus one overall-parity bit, the classic extended-Hamming
//! (72,64) construction used by ECC DIMMs. The code corrects any
//! single-bit upset in the 72-bit codeword (data *or* check bits) and
//! detects — never miscorrects — every double-bit upset.
//!
//! The 72-bit codeword positions are numbered `0..72`:
//!
//! * position 0 — the overall parity bit (even parity over all 72 bits),
//! * positions 1, 2, 4, 8, 16, 32, 64 — the seven Hamming check bits,
//! * the remaining 64 positions — data bits, in ascending order.
//!
//! A single flip at position `p ≥ 1` produces syndrome `p` with odd
//! overall parity; a double flip produces a nonzero syndrome with *even*
//! overall parity (two flips cancel in the overall bit) and is reported
//! as uncorrectable. This is exactly the decision table the
//! [`decode_word`] doc-table spells out.
//!
//! No codeword is ever assembled at run time. Every check bit, the
//! overall parity included, is a parity of data bits, so the check byte
//! is linear over GF(2): `encode_word(a ^ b) == encode_word(a) ^
//! encode_word(b)`. The encoder therefore splits the data word into its
//! eight byte lanes and XORs one lookup per lane from `const` tables
//! built, at compile time, by the bitwise parity-mask construction. The
//! decoder re-encodes the data and XORs the stored check byte: the upper
//! seven bits of the result are the Hamming syndrome and its popcount
//! parity is the overall parity of the 72-bit codeword. A data
//! correction flips the data bit at the syndrome's position through a
//! const table.
//!
//! The [`ReliabilityController`](crate::controller::ReliabilityController)
//! stores one [`RowCode`] per protected row, re-encodes on every write,
//! and checks on every read and patrol-scrub pass; double-bit detections
//! escalate as [`ArchError::Uncorrectable`](crate::ArchError).

use serde::Serialize;

/// Bits in the extended codeword: 64 data + 7 Hamming + 1 overall parity.
const CODEWORD_BITS: u32 = 72;

/// Codeword position of each data bit: `DATA_POSITIONS[k]` is the `k`-th
/// position in `1..72` that is not a power of two.
const DATA_POSITIONS: [u8; 64] = {
    let mut positions = [0u8; 64];
    let (mut p, mut k) = (1u32, 0);
    while p < CODEWORD_BITS {
        if !p.is_power_of_two() {
            positions[k] = p as u8;
            k += 1;
        }
        p += 1;
    }
    positions
};

/// Data bit carried at each codeword position; `u8::MAX` at position 0
/// and at the seven check positions.
const DATA_BIT_AT: [u8; CODEWORD_BITS as usize] = {
    let mut bits = [u8::MAX; CODEWORD_BITS as usize];
    let mut k = 0;
    while k < 64 {
        bits[DATA_POSITIONS[k] as usize] = k as u8;
        k += 1;
    }
    bits
};

/// Parity masks of the seven Hamming check bits: data bit `k` is in
/// `HAMMING_MASKS[i]` when its codeword position has bit `i` set, i.e.
/// when the check bit at position `2^i` covers it.
const HAMMING_MASKS: [u64; 7] = {
    let mut masks = [0u64; 7];
    let mut k = 0;
    while k < 64 {
        let mut i = 0;
        while i < 7 {
            if DATA_POSITIONS[k] >> i & 1 != 0 {
                masks[i] |= 1 << k;
            }
            i += 1;
        }
        k += 1;
    }
    masks
};

/// Check-byte contributions of each byte lane: `ENCODE_TABLES[j][b]` is
/// the check byte of the data word whose lane `j` (bits `8j..8j + 8`)
/// holds `b` and whose other lanes are zero. The check byte is linear,
/// so a word's check byte is the XOR of its eight lane entries.
const ENCODE_TABLES: [[u8; 256]; 8] = {
    let mut tables = [[0u8; 256]; 8];
    let mut lane = 0;
    while lane < 8 {
        let mut byte = 0;
        while byte < 256 {
            let data = (byte as u64) << (8 * lane);
            // Hamming check bit `i` zeroes the parity of its mask group;
            // the overall bit then makes all 72 bits even.
            let mut hamming = 0u8;
            let mut i = 0;
            while i < 7 {
                hamming |= (((data & HAMMING_MASKS[i]).count_ones() & 1) as u8) << i;
                i += 1;
            }
            let overall = (data.count_ones() + hamming.count_ones()) & 1;
            tables[lane][byte] = (hamming << 1) | overall as u8;
            byte += 1;
        }
        lane += 1;
    }
    tables
};

/// Encodes the 8-bit SECDED check byte for one 64-bit data word.
///
/// Check-byte layout: bit 0 is the overall parity (position 0), bits
/// 1..=7 are the Hamming check bits at positions 1, 2, 4, 8, 16, 32, 64
/// respectively.
///
/// ```
/// use felim_arch::ecc::{decode_word, encode_word, WordDecode};
/// let check = encode_word(0xDEAD_BEEF);
/// assert_eq!(decode_word(0xDEAD_BEEF, check), WordDecode::Clean);
/// ```
#[inline]
pub fn encode_word(data: u64) -> u8 {
    let b = data.to_le_bytes();
    let t = &ENCODE_TABLES;
    (t[0][usize::from(b[0])] ^ t[1][usize::from(b[1])])
        ^ (t[2][usize::from(b[2])] ^ t[3][usize::from(b[3])])
        ^ (t[4][usize::from(b[4])] ^ t[5][usize::from(b[5])])
        ^ (t[6][usize::from(b[6])] ^ t[7][usize::from(b[7])])
}

/// Outcome of decoding one `(data, check)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WordDecode {
    /// The codeword is consistent: the stored data is trusted as-is.
    Clean,
    /// A single-bit upset in the *data* bits was corrected; the payload
    /// is the repaired data word.
    CorrectedData(u64),
    /// A single-bit upset in the *check* bits (including the overall
    /// parity bit) was corrected; the data was never wrong.
    CorrectedCheck,
    /// A double-bit upset (or worse): detected, not correctable. The
    /// data must not be trusted.
    Uncorrectable,
}

/// Decodes one data word against its SECDED check byte.
///
/// Decision table (`s` = Hamming syndrome, `P` = overall parity of the
/// 72-bit codeword):
///
/// | `s`     | `P`  | verdict                                       |
/// |---------|------|-----------------------------------------------|
/// | 0       | even | clean                                         |
/// | 0       | odd  | overall-parity bit flipped → corrected        |
/// | 1..72   | odd  | single flip at position `s` → corrected       |
/// | ≥ 72    | odd  | impossible for 1 flip → ≥3 flips, detected    |
/// | nonzero | even | double flip → detected, uncorrectable         |
pub fn decode_word(data: u64, check: u8) -> WordDecode {
    // Re-encoding the data gives the check byte a clean codeword would
    // carry; XOR with the stored one leaves the syndrome in bits 1..=7
    // (the check bits sit at positions 2^i, so their share of the
    // syndrome is their own value) and, in its popcount parity, the
    // overall parity of all 72 stored bits.
    let e = encode_word(data) ^ check;
    let s = u32::from(e >> 1);
    let parity_odd = e.count_ones() & 1 == 1;
    match (s, parity_odd) {
        (0, false) => WordDecode::Clean,
        (0, true) => WordDecode::CorrectedCheck,
        (s, true) if s < CODEWORD_BITS => {
            if s.is_power_of_two() {
                // The flipped bit is a check bit — data is intact.
                WordDecode::CorrectedCheck
            } else {
                WordDecode::CorrectedData(data ^ (1 << DATA_BIT_AT[s as usize]))
            }
        }
        // s >= 72 with odd parity: at least a triple error. s != 0 with
        // even parity: the double-error signature. Both uncorrectable.
        _ => WordDecode::Uncorrectable,
    }
}

/// The SECDED side-band for one full row: one check byte per data word.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RowCode {
    checks: Vec<u8>,
}

impl RowCode {
    /// Encodes the side-band for a full row of data.
    pub fn encode(data: &[u64]) -> Self {
        Self {
            checks: data.iter().map(|&w| encode_word(w)).collect(),
        }
    }

    /// Re-encodes this side-band for a row that now holds `data`, reusing
    /// its buffer: the same bytes as [`RowCode::encode`], no allocation
    /// once the buffer has grown to the row length.
    pub fn reencode(&mut self, data: &[u64]) {
        self.checks.clear();
        self.checks.extend(data.iter().map(|&w| encode_word(w)));
    }

    /// Re-encodes this side-band for a row of `words` zero words without
    /// the row itself: the same bytes as [`RowCode::reencode`] over
    /// zeros, whose check byte is zero.
    pub fn reencode_zeros(&mut self, words: usize) {
        self.checks.clear();
        self.checks.resize(words, encode_word(0));
    }

    /// Number of protected words.
    pub fn words(&self) -> usize {
        self.checks.len()
    }

    /// The check byte of one word.
    pub fn check(&self, word: usize) -> u8 {
        self.checks[word]
    }

    /// The raw side-band bytes, one per protected word — for state
    /// snapshots.
    pub fn checks(&self) -> &[u8] {
        &self.checks
    }

    /// Rebuilds a side-band from raw check bytes (the inverse of
    /// [`RowCode::checks`], used when restoring a state snapshot).
    pub fn from_checks(checks: Vec<u8>) -> Self {
        Self { checks }
    }

    /// Checks (and repairs, in place) a full row against this side-band.
    ///
    /// Single-bit upsets in data words are corrected in `data`;
    /// check-bit upsets are recorded (the side-band itself is refreshed
    /// by the next encode). Words with double-bit upsets are left
    /// untouched and listed in [`RowCheck::uncorrectable_words`].
    pub fn check_row(&self, data: &mut [u64]) -> RowCheck {
        let mut outcome = RowCheck::default();
        // A length mismatch means the row was resized under us: `zip`
        // skips the tail, which is unprotected (clean by definition).
        for (i, (word, &check)) in data.iter_mut().zip(&self.checks).enumerate() {
            match decode_word(*word, check) {
                WordDecode::Clean => {}
                WordDecode::CorrectedData(fixed) => {
                    outcome.corrected_bits += (*word ^ fixed).count_ones() as u64;
                    *word = fixed;
                }
                WordDecode::CorrectedCheck => outcome.corrected_check_bits += 1,
                WordDecode::Uncorrectable => outcome.uncorrectable_words.push(i),
            }
        }
        outcome
    }
}

/// Result of checking one row against its SECDED side-band.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RowCheck {
    /// Data bits repaired in place.
    pub corrected_bits: u64,
    /// Check-bit upsets absorbed (data was never wrong).
    pub corrected_check_bits: u64,
    /// Word indices whose codewords hold ≥2 upsets — uncorrectable.
    pub uncorrectable_words: Vec<usize>,
}

impl RowCheck {
    /// Did the row decode without any uncorrectable word?
    pub fn is_correctable(&self) -> bool {
        self.uncorrectable_words.is_empty()
    }

    /// Did the row decode with no errors at all?
    pub fn is_clean(&self) -> bool {
        self.is_correctable() && self.corrected_bits == 0 && self.corrected_check_bits == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference oracle: the bitwise construction the lane tables
    // replace. It builds the 72-bit codeword explicitly (bit `p` of a
    // `u128` = codeword position `p`) and XORs set-bit positions into the
    // syndrome.

    /// Codeword positions of the seven Hamming check bits.
    const CHECK_POSITIONS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

    /// Codeword positions (ascending) that carry data bits: everything in
    /// `1..72` that is not a power of two.
    fn data_positions() -> impl Iterator<Item = u32> {
        (1..CODEWORD_BITS).filter(|p| !p.is_power_of_two())
    }

    /// Expands `(data, check)` into the 72-bit codeword.
    fn assemble(data: u64, check: u8) -> u128 {
        let mut word = u128::from(check & 1);
        for (i, &p) in CHECK_POSITIONS.iter().enumerate() {
            if check >> (i + 1) & 1 != 0 {
                word |= 1u128 << p;
            }
        }
        for (bit, p) in data_positions().enumerate() {
            if data >> bit & 1 != 0 {
                word |= 1u128 << p;
            }
        }
        word
    }

    /// Collapses a 72-bit codeword back into `(data, check)`.
    fn disassemble(word: u128) -> (u64, u8) {
        let mut check = (word & 1) as u8;
        for (i, &p) in CHECK_POSITIONS.iter().enumerate() {
            if word >> p & 1 != 0 {
                check |= 1 << (i + 1);
            }
        }
        let mut data = 0u64;
        for (bit, p) in data_positions().enumerate() {
            if word >> p & 1 != 0 {
                data |= 1 << bit;
            }
        }
        (data, check)
    }

    /// Hamming syndrome of a codeword: XOR of the positions of all set
    /// bits.
    fn syndrome(word: u128) -> u32 {
        let mut s = 0u32;
        let mut w = word;
        while w != 0 {
            s ^= w.trailing_zeros();
            w &= w - 1;
        }
        s
    }

    fn reference_encode(data: u64) -> u8 {
        let s = syndrome(assemble(data, 0));
        let mut check = 0u8;
        for (i, &p) in CHECK_POSITIONS.iter().enumerate() {
            if s & p != 0 {
                check |= 1 << (i + 1);
            }
        }
        if assemble(data, check).count_ones() % 2 == 1 {
            check |= 1;
        }
        check
    }

    fn reference_decode(data: u64, check: u8) -> WordDecode {
        let word = assemble(data, check);
        let s = syndrome(word);
        match (s, word.count_ones() % 2 == 1) {
            (0, false) => WordDecode::Clean,
            (0, true) => WordDecode::CorrectedCheck,
            (s, true) if s < CODEWORD_BITS => {
                if s.is_power_of_two() {
                    WordDecode::CorrectedCheck
                } else {
                    WordDecode::CorrectedData(disassemble(word ^ (1u128 << s)).0)
                }
            }
            _ => WordDecode::Uncorrectable,
        }
    }

    /// Deterministic xorshift64 word stream.
    fn xorshift_words(mut state: u64, n: usize) -> impl Iterator<Item = u64> {
        (0..n).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
    }

    #[test]
    fn positions_partition_the_codeword() {
        let data: Vec<u32> = data_positions().collect();
        assert_eq!(data.len(), 64);
        for p in &CHECK_POSITIONS {
            assert!(!data.contains(p));
        }
        assert!(!data.contains(&0));
        let table: Vec<u32> = DATA_POSITIONS.iter().map(|&p| u32::from(p)).collect();
        assert_eq!(table, data);
        for (p, &bit) in DATA_BIT_AT.iter().enumerate() {
            if p == 0 || p.is_power_of_two() {
                assert_eq!(bit, u8::MAX, "position {p} carries no data");
            } else {
                assert_eq!(u32::from(DATA_POSITIONS[bit as usize]), p as u32);
            }
        }
    }

    /// Pins the check-byte layout that controller snapshots and wire
    /// snapshot chunks carry: these bytes come from the bitwise encoder.
    #[test]
    fn golden_check_bytes() {
        for &(data, check) in &[
            (0u64, 0x00u8),
            (!0, 0xff),
            (0xDEAD_BEEF, 0x47),
            (0x0123_4567_89AB_CDEF, 0x39),
            (0x5555_0000_FFFF_AAAA, 0xd8),
            (1 << 63, 0x8f),
        ] {
            assert_eq!(encode_word(data), check, "encode_word({data:#x})");
            assert_eq!(reference_encode(data), check, "reference_encode({data:#x})");
        }
    }

    #[test]
    fn encode_matches_the_bitwise_reference() {
        for data in xorshift_words(0x9E37_79B9_7F4A_7C15, 100_000) {
            assert_eq!(encode_word(data), reference_encode(data), "data {data:#x}");
        }
    }

    #[test]
    fn encode_is_linear_over_gf2() {
        let a = xorshift_words(0x2545_F491_4F6C_DD1D, 10_000);
        let b = xorshift_words(0x9E37_79B9_7F4A_7C15, 10_000);
        for (a, b) in a.zip(b) {
            assert_eq!(
                encode_word(a ^ b),
                encode_word(a) ^ encode_word(b),
                "data {a:#x} ^ {b:#x}"
            );
        }
    }

    #[test]
    fn decode_matches_the_bitwise_reference() {
        let words = [0u64, !0, 0xDEAD_BEEF, 0x5555_0000_FFFF_AAAA]
            .into_iter()
            .chain(xorshift_words(42, 4));
        for data in words {
            // Every check byte, consistent or not.
            for check in 0..=u8::MAX {
                assert_eq!(
                    decode_word(data, check),
                    reference_decode(data, check),
                    "data {data:#x}, check {check:#04x}"
                );
            }
            // Every single and double flip of the valid codeword.
            let clean = assemble(data, encode_word(data));
            for i in 0..CODEWORD_BITS {
                for j in i..CODEWORD_BITS {
                    let mut corrupted = clean ^ (1u128 << i);
                    if j != i {
                        corrupted ^= 1u128 << j;
                    }
                    let (d, c) = disassemble(corrupted);
                    assert_eq!(
                        decode_word(d, c),
                        reference_decode(d, c),
                        "data {data:#x}, flips at {i},{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn assemble_disassemble_roundtrip() {
        for &(d, c) in &[(0u64, 0u8), (!0, 0xFF), (0xDEAD_BEEF_1234_5678, 0x5A)] {
            assert_eq!(disassemble(assemble(d, c)), (d, c));
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for &d in &[0u64, 1, !0, 0xAAAA_AAAA_AAAA_AAAA, 0x0123_4567_89AB_CDEF] {
            assert_eq!(decode_word(d, encode_word(d)), WordDecode::Clean);
        }
    }

    #[test]
    fn every_single_data_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let check = encode_word(data);
        for bit in 0..64 {
            let corrupted = data ^ (1 << bit);
            assert_eq!(
                decode_word(corrupted, check),
                WordDecode::CorrectedData(data),
                "flip at data bit {bit}"
            );
        }
    }

    #[test]
    fn every_single_check_flip_is_absorbed() {
        let data = 0xF0E1_D2C3_B4A5_9687u64;
        let check = encode_word(data);
        for bit in 0..8 {
            let corrupted = check ^ (1 << bit);
            assert_eq!(
                decode_word(data, corrupted),
                WordDecode::CorrectedCheck,
                "flip at check bit {bit}"
            );
        }
    }

    #[test]
    fn double_flips_are_detected_never_miscorrected() {
        let data = 0x5555_0000_FFFF_AAAAu64;
        let check = encode_word(data);
        let clean = assemble(data, check);
        // All C(72,2) double flips across the full codeword.
        for i in 0..CODEWORD_BITS {
            for j in (i + 1)..CODEWORD_BITS {
                let corrupted = clean ^ (1u128 << i) ^ (1u128 << j);
                let (d, c) = disassemble(corrupted);
                assert_eq!(
                    decode_word(d, c),
                    WordDecode::Uncorrectable,
                    "double flip at positions {i},{j}"
                );
            }
        }
    }

    #[test]
    fn row_code_corrects_and_reports_per_word() {
        let data = vec![0x1111u64, 0x2222, 0x3333, 0x4444];
        let code = RowCode::encode(&data);
        assert_eq!(code.words(), 4);

        // One single flip in word 1, one double flip in word 3.
        let mut stored = data.clone();
        stored[1] ^= 1 << 7;
        stored[3] ^= (1 << 3) | (1 << 40);
        let outcome = code.check_row(&mut stored);
        assert_eq!(outcome.corrected_bits, 1);
        assert_eq!(outcome.uncorrectable_words, vec![3]);
        assert!(!outcome.is_correctable());
        assert_eq!(stored[1], data[1], "single flip repaired in place");
        assert_ne!(stored[3], data[3], "double flip left untouched");

        // A clean row decodes clean.
        let mut clean = data.clone();
        assert!(code.check_row(&mut clean).is_clean());

        // Re-encoding in place yields the same side-band as a fresh
        // encode, whatever the buffer held before.
        let mut reused = RowCode::encode(&[!0; 7]);
        reused.reencode(&data);
        assert_eq!(reused, code);

        // Re-encoding zeros without the row matches encoding the row.
        reused.reencode_zeros(5);
        assert_eq!(reused, RowCode::encode(&[0; 5]));

        // Words past the side-band's length are unprotected: skipped.
        let mut longer = data.clone();
        longer.push(0xBAD);
        assert!(code.check_row(&mut longer).is_clean());
    }
}
