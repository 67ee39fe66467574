//! Shared content-hashing helpers: FNV-1a 64-bit.
//!
//! Several layers of the workspace key caches by content digests — the
//! cell-transient memoizer fingerprints netlist configurations, the
//! service layer digests read-back vectors and keys its read cache —
//! and all of them use the same dependency-free hash. This module is
//! the single implementation they share (it lives here rather than in
//! the `felim` core crate because `felim-cell` sits *below* the core
//! crate in the dependency graph, while every crate already depends on
//! `felim-exec`).
//!
//! FNV-1a is not cryptographic; it is used strictly for cache keying
//! and change detection, where the deterministic, endian-stable byte
//! walk matters more than adversarial collision resistance.

/// The FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over a byte slice.
#[must_use]
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV1A_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// FNV-1a 64-bit over a string's UTF-8 bytes.
#[must_use]
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a_bytes(s.as_bytes())
}

/// FNV-1a 64-bit over a word slice, hashing each word's little-endian
/// bytes in order (the row-major vector digest the service layer
/// exposes in `Read` responses).
#[must_use]
pub fn fnv1a_words(words: &[u64]) -> u64 {
    fnv1a_fold_words(FNV1A_OFFSET, words)
}

/// Continues an FNV-1a 64-bit digest `hash` over `words`, each word's
/// little-endian bytes in order. Folding consecutive pieces of a word
/// sequence from [`FNV1A_OFFSET`] gives [`fnv1a_words`] of the whole
/// sequence, so a digest spread over many buffers needs no copy.
#[must_use]
pub fn fnv1a_fold_words(mut hash: u64, words: &[u64]) -> u64 {
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV1A_PRIME);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the implementation to the published FNV-1a 64 test vectors:
    /// <http://www.isthe.com/chongo/tech/comp/fnv/> lists these digests
    /// for the empty string, `"a"`, and `"foobar"`.
    #[test]
    fn known_digests() {
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_str("foobar"), fnv1a_bytes(b"foobar"));
    }

    #[test]
    fn words_hash_little_endian_bytes() {
        // One word must hash exactly like its 8 LE bytes.
        let w = 0x0102_0304_0506_0708u64;
        assert_eq!(fnv1a_words(&[w]), fnv1a_bytes(&w.to_le_bytes()));
        // Order-sensitive and content-sensitive.
        let a = fnv1a_words(&[1, 2, 3]);
        assert_eq!(a, fnv1a_words(&[1, 2, 3]));
        assert_ne!(a, fnv1a_words(&[1, 2, 4]));
        assert_ne!(a, fnv1a_words(&[2, 1, 3]));
        // Empty input is the offset basis.
        assert_eq!(fnv1a_words(&[]), FNV1A_OFFSET);
    }

    #[test]
    fn folding_any_split_equals_the_whole_digest() {
        let words: Vec<u64> = (0..257).map(|i| crate::derive_seed(0xF01D, i)).collect();
        let want = fnv1a_words(&words);
        for trial in 0..200 {
            // Cut the words into pieces of seeded lengths 0..=7, empty
            // pieces included.
            let (mut hash, mut at, mut cut) = (FNV1A_OFFSET, 0, 0);
            while at < words.len() {
                let len = (crate::derive_seed(trial, cut) % 8) as usize;
                let end = (at + len).min(words.len());
                hash = fnv1a_fold_words(hash, &words[at..end]);
                (at, cut) = (end, cut + 1);
            }
            assert_eq!(hash, want, "trial {trial}");
        }
    }
}
