//! Hash functions.
//!
//! The paper settles on **Murmur2** for Tectorwise and a **CRC32-based
//! hash** ("combines two 32-bit CRC results into a single 64-bit hash")
//! for Typer (§4.1): Murmur2 needs roughly twice the instructions but has
//! higher throughput, which suits Tectorwise's separated hash primitive;
//! CRC's short dependency chain suits Typer's fused loops. Both are
//! provided here and both engines can be switched for the ablation
//! (`experiments table1 --swap-hash`).

/// Which hash function a query plan uses. Defaults follow §4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashFn {
    Murmur2,
    Crc,
}

const MURMUR_M: u64 = 0xc6a4_a793_5bd1_e995;
const MURMUR_R: u32 = 47;
const MURMUR_SEED: u64 = 0x8445_d61a_4e77_4912;

/// MurmurHash64A of a single 64-bit key (the VectorWise-style hash).
#[inline]
pub fn murmur2(key: u64) -> u64 {
    let mut h = MURMUR_SEED ^ MURMUR_M.wrapping_mul(8);
    let mut k = key.wrapping_mul(MURMUR_M);
    k ^= k >> MURMUR_R;
    k = k.wrapping_mul(MURMUR_M);
    h ^= k;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

/// Combine an existing hash with another 64-bit key column (Tectorwise's
/// `rehash` primitive for composite keys).
#[inline]
pub fn rehash_murmur2(h: u64, key: u64) -> u64 {
    let mut k = key.wrapping_mul(MURMUR_M);
    k ^= k >> MURMUR_R;
    k = k.wrapping_mul(MURMUR_M);
    let mut h = (h ^ k).wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

/// MurmurHash64A over a byte string (string join/filter keys).
pub fn hash_bytes_murmur2(bytes: &[u8]) -> u64 {
    let mut h = MURMUR_SEED ^ MURMUR_M.wrapping_mul(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut k = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        k = k.wrapping_mul(MURMUR_M);
        k ^= k >> MURMUR_R;
        k = k.wrapping_mul(MURMUR_M);
        h ^= k;
        h = h.wrapping_mul(MURMUR_M);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(MURMUR_M);
    }
    h ^= h >> MURMUR_R;
    h = h.wrapping_mul(MURMUR_M);
    h ^= h >> MURMUR_R;
    h
}

// ---------------------------------------------------------------------
// CRC32C-based hashing (Typer / HyPer style).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[inline]
fn has_sse42() -> bool {
    // Detection is one load + predictable branch per hash.
    use std::sync::OnceLock;
    static HAS: OnceLock<bool> = OnceLock::new();
    *HAS.get_or_init(|| std::arch::is_x86_feature_detected!("sse4.2"))
}

/// One `crc32` instruction, emitted inline at every use (a
/// `#[target_feature]` function cannot be inlined into callers built
/// without the feature, so each hash would cost calls instead).
///
/// # Safety
/// Requires SSE4.2 — callers check [`has_sse42`] first.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn crc32_hw(seed: u32, key: u64) -> u32 {
    let mut crc = seed as u64;
    // SAFETY: the caller guarantees SSE4.2; the instruction reads and
    // writes registers only and leaves the flags alone.
    unsafe {
        std::arch::asm!(
            "crc32 {crc}, {key}",
            crc = inout(reg) crc,
            key = in(reg) key,
            options(pure, nomem, nostack, preserves_flags),
        );
    }
    crc as u32
}

/// Software CRC32C (Castagnoli), bitwise; only the fallback path.
///
/// Matches the semantics of the `crc32` instruction: the seed is the
/// running CRC state, with no initial or final complement.
#[inline(always)]
fn crc32_sw(seed: u32, key: u64) -> u32 {
    let mut crc = seed;
    for i in 0..8 {
        let byte = (key >> (i * 8)) as u8;
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0x82f6_3b78 & mask);
        }
    }
    crc
}

/// [`crc64`] over the given 32-bit CRC.
#[inline(always)]
fn crc64_with(crc32: impl Fn(u32, u64) -> u32, key: u64) -> u64 {
    let lo = crc32(0xD7E8_9A2C, key) as u64;
    let hi = crc32(0x8F41_5C6B, key) as u64;
    (lo | (hi << 32)).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// [`crc64`] without the instruction; out of line, so its bitwise loop
/// is not inlined into every hash loop on hosts that have the
/// instruction.
#[cfg_attr(target_arch = "x86_64", cold)]
#[inline(never)]
fn crc64_sw(key: u64) -> u64 {
    crc64_with(crc32_sw, key)
}

/// HyPer-style 64-bit hash: two independent 32-bit CRCs of the key,
/// concatenated and multiplied to spread entropy into the high bits
/// (the directory tag lives there).
#[inline]
pub fn crc64(key: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if has_sse42() {
            // SAFETY: guarded by runtime detection of sse4.2.
            return crc64_with(|seed, k| unsafe { crc32_hw(seed, k) }, key);
        }
    }
    crc64_sw(key)
}

/// Combine an existing CRC-based hash with another key column.
#[inline]
pub fn rehash_crc(h: u64, key: u64) -> u64 {
    crc64(h ^ key.rotate_left(32))
}

impl HashFn {
    /// Hash one 64-bit key.
    #[inline]
    pub fn hash(self, key: u64) -> u64 {
        match self {
            HashFn::Murmur2 => murmur2(key),
            HashFn::Crc => crc64(key),
        }
    }

    /// Fold another key column into an existing hash (composite keys).
    #[inline]
    pub fn rehash(self, h: u64, key: u64) -> u64 {
        match self {
            HashFn::Murmur2 => rehash_murmur2(h, key),
            HashFn::Crc => rehash_crc(h, key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur_reference_vectors() {
        // Self-consistency + known dispersion properties.
        assert_ne!(murmur2(0), 0);
        assert_ne!(murmur2(0), murmur2(1));
        assert_ne!(murmur2(u64::MAX), murmur2(u64::MAX - 1));
    }

    #[test]
    fn crc_sw_matches_hw() {
        // On machines with SSE4.2 the software path must agree with the
        // hardware instruction — they implement the same polynomial —
        // and so must the hashes built on it.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            for k in [0u64, 1, 42, 0xdead_beef_cafe_babe, u64::MAX] {
                let hw = unsafe { crc32_hw(123, k) };
                assert_eq!(crc32_sw(123, k), hw, "key {k:#x}");
                assert_eq!(crc64(k), crc64_sw(k), "crc64 of {k:#x}");
                for h in [0u64, 7, crc64_sw(k), u64::MAX] {
                    let sw = crc64_sw(h ^ k.rotate_left(32));
                    assert_eq!(rehash_crc(h, k), sw, "rehash_crc({h:#x}, {k:#x})");
                }
            }
        }
    }

    #[test]
    fn hashes_fill_high_bits() {
        // The join-table tag uses bits 48..64; a hash that never sets them
        // would disable the Bloom filter. Check dispersion over a sample.
        let mut seen_tags_m = std::collections::HashSet::new();
        let mut seen_tags_c = std::collections::HashSet::new();
        for k in 0..4096u64 {
            seen_tags_m.insert(murmur2(k) >> 60);
            seen_tags_c.insert(crc64(k) >> 60);
        }
        assert!(seen_tags_m.len() >= 12, "murmur high bits collapse");
        assert!(seen_tags_c.len() >= 12, "crc high bits collapse");
    }

    #[test]
    fn rehash_differs_from_hash() {
        let h = murmur2(7);
        assert_ne!(rehash_murmur2(h, 9), murmur2(9));
        assert_ne!(rehash_crc(crc64(7), 9), crc64(9));
        // Order sensitivity: (a,b) != (b,a).
        assert_ne!(rehash_murmur2(murmur2(1), 2), rehash_murmur2(murmur2(2), 1));
    }

    #[test]
    fn byte_hash_handles_all_lengths() {
        let mut prev = Vec::new();
        for len in 0..32 {
            let buf: Vec<u8> = (0..len as u8).collect();
            let h = hash_bytes_murmur2(&buf);
            assert!(!prev.contains(&h), "collision at length {len}");
            prev.push(h);
        }
        assert_ne!(hash_bytes_murmur2(b"BUILDING"), hash_bytes_murmur2(b"BUILDINh"));
    }

    #[test]
    fn hashfn_dispatch() {
        assert_eq!(HashFn::Murmur2.hash(99), murmur2(99));
        assert_eq!(HashFn::Crc.hash(99), crc64(99));
        assert_eq!(HashFn::Murmur2.rehash(1, 2), rehash_murmur2(1, 2));
        assert_eq!(HashFn::Crc.rehash(1, 2), rehash_crc(1, 2));
    }
}
