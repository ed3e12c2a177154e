//! FNV-1a (64-bit): the one content hash behind every pinned fingerprint
//! in the workspace. A hash built from several pieces starts at
//! [`FNV1A_OFFSET`] and threads through [`fnv1a_extend`]; it equals
//! [`fnv1a`] over the pieces concatenated.

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a `hash`.
#[inline]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// FNV-1a over one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}
