//! FNV-1a, the workspace's one non-cryptographic hash.
//!
//! Cheap, dependency-free and stable across processes and platforms: the
//! serving layer places identities on session and view-cache shards and
//! salts retry backoff with it, the fault injector keys its event streams
//! with it, and the scenario harness digests views and configurations with
//! it. Every one of those values is pinned somewhere (shard placement,
//! chaos fault fates, committed scenario fingerprints), so the function
//! must never change. What to re-analyse is not decided by hashing: the
//! analysis memo compares the snapshot it analysed with the new one,
//! section by section.

/// The FNV-1a offset basis: the digest of no bytes, where every digest
/// starts.
pub const FNV1A_START: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends the FNV-1a digest `hash` with `data`. `fnv1a(data, FNV1A_START)`
/// digests `data` alone; feeding a digest back in hashes a concatenation
/// without building it.
#[must_use]
pub fn fnv1a(data: &[u8], hash: u64) -> u64 {
    data.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(FNV1A_PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b"", FNV1A_START), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV1A_START), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV1A_START), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extending_a_digest_hashes_the_concatenation() {
        let split = fnv1a(b"bar", fnv1a(b"foo", FNV1A_START));
        assert_eq!(split, fnv1a(b"foobar", FNV1A_START));
    }
}
