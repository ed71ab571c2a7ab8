//! FNV-1a, the workspace's one non-cryptographic hash.
//!
//! Cheap, dependency-free and stable across processes and platforms: the
//! serving layer places identities on shards with it, the fault injector
//! keys its event streams with it, the analysis memo fingerprints input
//! sections with it, and the scenario harness digests views and
//! configurations with it. Every one of those values is pinned somewhere
//! (shard placement, chaos fault fates, committed scenario fingerprints),
//! so the function must never change.

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

/// A running [`fnv1a`] digest that renderings are written to: writing a
/// string extends the digest with its bytes, so formatting into an
/// `Fnv1a` digests the rendering without building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV1A_START)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a(s.as_bytes(), self.0);
        Ok(())
    }
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
    fn a_written_rendering_digests_like_the_string() {
        use std::fmt::Write as _;
        let (name, value) = ("foo", Some(7));
        let mut digest = Fnv1a::default();
        let _ = write!(digest, "{name}-{value:?}");
        assert_eq!(digest.0, fnv1a(b"foo-Some(7)", FNV1A_START));
    }

    #[test]
    fn extending_a_digest_hashes_the_concatenation() {
        let split = fnv1a(b"bar", fnv1a(b"foo", FNV1A_START));
        assert_eq!(split, fnv1a(b"foobar", FNV1A_START));
    }
}
