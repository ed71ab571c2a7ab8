//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HMAC is used for keyed integrity of dissemination payloads and as the PRF
//! inside [`hkdf`], which derives the per-policy region keys used by
//! `websec-dissem` from a single document master key.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    // Keys longer than the block size are hashed first, per RFC 2104.
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let d = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(&d);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// HKDF-SHA256: extract-then-expand key derivation (RFC 5869).
///
/// Returns `out_len` bytes of key material derived from `ikm` with the given
/// `salt` and context `info`. Panics if `out_len > 255 * 32`.
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * 32, "HKDF output too long");
    let prk = hmac_sha256(salt, ikm);
    let mut out = Vec::with_capacity(out_len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut msg = Vec::with_capacity(t.len() + info.len() + 1);
        msg.extend_from_slice(&t);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(&prk, &msg);
        t = block.to_vec();
        let take = (out_len - out.len()).min(32);
        out.extend_from_slice(&block[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_distinct_infos_distinct_keys() {
        let a = hkdf(b"salt", b"master", b"region-0", 32);
        let b = hkdf(b"salt", b"master", b"region-1", 32);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn hkdf_long_output() {
        let okm = hkdf(b"s", b"k", b"i", 100);
        assert_eq!(okm.len(), 100);
        // Prefix property: shorter request is a prefix of the longer one.
        let short = hkdf(b"s", b"k", b"i", 40);
        assert_eq!(&okm[..40], &short[..]);
    }

    #[test]
    fn mac_differs_on_key_and_message() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
