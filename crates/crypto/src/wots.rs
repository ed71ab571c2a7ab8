//! Winternitz one-time signatures (W-OTS), the compact alternative to
//! Lamport used as the signature-size ablation in the experiment suite.
//!
//! With Winternitz parameter `w = 16` the 256-bit digest is cut into 64
//! 4-bit digits plus 3 checksum digits; each digit selects a position in a
//! 15-step hash chain. Signatures carry 67 × 32 bytes ≈ 2.1 KiB, roughly
//! 12× smaller than the Lamport signatures in [`crate::sig`], at the cost
//! of ~15 hash evaluations per chain during signing/verification.
//!
//! Classic (unmasked) W-OTS; sufficient for the reproduction, though a
//! production design would use WOTS+ masks.

use crate::sha256::{sha256, Digest, Sha256};

/// Digits per digest (256 bits / 4 bits).
const L1: usize = 64;
/// Checksum digits: max checksum = 64 × 15 = 960 < 16³.
const L2: usize = 3;
/// Total chains.
const L: usize = L1 + L2;
/// Chain length (digit values 0..=15).
const WMAX: u8 = 15;

/// A W-OTS public key: hash of all chain tops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WotsPublicKey(pub Digest);

/// A W-OTS signature: one intermediate chain value per digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    /// Chain values, one per digit.
    pub chains: Vec<Digest>,
}

impl WotsSignature {
    /// Wire size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.chains.len() * 32
    }
}

/// A one-time Winternitz keypair.
pub struct WotsKeypair {
    seed: [u8; 32],
    used: bool,
    public: WotsPublicKey,
}

fn chain_start(seed: &[u8; 32], index: usize) -> Digest {
    let mut h = Sha256::new();
    h.update(b"wots-sk");
    h.update(seed);
    h.update(&(index as u32).to_le_bytes());
    h.finalize()
}

/// Applies the chain function `steps` times.
fn advance(mut value: Digest, steps: u8) -> Digest {
    for _ in 0..steps {
        value = sha256(&value);
    }
    value
}

/// Splits a digest into the 67 base-16 digits (message + checksum).
fn digits(message_digest: &Digest) -> [u8; L] {
    let mut out = [0u8; L];
    for (i, byte) in message_digest.iter().enumerate() {
        out[2 * i] = byte >> 4;
        out[2 * i + 1] = byte & 0x0F;
    }
    // Checksum: sum of (WMAX - digit), base-16 big-endian.
    let checksum: u32 = out[..L1].iter().map(|&d| u32::from(WMAX - d)).sum();
    out[L1] = ((checksum >> 8) & 0x0F) as u8;
    out[L1 + 1] = ((checksum >> 4) & 0x0F) as u8;
    out[L1 + 2] = (checksum & 0x0F) as u8;
    out
}

fn compress_tops(tops: &[Digest]) -> WotsPublicKey {
    let mut h = Sha256::new();
    h.update(b"wots-pk");
    for t in tops {
        h.update(t);
    }
    WotsPublicKey(h.finalize())
}

impl WotsKeypair {
    /// Derives a keypair from a seed.
    #[must_use]
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let tops: Vec<Digest> = (0..L)
            .map(|i| advance(chain_start(&seed, i), WMAX))
            .collect();
        WotsKeypair {
            seed,
            used: false,
            public: compress_tops(&tops),
        }
    }

    /// The public key.
    #[must_use]
    pub fn public_key(&self) -> WotsPublicKey {
        self.public
    }

    /// Signs `message`; each keypair signs exactly once.
    ///
    /// # Panics
    /// Panics on reuse (signing twice with one W-OTS key leaks chain
    /// preimages and breaks unforgeability).
    pub fn sign(&mut self, message: &[u8]) -> WotsSignature {
        assert!(!self.used, "W-OTS keys are strictly one-time");
        self.used = true;
        let d = digits(&sha256(message));
        let chains = (0..L)
            .map(|i| advance(chain_start(&self.seed, i), d[i]))
            .collect();
        WotsSignature { chains }
    }
}

/// Verifies a W-OTS signature.
#[must_use]
pub fn wots_verify(public: &WotsPublicKey, message: &[u8], signature: &WotsSignature) -> bool {
    if signature.chains.len() != L {
        return false;
    }
    let d = digits(&sha256(message));
    let tops: Vec<Digest> = signature
        .chains
        .iter()
        .enumerate()
        .map(|(i, &c)| advance(c, WMAX - d[i]))
        .collect();
    crate::ct_eq(&compress_tops(&tops).0, &public.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = WotsKeypair::from_seed([1u8; 32]);
        let pk = kp.public_key();
        let sig = kp.sign(b"uddi entry digest");
        assert!(wots_verify(&pk, b"uddi entry digest", &sig));
    }

    #[test]
    fn rejects_wrong_message() {
        let mut kp = WotsKeypair::from_seed([2u8; 32]);
        let pk = kp.public_key();
        let sig = kp.sign(b"original");
        assert!(!wots_verify(&pk, b"forged", &sig));
    }

    #[test]
    fn rejects_wrong_key() {
        let mut kp = WotsKeypair::from_seed([3u8; 32]);
        let other = WotsKeypair::from_seed([4u8; 32]).public_key();
        let sig = kp.sign(b"msg");
        assert!(!wots_verify(&other, b"msg", &sig));
    }

    #[test]
    fn rejects_tampered_chain() {
        let mut kp = WotsKeypair::from_seed([5u8; 32]);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg");
        sig.chains[10][0] ^= 1;
        assert!(!wots_verify(&pk, b"msg", &sig));
    }

    #[test]
    fn rejects_truncated_signature() {
        let mut kp = WotsKeypair::from_seed([6u8; 32]);
        let pk = kp.public_key();
        let mut sig = kp.sign(b"msg");
        sig.chains.pop();
        assert!(!wots_verify(&pk, b"msg", &sig));
    }

    #[test]
    #[should_panic(expected = "one-time")]
    fn reuse_panics() {
        let mut kp = WotsKeypair::from_seed([7u8; 32]);
        let _ = kp.sign(b"a");
        let _ = kp.sign(b"b");
    }

    #[test]
    fn checksum_blocks_digit_increase_forgery() {
        // The checksum ensures an attacker can't advance message chains
        // without having to *reverse* a checksum chain. Indirect test: two
        // messages whose digit patterns dominate each other must still
        // cross-fail (covered by rejects_wrong_message), and the checksum
        // digits must vary with the message.
        let a = digits(&sha256(b"m1"));
        let b = digits(&sha256(b"m2"));
        assert_ne!(
            a[L1..],
            b[L1..],
            "checksums should differ for these messages"
        );
    }

    #[test]
    fn signature_much_smaller_than_lamport() {
        let mut kp = WotsKeypair::from_seed([8u8; 32]);
        let wots_sig = kp.sign(b"m");
        // Lamport reveals 256 values + carries 512 pk hashes ≈ 24 KiB.
        assert_eq!(wots_sig.size_bytes(), 67 * 32);
        assert!(wots_sig.size_bytes() < 256 * 32);
    }

    #[test]
    fn deterministic_public_key() {
        assert_eq!(
            WotsKeypair::from_seed([9u8; 32]).public_key(),
            WotsKeypair::from_seed([9u8; 32]).public_key()
        );
    }
}
