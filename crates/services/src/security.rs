//! WS-Security-lite: body signatures and body encryption via envelope
//! headers.
//!
//! §4.1's three properties mapped to message level: **authenticity** (the
//! body signature header proves origin), **integrity** (signature and MAC
//! detect alteration in transit), **confidentiality** (body encryption
//! hides the payload from intermediaries).

use crate::soap::Envelope;
use websec_crypto::sig::{self, Keypair, PublicKey, SignError, Signature};
use websec_crypto::{hkdf, hmac_sha256, ChaCha20};
use websec_xml::Document;

/// Message-security failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityError {
    /// Signature header missing or malformed.
    NoSignature,
    /// Signature present but invalid for the body.
    BadSignature,
    /// Encrypted-body header missing or malformed.
    NoCiphertext,
    /// MAC check failed (wrong key or tampering).
    BadMac,
    /// Decrypted bytes are not a valid XML body.
    BadPlaintext(String),
}

impl std::fmt::Display for SecurityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityError::NoSignature => write!(f, "no signature header"),
            SecurityError::BadSignature => write!(f, "invalid body signature"),
            SecurityError::NoCiphertext => write!(f, "no encrypted body header"),
            SecurityError::BadMac => write!(f, "message MAC check failed"),
            SecurityError::BadPlaintext(m) => write!(f, "bad plaintext: {m}"),
        }
    }
}

impl std::error::Error for SecurityError {}

/// Header name carrying the body signature.
pub const SIGNATURE_HEADER: &str = "BodySignature";
/// Header name marking an encrypted body.
pub const ENCRYPTION_HEADER: &str = "EncryptedBody";

fn body_bytes(envelope: &Envelope) -> Vec<u8> {
    envelope.body.canonical_bytes(envelope.body.root())
}

/// Signs the envelope body; the signature travels in a header block
/// (hex-encoded, with the leaf/auth-path serialized alongside).
pub fn sign_envelope(envelope: Envelope, keypair: &mut Keypair) -> Result<Envelope, SignError> {
    let bytes = body_bytes(&envelope);
    let signature = keypair.sign(&bytes)?;
    let encoded = encode_signature(&signature);
    Ok(envelope.with_header(SIGNATURE_HEADER, &encoded))
}

/// Verifies the body signature under `key`.
pub fn verify_envelope(envelope: &Envelope, key: &PublicKey) -> Result<(), SecurityError> {
    let header = envelope
        .header(SIGNATURE_HEADER)
        .ok_or(SecurityError::NoSignature)?;
    let signature = decode_signature(header).ok_or(SecurityError::NoSignature)?;
    if sig::verify(key, &body_bytes(envelope), &signature) {
        Ok(())
    } else {
        Err(SecurityError::BadSignature)
    }
}

/// Replaces the body with `<EncryptedData/>` and stores
/// nonce‖ciphertext‖mac (hex) in a header. Key separation via HKDF.
#[must_use]
pub fn encrypt_body(envelope: &Envelope, key: &[u8; 32], nonce: &[u8; 12]) -> Envelope {
    let plaintext = envelope.body.to_xml_string().into_bytes();
    let okm = hkdf(b"ws-body", key, b"cipher+mac", 64);
    let mut enc_key = [0u8; 32];
    let mut mac_key = [0u8; 32];
    enc_key.copy_from_slice(&okm[..32]);
    mac_key.copy_from_slice(&okm[32..]);

    let mut ciphertext = plaintext;
    ChaCha20::new(&enc_key, nonce, 1).apply(&mut ciphertext);
    let mut mac_input = nonce.to_vec();
    mac_input.extend_from_slice(&ciphertext);
    let mac = hmac_sha256(&mac_key, &mac_input);

    let mut blob = Vec::with_capacity(12 + ciphertext.len() + 32);
    blob.extend_from_slice(nonce);
    blob.extend_from_slice(&ciphertext);
    blob.extend_from_slice(&mac);

    let mut out = Envelope::new(Document::new("EncryptedData"));
    out.headers = envelope.headers.clone();
    out.headers
        .push((ENCRYPTION_HEADER.to_string(), hex_encode(&blob)));
    out
}

/// Reverses [`encrypt_body`].
pub fn decrypt_body(envelope: &Envelope, key: &[u8; 32]) -> Result<Envelope, SecurityError> {
    let header = envelope
        .header(ENCRYPTION_HEADER)
        .ok_or(SecurityError::NoCiphertext)?;
    let blob = hex_decode(header).ok_or(SecurityError::NoCiphertext)?;
    if blob.len() < 12 + 32 {
        return Err(SecurityError::NoCiphertext);
    }
    let (nonce_bytes, rest) = blob.split_at(12);
    let (ciphertext, mac) = rest.split_at(rest.len() - 32);

    let okm = hkdf(b"ws-body", key, b"cipher+mac", 64);
    let mut enc_key = [0u8; 32];
    let mut mac_key = [0u8; 32];
    enc_key.copy_from_slice(&okm[..32]);
    mac_key.copy_from_slice(&okm[32..]);

    let mut mac_input = nonce_bytes.to_vec();
    mac_input.extend_from_slice(ciphertext);
    let expected = hmac_sha256(&mac_key, &mac_input);
    if !websec_crypto::ct_eq(&expected, mac) {
        return Err(SecurityError::BadMac);
    }

    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(nonce_bytes);
    let mut plaintext = ciphertext.to_vec();
    ChaCha20::new(&enc_key, &nonce, 1).apply(&mut plaintext);
    let xml = String::from_utf8(plaintext)
        .map_err(|_| SecurityError::BadPlaintext("not UTF-8".into()))?;
    let body =
        Document::parse(&xml).map_err(|e| SecurityError::BadPlaintext(e.message.clone()))?;

    let mut out = Envelope::new(body);
    out.headers = envelope
        .headers
        .iter()
        .filter(|(n, _)| n != ENCRYPTION_HEADER)
        .cloned()
        .collect();
    Ok(out)
}

// --- signature wire encoding -------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

fn encode_signature(signature: &Signature) -> String {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(signature.leaf_index as u64).to_le_bytes());
    bytes.extend_from_slice(&(signature.auth_path.n_leaves as u64).to_le_bytes());
    bytes.extend_from_slice(&(signature.auth_path.siblings.len() as u32).to_le_bytes());
    for d in &signature.auth_path.siblings {
        bytes.extend_from_slice(d);
    }
    for d in &signature.revealed {
        bytes.extend_from_slice(d);
    }
    for pair in &signature.ots_public {
        bytes.extend_from_slice(&pair[0]);
        bytes.extend_from_slice(&pair[1]);
    }
    hex_encode(&bytes)
}

fn decode_signature(s: &str) -> Option<Signature> {
    let bytes = hex_decode(s)?;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<Vec<u8>> {
        if *pos + n > bytes.len() {
            return None;
        }
        let out = bytes[*pos..*pos + n].to_vec();
        *pos += n;
        Some(out)
    };
    let leaf_index = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
    let n_leaves = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
    let n_sib = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    if n_sib > 64 {
        return None;
    }
    let mut siblings = Vec::with_capacity(n_sib);
    for _ in 0..n_sib {
        siblings.push(<[u8; 32]>::try_from(take(&mut pos, 32)?).ok()?);
    }
    let mut revealed = Vec::with_capacity(256);
    for _ in 0..256 {
        revealed.push(<[u8; 32]>::try_from(take(&mut pos, 32)?).ok()?);
    }
    let mut ots_public = Vec::with_capacity(256);
    for _ in 0..256 {
        let a = <[u8; 32]>::try_from(take(&mut pos, 32)?).ok()?;
        let b = <[u8; 32]>::try_from(take(&mut pos, 32)?).ok()?;
        ots_public.push([a, b]);
    }
    if pos != bytes.len() {
        return None;
    }
    Some(Signature {
        leaf_index,
        revealed,
        ots_public,
        auth_path: websec_crypto::MerkleProof {
            leaf_index,
            n_leaves,
            siblings,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_crypto::SecureRng;

    fn envelope() -> Envelope {
        Envelope::new(
            Document::parse("<transfer from=\"alice\" to=\"bob\"><amount>100</amount></transfer>")
                .unwrap(),
        )
        .with_header("MessageId", "m-7")
    }

    #[test]
    fn sign_and_verify() {
        let mut rng = SecureRng::seeded(31);
        let mut kp = Keypair::generate(&mut rng, 2);
        let signed = sign_envelope(envelope(), &mut kp).unwrap();
        assert!(signed.header(SIGNATURE_HEADER).is_some());
        verify_envelope(&signed, &kp.public_key()).unwrap();
    }

    #[test]
    fn tampered_body_rejected() {
        let mut rng = SecureRng::seeded(32);
        let mut kp = Keypair::generate(&mut rng, 2);
        let mut signed = sign_envelope(envelope(), &mut kp).unwrap();
        // Alter the amount in transit.
        signed.body = Document::parse(
            "<transfer from=\"alice\" to=\"bob\"><amount>999999</amount></transfer>",
        )
        .unwrap();
        assert_eq!(
            verify_envelope(&signed, &kp.public_key()).unwrap_err(),
            SecurityError::BadSignature
        );
    }

    #[test]
    fn unsigned_rejected() {
        let mut rng = SecureRng::seeded(33);
        let kp = Keypair::generate(&mut rng, 1);
        assert_eq!(
            verify_envelope(&envelope(), &kp.public_key()).unwrap_err(),
            SecurityError::NoSignature
        );
    }

    #[test]
    fn signature_survives_wire_roundtrip() {
        let mut rng = SecureRng::seeded(34);
        let mut kp = Keypair::generate(&mut rng, 2);
        let signed = sign_envelope(envelope(), &mut kp).unwrap();
        let parsed = Envelope::parse(&signed.to_xml()).unwrap();
        verify_envelope(&parsed, &kp.public_key()).unwrap();
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = [9u8; 32];
        let env = envelope();
        let enc = encrypt_body(&env, &key, &[1u8; 12]);
        // Payload hidden.
        assert!(!enc.to_xml().contains("alice"));
        assert_eq!(enc.body.to_xml_string(), "<EncryptedData/>");
        let dec = decrypt_body(&enc, &key).unwrap();
        assert_eq!(dec.body.to_xml_string(), env.body.to_xml_string());
        assert_eq!(dec.header("MessageId"), Some("m-7"));
    }

    #[test]
    fn wrong_key_fails_mac() {
        let enc = encrypt_body(&envelope(), &[1u8; 32], &[0u8; 12]);
        assert_eq!(
            decrypt_body(&enc, &[2u8; 32]).unwrap_err(),
            SecurityError::BadMac
        );
    }

    #[test]
    fn tampered_ciphertext_fails_mac() {
        let key = [3u8; 32];
        let mut enc = encrypt_body(&envelope(), &key, &[0u8; 12]);
        // Flip one hex digit of the blob.
        let blob = enc.headers.last().unwrap().1.clone();
        let flipped = format!(
            "{}{}",
            &blob[..blob.len() - 1],
            if blob.ends_with('0') { "1" } else { "0" }
        );
        enc.headers.last_mut().unwrap().1 = flipped;
        assert_eq!(decrypt_body(&enc, &key).unwrap_err(), SecurityError::BadMac);
    }

    #[test]
    fn sign_then_encrypt_then_verify() {
        // The full WS-Security path: sign body, encrypt, ship, decrypt,
        // verify.
        let mut rng = SecureRng::seeded(35);
        let mut kp = Keypair::generate(&mut rng, 2);
        let key = [7u8; 32];
        let signed = sign_envelope(envelope(), &mut kp).unwrap();
        let enc = encrypt_body(&signed, &key, &[2u8; 12]);
        let wire = enc.to_xml();
        assert!(!wire.contains("alice"));
        let received = Envelope::parse(&wire).unwrap();
        let dec = decrypt_body(&received, &key).unwrap();
        verify_envelope(&dec, &kp.public_key()).unwrap();
    }
}
