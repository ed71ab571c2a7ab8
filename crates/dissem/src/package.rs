//! Encrypted dissemination packages.
//!
//! Push mode: the owner encrypts every region with its key and broadcasts
//! one [`DissemPackage`] to all subscribers; each subscriber opens exactly
//! the regions its keyring covers and reconstructs its authorized view.
//! Integrity is per-region (encrypt-then-MAC with keys derived from the
//! region key), so a tampered region is rejected without affecting others.

use crate::keyring::{RegionKey, SubjectKeyring};
use crate::region::{reconstruct, NodeRecord, Region, RegionId, RegionMap};
use websec_crypto::{hkdf, hmac_sha256, ChaCha20};
use websec_xml::Document;

/// Errors from packaging / unpackaging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DissemError {
    /// A region's MAC did not verify (tampering or wrong key).
    IntegrityFailure(RegionId),
    /// Region payload could not be decoded after decryption.
    Corrupt(RegionId, String),
    /// No region could be opened with the provided keyring.
    NoAccessibleRegion,
}

impl std::fmt::Display for DissemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DissemError::IntegrityFailure(r) => write!(f, "integrity failure in region {}", r.0),
            DissemError::Corrupt(r, m) => write!(f, "corrupt region {}: {m}", r.0),
            DissemError::NoAccessibleRegion => write!(f, "keyring opens no region"),
        }
    }
}

impl std::error::Error for DissemError {}

/// One encrypted region.
#[derive(Debug, Clone)]
pub struct EncryptedRegion {
    /// Region id (cleartext — subscribers must know which key to try).
    pub id: RegionId,
    /// Encryption nonce.
    pub nonce: [u8; 12],
    /// Ciphertext of the encoded records.
    pub ciphertext: Vec<u8>,
    /// HMAC over id ‖ nonce ‖ ciphertext with the region MAC key.
    pub mac: [u8; 32],
}

/// A broadcastable encrypted document.
#[derive(Debug, Clone)]
pub struct DissemPackage {
    /// Source document name.
    pub document: String,
    /// Encrypted regions.
    pub regions: Vec<EncryptedRegion>,
}

/// Splits a region key into independent cipher and MAC keys.
fn subkeys(key: &RegionKey) -> ([u8; 32], [u8; 32]) {
    let okm = hkdf(b"dissem-subkeys", key, b"cipher+mac", 64);
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    enc.copy_from_slice(&okm[..32]);
    mac.copy_from_slice(&okm[32..]);
    (enc, mac)
}

fn mac_input(id: RegionId, nonce: &[u8; 12], ciphertext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 12 + ciphertext.len());
    out.extend_from_slice(&id.0.to_le_bytes());
    out.extend_from_slice(nonce);
    out.extend_from_slice(ciphertext);
    out
}

impl DissemPackage {
    /// Encrypts every region of `map`, deriving keys through `key_for`
    /// (typically [`crate::KeyAuthority::region_key`]). `nonce_seed`
    /// deterministically derives one nonce per region — callers must use a
    /// fresh seed per broadcast.
    #[must_use]
    pub fn seal(
        map: &RegionMap,
        nonce_seed: &[u8],
        mut key_for: impl FnMut(&Region) -> RegionKey,
    ) -> DissemPackage {
        let regions = map
            .regions
            .iter()
            .map(|region| {
                let key = key_for(region);
                let (enc_key, mac_key) = subkeys(&key);
                let nonce_bytes = hkdf(b"dissem-nonce", nonce_seed, &region.id.0.to_le_bytes(), 12);
                let mut nonce = [0u8; 12];
                nonce.copy_from_slice(&nonce_bytes);
                let mut ciphertext = encode_records(&region.records);
                ChaCha20::new(&enc_key, &nonce, 1).apply(&mut ciphertext);
                let mac = hmac_sha256(&mac_key, &mac_input(region.id, &nonce, &ciphertext));
                EncryptedRegion {
                    id: region.id,
                    nonce,
                    ciphertext,
                    mac,
                }
            })
            .collect();
        DissemPackage {
            document: map.document.clone(),
            regions,
        }
    }

    /// Total ciphertext bytes (experiment metric).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.regions.iter().map(|r| r.ciphertext.len() + 44).sum()
    }

    /// Opens every region covered by `keyring`, verifies integrity, and
    /// reconstructs the subscriber's view.
    pub fn open(&self, keyring: &SubjectKeyring) -> Result<Document, DissemError> {
        let mut records: Vec<NodeRecord> = Vec::new();
        let mut opened = 0usize;
        for region in &self.regions {
            let Some(key) = keyring.key(region.id) else {
                continue;
            };
            let (enc_key, mac_key) = subkeys(key);
            let expected = hmac_sha256(
                &mac_key,
                &mac_input(region.id, &region.nonce, &region.ciphertext),
            );
            if !websec_crypto::ct_eq(&expected, &region.mac) {
                return Err(DissemError::IntegrityFailure(region.id));
            }
            let mut plaintext = region.ciphertext.clone();
            ChaCha20::new(&enc_key, &region.nonce, 1).apply(&mut plaintext);
            let decoded =
                decode_records(&plaintext).map_err(|e| DissemError::Corrupt(region.id, e))?;
            records.extend(decoded);
            opened += 1;
        }
        if opened == 0 {
            return Err(DissemError::NoAccessibleRegion);
        }
        reconstruct(&records).ok_or(DissemError::NoAccessibleRegion)
    }
}

// --- record codec -----------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Encodes records into the region payload format.
#[must_use]
pub fn encode_records(records: &[NodeRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        match r {
            NodeRecord::Element {
                id,
                parent,
                position,
                name,
                attributes,
            } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                put_opt_u32(&mut out, *parent);
                out.extend_from_slice(&position.to_le_bytes());
                put_str(&mut out, name);
                out.extend_from_slice(&(attributes.len() as u32).to_le_bytes());
                for (k, v) in attributes {
                    put_str(&mut out, k);
                    put_str(&mut out, v);
                }
            }
            NodeRecord::Text {
                id,
                parent,
                position,
                content,
            } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&parent.to_le_bytes());
                out.extend_from_slice(&position.to_le_bytes());
                put_str(&mut out, content);
            }
            NodeRecord::Shell {
                id,
                parent,
                position,
                name,
            } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                put_opt_u32(&mut out, *parent);
                out.extend_from_slice(&position.to_le_bytes());
                put_str(&mut out, name);
            }
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err("truncated payload".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(format!("bad option tag {t}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err("string too long".into());
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8".into())
    }
}

/// Decodes a region payload.
pub fn decode_records(buf: &[u8]) -> Result<Vec<NodeRecord>, String> {
    let mut r = Reader { buf, pos: 0 };
    let count = r.u32()? as usize;
    if count > 1 << 24 {
        return Err("record count too large".into());
    }
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let tag = r.u8()?;
        let record = match tag {
            0 => {
                let id = r.u32()?;
                let parent = r.opt_u32()?;
                let position = r.u32()?;
                let name = r.string()?;
                let n_attrs = r.u32()? as usize;
                if n_attrs > 1 << 16 {
                    return Err("too many attributes".into());
                }
                let mut attributes = Vec::with_capacity(n_attrs.min(64));
                for _ in 0..n_attrs {
                    let k = r.string()?;
                    let v = r.string()?;
                    attributes.push((k, v));
                }
                NodeRecord::Element {
                    id,
                    parent,
                    position,
                    name,
                    attributes,
                }
            }
            1 => NodeRecord::Text {
                id: r.u32()?,
                parent: r.u32()?,
                position: r.u32()?,
                content: r.string()?,
            },
            2 => NodeRecord::Shell {
                id: r.u32()?,
                parent: r.opt_u32()?,
                position: r.u32()?,
                name: r.string()?,
            },
            t => return Err(format!("unknown record tag {t}")),
        };
        out.push(record);
    }
    if r.pos != buf.len() {
        return Err("trailing bytes in payload".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::KeyAuthority;
    use websec_policy::{
        Authorization, ObjectSpec, PolicyStore, Privilege, SubjectProfile, SubjectSpec,
    };
    use websec_xml::Path;

    fn setup() -> (PolicyStore, Document, RegionMap, KeyAuthority) {
        let mut store = PolicyStore::new();
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("doctor".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//patient").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("accountant".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//admin").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        let doc = Document::parse(
            "<hospital><patient><name>Alice</name></patient><admin><budget>100</budget></admin></hospital>",
        )
        .unwrap();
        let map = RegionMap::build(&store, "h.xml", &doc);
        let ka = KeyAuthority::new("h.xml", [5u8; 32]);
        (store, doc, map, ka)
    }

    #[test]
    fn codec_roundtrip() {
        let records = vec![
            NodeRecord::Element {
                id: 0,
                parent: None,
                position: 0,
                name: "root".into(),
                attributes: vec![("a".into(), "1".into()), ("b".into(), "x\"y".into())],
            },
            NodeRecord::Text {
                id: 1,
                parent: 0,
                position: 0,
                content: "héllo".into(),
            },
            NodeRecord::Shell {
                id: 2,
                parent: Some(0),
                position: 1,
                name: "shell".into(),
            },
        ];
        let encoded = encode_records(&records);
        assert_eq!(decode_records(&encoded).unwrap(), records);
    }

    #[test]
    fn codec_rejects_truncation_and_garbage() {
        let records = vec![NodeRecord::Text {
            id: 1,
            parent: 0,
            position: 0,
            content: "x".into(),
        }];
        let encoded = encode_records(&records);
        assert!(decode_records(&encoded[..encoded.len() - 1]).is_err());
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode_records(&trailing).is_err());
        assert!(decode_records(&[0xff; 16]).is_err());
    }

    #[test]
    fn doctor_sees_only_patient() {
        let (store, _doc, map, ka) = setup();
        let pkg = DissemPackage::seal(&map, b"broadcast-1", |r| ka.region_key(&map, r.id));
        let keyring = ka.keys_for(&store, &map, &SubjectProfile::new("doctor"));
        let view = pkg.open(&keyring).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("Alice"), "{s}");
        assert!(!s.contains("100"), "{s}");
    }

    #[test]
    fn accountant_sees_only_admin() {
        let (store, _doc, map, ka) = setup();
        let pkg = DissemPackage::seal(&map, b"broadcast-1", |r| ka.region_key(&map, r.id));
        let keyring = ka.keys_for(&store, &map, &SubjectProfile::new("accountant"));
        let view = pkg.open(&keyring).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("100"), "{s}");
        assert!(!s.contains("Alice"), "{s}");
    }

    #[test]
    fn stranger_opens_nothing() {
        let (store, _doc, map, ka) = setup();
        let pkg = DissemPackage::seal(&map, b"broadcast-1", |r| ka.region_key(&map, r.id));
        let keyring = ka.keys_for(&store, &map, &SubjectProfile::new("stranger"));
        assert_eq!(
            pkg.open(&keyring).unwrap_err(),
            DissemError::NoAccessibleRegion
        );
    }

    #[test]
    fn tampered_region_detected() {
        let (store, _doc, map, ka) = setup();
        let mut pkg = DissemPackage::seal(&map, b"broadcast-1", |r| ka.region_key(&map, r.id));
        let keyring = ka.keys_for(&store, &map, &SubjectProfile::new("doctor"));
        let doctor_region = keyring.regions().next().unwrap();
        let slot = pkg
            .regions
            .iter_mut()
            .find(|r| r.id == doctor_region)
            .unwrap();
        slot.ciphertext[0] ^= 1;
        assert_eq!(
            pkg.open(&keyring).unwrap_err(),
            DissemError::IntegrityFailure(doctor_region)
        );
    }

    #[test]
    fn wrong_key_fails_integrity_not_garbage() {
        let (_store, _doc, map, ka) = setup();
        let pkg = DissemPackage::seal(&map, b"broadcast-1", |r| ka.region_key(&map, r.id));
        // Hand the subscriber a wrong key for an existing region id.
        let mut keyring = SubjectKeyring::empty();
        keyring.insert(map.regions[0].id, [0xAB; 32]);
        assert!(matches!(
            pkg.open(&keyring).unwrap_err(),
            DissemError::IntegrityFailure(_)
        ));
    }

    #[test]
    fn fresh_nonce_seed_changes_ciphertext() {
        let (_store, _doc, map, ka) = setup();
        let p1 = DissemPackage::seal(&map, b"seed-1", |r| ka.region_key(&map, r.id));
        let p2 = DissemPackage::seal(&map, b"seed-2", |r| ka.region_key(&map, r.id));
        assert_ne!(p1.regions[0].ciphertext, p2.regions[0].ciphertext);
        assert_ne!(p1.regions[0].nonce, p2.regions[0].nonce);
    }

    #[test]
    fn ciphertext_hides_content() {
        let (_store, _doc, map, ka) = setup();
        let pkg = DissemPackage::seal(&map, b"b", |r| ka.region_key(&map, r.id));
        for r in &pkg.regions {
            let hay = String::from_utf8_lossy(&r.ciphertext);
            assert!(!hay.contains("Alice") && !hay.contains("100"));
        }
        assert!(pkg.size_bytes() > 0);
    }

    #[test]
    fn subject_matching_multiple_policies_sees_union() {
        let (mut store, doc, _m, _ka) = setup();
        // A super-user identity granted both portions via a third policy
        // set: grant both paths to "chief".
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("chief".into()))
                .on(ObjectSpec::Document("h.xml".into()))
                .privilege(Privilege::Read)
                .grant(),
        );
        let map = RegionMap::build(&store, "h.xml", &doc);
        let ka = KeyAuthority::new("h.xml", [5u8; 32]);
        let pkg = DissemPackage::seal(&map, b"b2", |r| ka.region_key(&map, r.id));
        let keyring = ka.keys_for(&store, &map, &SubjectProfile::new("chief"));
        let view = pkg.open(&keyring).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("Alice") && s.contains("100"), "{s}");
    }
}
