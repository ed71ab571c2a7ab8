//! Multimedia data management (§2.1 of the paper).
//!
//! "Appropriate index strategies and access methods for handling multimedia
//! data are needed. In addition, due to the large volumes of data,
//! techniques for integrating database management technology with mass
//! storage technology are also needed."
//!
//! Large binary objects (images, scans, recordings) do not live in the XML
//! tree; documents carry `blobRef` attributes pointing into a
//! content-addressed [`BlobStore`]. Content addressing gives integrity for
//! free (the reference *is* the digest); blobs are sealed at rest with
//! per-blob keys derived from a store master key; and
//! [`fetch_authorized`] gates retrieval on the XML-level access decision
//! for the referencing element, so multimedia inherits the document's
//! policy without duplicating it.

use websec_crypto::sha256::{sha256, Digest};
use websec_crypto::{hkdf, hmac_sha256, ChaCha20};
use websec_policy::{PolicyEngine, PolicyStore, Privilege, SubjectProfile};
use websec_xml::{Document, NodeId};
use std::collections::BTreeMap;

/// The attribute linking an element to its blob.
pub const BLOB_REF_ATTR: &str = "blobRef";

/// A content address: hex SHA-256 of the plaintext.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlobRef(pub String);

impl BlobRef {
    fn of(content: &[u8]) -> Self {
        let d = sha256(content);
        BlobRef(d.iter().map(|b| format!("{b:02x}")).collect())
    }

    fn digest(&self) -> Option<Digest> {
        if self.0.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&self.0[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(out)
    }
}

/// Blob retrieval errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// No blob under this reference.
    NotFound,
    /// Stored bytes fail their MAC or digest check (corruption/tampering).
    IntegrityFailure,
    /// The subject may not read the referencing element.
    AccessDenied,
    /// The element carries no (valid) blob reference.
    NoReference,
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::NotFound => write!(f, "blob not found"),
            BlobError::IntegrityFailure => write!(f, "blob failed integrity verification"),
            BlobError::AccessDenied => write!(f, "access to the referencing element denied"),
            BlobError::NoReference => write!(f, "element has no blob reference"),
        }
    }
}

impl std::error::Error for BlobError {}

struct SealedBlob {
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
    mac: [u8; 32],
}

/// Content-addressed, sealed-at-rest blob storage.
pub struct BlobStore {
    master: [u8; 32],
    blobs: BTreeMap<BlobRef, SealedBlob>,
}

impl BlobStore {
    /// Creates a store sealing blobs under `master`.
    #[must_use]
    pub fn new(master: [u8; 32]) -> Self {
        BlobStore {
            master,
            blobs: BTreeMap::new(),
        }
    }

    fn keys_for(&self, reference: &BlobRef) -> ([u8; 32], [u8; 32]) {
        let okm = hkdf(b"blob-store", &self.master, reference.0.as_bytes(), 64);
        let mut enc = [0u8; 32];
        let mut mac = [0u8; 32];
        enc.copy_from_slice(&okm[..32]);
        mac.copy_from_slice(&okm[32..]);
        (enc, mac)
    }

    /// Stores `content`, returning its content address. Idempotent.
    pub fn put(&mut self, content: &[u8]) -> BlobRef {
        let reference = BlobRef::of(content);
        if self.blobs.contains_key(&reference) {
            return reference;
        }
        let (enc, mac_key) = self.keys_for(&reference);
        // Content addressing makes the nonce derivable from the reference.
        let nonce_bytes = hkdf(b"blob-nonce", &self.master, reference.0.as_bytes(), 12);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let mut ciphertext = content.to_vec();
        ChaCha20::new(&enc, &nonce, 1).apply(&mut ciphertext);
        let mut mac_input = nonce.to_vec();
        mac_input.extend_from_slice(&ciphertext);
        let mac = hmac_sha256(&mac_key, &mac_input);
        self.blobs.insert(
            reference.clone(),
            SealedBlob {
                nonce,
                ciphertext,
                mac,
            },
        );
        reference
    }

    /// Retrieves and verifies a blob: MAC first, then the content address.
    pub fn get(&self, reference: &BlobRef) -> Result<Vec<u8>, BlobError> {
        let sealed = self.blobs.get(reference).ok_or(BlobError::NotFound)?;
        let (enc, mac_key) = self.keys_for(reference);
        let mut mac_input = sealed.nonce.to_vec();
        mac_input.extend_from_slice(&sealed.ciphertext);
        let expected = hmac_sha256(&mac_key, &mac_input);
        if !websec_crypto::ct_eq(&expected, &sealed.mac) {
            return Err(BlobError::IntegrityFailure);
        }
        let mut plaintext = sealed.ciphertext.clone();
        ChaCha20::new(&enc, &sealed.nonce, 1).apply(&mut plaintext);
        // Content address re-check (defense in depth).
        let digest = reference.digest().ok_or(BlobError::IntegrityFailure)?;
        if sha256(&plaintext) != digest {
            return Err(BlobError::IntegrityFailure);
        }
        Ok(plaintext)
    }

    /// Number of stored blobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when no blobs are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Test hook: corrupts a stored blob's ciphertext.
    #[cfg(test)]
    fn corrupt(&mut self, reference: &BlobRef) {
        if let Some(s) = self.blobs.get_mut(reference) {
            s.ciphertext[0] ^= 1;
        }
    }
}

/// Attaches a blob to `element`: stores the content and records the
/// reference on the element.
pub fn attach_blob(
    doc: &mut Document,
    element: NodeId,
    store: &mut BlobStore,
    content: &[u8],
) -> BlobRef {
    let reference = store.put(content);
    doc.set_attribute(element, BLOB_REF_ATTR, &reference.0);
    reference
}

/// Fetches the blob referenced by `element`, but only if the subject may
/// read that element under the document's policies — multimedia inherits
/// the XML-level decision.
pub fn fetch_authorized(
    store: &BlobStore,
    policies: &PolicyStore,
    engine: &PolicyEngine,
    profile: &SubjectProfile,
    doc_name: &str,
    doc: &Document,
    element: NodeId,
) -> Result<Vec<u8>, BlobError> {
    let decision = engine.evaluate_document(policies, profile, doc_name, doc, Privilege::Read);
    if !decision.is_allowed(element) || !decision.attr_allowed(element, BLOB_REF_ATTR) {
        return Err(BlobError::AccessDenied);
    }
    let reference = doc
        .attribute(element, BLOB_REF_ATTR)
        .map(|s| BlobRef(s.to_string()))
        .ok_or(BlobError::NoReference)?;
    store.get(&reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, SubjectSpec};
    use websec_xml::Path;

    #[test]
    fn put_get_roundtrip() {
        let mut store = BlobStore::new([1u8; 32]);
        let scan = b"binary MRI scan bytes \x00\x01\x02".to_vec();
        let r = store.put(&scan);
        assert_eq!(store.get(&r).unwrap(), scan);
        // Idempotent put.
        let r2 = store.put(&scan);
        assert_eq!(r, r2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn sealed_at_rest() {
        let mut store = BlobStore::new([2u8; 32]);
        let content = b"confidential image".to_vec();
        let r = store.put(&content);
        let sealed = &store.blobs[&r];
        assert_ne!(sealed.ciphertext, content);
    }

    #[test]
    fn corruption_detected() {
        let mut store = BlobStore::new([3u8; 32]);
        let r = store.put(b"data");
        store.corrupt(&r);
        assert_eq!(store.get(&r).unwrap_err(), BlobError::IntegrityFailure);
    }

    #[test]
    fn missing_blob() {
        let store = BlobStore::new([4u8; 32]);
        assert_eq!(
            store.get(&BlobRef("0".repeat(64))).unwrap_err(),
            BlobError::NotFound
        );
    }

    #[test]
    fn policy_gated_fetch() {
        let mut store = BlobStore::new([5u8; 32]);
        let mut doc = Document::parse(
            "<hospital><patient id=\"p1\"><scan/></patient></hospital>",
        )
        .unwrap();
        let scan_el = Path::parse("//scan").unwrap().select_nodes(&doc)[0];
        attach_blob(&mut doc, scan_el, &mut store, b"MRI bytes");

        let mut policies = PolicyStore::new();
        policies.add(Authorization::for_subject(SubjectSpec::Identity("doctor".into())).on(ObjectSpec::Document("h.xml".into())).privilege(Privilege::Read).grant());
        let engine = PolicyEngine::default();

        let doctor = SubjectProfile::new("doctor");
        let bytes = fetch_authorized(
            &store, &policies, &engine, &doctor, "h.xml", &doc, scan_el,
        )
        .unwrap();
        assert_eq!(bytes, b"MRI bytes");

        let stranger = SubjectProfile::new("stranger");
        assert_eq!(
            fetch_authorized(&store, &policies, &engine, &stranger, "h.xml", &doc, scan_el)
                .unwrap_err(),
            BlobError::AccessDenied
        );
    }

    #[test]
    fn attribute_level_denial_blocks_blob() {
        let mut store = BlobStore::new([6u8; 32]);
        let mut doc = Document::parse("<r><media/></r>").unwrap();
        let media = Path::parse("//media").unwrap().select_nodes(&doc)[0];
        attach_blob(&mut doc, media, &mut store, b"video");

        let mut policies = PolicyStore::new();
        policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("d".into())).privilege(Privilege::Read).grant());
        // Deny the reference attribute itself: metadata visible, blob not.
        policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Portion {
                document: "d".into(),
                path: Path::parse("//media/@blobRef").unwrap(),
            }).privilege(Privilege::Read).deny());
        let engine = PolicyEngine::default();
        assert_eq!(
            fetch_authorized(
                &store,
                &policies,
                &engine,
                &SubjectProfile::new("u"),
                "d",
                &doc,
                media
            )
            .unwrap_err(),
            BlobError::AccessDenied
        );
    }

    #[test]
    fn element_without_reference() {
        let store = BlobStore::new([7u8; 32]);
        let doc = Document::parse("<r><media/></r>").unwrap();
        let media = Path::parse("//media").unwrap().select_nodes(&doc)[0];
        let mut policies = PolicyStore::new();
        policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("d".into())).privilege(Privilege::Read).grant());
        assert_eq!(
            fetch_authorized(
                &store,
                &policies,
                &PolicyEngine::default(),
                &SubjectProfile::new("u"),
                "d",
                &doc,
                media
            )
            .unwrap_err(),
            BlobError::NoReference
        );
    }
}
