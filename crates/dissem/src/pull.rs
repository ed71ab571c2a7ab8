//! Pull-mode dissemination.
//!
//! In **push** mode ([`crate::package`]) the owner broadcasts one
//! multi-region package and subscribers decrypt their share offline. In
//! **pull** mode the subscriber requests the document on demand: the server
//! computes the subject's view at request time and encrypts it under the
//! subscriber's session key. Pull trades per-request server work for
//! always-fresh views and no key-distribution machinery — the trade-off the
//! dissemination literature contrasts, measurable here because both modes
//! share the policy engine.

use websec_crypto::{hkdf, hmac_sha256, ChaCha20};
use websec_policy::{PolicyEngine, PolicyStore, SubjectProfile};
use websec_xml::Document;

/// An encrypted pull response.
#[derive(Debug, Clone)]
pub struct PullResponse {
    /// Encryption nonce.
    pub nonce: [u8; 12],
    /// Ciphertext of the view's XML.
    pub ciphertext: Vec<u8>,
    /// HMAC over nonce ‖ ciphertext.
    pub mac: [u8; 32],
}

impl PullResponse {
    /// Response size on the wire.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        12 + self.ciphertext.len() + 32
    }
}

/// Pull-mode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullError {
    /// MAC verification failed.
    IntegrityFailure,
    /// Decrypted bytes were not a valid document.
    Corrupt(String),
}

impl std::fmt::Display for PullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PullError::IntegrityFailure => write!(f, "pull response failed integrity check"),
            PullError::Corrupt(m) => write!(f, "corrupt pull response: {m}"),
        }
    }
}

impl std::error::Error for PullError {}

/// The pull-mode server for one document.
pub struct PullServer<'a> {
    /// Policy base the views are computed from.
    pub store: &'a PolicyStore,
    /// Evaluation engine.
    pub engine: PolicyEngine,
    /// Document name (for policy matching).
    pub doc_name: String,
    /// The source document.
    pub doc: &'a Document,
}

fn subkeys(session_key: &[u8; 32]) -> ([u8; 32], [u8; 32]) {
    let okm = hkdf(b"dissem-pull", session_key, b"cipher+mac", 64);
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    enc.copy_from_slice(&okm[..32]);
    mac.copy_from_slice(&okm[32..]);
    (enc, mac)
}

impl<'a> PullServer<'a> {
    /// Serves one request: computes the subject's view and encrypts it
    /// under the shared `session_key` with the given request `nonce`.
    #[must_use]
    pub fn serve(
        &self,
        profile: &SubjectProfile,
        session_key: &[u8; 32],
        nonce: [u8; 12],
    ) -> PullResponse {
        let view = self
            .engine
            .compute_view(self.store, profile, &self.doc_name, self.doc);
        let mut ciphertext = view.to_xml_string().into_bytes();
        let (enc, mac_key) = subkeys(session_key);
        ChaCha20::new(&enc, &nonce, 1).apply(&mut ciphertext);
        let mut mac_input = nonce.to_vec();
        mac_input.extend_from_slice(&ciphertext);
        let mac = hmac_sha256(&mac_key, &mac_input);
        PullResponse {
            nonce,
            ciphertext,
            mac,
        }
    }
}

/// Subscriber side: verifies and decrypts a pull response.
pub fn open_pull(response: &PullResponse, session_key: &[u8; 32]) -> Result<Document, PullError> {
    let (enc, mac_key) = subkeys(session_key);
    let mut mac_input = response.nonce.to_vec();
    mac_input.extend_from_slice(&response.ciphertext);
    let expected = hmac_sha256(&mac_key, &mac_input);
    if !websec_crypto::ct_eq(&expected, &response.mac) {
        return Err(PullError::IntegrityFailure);
    }
    let mut plaintext = response.ciphertext.clone();
    ChaCha20::new(&enc, &response.nonce, 1).apply(&mut plaintext);
    let xml = String::from_utf8(plaintext).map_err(|_| PullError::Corrupt("not UTF-8".into()))?;
    if xml.is_empty() {
        // An empty view (subject sees nothing) serializes to nothing.
        return Ok(Document::new("empty"));
    }
    Document::parse(&xml).map_err(|e| PullError::Corrupt(e.message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, Privilege, SubjectSpec};
    use websec_xml::Path;

    fn setup() -> (PolicyStore, Document) {
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
        let doc = Document::parse(
            "<hospital><patient><name>Alice</name></patient><admin><budget>1</budget></admin></hospital>",
        )
        .unwrap();
        (store, doc)
    }

    #[test]
    fn pull_roundtrip_matches_view() {
        let (store, doc) = setup();
        let server = PullServer {
            store: &store,
            engine: PolicyEngine::default(),
            doc_name: "h.xml".into(),
            doc: &doc,
        };
        let key = [7u8; 32];
        let response = server.serve(&SubjectProfile::new("doctor"), &key, [1u8; 12]);
        let view = open_pull(&response, &key).unwrap();
        let s = view.to_xml_string();
        assert!(s.contains("Alice"), "{s}");
        assert!(!s.contains("budget"), "{s}");
    }

    #[test]
    fn unauthorized_subject_gets_empty_view() {
        let (store, doc) = setup();
        let server = PullServer {
            store: &store,
            engine: PolicyEngine::default(),
            doc_name: "h.xml".into(),
            doc: &doc,
        };
        let key = [7u8; 32];
        let response = server.serve(&SubjectProfile::new("stranger"), &key, [1u8; 12]);
        let view = open_pull(&response, &key).unwrap();
        assert!(!view.to_xml_string().contains("Alice"));
    }

    #[test]
    fn wrong_session_key_rejected() {
        let (store, doc) = setup();
        let server = PullServer {
            store: &store,
            engine: PolicyEngine::default(),
            doc_name: "h.xml".into(),
            doc: &doc,
        };
        let response = server.serve(&SubjectProfile::new("doctor"), &[1u8; 32], [0u8; 12]);
        assert_eq!(
            open_pull(&response, &[2u8; 32]).unwrap_err(),
            PullError::IntegrityFailure
        );
    }

    #[test]
    fn tampered_response_rejected() {
        let (store, doc) = setup();
        let server = PullServer {
            store: &store,
            engine: PolicyEngine::default(),
            doc_name: "h.xml".into(),
            doc: &doc,
        };
        let key = [3u8; 32];
        let mut response = server.serve(&SubjectProfile::new("doctor"), &key, [0u8; 12]);
        response.ciphertext[0] ^= 1;
        assert_eq!(
            open_pull(&response, &key).unwrap_err(),
            PullError::IntegrityFailure
        );
    }

    #[test]
    fn ciphertext_hides_content() {
        let (store, doc) = setup();
        let server = PullServer {
            store: &store,
            engine: PolicyEngine::default(),
            doc_name: "h.xml".into(),
            doc: &doc,
        };
        let response = server.serve(&SubjectProfile::new("doctor"), &[9u8; 32], [2u8; 12]);
        assert!(!String::from_utf8_lossy(&response.ciphertext).contains("Alice"));
        assert!(response.size_bytes() > 44);
    }
}
