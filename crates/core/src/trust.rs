//! The trust layer (§5 of the paper).
//!
//! "Note that logic, proof and trust are at the highest layers of the
//! semantic web." Everything below this module verifies *signatures*; this
//! module answers the question those verifications defer: **whose keys do
//! we believe in the first place?**
//!
//! A [`TrustStore`] holds directly-trusted root keys (configured out of
//! band) and accepts further keys through signed [`Voucher`] chains: a
//! trusted introducer signs a statement binding a name to a key; the
//! vouched key may (up to a depth bound) introduce further keys. This is
//! the minimal web-of-trust needed for requestors to bootstrap provider
//! keys in the third-party UDDI architecture without a global PKI.

use std::collections::BTreeMap;
use websec_crypto::sig::{self, Keypair, PublicKey, SignError, Signature};

/// A signed introduction: `introducer` asserts that `subject_name`'s key
/// is `subject_key`.
#[derive(Debug, Clone)]
pub struct Voucher {
    /// Name of the introducing party (key looked up in the trust store or
    /// earlier in the chain).
    pub introducer: String,
    /// Name being introduced.
    pub subject_name: String,
    /// Key being introduced.
    pub subject_key: PublicKey,
    /// Signature over [`voucher_message`].
    pub signature: Signature,
}

/// The byte string an introducer signs.
#[must_use]
pub fn voucher_message(introducer: &str, subject_name: &str, subject_key: &PublicKey) -> Vec<u8> {
    let mut msg = b"websec-trust-voucher-v1:".to_vec();
    msg.extend_from_slice(&(introducer.len() as u32).to_le_bytes());
    msg.extend_from_slice(introducer.as_bytes());
    msg.extend_from_slice(&(subject_name.len() as u32).to_le_bytes());
    msg.extend_from_slice(subject_name.as_bytes());
    msg.extend_from_slice(&subject_key.root);
    msg.extend_from_slice(&(subject_key.n_keys as u64).to_le_bytes());
    msg
}

/// Issues a voucher: `introducer_keypair` signs the binding.
pub fn issue_voucher(
    introducer: &str,
    introducer_keypair: &mut Keypair,
    subject_name: &str,
    subject_key: PublicKey,
) -> Result<Voucher, SignError> {
    let msg = voucher_message(introducer, subject_name, &subject_key);
    Ok(Voucher {
        introducer: introducer.to_string(),
        subject_name: subject_name.to_string(),
        subject_key,
        signature: introducer_keypair.sign(&msg)?,
    })
}

/// Why a chain was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrustError {
    /// The chain's first introducer is not a trusted root.
    UntrustedRoot(String),
    /// A voucher signature failed under the introducer's (established) key.
    BadVoucher {
        /// The failing introducer.
        introducer: String,
    },
    /// A voucher's introducer does not match the previous link's subject.
    BrokenChain,
    /// The chain exceeds the configured depth bound.
    TooDeep {
        /// Configured maximum.
        max_depth: usize,
    },
    /// The chain does not terminate at the claimed name/key.
    WrongSubject,
}

impl std::fmt::Display for TrustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrustError::UntrustedRoot(r) => write!(f, "'{r}' is not a trusted root"),
            TrustError::BadVoucher { introducer } => {
                write!(f, "invalid voucher from '{introducer}'")
            }
            TrustError::BrokenChain => write!(f, "voucher chain is not contiguous"),
            TrustError::TooDeep { max_depth } => {
                write!(f, "chain exceeds maximum depth {max_depth}")
            }
            TrustError::WrongSubject => write!(f, "chain does not introduce the claimed subject"),
        }
    }
}

impl std::error::Error for TrustError {}

/// A requestor's trust configuration.
pub struct TrustStore {
    roots: BTreeMap<String, PublicKey>,
    /// Maximum voucher-chain length accepted.
    pub max_depth: usize,
}

impl TrustStore {
    /// Creates a store with the given chain-depth bound.
    #[must_use]
    pub fn new(max_depth: usize) -> Self {
        TrustStore {
            roots: BTreeMap::new(),
            max_depth,
        }
    }

    /// Directly trusts `name`'s key (out-of-band configuration).
    pub fn trust_root(&mut self, name: &str, key: PublicKey) {
        self.roots.insert(name.to_string(), key);
    }

    /// Is `key` directly trusted for `name`?
    #[must_use]
    pub fn is_root(&self, name: &str, key: &PublicKey) -> bool {
        self.roots.get(name).is_some_and(|k| k == key)
    }

    /// Validates that `chain` establishes `(subject_name, subject_key)`:
    /// the first voucher must come from a trusted root; every subsequent
    /// voucher must be signed by the previous link's subject; the final
    /// link must introduce the claimed subject. A directly-trusted subject
    /// needs no chain.
    pub fn establish(
        &self,
        subject_name: &str,
        subject_key: &PublicKey,
        chain: &[Voucher],
    ) -> Result<(), TrustError> {
        if self.is_root(subject_name, subject_key) {
            return Ok(());
        }
        if chain.is_empty() {
            return Err(TrustError::UntrustedRoot(subject_name.to_string()));
        }
        if chain.len() > self.max_depth {
            return Err(TrustError::TooDeep {
                max_depth: self.max_depth,
            });
        }
        // The first introducer must be a configured root.
        let first = &chain[0];
        let mut current_key = self
            .roots
            .get(&first.introducer)
            .ok_or_else(|| TrustError::UntrustedRoot(first.introducer.clone()))?
            .to_owned();
        let mut current_name = first.introducer.clone();

        for voucher in chain {
            if voucher.introducer != current_name {
                return Err(TrustError::BrokenChain);
            }
            let msg = voucher_message(
                &voucher.introducer,
                &voucher.subject_name,
                &voucher.subject_key,
            );
            if !sig::verify(&current_key, &msg, &voucher.signature) {
                return Err(TrustError::BadVoucher {
                    introducer: voucher.introducer.clone(),
                });
            }
            current_name = voucher.subject_name.clone();
            current_key = voucher.subject_key;
        }

        if current_name == subject_name && &current_key == subject_key {
            Ok(())
        } else {
            Err(TrustError::WrongSubject)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_crypto::SecureRng;

    fn keypair(seed: u64) -> Keypair {
        Keypair::generate(&mut SecureRng::seeded(seed), 2)
    }

    #[test]
    fn direct_root_trusted() {
        let kp = keypair(1);
        let mut store = TrustStore::new(3);
        store.trust_root("ca", kp.public_key());
        assert!(store.establish("ca", &kp.public_key(), &[]).is_ok());
    }

    #[test]
    fn unknown_subject_needs_chain() {
        let kp = keypair(2);
        let store = TrustStore::new(3);
        assert_eq!(
            store
                .establish("someone", &kp.public_key(), &[])
                .unwrap_err(),
            TrustError::UntrustedRoot("someone".into())
        );
    }

    #[test]
    fn single_hop_voucher() {
        let mut ca = keypair(3);
        let provider = keypair(4);
        let mut store = TrustStore::new(3);
        store.trust_root("ca", ca.public_key());
        let voucher = issue_voucher("ca", &mut ca, "acme", provider.public_key()).unwrap();
        assert!(store
            .establish("acme", &provider.public_key(), &[voucher])
            .is_ok());
    }

    #[test]
    fn two_hop_chain() {
        let mut ca = keypair(5);
        let mut intermediate = keypair(6);
        let provider = keypair(7);
        let mut store = TrustStore::new(3);
        store.trust_root("ca", ca.public_key());
        let v1 = issue_voucher("ca", &mut ca, "regional", intermediate.public_key()).unwrap();
        let v2 =
            issue_voucher("regional", &mut intermediate, "acme", provider.public_key()).unwrap();
        assert!(store
            .establish("acme", &provider.public_key(), &[v1, v2])
            .is_ok());
    }

    #[test]
    fn depth_bound_enforced() {
        let mut ca = keypair(8);
        let mut a = keypair(9);
        let mut b = keypair(10);
        let c = keypair(11);
        let mut store = TrustStore::new(2);
        store.trust_root("ca", ca.public_key());
        let v1 = issue_voucher("ca", &mut ca, "a", a.public_key()).unwrap();
        let v2 = issue_voucher("a", &mut a, "b", b.public_key()).unwrap();
        let v3 = issue_voucher("b", &mut b, "c", c.public_key()).unwrap();
        assert_eq!(
            store
                .establish("c", &c.public_key(), &[v1, v2, v3])
                .unwrap_err(),
            TrustError::TooDeep { max_depth: 2 }
        );
    }

    #[test]
    fn forged_voucher_rejected() {
        let mut ca = keypair(12);
        let mut rogue = keypair(13);
        let provider = keypair(14);
        let mut store = TrustStore::new(3);
        store.trust_root("ca", ca.public_key());
        // The rogue signs a voucher claiming to be the CA.
        let mut voucher = issue_voucher("ca", &mut rogue, "acme", provider.public_key()).unwrap();
        assert_eq!(
            store
                .establish("acme", &provider.public_key(), &[voucher.clone()])
                .unwrap_err(),
            TrustError::BadVoucher {
                introducer: "ca".into()
            }
        );
        // A genuine voucher for a *different* key also fails the claim.
        voucher = issue_voucher("ca", &mut ca, "acme", rogue.public_key()).unwrap();
        assert_eq!(
            store
                .establish("acme", &provider.public_key(), &[voucher])
                .unwrap_err(),
            TrustError::WrongSubject
        );
    }

    #[test]
    fn broken_chain_rejected() {
        let mut ca = keypair(15);
        let mut other = keypair(16);
        let provider = keypair(17);
        let mut store = TrustStore::new(3);
        store.trust_root("ca", ca.public_key());
        let v1 = issue_voucher("ca", &mut ca, "regional", other.public_key()).unwrap();
        // Second link claims a different introducer name than link 1's
        // subject.
        let v2 = issue_voucher("someone-else", &mut other, "acme", provider.public_key()).unwrap();
        assert_eq!(
            store
                .establish("acme", &provider.public_key(), &[v1, v2])
                .unwrap_err(),
            TrustError::BrokenChain
        );
    }
}
