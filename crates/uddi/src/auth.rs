//! Third-party deployment: an untrusted discovery agency serving entries
//! with Merkle-based authentication (the ICWS 2003 method, §4.1).
//!
//! "The approach requires that the service provider sends the discovery
//! agency a summary signature, generated using a technique based on Merkle
//! hash trees, for each entry it is entitled to manage. When a service
//! requestor queries the UDDI registry, the discovery agency sends it,
//! besides the query result, also the signatures of the entries on which
//! the enquiry is performed … the discovery agency sends the requestor a
//! set of additional hash values, referring to the missing portions, that
//! make it able to locally perform the computation of the summary
//! signature."
//!
//! The heavy lifting (leaf layout, multiproofs, client verification) is
//! reused from `websec-publish`; this module wires it to UDDI entries and
//! inquiry patterns.

use crate::model::BusinessEntity;
use crate::registry::{BusinessOverview, FindQualifier};
use std::collections::BTreeMap;
use websec_crypto::sig::PublicKey;
use websec_crypto::SecureRng;
use websec_publish::{verify_answer, Owner, Publisher, QueryAnswer, VerifyError};
use websec_xml::{Document, Path};

/// Identifier of a service provider (key-lookup handle for requestors).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub String);

/// A service provider: owns entries and signs their summaries.
pub struct ServiceProvider {
    /// Provider id.
    pub id: ProviderId,
    owner: Owner,
}

impl ServiceProvider {
    /// Creates a provider able to sign `2^height` entries.
    #[must_use]
    pub fn new(id: &str, rng: &mut SecureRng, height: u32) -> Self {
        ServiceProvider {
            id: ProviderId(id.to_string()),
            owner: Owner::new(rng, height),
        }
    }

    /// The provider's verification key (published out of band).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.owner.public_key()
    }

    /// Signs an entry and submits it to `agency`.
    pub fn publish_to(
        &mut self,
        agency: &mut UntrustedAgency,
        entity: &BusinessEntity,
    ) -> Result<(), websec_crypto::sig::SignError> {
        let doc = entity.to_document();
        let (auth, sig) = self.owner.publish(&entity.business_key, &doc)?;
        agency.host(self.id.clone(), entity.clone(), doc, auth, sig);
        Ok(())
    }
}

struct HostedEntry {
    provider: ProviderId,
    entity: BusinessEntity,
}

/// The untrusted discovery agency: hosts signed entries, answers inquiries
/// with verification objects, and **can** tamper (for experiments) — which
/// requestors then detect.
#[derive(Default)]
pub struct UntrustedAgency {
    publisher: Publisher,
    entries: BTreeMap<String, HostedEntry>,
}

impl UntrustedAgency {
    /// Creates an empty agency.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn host(
        &mut self,
        provider: ProviderId,
        entity: BusinessEntity,
        doc: Document,
        auth: websec_publish::AuthenticDocument,
        sig: websec_publish::SummarySignature,
    ) {
        let key = entity.business_key.clone();
        self.publisher.host(doc, auth, sig);
        self.entries.insert(key, HostedEntry { provider, entity });
    }

    /// Number of hosted entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are hosted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Browse inquiry: overview rows (unverified — requestors drill down to
    /// verify what they intend to use).
    #[must_use]
    pub fn find_business(&self, q: &FindQualifier) -> Vec<BusinessOverview> {
        self.entries
            .values()
            .filter(|e| match q {
                FindQualifier::NameApprox(prefix) => e
                    .entity
                    .name
                    .to_lowercase()
                    .starts_with(&prefix.to_lowercase()),
                FindQualifier::Category {
                    tmodel_key,
                    key_value,
                } => e
                    .entity
                    .category_bag
                    .iter()
                    .any(|kr| &kr.tmodel_key == tmodel_key && &kr.key_value == key_value),
                FindQualifier::UsesTModel(tk) => e.entity.services.iter().any(|s| {
                    s.binding_templates
                        .iter()
                        .any(|bt| bt.tmodel_keys.iter().any(|k| k == tk))
                }),
            })
            .map(|e| BusinessOverview {
                business_key: e.entity.business_key.clone(),
                name: e.entity.name.clone(),
            })
            .collect()
    }

    /// Provider of an entry (so the requestor knows whose key verifies it).
    #[must_use]
    pub fn provider_of(&self, business_key: &str) -> Option<&ProviderId> {
        self.entries.get(business_key).map(|e| &e.provider)
    }

    /// Drill-down with verification object: answers `path` over the entry
    /// document of `business_key`.
    #[must_use]
    pub fn get_detail(&self, business_key: &str, path: &Path) -> Option<QueryAnswer> {
        self.entries.get(business_key)?;
        self.publisher.answer(business_key, path)
    }

    /// **Verified browse**: like [`Self::find_business`], but every hit is
    /// accompanied by a verification object proving its advertised name
    /// against the provider's summary signature — so even the overview list
    /// cannot be silently rewritten by the agency.
    #[must_use]
    pub fn find_business_verified(
        &self,
        q: &FindQualifier,
    ) -> Vec<(BusinessOverview, QueryAnswer)> {
        let name_path = Path::parse("/businessEntity/name").expect("static path");
        self.find_business(q)
            .into_iter()
            .filter_map(|row| {
                let answer = self.publisher.answer(&row.business_key, &name_path)?;
                Some((row, answer))
            })
            .collect()
    }

    /// Mutable access to the underlying publisher — used by experiments to
    /// simulate a *malicious* agency (tampered answers).
    pub fn publisher_mut(&mut self) -> &mut Publisher {
        &mut self.publisher
    }
}

/// A verified drill-down result.
#[derive(Debug)]
pub struct VerifiedEntry {
    /// The authenticated (partial) entry document.
    pub view: Document,
    /// Business key.
    pub business_key: String,
}

/// Requestor-side verification of an agency answer against the provider's
/// public key.
pub fn verify_entry(
    answer: &QueryAnswer,
    provider_key: &PublicKey,
    business_key: &str,
    path: &Path,
) -> Result<VerifiedEntry, VerifyError> {
    let verified = verify_answer(answer, provider_key, business_key, path)?;
    Ok(VerifiedEntry {
        view: verified.view,
        business_key: business_key.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BindingTemplate, BusinessService};

    fn setup() -> (UntrustedAgency, ServiceProvider) {
        let mut rng = SecureRng::seeded(21);
        let mut provider = ServiceProvider::new("acme-corp", &mut rng, 3);
        let mut agency = UntrustedAgency::new();

        let mut be = BusinessEntity::new("biz-acme", "Acme Healthcare");
        let mut svc = BusinessService::new("svc-1", "Scheduling");
        svc.binding_templates.push(BindingTemplate {
            binding_key: "b1".into(),
            access_point: "https://acme.example/soap".into(),
            description: String::new(),
            tmodel_keys: vec![],
        });
        be.services.push(svc);
        provider.publish_to(&mut agency, &be).unwrap();
        (agency, provider)
    }

    #[test]
    fn publish_and_browse() {
        let (agency, _) = setup();
        assert_eq!(agency.len(), 1);
        let rows = agency.find_business(&FindQualifier::NameApprox("acme".into()));
        assert_eq!(rows.len(), 1);
        assert_eq!(
            agency.provider_of("biz-acme"),
            Some(&ProviderId("acme-corp".into()))
        );
    }

    #[test]
    fn verified_drilldown() {
        let (agency, provider) = setup();
        let path = Path::parse("/businessEntity").unwrap();
        let ans = agency.get_detail("biz-acme", &path).unwrap();
        let entry = verify_entry(&ans, &provider.public_key(), "biz-acme", &path).unwrap();
        let s = entry.view.to_xml_string();
        assert!(s.contains("Acme Healthcare"), "{s}");
        assert!(s.contains("accessPoint"), "{s}");
    }

    #[test]
    fn verified_partial_drilldown() {
        let (agency, provider) = setup();
        // Only the service names, not the bindings.
        let path = Path::parse("/businessEntity/businessServices/businessService/name").unwrap();
        let ans = agency.get_detail("biz-acme", &path).unwrap();
        let entry = verify_entry(&ans, &provider.public_key(), "biz-acme", &path).unwrap();
        let s = entry.view.to_xml_string();
        assert!(s.contains("Scheduling"), "{s}");
        assert!(!s.contains("accessPoint"), "{s}");
    }

    #[test]
    fn tampered_agency_detected() {
        let (agency, provider) = setup();
        let path = Path::parse("/businessEntity").unwrap();
        let mut ans = agency.get_detail("biz-acme", &path).unwrap();
        // The agency rewrites the access point to hijack traffic.
        for (summary, content) in &mut ans.revealed {
            let text = String::from_utf8_lossy(content);
            if text.contains("acme.example") {
                *content = text.replace("acme.example", "evil.example").into_bytes();
                let _ = summary; // hash left stale: detected as ContentMismatch
            }
        }
        let err = verify_entry(&ans, &provider.public_key(), "biz-acme", &path).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::ContentMismatch(_) | VerifyError::ProofInvalid
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_provider_key_rejected() {
        let (agency, _) = setup();
        let mut rng = SecureRng::seeded(22);
        let other = ServiceProvider::new("other", &mut rng, 2);
        let path = Path::parse("/businessEntity").unwrap();
        let ans = agency.get_detail("biz-acme", &path).unwrap();
        let err = verify_entry(&ans, &other.public_key(), "biz-acme", &path).unwrap_err();
        assert_eq!(err, VerifyError::SignatureInvalid);
    }

    #[test]
    fn unknown_entry_is_none() {
        let (agency, _) = setup();
        assert!(agency
            .get_detail("missing", &Path::parse("/businessEntity").unwrap())
            .is_none());
    }

    #[test]
    fn verified_browse_proves_names() {
        let (agency, provider) = setup();
        let hits = agency.find_business_verified(&FindQualifier::NameApprox("acme".into()));
        assert_eq!(hits.len(), 1);
        let (row, answer) = &hits[0];
        let name_path = Path::parse("/businessEntity/name").unwrap();
        let verified = verify_entry(
            answer,
            &provider.public_key(),
            &row.business_key,
            &name_path,
        )
        .expect("honest browse verifies");
        assert!(verified.view.to_xml_string().contains("Acme Healthcare"));
    }

    #[test]
    fn verified_browse_detects_renamed_overview() {
        let (agency, provider) = setup();
        let mut hits = agency.find_business_verified(&FindQualifier::NameApprox("acme".into()));
        let (row, answer) = &mut hits[0];
        // The agency rewrites the advertised name inside the proof payload.
        for (_, content) in &mut answer.revealed {
            let text = String::from_utf8_lossy(content).to_string();
            if text.contains("Acme") {
                *content = text.replace("Acme", "Evil").into_bytes();
            }
        }
        let name_path = Path::parse("/businessEntity/name").unwrap();
        assert!(verify_entry(
            answer,
            &provider.public_key(),
            &row.business_key,
            &name_path
        )
        .is_err());
    }

    #[test]
    fn multiple_providers_coexist() {
        let mut rng = SecureRng::seeded(23);
        let mut p1 = ServiceProvider::new("p1", &mut rng, 2);
        let mut p2 = ServiceProvider::new("p2", &mut rng, 2);
        let mut agency = UntrustedAgency::new();
        p1.publish_to(&mut agency, &BusinessEntity::new("b1", "One"))
            .unwrap();
        p2.publish_to(&mut agency, &BusinessEntity::new("b2", "Two"))
            .unwrap();
        assert_eq!(agency.len(), 2);
        // Each entry verifies only under its own provider's key.
        let path = Path::parse("/businessEntity").unwrap();
        let a1 = agency.get_detail("b1", &path).unwrap();
        assert!(verify_entry(&a1, &p1.public_key(), "b1", &path).is_ok());
        assert!(verify_entry(&a1, &p2.public_key(), "b1", &path).is_err());
    }
}
