//! Key derivation and distribution.
//!
//! The owner holds one master key per document; every region key is derived
//! from it with HKDF over the region's policy-set fingerprint, so the owner
//! stores O(1) key material per document no matter how many regions exist.
//! A subject receives the keys of exactly the regions containing at least
//! one authorization whose subject specification the subject satisfies —
//! "all and only the keys corresponding to the information it is entitled to
//! access" (§4.1).

use crate::region::{RegionId, RegionMap};
use std::collections::BTreeMap;
use websec_policy::{PolicyStore, SubjectProfile};

/// A 256-bit region key.
pub type RegionKey = [u8; 32];

/// The owner-side key authority for one document.
pub struct KeyAuthority {
    master: [u8; 32],
    document: String,
}

impl KeyAuthority {
    /// Creates an authority from a master key.
    #[must_use]
    pub fn new(document: &str, master: [u8; 32]) -> Self {
        KeyAuthority {
            master,
            document: document.to_string(),
        }
    }

    /// Derives the key for `region` of the partition `map`.
    ///
    /// The derivation context binds document name and the *policy set*, not
    /// the dense region id, so re-partitioning after unrelated policy churn
    /// keeps keys stable for unchanged regions.
    #[must_use]
    pub fn region_key(&self, map: &RegionMap, region: RegionId) -> RegionKey {
        let r = map
            .regions
            .iter()
            .find(|r| r.id == region)
            .expect("unknown region");
        let mut info = format!("websec-dissem:{}:", self.document).into_bytes();
        for p in &r.policies {
            info.extend_from_slice(&p.0.to_le_bytes());
        }
        let okm = websec_crypto::hkdf(b"region-key", &self.master, &info, 32);
        let mut key = [0u8; 32];
        key.copy_from_slice(&okm);
        key
    }

    /// Computes the keyring for `profile`: keys for every region granted to
    /// it by at least one of its satisfying authorizations
    /// ([`crate::Region::granted_to`]).
    #[must_use]
    pub fn keys_for(
        &self,
        store: &PolicyStore,
        map: &RegionMap,
        profile: &SubjectProfile,
    ) -> SubjectKeyring {
        let keys = map
            .regions
            .iter()
            .filter(|region| region.granted_to(store, profile))
            .map(|region| (region.id, self.region_key(map, region.id)))
            .collect();
        SubjectKeyring { keys }
    }
}

/// The keys one subject holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubjectKeyring {
    keys: BTreeMap<RegionId, RegionKey>,
}

impl SubjectKeyring {
    /// An empty keyring.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Key for `region`, if held.
    #[must_use]
    pub fn key(&self, region: RegionId) -> Option<&RegionKey> {
        self.keys.get(&region)
    }

    /// Number of keys held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Regions this keyring opens.
    pub fn regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.keys.keys().copied()
    }

    /// Inserts a key (used by tests and by external key escrow).
    pub fn insert(&mut self, region: RegionId, key: RegionKey) {
        self.keys.insert(region, key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::{Authorization, ObjectSpec, Privilege, SubjectSpec};
    use websec_xml::{Document, Path};

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
            "<hospital><patient><name>A</name></patient><admin><budget>1</budget></admin></hospital>",
        )
        .unwrap();
        (store, doc)
    }

    #[test]
    fn keys_only_for_entitled_regions() {
        let (store, doc) = setup();
        let map = RegionMap::build(&store, "h.xml", &doc);
        let ka = KeyAuthority::new("h.xml", [9u8; 32]);
        let doctor = ka.keys_for(&store, &map, &SubjectProfile::new("doctor"));
        let accountant = ka.keys_for(&store, &map, &SubjectProfile::new("accountant"));
        let stranger = ka.keys_for(&store, &map, &SubjectProfile::new("stranger"));
        assert_eq!(doctor.len(), 1);
        assert_eq!(accountant.len(), 1);
        assert!(stranger.is_empty());
        // Doctor and accountant hold different keys.
        let dr = doctor.regions().next().unwrap();
        let ar = accountant.regions().next().unwrap();
        assert_ne!(dr, ar);
    }

    #[test]
    fn region_keys_distinct_and_deterministic() {
        let (store, doc) = setup();
        let map = RegionMap::build(&store, "h.xml", &doc);
        let ka = KeyAuthority::new("h.xml", [9u8; 32]);
        let k0 = ka.region_key(&map, map.regions[0].id);
        let k1 = ka.region_key(&map, map.regions[1].id);
        assert_ne!(k0, k1);
        assert_eq!(k0, ka.region_key(&map, map.regions[0].id));
    }

    #[test]
    fn different_masters_different_keys() {
        let (store, doc) = setup();
        let map = RegionMap::build(&store, "h.xml", &doc);
        let a = KeyAuthority::new("h.xml", [1u8; 32]);
        let b = KeyAuthority::new("h.xml", [2u8; 32]);
        assert_ne!(
            a.region_key(&map, map.regions[0].id),
            b.region_key(&map, map.regions[0].id)
        );
    }

    #[test]
    fn key_stability_across_unrelated_policy_churn() {
        let (mut store, doc) = setup();
        let map1 = RegionMap::build(&store, "h.xml", &doc);
        let ka = KeyAuthority::new("h.xml", [7u8; 32]);
        // Find the patient region key before adding an unrelated policy.
        let patient_region_1 = map1
            .regions
            .iter()
            .find(|r| {
                r.records.iter().any(|rec| {
                matches!(rec, crate::region::NodeRecord::Element { name, .. } if name == "patient")
            })
            })
            .unwrap();
        let key_before = ka.region_key(&map1, patient_region_1.id);

        // Add a policy on a different subtree; the patient policy set is
        // unchanged, so its key must be too.
        store.add(
            Authorization::for_subject(SubjectSpec::Identity("auditor".into()))
                .on(ObjectSpec::Portion {
                    document: "h.xml".into(),
                    path: Path::parse("//admin").unwrap(),
                })
                .privilege(Privilege::Read)
                .grant(),
        );
        let map2 = RegionMap::build(&store, "h.xml", &doc);
        let patient_region_2 = map2
            .regions
            .iter()
            .find(|r| {
                r.records.iter().any(|rec| {
                matches!(rec, crate::region::NodeRecord::Element { name, .. } if name == "patient")
            })
            })
            .unwrap();
        let key_after = ka.region_key(&map2, patient_region_2.id);
        assert_eq!(key_before, key_after);
    }
}
