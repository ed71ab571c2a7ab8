//! Metadata management for web databases (§2.1 of the paper).
//!
//! "Metadata describes all of the information pertaining to a data source.
//! This could include the various web sites, the types of users, access
//! control issues, and policies enforced. Where should the metadata be
//! located? Should each participating site maintain its own metadata?
//! Should the metadata be replicated or should there be a centralized
//! metadata repository?" — and: "We need efficient metadata management
//! techniques for the web as well as **use metadata to enhance security**."
//!
//! [`MetadataRepository`] implements the three placements the paper asks
//! about — centralized, per-site, replicated — behind one lookup API, with
//! probe counting (the efficiency question) and staleness detection for
//! replicas (the consistency cost of replication). Security enhancement:
//! lookups can be pre-filtered by clearance against the stored label, so a
//! subject never even learns of documents beyond its clearance.

use std::collections::BTreeMap;
use websec_policy::mls::{Clearance, ContextLabel, SecurityContext};

/// Metadata describing one document at one site.
#[derive(Debug, Clone)]
pub struct DocumentMeta {
    /// Document name.
    pub document: String,
    /// Hosting site.
    pub site: String,
    /// Content type (e.g. "xml", "rdf").
    pub content_type: String,
    /// Security label (metadata enhances security: pre-filtering).
    pub label: ContextLabel,
    /// Number of policies attached (advisory).
    pub policy_count: usize,
    /// Logical update epoch of this record.
    pub epoch: u64,
}

/// Placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// One central catalog.
    Centralized,
    /// Each site keeps only its own records; lookups probe every site.
    PerSite,
    /// Every site keeps a full copy, synchronized lazily.
    Replicated,
}

/// The repository, parameterized by placement.
pub struct MetadataRepository {
    placement: Placement,
    /// site → (document → meta). Centralized uses the synthetic site "".
    stores: BTreeMap<String, BTreeMap<String, DocumentMeta>>,
    sites: Vec<String>,
    master_epoch: u64,
    probes: u64,
}

impl MetadataRepository {
    /// Creates a repository over the given sites.
    #[must_use]
    pub fn new(placement: Placement, sites: &[&str]) -> Self {
        let mut stores = BTreeMap::new();
        match placement {
            Placement::Centralized => {
                stores.insert(String::new(), BTreeMap::new());
            }
            Placement::PerSite | Placement::Replicated => {
                for s in sites {
                    stores.insert((*s).to_string(), BTreeMap::new());
                }
            }
        }
        MetadataRepository {
            placement,
            stores,
            sites: sites.iter().map(|s| (*s).to_string()).collect(),
            master_epoch: 0,
            probes: 0,
        }
    }

    /// Registers (or updates) metadata. For replicated placement, only the
    /// *owning* site's replica is updated eagerly; others go stale until
    /// [`Self::sync`].
    pub fn register(&mut self, mut meta: DocumentMeta) {
        self.master_epoch += 1;
        meta.epoch = self.master_epoch;
        match self.placement {
            Placement::Centralized => {
                self.stores
                    .get_mut("")
                    .expect("central store")
                    .insert(meta.document.clone(), meta);
            }
            Placement::PerSite | Placement::Replicated => {
                let site = meta.site.clone();
                assert!(self.stores.contains_key(&site), "unknown site '{site}'");
                self.stores
                    .get_mut(&site)
                    .expect("site checked above")
                    .insert(meta.document.clone(), meta);
            }
        }
    }

    /// Propagates records to all replicas (replicated placement only).
    pub fn sync(&mut self) {
        if self.placement != Placement::Replicated {
            return;
        }
        // Gather the newest record per document across replicas.
        let mut newest: BTreeMap<String, DocumentMeta> = BTreeMap::new();
        for store in self.stores.values() {
            for meta in store.values() {
                let replace = newest
                    .get(&meta.document)
                    .is_none_or(|m| m.epoch < meta.epoch);
                if replace {
                    newest.insert(meta.document.clone(), meta.clone());
                }
            }
        }
        for store in self.stores.values_mut() {
            for meta in newest.values() {
                store.insert(meta.document.clone(), meta.clone());
            }
        }
    }

    /// Looks up a document's metadata, counting the site probes required.
    pub fn lookup(&mut self, document: &str) -> Option<DocumentMeta> {
        match self.placement {
            Placement::Centralized => {
                self.probes += 1;
                self.stores[""].get(document).cloned()
            }
            Placement::PerSite => {
                // Must probe sites until found (no routing knowledge).
                for site in &self.sites {
                    self.probes += 1;
                    if let Some(m) = self.stores[site].get(document) {
                        return Some(m.clone());
                    }
                }
                None
            }
            Placement::Replicated => {
                // Any single replica answers (probe the first site).
                self.probes += 1;
                let first = self.sites.first()?;
                self.stores[first].get(document).cloned()
            }
        }
    }

    /// Total probes performed so far (the efficiency metric).
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Documents whose replica record is stale (older than the master
    /// epoch of that document anywhere) — the consistency cost of
    /// replication.
    #[must_use]
    pub fn stale_replicas(&self) -> usize {
        if self.placement != Placement::Replicated {
            return 0;
        }
        let mut newest: BTreeMap<&str, u64> = BTreeMap::new();
        for store in self.stores.values() {
            for meta in store.values() {
                let e = newest.entry(meta.document.as_str()).or_insert(0);
                *e = (*e).max(meta.epoch);
            }
        }
        let mut stale = 0;
        for store in self.stores.values() {
            for meta in store.values() {
                if meta.epoch < newest[meta.document.as_str()] {
                    stale += 1;
                }
            }
            // Missing records count as stale too.
            stale += newest.len().saturating_sub(store.len());
        }
        stale
    }

    /// Security-enhancing lookup: only returns metadata the subject's
    /// clearance dominates — documents above clearance are invisible even
    /// as names ("use metadata to enhance security").
    pub fn lookup_cleared(
        &mut self,
        document: &str,
        clearance: Clearance,
        context: &SecurityContext,
    ) -> Option<DocumentMeta> {
        let meta = self.lookup(document)?;
        if meta.label.effective(context) <= clearance.0 {
            Some(meta)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websec_policy::mls::Level;

    fn meta(doc: &str, site: &str, level: Level) -> DocumentMeta {
        DocumentMeta {
            document: doc.to_string(),
            site: site.to_string(),
            content_type: "xml".into(),
            label: ContextLabel::fixed(level),
            policy_count: 3,
            epoch: 0,
        }
    }

    #[test]
    fn centralized_single_probe() {
        let mut repo = MetadataRepository::new(Placement::Centralized, &["a", "b", "c"]);
        repo.register(meta("d1", "a", Level::Unclassified));
        repo.register(meta("d2", "c", Level::Unclassified));
        assert!(repo.lookup("d2").is_some());
        assert_eq!(repo.probes(), 1);
    }

    #[test]
    fn per_site_probes_grow_with_sites() {
        let mut repo = MetadataRepository::new(Placement::PerSite, &["a", "b", "c"]);
        repo.register(meta("d1", "c", Level::Unclassified)); // lives at the last site
        assert!(repo.lookup("d1").is_some());
        assert_eq!(repo.probes(), 3); // probed a, b, then found at c
        assert!(repo.lookup("missing").is_none());
        assert_eq!(repo.probes(), 6);
    }

    #[test]
    fn replicated_single_probe_after_sync() {
        let mut repo = MetadataRepository::new(Placement::Replicated, &["a", "b"]);
        repo.register(meta("d1", "b", Level::Unclassified));
        // Before sync, replica "a" is stale/missing.
        assert_eq!(repo.stale_replicas(), 1);
        assert!(repo.lookup("d1").is_none()); // probed replica "a" only
        repo.sync();
        assert_eq!(repo.stale_replicas(), 0);
        assert!(repo.lookup("d1").is_some());
        assert_eq!(repo.probes(), 2); // one probe per lookup
    }

    #[test]
    fn replication_update_staleness() {
        let mut repo = MetadataRepository::new(Placement::Replicated, &["a", "b"]);
        repo.register(meta("d1", "a", Level::Unclassified));
        repo.sync();
        // Update at site a; replica b now stale.
        repo.register(meta("d1", "a", Level::Secret));
        assert_eq!(repo.stale_replicas(), 1);
        repo.sync();
        assert_eq!(repo.stale_replicas(), 0);
    }

    #[test]
    fn cleared_lookup_hides_classified() {
        let mut repo = MetadataRepository::new(Placement::Centralized, &[]);
        repo.register(meta("secret.xml", "a", Level::Secret));
        repo.register(meta("public.xml", "a", Level::Unclassified));
        let ctx = SecurityContext::new();
        let public = Clearance(Level::Unclassified);
        assert!(repo.lookup_cleared("public.xml", public, &ctx).is_some());
        assert!(repo.lookup_cleared("secret.xml", public, &ctx).is_none());
        assert!(repo
            .lookup_cleared("secret.xml", Clearance(Level::Secret), &ctx)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn per_site_requires_known_site() {
        let mut repo = MetadataRepository::new(Placement::PerSite, &["a"]);
        repo.register(meta("d1", "zz", Level::Unclassified));
    }
}
