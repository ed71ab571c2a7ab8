//! # websec-core
//!
//! The facade of the `websec` workspace: a from-scratch reproduction of the
//! systems inventoried in *Ferrari & Thuraisingham, "Security and Privacy
//! for Web Databases and Services", EDBT 2004*.
//!
//! Re-exports every subsystem crate and provides:
//!
//! * [`stack`] — the layered **secure semantic web stack** of §5 ("security
//!   cuts across all layers… one needs secure TCP/IP… next layer is XML…
//!   the next step is securing RDF"), with per-layer instrumentation (E12),
//!   split into mutable configuration and read-only evaluation;
//! * [`server`] — the **sharded concurrent serving layer**: per-subject
//!   channel sessions and a token-checked policy-view cache, both sharded
//!   by identity hash; lock-free batch execution
//!   ([`server::StackServer::serve_batch`] over a [`BatchRequest`]) with
//!   one shared claim cursor and precomputed request coalescing;
//!   observable through
//!   [`server::MetricsSnapshot`] and per-batch [`server::BatchStats`];
//! * [`request`] — the [`QueryRequest`]/[`QueryResponse`] API every query
//!   flows through;
//! * [`error`] — the unified [`Error`] with stable `WS1xx` codes;
//! * [`faults`] — deterministic **fault injection** ([`FaultPlan`] rules
//!   firing on seeded schedules at the channel/shard/cache/eval layers)
//!   plus client-facing resilience policies: [`RetryPolicy`] backoff over
//!   a logical clock, per-request deadline budgets (`WS107`), and
//!   admission-control load shedding (`WS108`);
//! * [`query`] — security-aware query processing (§3.1: "query processing
//!   algorithms may need to take into consideration the access control
//!   policies"): a query selects over the subject's authorized view and
//!   returns the readable nodes it matches;
//! * [`federation`] — secure interoperability of autonomous sites (§5),
//!   each enforcing its own policy base;
//! * [`metadata`] — the §2.1 metadata-placement question (centralized vs
//!   per-site vs replicated) with probe/staleness accounting, and
//!   clearance-filtered lookups ("use metadata to enhance security");
//! * [`trust`] — the §5 trust layer: voucher chains establishing provider
//!   keys from configured roots ("logic, proof and trust are at the
//!   highest layers of the semantic web");
//! * [`blobs`] — §2.1 multimedia/mass-storage integration: a
//!   content-addressed, sealed-at-rest blob store whose retrieval is gated
//!   by the XML-level access decision of the referencing element;
//! * [`hash`] — FNV-1a, the one non-cryptographic hash behind shard
//!   placement, retry backoff, fault schedules and scenario digests;
//! * [`sync`] — the **concurrency-correctness layer**: instrumented
//!   [`sync::TrackedMutex`]/[`sync::TrackedRwLock`]/`TrackedAtomic*`
//!   wrappers feeding a lockdep-style lock-order graph (`WS110`) and a
//!   vector-clock happens-before race checker (`WS111`), enabled via
//!   `WEBSEC_LOCKDEP=1` at effectively zero cost when off.
//!
//! ## Quick start
//!
//! ```
//! use websec_core::prelude::*;
//!
//! // A document, a credential-based policy, and a view.
//! let doc = Document::parse(
//!     "<hospital><patient id=\"p1\"><name>Alice</name></patient></hospital>",
//! ).unwrap();
//! let mut store = PolicyStore::new();
//! store.add(
//!     Authorization::for_subject(SubjectSpec::WithCredentials(
//!         CredentialExpr::OfType("physician".into()),
//!     ))
//!     .on(ObjectSpec::Document("h.xml".into()))
//!     .privilege(Privilege::Read)
//!     .grant(),
//! );
//! let engine = PolicyEngine::default();
//! let doctor = SubjectProfile::new("alice")
//!     .with_credential(Credential::new("physician", "alice"));
//! let view = engine.compute_view(&store, &doctor, "h.xml", &doc);
//! assert!(view.to_xml_string().contains("Alice"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blobs;
pub mod error;
pub mod faults;
pub mod federation;
pub mod hash;
pub mod metadata;
pub mod query;
pub mod request;
pub mod server;
pub mod stack;
pub mod sync;
pub mod trust;

pub use websec_analyzer as analyzer;
pub use websec_crypto as crypto;
pub use websec_dissem as dissem;
pub use websec_mining as mining;
pub use websec_policy as policy;
pub use websec_privacy as privacy;
pub use websec_publish as publish;
pub use websec_rdf as rdf;
pub use websec_services as services;
pub use websec_uddi as uddi;
pub use websec_xml as xml;

pub use blobs::{attach_blob, fetch_authorized, BlobError, BlobRef, BlobStore};
pub use error::Error;
pub use faults::{
    FaultInjector, FaultKind, FaultLayer, FaultPlan, FaultRule, FaultSchedule, RetryPolicy,
};
pub use federation::{FederatedHit, Federation, Site};
pub use hash::{fnv1a, FNV1A_START};
pub use metadata::{DocumentMeta, MetadataRepository, Placement};
pub use query::{SecureHit, SecureQueryProcessor};
pub use request::{BatchRequest, CacheStatus, Decision, QueryRequest, QueryResponse};
pub use server::{
    AnalysisGate, BatchResponse, BatchStats, LatencyHistogram, MetricsSnapshot, ServerConfig,
    ShardStats, StackServer,
};
pub use stack::{LayerTimings, SecureWebStack};
pub use sync::{
    lockdep_enabled, lockdep_findings, set_lockdep_enabled, SyncFinding, TrackedAtomicBool,
    TrackedAtomicU64, TrackedMutex, TrackedRwLock,
};
pub use trust::{issue_voucher, TrustError, TrustStore, Voucher};

/// Convenience glob import for examples and downstream users.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::faults::{
        FaultInjector, FaultKind, FaultLayer, FaultPlan, FaultRule, FaultSchedule, RetryPolicy,
    };
    pub use crate::federation::{FederatedHit, Federation, Site};
    pub use crate::query::SecureQueryProcessor;
    pub use crate::request::{BatchRequest, CacheStatus, Decision, QueryRequest, QueryResponse};
    pub use crate::server::{
        AnalysisGate, BatchResponse, BatchStats, LatencyHistogram, MetricsSnapshot, ServerConfig,
        ShardStats, StackServer,
    };
    pub use crate::stack::{LayerTimings, SecureWebStack};
    pub use crate::sync::{
        lockdep_enabled, lockdep_findings, set_lockdep_enabled, SyncFinding, TrackedAtomicBool,
        TrackedAtomicU64, TrackedMutex, TrackedRwLock,
    };
    pub use websec_analyzer::{
        Analyzer, AnalyzerInput, Diagnostic, DissemInput, PassId, Report, Section, Severity,
        UddiInput,
    };
    pub use websec_crypto::{
        sha256, wots_verify, ChaCha20, Keypair, MerkleTree, SecureRng, WotsKeypair,
    };
    pub use websec_dissem::{DissemPackage, KeyAuthority, RegionMap};
    pub use websec_mining::{
        gaussian_mixture, histogram, reconstruct_distribution, secure_sum, zipf_baskets, Apriori,
        DecisionTree, DistributedMiners, MaskedBaskets, NoiseModel, PrivacyMetric,
    };
    pub use websec_policy::{
        AccessDecision, AdministeredStore, Authorization, AuthorizationBuilder, Clearance,
        CompiledPolicies, ConflictStrategy, Credential, CredentialExpr, CredentialIssuer,
        FlexibleEnforcer, InvalidLevel, Level, ObjectSpec, PolicyEngine, PolicySnapshot,
        PolicyStore, Privilege, Propagation, Role, RoleHierarchy, SecurityContext, Sign,
        SubjectProfile, SubjectSpec,
    };
    pub use websec_privacy::{
        AggregateDecision, AggregateQuery, ConsentLedger, HistoryGranularity, InferenceController,
        PrivacyConstraint, PrivacyLevel, PrivacyPolicy, Query, QueryDecision, StatisticalGate,
        Table, UserPreferences, Value, WsaChecklist,
    };
    pub use websec_publish::{verify_answer, Owner, Publisher};
    pub use websec_rdf::{
        ClassAuthorization, ClassLabel, EnforcementMode, OntologyGuard, PatternTerm,
        RdfAuthorization, Schema, SecureStore, Term, Triple, TriplePattern, TripleStore,
    };
    pub use websec_services::{
        ChannelSession, Envelope, SecureChannel, ServiceDescription, ServiceHost, ServiceRequestor,
    };
    pub use websec_uddi::{
        BusinessEntity, BusinessService, FindQualifier, InquiryRequest, InquiryResponse,
        ServiceProvider, TModelOverview, UddiRegistry, UntrustedAgency,
    };
    pub use websec_xml::{
        Auction, AuctionState, Document, DocumentStore, Dtd, Path, VersionedStore,
    };
}
