//! # websec-uddi
//!
//! A UDDI-style registry (§2.2 of the paper) with the security machinery of
//! §4.1: "an UDDI registry is a collection of entry, each of one providing
//! information on a specific web service. Each entry is in turn composed by
//! five main data structures — businessEntity, businessService,
//! bindingTemplate, publisherAssertion, and tModel."
//!
//! * [`model`] — the five data structures, with canonical XML renderings so
//!   entries plug into the workspace's XML security machinery.
//! * [`registry`] — the registry proper: publisher API plus the two inquiry
//!   families, "drill-down pattern inquiries (i.e., get_xxx API functions)"
//!   and "browse pattern inquiries (i.e., find_xxx API functions)", all
//!   flowing through one builder-style entry point
//!   ([`InquiryRequest`] → [`UddiRegistry::inquire`] → [`InquiryResponse`]);
//!   two-party deployments enforce access control with `websec-policy`
//!   ("an access control mechanism can be used to ensure that UDDI entries
//!   are accessed and modified only according to the specified policies").
//! * [`auth`] — the third-party deployment: an untrusted discovery agency
//!   serving entries authenticated by per-entry Merkle **summary
//!   signatures**, so "the requestor can locally recompute the same hash
//!   value signed by the service provider … and can thus verify whether the
//!   discovery agency has altered the content of the query answer".

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod auth;
pub mod model;
pub mod registry;

pub use auth::{ProviderId, ServiceProvider, UntrustedAgency, VerifiedEntry};
pub use model::{
    BindingTemplate, BusinessEntity, BusinessService, CategoryBag, KeyedReference,
    PublisherAssertion, TModel,
};
pub use registry::{
    BusinessOverview, FindQualifier, InquiryRequest, InquiryResponse, RegistryError,
    ServiceOverview, TModelOverview, UddiRegistry,
};
