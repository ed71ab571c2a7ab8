//! # websec-scenarios
//!
//! The declarative workload/scenario harness: the scenario space of the
//! secure serving stack (traffic mixes, subject/document skew, revocation
//! storms, UDDI churn, mining pipelines, adversarial replay/tamper, fault
//! plans) expressed as **plain data** instead of one-off benchmark
//! sections, and driven by a borealis-style orchestrator:
//!
//! * [`scenario`] — the [`Scenario`] data model: everything a run needs,
//!   declared as a value (and therefore diffable, fingerprintable, and
//!   replayable from its seed);
//! * [`recipe`] — composable enumo-style traffic generators: leaf request
//!   shapes combined with weighted [`Recipe::Mix`] / round-robin
//!   [`Recipe::Cycle`] combinators, all drawing from one seeded
//!   `SecureRng` stream so workloads are bit-reproducible;
//! * [`corpus`] — the shared store/stack generators (hospital stacks, the
//!   100k-document large store) previously duplicated between
//!   `serving_bench` and the integration tests;
//! * [`runner`] — executes one scenario against a `StackServer`: a serial
//!   fault-free oracle pass, a configured serial pass, a worker sweep, and
//!   the declared [`Invariant`] checks (byte-equivalence vs the oracle, no
//!   stale view past a committed revocation, `Err ∈ WS1xx`, …);
//! * [`cache`] — the FNV-1a fingerprint-keyed result cache over the
//!   `BENCH_scenarios.json` history: unchanged scenarios (same declared
//!   data, same workspace revision) skip re-runs;
//! * [`report`] — renders the history into a static, dependency-free HTML
//!   report (byte-stable for a fixed history);
//! * [`suite`] — the declared scenario suites (`smoke`, `full`) plus
//!   helpers for tests;
//! * [`orchestrator`] — the end-to-end driver used by the
//!   `websec-scenarios` binary and `check.sh`: cache lookups, runs,
//!   history appends, the trend gate (current vs median-of-history), and
//!   report rendering.
//!
//! ## Declaring and running a scenario
//!
//! ```
//! use websec_scenarios::prelude::*;
//!
//! let scenario = Scenario::named("doc_example", 7)
//!     .corpus(HospitalSpec::small())
//!     .traffic(Recipe::mixed_hospital())
//!     .requests(32)
//!     .workers(vec![2])
//!     .invariant(Invariant::SerialEquivalence)
//!     .invariant(Invariant::ErrorsAreWs1xx);
//! let run = run_scenario(&scenario, "example-rev");
//! assert!(run.result.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod corpus;
pub mod json;
pub mod orchestrator;
pub mod recipe;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod suite;

pub use cache::{History, TrendVerdict};
pub use corpus::{hospital_stack, large_store, large_store_profiles, HospitalSpec, LargeStoreSpec};
pub use json::Json;
pub use orchestrator::{run_suite, workspace_rev, SuiteEntry, SuiteOptions, SuiteSummary};
pub use recipe::{Pick, Recipe};
pub use runner::{run_scenario, PerfPoint, ScenarioPerf, ScenarioRun};
pub use scenario::{
    AdversarialSpec, CacheState, Invariant, MiningSpec, RevocationStorm, Scenario, ScenarioResult,
    UddiChurn, Warmup,
};

/// Convenience glob import mirroring `websec_core::prelude`.
pub mod prelude {
    pub use crate::cache::{History, TrendVerdict};
    pub use crate::corpus::{
        hospital_stack, large_store, large_store_profiles, HospitalSpec, LargeStoreSpec,
    };
    pub use crate::json::Json;
    pub use crate::orchestrator::{
        run_suite, workspace_rev, SuiteEntry, SuiteOptions, SuiteSummary,
    };
    pub use crate::recipe::{Pick, Recipe};
    pub use crate::report::render_report;
    pub use crate::runner::{run_scenario, PerfPoint, ScenarioPerf, ScenarioRun};
    pub use crate::scenario::{
        AdversarialSpec, CacheState, Invariant, MiningSpec, RevocationStorm, Scenario,
        ScenarioResult, UddiChurn, Warmup,
    };
    pub use crate::suite;
}
