//! Static analysis for websec stacks.
//!
//! The analyzer inspects a configured policy/privacy/metadata stack *without
//! executing any query* and reports misconfigurations as [`Diagnostic`]s:
//!
//! | code  | pass                                                    |
//! |-------|---------------------------------------------------------|
//! | WS003 | MLS label flow analysis                                 |
//! | WS004 | privacy inference-channel detection (single table)      |
//! | WS005 | dangling reference check                                |
//! | WS006 | RDF schema-entailment label leak                        |
//! | WS007 | transitive privacy inference closure (cross-table)      |
//! | WS008 | dissemination key over-coverage                         |
//! | WS009 | role-hierarchy privilege-escalation cycle               |
//! | WS010 | declassification without a sanitizer                    |
//! | WS011 | UDDI binding without a signed tModel chain              |
//! | WS012 | dead credential type                                    |
//! | WS013 | compiled-plane rule shadowing (removal changes nothing) |
//! | WS014 | compiled-plane grant/deny conflict                      |
//! | WS015 | dead policy (matches nothing compiled)                  |
//! | WS016 | privilege escalation via role dominators                |
//! | WS017 | revocation gap through a role path                      |
//! | WS018 | inference channel via view composition                  |
//!
//! The [`Analyzer`] runs WS003–WS012, each a pure function over borrowed
//! stores; [`verify_policies`] runs WS013–WS018 over the compiled decision
//! tables, which no analyzer pass reads. Both aggregate their findings
//! into a [`Report`] with human-readable, line-oriented machine, and
//! stable-JSON output. Passes WS006–WS012 run over a unified
//! [`flow::FlowGraph`] — an interned graph of subjects, roles, credential
//! types, policy objects, RDF statements, privacy attributes, dissemination
//! regions, and UDDI entities, connected by typed edges (grants,
//! entailments, joins, key coverage) — with a worklist fixpoint engine for
//! reachability and cycle detection.
//!
//! For incremental re-analysis, every pass declares the input [`Section`]s
//! it reads via [`PassId::sections`]; a caller that knows which sections
//! changed can re-run only the affected passes through [`run_pass`] and
//! reuse cached diagnostics for the rest.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diagnostics;
pub mod flow;
pub mod passes;
pub mod policy_verify;
pub mod registry;

pub use diagnostics::{Diagnostic, Report, Severity};
pub use flow::{EdgeKind, FlowGraph, FlowNode};
pub use passes::{run_pass, Analyzer, AnalyzerInput, DissemInput, PassId, Section, UddiInput};
pub use policy_verify::{run_policy_pass, verify_policies, PolicyPassId, PolicyVerifyInput};
pub use registry::{lookup, CodeInfo, Phase, REGISTRY};
