//! The single source of truth for every stable `WSxxx` code.
//!
//! Codes are minted in three places — the static analyzer passes
//! (`WS0xx`, [`crate::passes`] and [`crate::policy_verify`]), the
//! serving layer's runtime error enum (`WS1xx`,
//! `websec_core::Error`), and the concurrency detector (`WS110`/
//! `WS111`, `websec_core::sync`). Before this registry each side kept
//! its own list and nothing failed when they drifted. Now both sides
//! assert against [`REGISTRY`]: the analyzer proves every pass code is
//! registered with the right phase, and the core crate proves every
//! `Error` variant's code is registered as [`Phase::Runtime`] — an
//! exhaustive match on the variant list means adding a code to one
//! side without the other fails a test, not a code review.

use crate::diagnostics::Severity;

/// Which layer of the stack emits a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Emitted by a static analyzer pass over configuration (WS0xx).
    Static,
    /// Emitted by the serving layer at request/update time (WS101–WS109).
    Runtime,
    /// Emitted by the lockdep/race detector (WS110/WS111).
    Concurrency,
}

/// Registry row: everything tooling needs to render or gate a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `"WS014"`.
    pub code: &'static str,
    /// The *maximum* severity the code is emitted at (several passes
    /// emit a lower severity for weaker variants of the same finding).
    pub severity: Severity,
    /// The emitting layer.
    pub phase: Phase,
    /// One-line human description.
    pub description: &'static str,
}

/// Every stable code, in code order.
pub const REGISTRY: &[CodeInfo] = &[
    CodeInfo {
        code: "WS003",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "MLS label flow: effective level varies across contexts",
    },
    CodeInfo {
        code: "WS004",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "privacy inference channel within a single table",
    },
    CodeInfo {
        code: "WS005",
        severity: Severity::Error,
        phase: Phase::Static,
        description: "dangling reference between configured stores",
    },
    CodeInfo {
        code: "WS006",
        severity: Severity::Error,
        phase: Phase::Static,
        description: "RDF schema-entailed triple below its premises' label",
    },
    CodeInfo {
        code: "WS007",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "cross-table privacy joinability closure",
    },
    CodeInfo {
        code: "WS008",
        severity: Severity::Error,
        phase: Phase::Static,
        description: "dissemination key over-coverage past entitlement",
    },
    CodeInfo {
        code: "WS009",
        severity: Severity::Error,
        phase: Phase::Static,
        description: "role-hierarchy privilege-escalation cycle",
    },
    CodeInfo {
        code: "WS010",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "context-label declassification without a sanitizer",
    },
    CodeInfo {
        code: "WS011",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "UDDI binding without a signed tModel chain",
    },
    CodeInfo {
        code: "WS012",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "credential type no enrolled profile can satisfy",
    },
    CodeInfo {
        code: "WS013",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "compiled-plane rule shadowing: removing the rule changes no decision",
    },
    CodeInfo {
        code: "WS014",
        severity: Severity::Error,
        phase: Phase::Static,
        description: "compiled-plane grant/deny conflict in one equivalence class or attribute",
    },
    CodeInfo {
        code: "WS015",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "dead policy: matches no element or attribute anywhere",
    },
    CodeInfo {
        code: "WS016",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "privilege escalation through the role-dominator closure",
    },
    CodeInfo {
        code: "WS017",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "revocation gap: revoked identity reachable via a role path",
    },
    CodeInfo {
        code: "WS018",
        severity: Severity::Warning,
        phase: Phase::Static,
        description: "inference channel: permitted views compose to denied content",
    },
    CodeInfo {
        code: "WS101",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "unknown document",
    },
    CodeInfo {
        code: "WS102",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "document label dominates the subject's clearance",
    },
    CodeInfo {
        code: "WS103",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "secure-channel transit failure",
    },
    CodeInfo {
        code: "WS104",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "strict boot gate found error findings",
    },
    CodeInfo {
        code: "WS105",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "malformed request",
    },
    CodeInfo {
        code: "WS106",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "shard poisoned / worker panicked (degraded)",
    },
    CodeInfo {
        code: "WS107",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "per-request deadline budget exhausted",
    },
    CodeInfo {
        code: "WS108",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "admission control shed the request",
    },
    CodeInfo {
        code: "WS109",
        severity: Severity::Error,
        phase: Phase::Runtime,
        description: "gated update introduced critical findings",
    },
    CodeInfo {
        code: "WS110",
        severity: Severity::Error,
        phase: Phase::Concurrency,
        description: "lock-order inversion (potential deadlock cycle)",
    },
    CodeInfo {
        code: "WS111",
        severity: Severity::Error,
        phase: Phase::Concurrency,
        description: "happens-before violation on a synchronizing atomic",
    },
];

/// Looks up a code's registry row.
#[must_use]
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|info| info.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::PassId;
    use crate::policy_verify::PolicyPassId;
    use std::collections::BTreeSet;

    #[test]
    fn registry_is_sorted_and_distinct() {
        let codes: Vec<&str> = REGISTRY.iter().map(|i| i.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "registry must be sorted with no duplicates");
    }

    /// Exhaustive parity between the registry's Static rows and the two
    /// pass enums. Adding a pass without a registry row (or vice versa)
    /// fails here; the `match`es below additionally fail to *compile*
    /// when a new `PassId`/`PolicyPassId` variant is added, forcing the
    /// author to look at this test.
    #[test]
    fn static_codes_match_the_pass_enums_exhaustively() {
        let mut from_passes = BTreeSet::new();
        for pass in PassId::ALL {
            // Exhaustive: new variants must be added here and registered.
            let code = match pass {
                PassId::Ws003 => "WS003",
                PassId::Ws004 => "WS004",
                PassId::Ws005 => "WS005",
                PassId::Ws006 => "WS006",
                PassId::Ws007 => "WS007",
                PassId::Ws008 => "WS008",
                PassId::Ws009 => "WS009",
                PassId::Ws010 => "WS010",
                PassId::Ws011 => "WS011",
                PassId::Ws012 => "WS012",
            };
            assert_eq!(code, pass.code());
            from_passes.insert(code);
        }
        for pass in PolicyPassId::ALL {
            let code = match pass {
                PolicyPassId::Ws013 => "WS013",
                PolicyPassId::Ws014 => "WS014",
                PolicyPassId::Ws015 => "WS015",
                PolicyPassId::Ws016 => "WS016",
                PolicyPassId::Ws017 => "WS017",
                PolicyPassId::Ws018 => "WS018",
            };
            assert_eq!(code, pass.code());
            from_passes.insert(code);
        }
        let registered: BTreeSet<&str> = REGISTRY
            .iter()
            .filter(|i| i.phase == Phase::Static)
            .map(|i| i.code)
            .collect();
        assert_eq!(registered, from_passes);
    }

    #[test]
    fn concurrency_codes_are_the_detector_pair() {
        let registered: BTreeSet<&str> = REGISTRY
            .iter()
            .filter(|i| i.phase == Phase::Concurrency)
            .map(|i| i.code)
            .collect();
        assert_eq!(registered, BTreeSet::from(["WS110", "WS111"]));
    }

    #[test]
    fn lookup_finds_rows_and_rejects_unknowns() {
        let info = lookup("WS014").expect("registered");
        assert_eq!(info.phase, Phase::Static);
        assert_eq!(info.severity, Severity::Error);
        assert!(lookup("WS999").is_none());
    }

    #[test]
    fn runtime_rows_are_the_ws1xx_block() {
        let runtime: Vec<&str> = REGISTRY
            .iter()
            .filter(|i| i.phase == Phase::Runtime)
            .map(|i| i.code)
            .collect();
        assert_eq!(
            runtime,
            vec!["WS101", "WS102", "WS103", "WS104", "WS105", "WS106", "WS107", "WS108", "WS109"]
        );
    }
}
