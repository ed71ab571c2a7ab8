//! Conflict resolution between positive and negative authorizations.
//!
//! When several authorizations apply to the same (subject, node, privilege)
//! with different signs, a strategy decides the outcome. The strategies here
//! are the classical ones from the database-security literature the paper
//! builds on (Castano et al., *Database Security*, cited as \[6\]).

use crate::authz::{Authorization, Sign};

/// Available strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictStrategy {
    /// Any applicable denial wins (the safest default).
    #[default]
    DenialsTakePrecedence,
    /// Any applicable grant wins.
    PermissionsTakePrecedence,
    /// The authorization with the most specific subject spec wins; ties are
    /// broken by denials-take-precedence.
    MostSpecificSubject,
    /// The authorization with the finest-granularity object spec wins; ties
    /// are broken by denials-take-precedence.
    MostSpecificObject,
    /// The highest explicit priority wins; ties are broken by
    /// denials-take-precedence.
    ExplicitPriority,
}

impl ConflictStrategy {
    /// Resolves a non-empty set of applicable authorizations to a decision.
    /// Returns `None` when no authorization applies (the closed-policy
    /// default is then "deny", applied by the engine).
    #[must_use]
    pub fn resolve(self, applicable: &[&Authorization]) -> Option<Sign> {
        if applicable.is_empty() {
            return None;
        }
        let winner_sign = |auths: &[&Authorization]| {
            if auths.iter().any(|a| a.sign == Sign::Minus) {
                Sign::Minus
            } else {
                Sign::Plus
            }
        };
        Some(match self {
            ConflictStrategy::DenialsTakePrecedence => winner_sign(applicable),
            ConflictStrategy::PermissionsTakePrecedence => {
                if applicable.iter().any(|a| a.sign == Sign::Plus) {
                    Sign::Plus
                } else {
                    Sign::Minus
                }
            }
            ConflictStrategy::MostSpecificSubject => {
                let top = applicable
                    .iter()
                    .map(|a| a.subject.specificity())
                    .max()
                    .expect("non-empty");
                let best: Vec<&Authorization> = applicable
                    .iter()
                    .copied()
                    .filter(|a| a.subject.specificity() == top)
                    .collect();
                winner_sign(&best)
            }
            ConflictStrategy::MostSpecificObject => {
                let top = applicable
                    .iter()
                    .map(|a| a.object.granularity())
                    .max()
                    .expect("non-empty");
                let best: Vec<&Authorization> = applicable
                    .iter()
                    .copied()
                    .filter(|a| a.object.granularity() == top)
                    .collect();
                winner_sign(&best)
            }
            ConflictStrategy::ExplicitPriority => {
                let top = applicable
                    .iter()
                    .map(|a| a.priority)
                    .max()
                    .expect("non-empty");
                let best: Vec<&Authorization> = applicable
                    .iter()
                    .copied()
                    .filter(|a| a.priority == top)
                    .collect();
                winner_sign(&best)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{ObjectSpec, Privilege, SubjectSpec};
    use crate::subject::Role;

    fn grant_all(id: u32) -> Authorization {
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(id)
            .grant()
    }

    fn deny_identity(id: u32) -> Authorization {
        Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(id)
            .deny()
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(ConflictStrategy::default().resolve(&[]), None);
    }

    #[test]
    fn denials_take_precedence() {
        let g = grant_all(1);
        let d = deny_identity(2);
        let s = ConflictStrategy::DenialsTakePrecedence;
        assert_eq!(s.resolve(&[&g]), Some(Sign::Plus));
        assert_eq!(s.resolve(&[&g, &d]), Some(Sign::Minus));
    }

    #[test]
    fn permissions_take_precedence() {
        let g = grant_all(1);
        let d = deny_identity(2);
        let s = ConflictStrategy::PermissionsTakePrecedence;
        assert_eq!(s.resolve(&[&g, &d]), Some(Sign::Plus));
        assert_eq!(s.resolve(&[&d]), Some(Sign::Minus));
    }

    #[test]
    fn most_specific_subject() {
        // Identity-level denial beats role-level grant...
        let g = Authorization::for_subject(SubjectSpec::InRole(Role::new("doctor")))
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(1)
            .grant();
        let d = deny_identity(2);
        let s = ConflictStrategy::MostSpecificSubject;
        assert_eq!(s.resolve(&[&g, &d]), Some(Sign::Minus));
        // ...and an identity-level grant beats an anyone-level denial.
        let g2 = Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(3)
            .grant();
        let d2 = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(4)
            .deny();
        assert_eq!(s.resolve(&[&g2, &d2]), Some(Sign::Plus));
    }

    #[test]
    fn most_specific_subject_tie_denies() {
        let g = Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(1)
            .grant();
        let d = deny_identity(2);
        assert_eq!(
            ConflictStrategy::MostSpecificSubject.resolve(&[&g, &d]),
            Some(Sign::Minus)
        );
    }

    #[test]
    fn most_specific_object() {
        use websec_xml::Path;
        let doc_grant = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document("d".into()))
            .privilege(Privilege::Read)
            .id(1)
            .grant();
        let portion_deny = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Portion {
                document: "d".into(),
                path: Path::parse("/a/b").unwrap(),
            })
            .privilege(Privilege::Read)
            .id(2)
            .deny();
        assert_eq!(
            ConflictStrategy::MostSpecificObject.resolve(&[&doc_grant, &portion_deny]),
            Some(Sign::Minus)
        );
        // Finer grant beats coarser denial.
        let all_deny = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(3)
            .deny();
        let portion_grant = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Portion {
                document: "d".into(),
                path: Path::parse("/a").unwrap(),
            })
            .privilege(Privilege::Read)
            .id(4)
            .grant();
        assert_eq!(
            ConflictStrategy::MostSpecificObject.resolve(&[&all_deny, &portion_grant]),
            Some(Sign::Plus)
        );
    }

    #[test]
    fn explicit_priority() {
        let g = grant_all(1).with_priority(10);
        let d = deny_identity(2).with_priority(1);
        let s = ConflictStrategy::ExplicitPriority;
        assert_eq!(s.resolve(&[&g, &d]), Some(Sign::Plus));
        let d_hi = deny_identity(3).with_priority(20);
        assert_eq!(s.resolve(&[&g, &d_hi]), Some(Sign::Minus));
    }

    const ALL_STRATEGIES: [ConflictStrategy; 5] = [
        ConflictStrategy::DenialsTakePrecedence,
        ConflictStrategy::PermissionsTakePrecedence,
        ConflictStrategy::MostSpecificSubject,
        ConflictStrategy::MostSpecificObject,
        ConflictStrategy::ExplicitPriority,
    ];

    #[test]
    fn every_strategy_returns_none_only_on_empty() {
        let g = grant_all(1);
        for s in ALL_STRATEGIES {
            assert_eq!(s.resolve(&[]), None, "{s:?}");
            assert!(s.resolve(&[&g]).is_some(), "{s:?}");
        }
    }

    #[test]
    fn every_strategy_is_identity_on_singletons() {
        let g = grant_all(1);
        let d = deny_identity(2);
        for s in ALL_STRATEGIES {
            assert_eq!(s.resolve(&[&g]), Some(Sign::Plus), "{s:?}");
            assert_eq!(s.resolve(&[&d]), Some(Sign::Minus), "{s:?}");
        }
    }

    #[test]
    fn every_strategy_agrees_on_uniform_signs() {
        // With no sign mixture there is no conflict to resolve: the answer
        // is the common sign, whatever the strategy.
        let g1 = grant_all(1).with_priority(5);
        let g2 = Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::Document("d".into()))
            .privilege(Privilege::Read)
            .id(2)
            .grant();
        let d1 = deny_identity(3).with_priority(7);
        let d2 = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(4)
            .deny();
        for s in ALL_STRATEGIES {
            assert_eq!(s.resolve(&[&g1, &g2]), Some(Sign::Plus), "{s:?}");
            assert_eq!(s.resolve(&[&d1, &d2]), Some(Sign::Minus), "{s:?}");
        }
    }

    #[test]
    fn mixed_sign_matrix_across_strategies() {
        // One grant (specific subject, coarse object, high priority) against
        // one denial (generic subject, fine object, low priority): each
        // strategy picks its own winner.
        use websec_xml::Path;
        let g = Authorization::for_subject(SubjectSpec::Identity("alice".into()))
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(1)
            .grant()
            .with_priority(10);
        let d = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Portion {
                document: "d".into(),
                path: Path::parse("/a").unwrap(),
            })
            .privilege(Privilege::Read)
            .id(2)
            .deny()
            .with_priority(1);
        let expected = [
            (ConflictStrategy::DenialsTakePrecedence, Sign::Minus),
            (ConflictStrategy::PermissionsTakePrecedence, Sign::Plus),
            (ConflictStrategy::MostSpecificSubject, Sign::Plus),
            (ConflictStrategy::MostSpecificObject, Sign::Minus),
            (ConflictStrategy::ExplicitPriority, Sign::Plus),
        ];
        for (s, want) in expected {
            assert_eq!(s.resolve(&[&g, &d]), Some(want), "{s:?}");
            // Order of the applicable slice must not matter.
            assert_eq!(s.resolve(&[&d, &g]), Some(want), "{s:?} reversed");
        }
    }

    #[test]
    fn all_tiebreaks_fall_to_denial() {
        // Equal specificity / granularity / priority: every strategy that
        // compares them falls back to denials-take-precedence.
        let g = grant_all(1).with_priority(3);
        let d = Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::AllDocuments)
            .privilege(Privilege::Read)
            .id(2)
            .deny()
            .with_priority(3);
        for s in [
            ConflictStrategy::MostSpecificSubject,
            ConflictStrategy::MostSpecificObject,
            ConflictStrategy::ExplicitPriority,
        ] {
            assert_eq!(s.resolve(&[&g, &d]), Some(Sign::Minus), "{s:?}");
        }
    }
}
