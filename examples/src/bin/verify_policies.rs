//! CI gate: runs the static policy verifier (WS013–WS018) over sixteen
//! seed fixtures — one positive and one negative per finding kind — and
//! prints one stable JSON line per fixture.
//!
//! The output is deterministic (reports are normalized before printing),
//! so check.sh byte-diffs two consecutive runs and then diffs the result
//! against the committed `ANALYSIS_policy.json` baseline, exactly like
//! `LOCKORDER.json`. Each fixture is also self-verifying: the process
//! exits non-zero when a positive fixture misses its expected code or a
//! negative fixture emits it, so the baseline can never silently encode
//! a verifier that stopped finding (or started inventing) defects.
//!
//! Run with: `cargo run -p websec-examples --bin verify_policies`

use websec_core::analyzer::policy_verify::{verify_policies, PolicyVerifyInput};
use websec_core::analyzer::Report;
use websec_core::policy::{
    Authorization, ConflictStrategy, ObjectSpec, PolicySnapshot, PolicyStore, Privilege,
    Propagation, Role, SubjectSpec,
};
use websec_core::xml::{Document, DocumentStore, Path};

/// The fixture corpus: one hospital document shared by every fixture.
fn hospital_doc() -> Document {
    Document::parse(
        "<hospital><patient id=\"p1\" ssn=\"123\"><name>Ann</name><diagnosis>flu\
         </diagnosis></patient><admin><budget>100</budget></admin></hospital>",
    )
    .expect("fixture parses")
}

/// One self-verifying fixture: a policy store, a strategy, the findings
/// the verifier must emit, and those it must not. A finding is named by a
/// prefix of its machine line: a code, or a code, severity and span.
struct Fixture {
    name: &'static str,
    strategy: ConflictStrategy,
    store: PolicyStore,
    expect: &'static [&'static str],
    absent: &'static [&'static str],
}

fn portion(doc: &str, path: &str) -> ObjectSpec {
    ObjectSpec::Portion {
        document: doc.into(),
        path: Path::parse(path).expect("valid fixture path"),
    }
}

fn anyone_read(object: ObjectSpec) -> Authorization {
    Authorization::for_subject(SubjectSpec::Anyone)
        .on(object)
        .privilege(Privilege::Read)
        .grant()
}

fn fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();

    // WS013 shadowing: under deny/permit-precedence strategies the broad
    // document grant resolves every element the finer portion grant
    // covers, making the portion rule unreachable...
    let mut shadowed = PolicyStore::new();
    shadowed.add(anyone_read(ObjectSpec::Document("h.xml".into())));
    shadowed.add(anyone_read(portion("h.xml", "//patient")));
    out.push(Fixture {
        name: "ws013_shadowed_portion",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: shadowed.clone(),
        expect: &["WS013"],
        absent: &[],
    });
    // ...while most-specific-object resolution lets the finer rule win
    // its own ties, so nothing is shadowed.
    out.push(Fixture {
        name: "ws013_most_specific_keeps_portion",
        strategy: ConflictStrategy::MostSpecificObject,
        store: shadowed,
        expect: &[],
        absent: &["WS013"],
    });

    // WS013 across signs: a blanket Browse denial (which blocks every
    // privilege) covers everything a narrower Read grant does, and under
    // deny-precedence it wins wherever both apply, so the grant never
    // decides...
    let mut overruled = PolicyStore::new();
    overruled.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Browse)
            .deny(),
    );
    overruled.add(
        Authorization::for_subject(SubjectSpec::Identity("bob".into()))
            .on(portion("h.xml", "//patient"))
            .privilege(Privilege::Read)
            .grant(),
    );
    out.push(Fixture {
        name: "ws013_broad_denial_shadows_grant",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: overruled.clone(),
        expect: &["WS013|warning|authorizations #0 and #1|"],
        absent: &[],
    });
    // ...while under permit-precedence the grant wins instead: it is the
    // denial that never decides (see the next pair).
    out.push(Fixture {
        name: "ws013_permit_precedence_keeps_grant",
        strategy: ConflictStrategy::PermissionsTakePrecedence,
        store: overruled,
        expect: &["WS013|warning|authorization #0|"],
        absent: &["WS013|warning|authorizations #0 and #1|"],
    });

    // WS013 for a beaten denial: eve's denial meets the staff grant (eve
    // may hold the role), and under permit-precedence every grant it can
    // meet overrides it; where no grant applies, the closed-world default
    // denies without it...
    let mut beaten = PolicyStore::new();
    beaten.add(
        Authorization::for_subject(SubjectSpec::Identity("eve".into()))
            .on(portion("h.xml", "//patient"))
            .privilege(Privilege::Read)
            .deny(),
    );
    beaten.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("staff")))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    out.push(Fixture {
        name: "ws013_denial_beaten_by_grant",
        strategy: ConflictStrategy::PermissionsTakePrecedence,
        store: beaten.clone(),
        expect: &["WS013|warning|authorization #0|"],
        absent: &[],
    });
    // ...while under deny-precedence it overrides the grant for a staff
    // member named eve, so it decides.
    out.push(Fixture {
        name: "ws013_denial_holds_under_deny_precedence",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: beaten,
        expect: &[],
        absent: &["WS013"],
    });

    // WS014 conflict: an equal-priority grant/deny pair on the same
    // element under explicit-priority resolution is an unresolvable tie
    // (error severity)...
    let mut tied = PolicyStore::new();
    tied.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .priority(3)
            .grant(),
    );
    tied.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .priority(3)
            .deny(),
    );
    out.push(Fixture {
        name: "ws014_equal_priority_tie",
        strategy: ConflictStrategy::ExplicitPriority,
        store: tied,
        expect: &["WS014"],
        absent: &[],
    });
    // ...while disjoint identities never meet on a subject, so the same
    // grant/deny shape is conflict-free.
    let mut disjoint = PolicyStore::new();
    disjoint.add(
        Authorization::for_subject(SubjectSpec::Identity("ann".into()))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    disjoint.add(
        Authorization::for_subject(SubjectSpec::Identity("bob".into()))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .deny(),
    );
    out.push(Fixture {
        name: "ws014_disjoint_identities",
        strategy: ConflictStrategy::ExplicitPriority,
        store: disjoint,
        expect: &[],
        absent: &["WS014"],
    });

    // WS015 dead policy: a rule naming a document no store serves covers
    // no compiled element...
    let mut ghost = PolicyStore::new();
    ghost.add(anyone_read(ObjectSpec::Document("ghost.xml".into())));
    ghost.add(anyone_read(ObjectSpec::Document("h.xml".into())));
    out.push(Fixture {
        name: "ws015_ghost_document",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: ghost,
        expect: &["WS015"],
        absent: &[],
    });
    // ...and a store where every rule touches real elements is clean.
    let mut live = PolicyStore::new();
    live.add(anyone_read(ObjectSpec::Document("h.xml".into())));
    out.push(Fixture {
        name: "ws015_all_rules_live",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: live,
        expect: &[],
        absent: &["WS015"],
    });

    // WS016 escalation chain: the chief dominates the intern, the intern
    // is granted what the chief is denied — under permit-precedence the
    // inherited grant overrides the direct denial...
    let mut escalation = PolicyStore::new();
    escalation
        .hierarchy
        .add_seniority(Role::new("chief"), Role::new("intern"));
    escalation.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("intern")))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    escalation.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("chief")))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .deny(),
    );
    out.push(Fixture {
        name: "ws016_dominator_escalates",
        strategy: ConflictStrategy::PermissionsTakePrecedence,
        store: escalation.clone(),
        expect: &["WS016"],
        absent: &[],
    });
    // ...while deny-precedence closes the chain (the oracle confirms the
    // chief really is denied, so no finding).
    out.push(Fixture {
        name: "ws016_deny_precedence_closes_chain",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: escalation,
        expect: &[],
        absent: &["WS016"],
    });

    // WS017 revocation gap: eve is revoked by identity but holds the
    // staff role, and permit-precedence lets the role grant reopen what
    // the revocation closed...
    let mut gap = PolicyStore::new();
    gap.add(
        Authorization::for_subject(SubjectSpec::Identity("eve".into()))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .deny(),
    );
    gap.add(
        Authorization::for_subject(SubjectSpec::InRole(Role::new("staff")))
            .on(ObjectSpec::Document("h.xml".into()))
            .privilege(Privilege::Read)
            .grant(),
    );
    out.push(Fixture {
        name: "ws017_role_reopens_revocation",
        strategy: ConflictStrategy::PermissionsTakePrecedence,
        store: gap.clone(),
        expect: &["WS017"],
        absent: &[],
    });
    // ...while deny-precedence keeps the revocation airtight.
    out.push(Fixture {
        name: "ws017_deny_precedence_holds",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: gap,
        expect: &[],
        absent: &["WS017"],
    });

    // WS018 inference channel: denying /hospital/admin without cascade
    // leaves every admin child readable, so the denied element's content
    // is fully reconstructible from permitted views...
    let mut channel = PolicyStore::new();
    channel.add(anyone_read(ObjectSpec::Document("h.xml".into())));
    channel.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(portion("h.xml", "/hospital/admin"))
            .privilege(Privilege::Read)
            .deny()
            .with_propagation(Propagation::None),
    );
    out.push(Fixture {
        name: "ws018_uncascaded_denial_leaks",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: channel,
        expect: &["WS018"],
        absent: &[],
    });
    // ...and cascading the denial closes the channel.
    let mut sealed = PolicyStore::new();
    sealed.add(anyone_read(ObjectSpec::Document("h.xml".into())));
    sealed.add(
        Authorization::for_subject(SubjectSpec::Anyone)
            .on(portion("h.xml", "/hospital/admin"))
            .privilege(Privilege::Read)
            .deny()
            .with_propagation(Propagation::Cascade),
    );
    out.push(Fixture {
        name: "ws018_cascaded_denial_sealed",
        strategy: ConflictStrategy::DenialsTakePrecedence,
        store: sealed,
        expect: &[],
        absent: &["WS018"],
    });

    out
}

fn has_finding(report: &Report, prefix: &str) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.machine_line().starts_with(prefix))
}

fn main() {
    let doc = hospital_doc();
    let mut documents = DocumentStore::new();
    documents.insert("h.xml", doc.clone());

    let mut failures = 0usize;
    for fixture in fixtures() {
        let compiled = PolicySnapshot::new(&fixture.store, fixture.strategy, &documents).compile();
        let input = PolicyVerifyInput::new(&compiled).with_document("h.xml", &doc);
        let report = verify_policies(&input);
        println!(
            "{{\"fixture\":\"{}\",\"policy_analysis\":{}}}",
            fixture.name,
            report.to_json()
        );
        for finding in fixture.expect {
            if !has_finding(&report, finding) {
                eprintln!("verify_policies: {} expected {finding}, not found", fixture.name);
                failures += 1;
            }
        }
        for finding in fixture.absent {
            if has_finding(&report, finding) {
                eprintln!("verify_policies: {} must not emit {finding}", fixture.name);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("verify_policies: {failures} fixture expectation(s) violated");
        std::process::exit(1);
    }
}
