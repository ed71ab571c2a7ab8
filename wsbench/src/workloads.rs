//! The four workloads: corpus, traffic, policy-change plan, and the oracle
//! every served outcome is checked against.
//!
//! Why each workload exists, and which layers it loads, is in `NOTES.md`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;
use websec_scenarios::corpus::{
    hospital_stack, large_store, large_store_profiles, HospitalSpec, LargeStoreSpec,
};
use websec_scenarios::recipe::{Pick, Recipe};

use crate::load::{fnv1a, poisson_schedule, shuffled, Outcome, Zipf};

/// Deployment master key of the generated large stores (the hospital
/// corpus carries its own, `[HospitalSpec::master_seed; 32]`).
const LARGE_STORE_KEY: [u8; 32] = [9; 32];

/// Every path a large-store rule targets; large-store reads draw from these.
const RULE_PATHS: [&str; 14] = [
    "//entry",
    "//meta",
    "//body",
    "/rec/body",
    "//ts",
    "//id",
    "/rec/meta",
    "//v0",
    "//v1",
    "//v2",
    "//v3",
    "//audit",
    "//sig",
    "/rec/audit/sig",
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated hospital reads: every session and view is reused.
    HotReads,
    /// Unique subjects over a 100k-document store: nothing is reused.
    ColdReads,
    /// Zipf reads over a 5k-document store while subjects are revoked.
    Revocations,
    /// Policy changes through the `Deny` analysis gate, with reads alongside.
    GatedUpdates,
}

/// How a workload's policy changes are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Closed loop for this share of every round, on the round's freshly
    /// set-up server, so the reading server never publishes.
    OnSetupServer(f64),
    /// Closed loop for this share of every round, on the reading server,
    /// after the round's slices.
    After(f64),
    /// Open loop at a fixed interval alongside every round's read slice.
    AlongsideEvery(Duration),
    /// This many changes in all, spread evenly between the rounds.
    Between(usize),
}

/// Fixed parameters of a workload.
///
/// A run is a sequence of short rounds. Each round serves an open-loop read
/// slice, then a closed-loop capacity slice, and makes its policy changes as
/// [`Pacing`] says, so that every figure is sampled all along the run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Length of one round, in seconds.
    pub round_s: f64,
    /// Share of `--seconds` the rounds take; changes made between rounds
    /// take the rest.
    pub rounds_share: f64,
    /// Offered open-loop read rate (reads per second of read slice).
    pub read_rate: f64,
    /// Share of a round for the open-loop read slice.
    pub read_share: f64,
    /// Share of a round for the closed-loop capacity slice.
    pub capacity_share: f64,
    /// Reads per `BatchRequest` in the capacity slices.
    pub capacity_batch: usize,
    /// Whether capacity reads may repeat (a pool is cycled) or must all be
    /// distinct (the pool bounds the slices).
    pub capacity_cycles: bool,
    /// Set-ups before the first round, besides a capacity server's; the
    /// first serves the oracle and the last is the reading server.
    pub setups: usize,
    /// Whether every round also times one set-up (stores that set up in
    /// milliseconds).
    pub setup_every_round: bool,
    /// The server's analysis gate.
    pub gate: AnalysisGate,
    /// Policy-change pacing.
    pub pacing: Pacing,
    /// Whether the analyzer is affordable on this store (traced run only).
    pub analysis_traced: bool,
    /// Snapshot clones the traced run times.
    pub clone_samples: usize,
}

impl Shape {
    /// Rounds in a run of `seconds`.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_share / self.round_s) as usize).max(2)
    }

    /// Whether capacity slices run on a server of their own: publications
    /// on the reading server would empty the caches a repeating pool is
    /// meant to reuse.
    pub fn capacity_server_apart(&self) -> bool {
        self.capacity_cycles && matches!(self.pacing, Pacing::After(_) | Pacing::AlongsideEvery(_))
    }
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [
        Kind::HotReads,
        Kind::ColdReads,
        Kind::Revocations,
        Kind::GatedUpdates,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotReads => "hot_reads",
            Kind::ColdReads => "cold_reads",
            Kind::Revocations => "revocations",
            Kind::GatedUpdates => "gated_updates",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's fixed parameters.
    pub fn shape(self) -> Shape {
        match self {
            Kind::HotReads => Shape {
                round_s: 0.5,
                rounds_share: 1.0,
                read_rate: 1000.0,
                read_share: 0.5,
                capacity_share: 0.25,
                capacity_batch: 64,
                capacity_cycles: true,
                setups: 2,
                setup_every_round: true,
                gate: AnalysisGate::Off,
                pacing: Pacing::OnSetupServer(0.25),
                analysis_traced: true,
                clone_samples: 20,
            },
            Kind::ColdReads => Shape {
                round_s: 0.5,
                rounds_share: 0.55,
                read_rate: 1000.0,
                read_share: 0.85,
                capacity_share: 0.15,
                capacity_batch: 64,
                capacity_cycles: false,
                setups: 3,
                setup_every_round: false,
                gate: AnalysisGate::Off,
                pacing: Pacing::Between(6),
                analysis_traced: false,
                clone_samples: 1,
            },
            Kind::Revocations => Shape {
                round_s: 0.5,
                rounds_share: 1.0,
                read_rate: 800.0,
                read_share: 0.75,
                capacity_share: 0.25,
                capacity_batch: 64,
                capacity_cycles: true,
                setups: 2,
                setup_every_round: false,
                gate: AnalysisGate::Off,
                pacing: Pacing::AlongsideEvery(Duration::from_millis(250)),
                analysis_traced: false,
                clone_samples: 5,
            },
            Kind::GatedUpdates => Shape {
                round_s: 0.5,
                rounds_share: 1.0,
                read_rate: 1000.0,
                read_share: 0.4,
                capacity_share: 0.2,
                capacity_batch: 64,
                capacity_cycles: true,
                setups: 2,
                setup_every_round: true,
                gate: AnalysisGate::Deny,
                pacing: Pacing::After(0.4),
                analysis_traced: true,
                clone_samples: 20,
            },
        }
    }

    fn large_spec(self) -> Option<LargeStoreSpec> {
        match self {
            Kind::ColdReads => Some(LargeStoreSpec::bench()),
            Kind::Revocations => Some(LargeStoreSpec {
                docs: 5_000,
                subjects: 500,
                specific_auths: 400,
            }),
            Kind::HotReads | Kind::GatedUpdates => None,
        }
    }

    /// The deployment master key the workload's stack is built with.
    pub fn master_key(self) -> [u8; 32] {
        match self.large_spec() {
            Some(_) => LARGE_STORE_KEY,
            None => [HospitalSpec::bench().master_seed; 32],
        }
    }
}

/// One read and what identifies it for the oracle.
#[derive(Debug, Clone)]
pub struct Read {
    /// The request as served.
    pub request: QueryRequest,
    /// FNV-1a of identity, document and path: equal keys, equal answers.
    pub key: u64,
}

impl Read {
    fn new(request: QueryRequest) -> Self {
        let path = request.query_path().map_or("", |p| p.source());
        let key = fnv1a(
            format!(
                "{}\u{1f}{}\u{1f}{path}",
                request.subject_profile().identity,
                request.doc_name()
            )
            .as_bytes(),
        );
        Read { request, key }
    }

    /// The requesting subject's identity.
    pub fn subject(&self) -> &str {
        &self.request.subject_profile().identity
    }
}

/// A policy change that one subject's reads can observe.
#[derive(Debug, Clone)]
pub struct Change {
    /// The only subject whose answers the change alters.
    pub subject: String,
    /// The authorizations the change removes (a revocation) or adds (a deny).
    pub auths: Vec<Authorization>,
    /// True when applying the change adds `auths`; false when it removes them.
    pub adds: bool,
}

/// One step of a policy-change plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Apply change `i`.
    Apply(usize),
    /// Undo change `i`, restoring the policy base.
    Undo(usize),
    /// The planted equal-priority grant/deny tie the `Deny` gate must
    /// reject with WS109 naming WS014.
    Tie,
}

impl Op {
    /// Whether the server must refuse this step.
    pub fn must_be_rejected(self) -> bool {
        self == Op::Tie
    }
}

/// Every input a run draws from its seed.
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Open-loop reads, in arrival order, round after round.
    pub reads: Vec<Read>,
    /// Their due times (ns after their round's read slice starts).
    pub due_ns: Vec<u64>,
    /// Index in `reads` of each round's first read, and of the end.
    pub slice_starts: Vec<usize>,
    /// Capacity-phase pool.
    pub pool: Vec<Read>,
    /// Reads served one by one after the last change.
    pub probes: Vec<Read>,
    /// Reads from subjects no other read has, for the traced run's one-read
    /// miss batches (`cold_reads` only).
    pub fresh: Vec<Read>,
    /// The changes the plan's steps refer to.
    pub changes: Vec<Change>,
    /// The steps, in order; a run uses a prefix.
    pub ops: Vec<Op>,
}

/// Builds a workload's stack. With `only`, a large store keeps just the
/// named documents (the oracle's variant servers need no more).
pub fn build_stack(kind: Kind, only: Option<&dyn Fn(&str) -> bool>) -> SecureWebStack {
    let Some(spec) = kind.large_spec() else {
        return hospital_stack(&HospitalSpec::bench());
    };
    let (store, mut docs, names) = large_store(&spec);
    let mut stack = SecureWebStack::new(LARGE_STORE_KEY);
    for name in &names {
        if only.is_some_and(|keep| !keep(name)) {
            continue;
        }
        let doc = docs.remove(name).expect("generated document");
        stack.add_document(name, doc, ContextLabel::fixed(Level::Unclassified));
    }
    stack.policies = store;
    stack
}

/// The server configuration of a workload: the defaults, plus its gate.
pub fn config(kind: Kind) -> ServerConfig {
    ServerConfig::new().analysis_gate(kind.shape().gate)
}

/// Times one set-up: corpus generation (parse and `add_document`) and
/// server construction (the initial compile). Returns the server and the
/// two durations in seconds.
pub fn set_up(kind: Kind) -> (StackServer, f64, f64) {
    let t = Instant::now();
    let stack = build_stack(kind, None);
    let corpus_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server = StackServer::with_config(stack, config(kind));
    (server, corpus_s, t.elapsed().as_secs_f64())
}

fn hospital_mix() -> Recipe {
    // The historical HospitalMix shares (i % 7 == 3 → probe, else
    // i % 5 == 1 → clerk): 24/35 patient reads, 6/35 clerk views, 5/35
    // secret probes, drawn per request instead of by position.
    Recipe::Mix(vec![
        (
            24,
            Recipe::PatientRead {
                subject: Pick::Uniform,
                patient: Pick::Uniform,
            },
        ),
        (
            6,
            Recipe::ClerkView {
                subject: Pick::Uniform,
            },
        ),
        (
            5,
            Recipe::SecretProbe {
                subject: Pick::Uniform,
            },
        ),
    ])
}

fn large_read(profile: &SubjectProfile, doc: &str, path: &str) -> Read {
    Read::new(
        QueryRequest::for_doc(doc)
            .path(Path::parse(path).expect("rule target path"))
            .subject(profile)
            .clearance(Clearance(Level::Unclassified)),
    )
}

/// Identity grants per subject in a large store's policy base.
fn identity_grants(store: &PolicyStore) -> HashMap<String, Vec<Authorization>> {
    let mut out: HashMap<String, Vec<Authorization>> = HashMap::new();
    for auth in store.authorizations() {
        if let (SubjectSpec::Identity(id), Sign::Plus) = (&auth.subject, auth.sign) {
            out.entry(id.clone()).or_default().push(auth.clone());
        }
    }
    out
}

fn granted_doc(auth: &Authorization) -> Option<&str> {
    match &auth.object {
        ObjectSpec::Portion { document, .. } => Some(document),
        _ => None,
    }
}

/// Draws every input of a run from `seed`; `stack` is a freshly built
/// copy of the workload's stack, read for its documents and grants.
pub fn plan(kind: Kind, seed: u64, seconds: f64, stack: &SecureWebStack) -> Plan {
    let shape = kind.shape();
    let rounds = shape.rounds(seconds);
    let mut rng = SecureRng::seeded(seed ^ fnv1a(kind.name().as_bytes()));
    let slice = Duration::from_secs_f64(shape.round_s * shape.read_share);
    let mut due_ns = Vec::new();
    let mut slice_starts = vec![0];
    for _ in 0..rounds {
        due_ns.extend(poisson_schedule(&mut rng, shape.read_rate, slice));
        slice_starts.push(due_ns.len());
    }
    let n = due_ns.len();
    // A cycled pool repeats; a distinct one must outlast ~30k reads/s.
    let pool_len = if shape.capacity_cycles {
        4096
    } else {
        (rounds as f64 * shape.round_s * shape.capacity_share * 30_000.0) as usize
    };
    let hospital = HospitalSpec::bench();
    let (reads, pool, probes, fresh, changes, ops) = match kind {
        Kind::HotReads | Kind::GatedUpdates => {
            let mix = hospital_mix();
            let reads = mix.generate(&hospital, n, &mut rng);
            let pool = mix.generate(&hospital, pool_len, &mut rng);
            let probes = mix.generate(&hospital, 64, &mut rng);
            let (changes, ops) = hospital_changes(kind, &hospital, &stack.policies, &mut rng);
            let wrap = |v: Vec<QueryRequest>| v.into_iter().map(Read::new).collect::<Vec<_>>();
            (
                wrap(reads),
                wrap(pool),
                wrap(probes),
                Vec::new(),
                changes,
                ops,
            )
        }
        Kind::ColdReads => {
            let spec = kind.large_spec().expect("large store");
            // Every read comes from a subject new to the run, profiled the
            // way `large_store_profiles` profiles subject i.
            let total = (n + pool_len + 16 + 400).max(spec.subjects);
            let profiles = large_store_profiles(&LargeStoreSpec {
                subjects: total,
                ..spec.clone()
            });
            let order = shuffled(total, &mut rng);
            let mut draw = |i: usize| {
                let doc = format!("r{}.xml", rng.gen_range(spec.docs as u64));
                let path = RULE_PATHS[rng.gen_range(RULE_PATHS.len() as u64) as usize];
                large_read(&profiles[i], &doc, path)
            };
            let reads: Vec<Read> = order[..n].iter().map(|&i| draw(i)).collect();
            let pool: Vec<Read> = order[n..n + pool_len].iter().map(|&i| draw(i)).collect();
            let unseen: Vec<Read> = order[n + pool_len..n + pool_len + 16]
                .iter()
                .map(|&i| draw(i))
                .collect();
            let fresh: Vec<Read> = order[n + pool_len + 16..n + pool_len + 416]
                .iter()
                .map(|&i| draw(i))
                .collect();
            let grants = identity_grants(&stack.policies);
            let mut revocable: Vec<&String> = grants.keys().collect();
            revocable.sort();
            let subject = revocable[rng.gen_range(revocable.len() as u64) as usize].clone();
            let index: usize = subject["subject-".len()..]
                .parse()
                .expect("generated identity");
            let profile = &profiles[index];
            // Probes: the revoked subject's granted documents, both granted
            // paths, plus other reads drawn like the open-loop ones.
            let mut probes: Vec<Read> = grants[&subject]
                .iter()
                .filter_map(granted_doc)
                .flat_map(|doc| ["//entry", "//meta"].map(|p| large_read(profile, doc, p)))
                .collect();
            probes.extend(unseen);
            let changes = vec![Change {
                subject: subject.clone(),
                auths: grants[&subject].clone(),
                adds: false,
            }];
            // Revoke and re-grant the same subject, over and over.
            let ops = (0..64)
                .map(|k| {
                    if k % 2 == 0 {
                        Op::Apply(0)
                    } else {
                        Op::Undo(0)
                    }
                })
                .collect();
            (reads, pool, probes, fresh, changes, ops)
        }
        Kind::Revocations => {
            let spec = kind.large_spec().expect("large store");
            let profiles = large_store_profiles(&spec);
            let names = stack.documents.names();
            let grants = identity_grants(&stack.policies);
            let subject_rank = shuffled(spec.subjects, &mut rng);
            let doc_rank = shuffled(spec.docs, &mut rng);
            let subjects = Zipf::new(spec.subjects);
            let docs = Zipf::new(spec.docs);
            let draw = |rng: &mut SecureRng| {
                let profile = &profiles[subject_rank[subjects.sample(rng)]];
                let own: Vec<&str> = grants
                    .get(&profile.identity)
                    .map(|v| v.iter().filter_map(granted_doc).collect())
                    .unwrap_or_default();
                let doc = if !own.is_empty() && rng.gen_range(4) != 0 {
                    own[rng.gen_range(own.len() as u64) as usize].to_string()
                } else {
                    names[doc_rank[docs.sample(rng)]].to_string()
                };
                let path = RULE_PATHS[rng.gen_range(RULE_PATHS.len() as u64) as usize];
                large_read(profile, &doc, path)
            };
            let reads: Vec<Read> = (0..n).map(|_| draw(&mut rng)).collect();
            let pool: Vec<Read> = (0..pool_len).map(|_| draw(&mut rng)).collect();
            let probes: Vec<Read> = (0..64).map(|_| draw(&mut rng)).collect();
            // Revocations target subjects with grants, skewed like the reads
            // so that revoked subjects keep being read.
            let mut changes = Vec::new();
            let mut index_of: HashMap<String, usize> = HashMap::new();
            let mut ops = Vec::new();
            while ops.len() < 2_000 {
                let profile = &profiles[subject_rank[subjects.sample(&mut rng)]];
                let Some(auths) = grants.get(&profile.identity) else {
                    continue;
                };
                let next = changes.len();
                let c = *index_of.entry(profile.identity.clone()).or_insert(next);
                if c == next {
                    changes.push(Change {
                        subject: profile.identity.clone(),
                        auths: auths.clone(),
                        adds: false,
                    });
                }
                ops.extend([Op::Apply(c), Op::Undo(c)]);
            }
            (reads, pool, probes, Vec::new(), changes, ops)
        }
    };
    Plan {
        kind,
        reads,
        due_ns,
        slice_starts,
        pool,
        probes,
        fresh,
        changes,
        ops,
    }
}

/// The hospital workloads' change plans. `hot_reads` revokes and re-grants
/// doctors; `gated_updates` also adds and removes a subject-specific deny,
/// and every eighth step is the planted tie.
fn hospital_changes(
    kind: Kind,
    spec: &HospitalSpec,
    policies: &PolicyStore,
    rng: &mut SecureRng,
) -> (Vec<Change>, Vec<Op>) {
    let grants = identity_grants(policies);
    let mut changes: Vec<Change> = (0..spec.granted)
        .map(|d| {
            let subject = spec.granted_subject(d);
            Change {
                auths: grants[&subject].clone(),
                subject,
                adds: false,
            }
        })
        .collect();
    let gated = kind == Kind::GatedUpdates;
    if gated {
        // A fixed pool of sixteen (doctor, patient) denies, drawn from the seed.
        for _ in 0..16 {
            let subject = spec.granted_subject(rng.gen_range(spec.granted as u64) as usize);
            let patient = rng.gen_range(spec.patients as u64);
            let deny = Authorization::for_subject(SubjectSpec::Identity(subject.clone()))
                .on(ObjectSpec::Portion {
                    document: "records.xml".into(),
                    path: Path::parse(&format!("//patient[@id='p{patient}']")).expect("valid path"),
                })
                .privilege(Privilege::Read)
                .deny();
            changes.push(Change {
                subject,
                auths: vec![deny],
                adds: true,
            });
        }
    }
    let mut ops = Vec::new();
    while ops.len() < 20_000 {
        let c = rng.gen_range(changes.len() as u64) as usize;
        for op in [Op::Apply(c), Op::Undo(c)] {
            if gated && ops.len() % 8 == 7 {
                ops.push(Op::Tie);
            }
            ops.push(op);
        }
    }
    (changes, ops)
}

/// Applies one plan step to a candidate stack.
pub fn apply(stack: &mut SecureWebStack, changes: &[Change], op: Op) {
    let (change, add) = match op {
        Op::Apply(c) => (&changes[c], changes[c].adds),
        Op::Undo(c) => (&changes[c], !changes[c].adds),
        Op::Tie => {
            stack.engine.strategy = ConflictStrategy::ExplicitPriority;
            for sign in [Sign::Plus, Sign::Minus] {
                stack.policies.add(
                    Authorization::for_subject(SubjectSpec::Anyone)
                        .on(ObjectSpec::Portion {
                            document: "records.xml".into(),
                            path: Path::parse("//patient").expect("valid path"),
                        })
                        .privilege(Privilege::Read)
                        .priority(3)
                        .sign(sign),
                );
            }
            return;
        }
    };
    if add {
        for auth in &change.auths {
            stack.policies.add(auth.clone());
        }
    } else {
        // At most one change is active at a time, so every identity rule of
        // this subject and sign belongs to it.
        let sign = change.auths[0].sign;
        stack.policies.revoke_matching(|a| {
            a.sign == sign
                && matches!(&a.subject, SubjectSpec::Identity(id) if *id == change.subject)
        });
    }
}

/// The change active after the first `k` steps, if any.
pub fn active_after(ops: &[Op], k: usize) -> Option<usize> {
    ops[..k].iter().rev().find_map(|op| match op {
        Op::Apply(c) => Some(Some(*c)),
        Op::Undo(_) => Some(None),
        Op::Tie => None,
    })?
}

/// Expected outcomes, from fault-free serial `serve()` calls on fresh
/// servers: one for the base policy, and one per variant for reads by a
/// subject a change affects.
pub struct Oracle {
    kind: Kind,
    base: HashMap<u64, Outcome>,
    variants: HashMap<usize, StackServer>,
    memo: HashMap<(u64, usize), Outcome>,
}

impl Oracle {
    /// Serves every read of the plan on `fresh` (a server nobody else has
    /// used) and keeps the outcomes.
    pub fn new(plan: &Plan, fresh: &StackServer) -> Self {
        let mut base = HashMap::new();
        for read in plan.reads.iter().chain(&plan.pool).chain(&plan.probes) {
            base.entry(read.key)
                .or_insert_with(|| Outcome::of(&fresh.serve(&read.request)));
        }
        Oracle {
            kind: plan.kind,
            base,
            variants: HashMap::new(),
            memo: HashMap::new(),
        }
    }

    /// What `read` must answer while `active` is the active change.
    pub fn expect(&mut self, plan: &Plan, read: &Read, active: Option<usize>) -> Outcome {
        let Some(c) = active.filter(|&c| plan.changes[c].subject == read.subject()) else {
            return self.base[&read.key];
        };
        // Identity revocations touch disjoint subjects, so one server with
        // all of them applied answers for any of them.
        let variant = if self.kind == Kind::Revocations { 0 } else { c };
        if let Some(hit) = self.memo.get(&(read.key, variant)) {
            return *hit;
        }
        let kind = self.kind;
        let server = self.variants.entry(variant).or_insert_with(|| {
            let mut stack = match kind {
                Kind::ColdReads => {
                    // Views are per document, so a store holding only the
                    // documents the changed subject's reads and the probes
                    // target answers them byte for byte.
                    let subject = plan.changes[c].subject.as_str();
                    let docs: Vec<&str> = plan
                        .reads
                        .iter()
                        .chain(&plan.pool)
                        .filter(|r| r.subject() == subject)
                        .chain(&plan.probes)
                        .map(|r| r.request.doc_name())
                        .collect();
                    build_stack(kind, Some(&|name: &str| docs.contains(&name)))
                }
                _ => build_stack(kind, None),
            };
            if kind == Kind::Revocations {
                for i in 0..plan.changes.len() {
                    apply(&mut stack, &plan.changes, Op::Apply(i));
                }
            } else {
                apply(&mut stack, &plan.changes, Op::Apply(c));
            }
            StackServer::with_config(stack, ServerConfig::new())
        });
        let outcome = Outcome::of(&server.serve(&read.request));
        self.memo.insert((read.key, variant), outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital_plan(kind: Kind, seed: u64) -> Plan {
        plan(kind, seed, 0.2, &build_stack(kind, None))
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        let dump = |p: &Plan| {
            let keys: Vec<u64> = p.reads.iter().chain(&p.pool).map(|r| r.key).collect();
            format!("{:?} {:?} {keys:?}", p.due_ns, p.ops)
        };
        for kind in [Kind::HotReads, Kind::GatedUpdates] {
            assert_eq!(dump(&hospital_plan(kind, 1)), dump(&hospital_plan(kind, 1)));
            assert_ne!(dump(&hospital_plan(kind, 1)), dump(&hospital_plan(kind, 2)));
        }
    }

    #[test]
    fn steps_alternate_so_at_most_one_change_is_active() {
        let p = hospital_plan(Kind::GatedUpdates, 3);
        assert_eq!(active_after(&p.ops, 0), None);
        let mut active = None;
        for (k, op) in p.ops.iter().enumerate().take(200) {
            match *op {
                Op::Apply(c) => {
                    assert_eq!(active, None, "step {k} applies over an active change");
                    active = Some(c);
                }
                Op::Undo(c) => {
                    assert_eq!(active, Some(c));
                    active = None;
                }
                Op::Tie => assert_eq!(k % 8, 7),
            }
            assert_eq!(active_after(&p.ops, k + 1), active);
        }
    }

    #[test]
    fn gated_plan_is_accepted_and_ties_rejected_by_the_deny_gate() {
        let p = hospital_plan(Kind::GatedUpdates, 5);
        let server = StackServer::with_config(
            build_stack(Kind::GatedUpdates, None),
            config(Kind::GatedUpdates),
        );
        for &op in p.ops.iter().take(24) {
            let result = server.try_update(|s| apply(s, &p.changes, op));
            match result {
                Ok(()) => assert!(!op.must_be_rejected(), "{op:?} accepted"),
                Err(e) => {
                    assert!(op.must_be_rejected(), "{op:?} rejected: {e}");
                    assert_eq!(e.code(), "WS109");
                    assert!(e.to_string().contains("WS014"));
                }
            }
        }
    }
}
