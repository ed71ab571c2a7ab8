//! Accounting invariants of [`MetricsSnapshot`]: the cache counters
//! partition the allowed requests exactly, every hit is an L2 hit, every
//! evaluation takes one session from the shared table, and the per-shard
//! [`ShardStats`] breakdown reconciles with the global counters — all
//! under a real 8-worker batch run.

use websec_core::policy::mls::ContextLabel;
use websec_core::prelude::*;

const SUBJECTS: usize = 16;
const PATIENTS: usize = 40;
const WORKERS: usize = 8;
const BATCH: usize = 512;

fn build_stack() -> SecureWebStack {
    let mut stack = SecureWebStack::new([5u8; 32]);
    let mut xml = String::from("<hospital>");
    for i in 0..PATIENTS {
        xml.push_str(&format!("<patient id=\"p{i}\"><record>r{i}</record></patient>"));
    }
    xml.push_str("</hospital>");
    stack.add_document(
        "records.xml",
        Document::parse(&xml).unwrap(),
        ContextLabel::fixed(Level::Unclassified),
    );
    stack.add_document(
        "secret.xml",
        Document::parse("<ops><plan>atlantis</plan></ops>").unwrap(),
        ContextLabel::fixed(Level::Secret),
    );
    for d in 0..SUBJECTS {
        stack.policies.add(Authorization::for_subject(SubjectSpec::Identity(format!("subject-{d}"))).on(ObjectSpec::Portion {
                document: "records.xml".into(),
                path: Path::parse("//patient").unwrap(),
            }).privilege(Privilege::Read).grant());
    }
    stack.policies.add(Authorization::for_subject(SubjectSpec::Anyone).on(ObjectSpec::Document("secret.xml".into())).privilege(Privilege::Read).grant());
    stack
}

/// Mixed workload: authorized queries (many per subject, so the L2 sees
/// hits), duplicates (coalescing), denials, and unknown documents.
fn build_requests(n: usize) -> Vec<QueryRequest> {
    (0..n)
        .map(|i| {
            let subject = SubjectProfile::new(&format!("subject-{}", i % SUBJECTS));
            if i % 9 == 4 {
                QueryRequest::for_doc("secret.xml")
                    .path(Path::parse("//plan").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else if i % 11 == 7 {
                QueryRequest::for_doc("missing.xml")
                    .path(Path::parse("//x").unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            } else {
                QueryRequest::for_doc("records.xml")
                    .path(Path::parse(&format!("//patient[@id='p{}']", i % PATIENTS)).unwrap())
                    .subject(&subject)
                    .clearance(Clearance(Level::Unclassified))
            }
        })
        .collect()
}

/// Every allowed response is served exactly one way — L2 hit, coalesced
/// onto another evaluation, or a fresh computation — so the three
/// counters must partition `allowed` with no request lost or
/// double-counted, across two 8-worker batches.
#[test]
fn cache_counters_partition_allowed_requests_exactly() {
    let server = StackServer::with_shards(build_stack(), 16);
    let batch = BatchRequest::new(build_requests(BATCH)).workers(WORKERS);
    let first = server.serve_batch(&batch);
    let second = server.serve_batch(&batch);
    assert_eq!(first.results.len(), BATCH);
    assert_eq!(second.results.len(), BATCH);
    // The per-batch stats agree with the global ledger: the two coalesced
    // tallies sum to the metrics counter checked below.
    let batch_coalesced = first.stats.coalesced + second.stats.coalesced;

    let m = server.metrics();
    assert_eq!(m.requests, 2 * BATCH as u64);
    assert_eq!(
        m.allowed + m.denied + m.errors,
        m.requests,
        "every request resolves to exactly one outcome \
         (allowed={}, denied={}, errors={}, requests={})",
        m.allowed,
        m.denied,
        m.errors,
        m.requests
    );
    assert_eq!(
        m.l2_hits + m.coalesced + m.cache_misses,
        m.allowed,
        "view lookups must partition the allowed requests \
         (l2={}, coalesced={}, misses={}, allowed={})",
        m.l2_hits,
        m.coalesced,
        m.cache_misses,
        m.allowed
    );
    assert_eq!(m.cache_hits, m.l2_hits, "every cache hit is an L2 hit");
    // The workload exercises every path: repeated subject/doc pairs hit
    // the L2, and exact duplicates coalesce.
    assert!(m.l2_hits > 0, "no L2 traffic across two batches");
    assert!(m.coalesced > 0, "duplicate requests never coalesced");
    assert_eq!(m.coalesced, batch_coalesced, "BatchStats disagrees with the ledger");
    assert!(m.cache_misses > 0, "cold views never computed");
    // Latency is recorded for exactly the allowed responses.
    assert_eq!(m.latency.count, m.allowed);
}

/// The per-shard breakdown reconciles with the globals: shard sums equal
/// the aggregate counters.
#[test]
fn per_shard_stats_sum_to_the_global_counters() {
    let server = StackServer::with_shards(build_stack(), 8);
    let batch = BatchRequest::new(build_requests(BATCH)).workers(WORKERS);
    let _ = server.serve_batch(&batch);
    let _ = server.serve_batch(&batch);

    let m = server.metrics();
    assert_eq!(m.per_shard.len(), 8);
    let sum = |f: fn(&ShardStats) -> u64| m.per_shard.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.sessions_open), m.sessions_open);
    assert_eq!(sum(|s| s.cached_views), m.cached_views);
    assert_eq!(sum(|s| s.session_lock_waits), m.session_lock_waits);
    assert_eq!(sum(|s| s.cache_lock_waits), m.cache_lock_waits);
    // One session per subject, hashed across shards.
    assert_eq!(m.sessions_open, SUBJECTS as u64);
    assert_eq!(m.sessions_established, SUBJECTS as u64);
    let used = m.per_shard.iter().filter(|s| s.sessions_open > 0).count();
    assert!(used > 1, "all {SUBJECTS} subjects clumped into one shard");
    // Shard indices are positional.
    for (i, shard) in m.per_shard.iter().enumerate() {
        assert_eq!(shard.shard, i);
    }
}

/// Single-request serves and batch serves feed the same accounting: a
/// serial tail after a batch keeps every identity intact.
#[test]
fn serial_and_batch_paths_share_one_ledger() {
    let server = StackServer::new(build_stack());
    let requests = build_requests(128);
    let _ = server.serve_batch(&BatchRequest::new(requests.clone()).workers(WORKERS));
    for request in requests.iter().take(32) {
        let _ = server.serve(request);
    }
    let m = server.metrics();
    assert_eq!(m.requests, 160);
    assert_eq!(m.allowed + m.denied + m.errors, m.requests);
    assert_eq!(m.l2_hits + m.coalesced + m.cache_misses, m.allowed);
    assert_eq!(m.cache_hits, m.l2_hits);
    assert_eq!(m.latency.count, m.allowed);
}

/// Batch and single-request serves take their sessions from the same
/// sharded table, so in a fault-free, deadline-free run every evaluation
/// is one handshake or one counted reuse: only coalesced followers and
/// shed requests skip the session.
#[test]
fn every_evaluation_establishes_or_reuses_one_session() {
    let server = StackServer::new(build_stack());
    let requests = build_requests(128);
    let _ = server.serve_batch(&BatchRequest::new(requests.clone()).workers(WORKERS));
    for request in requests.iter().take(32) {
        let _ = server.serve(request);
    }
    let m = server.metrics();
    assert_eq!(m.sessions_established, SUBJECTS as u64);
    assert_eq!(
        m.sessions_established + m.session_reuses,
        m.requests - m.coalesced - m.shed,
        "established={}, reused={}, requests={}, coalesced={}, shed={}",
        m.sessions_established,
        m.session_reuses,
        m.requests,
        m.coalesced,
        m.shed
    );
}
