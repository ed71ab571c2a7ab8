//! Instrumented synchronization primitives: a lockdep-style lock-order
//! graph and a vector-clock happens-before race checker.
//!
//! The serving engine's guarantees (no disclosure past a revocation, MLS
//! label monotonicity) assume a linearizable store; a lock-order inversion
//! or a relaxed-atomic race in the snapshot/shard/cache plumbing silently
//! voids them. This module provides drop-in wrappers — [`TrackedMutex`],
//! [`TrackedRwLock`], [`TrackedAtomicU64`] and friends — that behave
//! exactly like their `std::sync` counterparts but, when detection is
//! enabled, additionally feed two global checkers:
//!
//! * **Lock-order graph (WS110)** — every acquisition of lock class `C`
//!   while classes `[A, B]` are held records the directed edges `A → C`
//!   and `B → C` into a process-global graph. A cycle in that graph is a
//!   *potential* deadlock (kernel-lockdep style): it is reported as
//!   `WS110 LockOrderInversion` even when no deadlock occurred on this
//!   particular schedule, because some interleaving of the observed orders
//!   can deadlock. Classes are static strings fixed at construction
//!   (`"server.snapshot"`, `"server.session"`, …), so one report covers
//!   every instance of a shard or session lock.
//! * **Happens-before checker (WS111)** — per-thread vector clocks,
//!   advanced by lock release/acquire pairs and by `Release`-store /
//!   `Acquire`-load pairs on *synchronizing* atomics (the snapshot
//!   `generation`, the `faults_enabled` flag, the batch claim cursor). A `Relaxed` store to a
//!   synchronizing atomic, or a `Relaxed` load that is not
//!   happens-before-ordered with the atomic's latest store, is reported
//!   as `WS111 DataRace`.
//!
//! Atomics are constructed with a role: [`TrackedAtomicU64::counter`] for
//! monotonic statistics (never tracked — benign counter races are the
//! lint's domain, see the `relaxed-counter` rule of `websec-lint`), or
//! [`TrackedAtomicU64::synchronizing`] for atomics whose ordering other
//! memory depends on (always modeled when detection is on).
//!
//! # Enabling detection
//!
//! Detection is off by default and costs one relaxed atomic load per
//! operation (the `serving_bench` `lockdep` section gates this at ≤ 2% on
//! the parallel sweep). Enable it with the environment variable
//! `WEBSEC_LOCKDEP=1` (read once at first use) or programmatically via
//! [`set_lockdep_enabled`]. Findings accumulate process-globally, deduped
//! by normalized text so a vector fires exactly once; read them with
//! [`lockdep_findings`] and render the full graph with [`lockorder_json`]
//! (the deterministic `LOCKORDER.json` artifact byte-diffed by CI).
//!
//! # Model notes (intentional approximations)
//!
//! * Thread spawn/join edges are **not** modeled: cross-thread visibility
//!   must flow through a tracked release/acquire pair. A relaxed read
//!   that is only ordered by a `join()` is still reported — the ordering
//!   is incidental to the schedule, not guaranteed by the access pair.
//! * Read and write acquisitions of a [`TrackedRwLock`] share one lock
//!   class in the order graph (reader/writer cycles deadlock too), and
//!   both publish/join the class's release clock (conservative for the
//!   race checker: it can only under-report races through read locks,
//!   never invent one).
//! * Lockdep state is process-wide. Tests that assert exact findings
//!   should use unique class names and [`lockdep_reset`] in a dedicated
//!   test binary (see `tests/tests/lockdep.rs`).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{
    LockResult, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, TryLockError, TryLockResult,
};
use std::thread::ThreadId;

/// One deduplicated detector finding: a potential deadlock (`WS110`) or a
/// happens-before violation (`WS111`), with a normalized, schedule-stable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncFinding {
    /// Stable error code: `"WS110"` (lock-order inversion) or `"WS111"`
    /// (data race).
    pub code: &'static str,
    /// Normalized description (no thread ids, counts, or addresses — the
    /// same violation always renders the same text).
    pub message: String,
}

impl SyncFinding {
    /// `"WS110 lock-order inversion: a -> b -> a"`-style machine line.
    #[must_use]
    pub fn machine_line(&self) -> String {
        format!("{} {}", self.code, self.message)
    }
}

/// How a tracked atomic participates in the happens-before model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// A monotonic statistic: never modeled, even when detection is on.
    /// Relaxed races on counters are benign by construction; modeling
    /// them would serialize every hot counter through the global
    /// registry and drown real findings in noise.
    Counter,
    /// An atomic whose ordering other memory depends on (the snapshot
    /// generation, enable flags, the batch claim cursor). Always modeled when detection is on:
    /// stores must use `Release` (or stronger), cross-thread loads must
    /// use `Acquire` (or stronger) unless already ordered.
    Synchronizing,
}

// ---------------------------------------------------------------------------
// Global detector state
// ---------------------------------------------------------------------------

struct StoreEvent {
    /// Registry slot of the storing thread.
    thread: usize,
    /// The storing thread's vector clock at the store.
    clock: Vec<u64>,
}

struct AtomicState {
    /// Joined release clocks of every `Release`-or-stronger store.
    clock: Vec<u64>,
    last_store: Option<StoreEvent>,
}

#[derive(Default)]
struct Registry {
    /// `(held, acquired) -> times observed` over lock classes.
    edges: BTreeMap<(&'static str, &'static str), u64>,
    /// Per-class acquisition counts (lock classes only).
    acquisitions: BTreeMap<&'static str, u64>,
    /// Dedup key (`code:message`) → finding; BTreeMap keeps reporting
    /// order stable.
    findings: BTreeMap<String, SyncFinding>,
    /// Thread id → vector-clock slot.
    threads: HashMap<ThreadId, usize>,
    /// Per-slot vector clocks.
    clocks: Vec<Vec<u64>>,
    /// Per lock class: the joined clock published at every release.
    lock_clocks: HashMap<&'static str, Vec<u64>>,
    /// Per synchronizing-atomic instance.
    atomics: HashMap<u64, AtomicState>,
}

struct Detector {
    enabled: AtomicBool,
    registry: Mutex<Registry>,
}

static DETECTOR: OnceLock<Detector> = OnceLock::new();
/// Instance ids for synchronizing atomics (counter-role atomics get 0).
static NEXT_ATOMIC_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Lock classes currently held by this thread, in acquisition order.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn detector() -> &'static Detector {
    DETECTOR.get_or_init(|| Detector {
        enabled: AtomicBool::new(
            std::env::var("WEBSEC_LOCKDEP")
                .map(|v| v == "1")
                .unwrap_or(false),
        ),
        registry: Mutex::new(Registry::default()),
    })
}

/// Whether lockdep/race detection is currently enabled (one relaxed load —
/// this is the entire disabled-path cost of every tracked operation).
#[must_use]
pub fn lockdep_enabled() -> bool {
    detector().enabled.load(Ordering::Relaxed)
}

/// Programmatically enables or disables detection (the `WEBSEC_LOCKDEP=1`
/// environment variable sets the initial state; tests and the
/// `lockorder_dump` tool flip it explicitly).
pub fn set_lockdep_enabled(enabled: bool) {
    detector().enabled.store(enabled, Ordering::Relaxed);
}

fn registry() -> MutexGuard<'static, Registry> {
    detector()
        .registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The findings recorded so far, sorted by `(code, message)` and deduped
/// so one violation reports exactly once no matter how often it recurs.
#[must_use]
pub fn lockdep_findings() -> Vec<SyncFinding> {
    registry().findings.values().cloned().collect()
}

/// Clears the entire detector state: graph, acquisition counts, findings,
/// vector clocks. **Test/tooling only** — callers must be quiescent (no
/// other thread holding a tracked lock), otherwise later releases publish
/// clocks for classes the reset forgot (harmless but confusing).
pub fn lockdep_reset() {
    *registry() = Registry::default();
}

/// Elementwise max, growing `into` as needed.
fn vc_join(into: &mut Vec<u64>, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (slot, &v) in into.iter_mut().zip(other.iter()) {
        if *slot < v {
            *slot = v;
        }
    }
}

/// `a ≤ b` pointwise (missing components are 0).
fn vc_leq(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

impl Registry {
    /// The vector-clock slot of the current thread, allocating on first
    /// sight. `ThreadId`s are never reused within a process, so a slot
    /// uniquely names one thread for the registry's lifetime.
    fn slot(&mut self) -> usize {
        let id = std::thread::current().id();
        if let Some(&s) = self.threads.get(&id) {
            return s;
        }
        let s = self.clocks.len();
        self.threads.insert(id, s);
        let mut clock = vec![0; s + 1];
        clock[s] = 1;
        self.clocks.push(clock);
        s
    }

    fn report(&mut self, code: &'static str, message: String) {
        let key = format!("{code}:{message}");
        self.findings
            .entry(key)
            .or_insert(SyncFinding { code, message });
    }

    /// A path `from →* to` in the edge graph, if one exists (deterministic
    /// DFS over the sorted edge map).
    fn find_path(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
        let mut stack = vec![vec![from]];
        let mut visited = BTreeSet::new();
        visited.insert(from);
        while let Some(path) = stack.pop() {
            let last = *path.last().unwrap_or(&from);
            if last == to {
                return Some(path);
            }
            for &(a, b) in self.edges.keys() {
                if a == last && visited.insert(b) {
                    let mut next = path.clone();
                    next.push(b);
                    stack.push(next);
                }
            }
        }
        None
    }
}

/// Rotates `nodes` (a cycle without the closing repeat) so the
/// lexicographically smallest class leads, then renders
/// `"a -> b -> ... -> a"` — the same cycle always normalizes to the same
/// text regardless of which edge closed it.
fn normalize_cycle(mut nodes: Vec<&'static str>) -> String {
    if let Some(min_at) = nodes
        .iter()
        .enumerate()
        .min_by_key(|&(_, c)| *c)
        .map(|(i, _)| i)
    {
        nodes.rotate_left(min_at);
    }
    let mut out = String::new();
    for c in &nodes {
        let _ = write!(out, "{c} -> ");
    }
    let _ = write!(out, "{}", nodes.first().copied().unwrap_or("?"));
    out
}

/// Records the acquisition of `class` (edges from every held class, cycle
/// check on new edges) and pushes it onto the held stack. Called *before*
/// blocking on the inner lock so a real deadlock still leaves the edge in
/// the graph. Returns whether the acquisition was tracked.
fn before_lock(class: &'static str) -> bool {
    if !lockdep_enabled() {
        return false;
    }
    let held: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
    {
        let mut reg = registry();
        *reg.acquisitions.entry(class).or_insert(0) += 1;
        let mut seen = BTreeSet::new();
        for &h in &held {
            if !seen.insert(h) {
                continue;
            }
            if h == class {
                reg.report(
                    "WS110",
                    format!(
                        "lock-order inversion: {class} -> {class} (one thread acquired two \
                         locks of the same class; a second thread doing the same in the \
                         opposite instance order deadlocks)"
                    ),
                );
                continue;
            }
            let is_new = {
                let count = reg.edges.entry((h, class)).or_insert(0);
                *count += 1;
                *count == 1
            };
            if is_new {
                // The new edge h -> class closes a cycle iff class already
                // reaches h; the cycle is class ->* h -> class.
                if let Some(path) = reg.find_path(class, h) {
                    let message = format!("lock-order inversion: {}", normalize_cycle(path));
                    reg.report("WS110", message);
                }
            }
        }
    }
    HELD.with(|h| h.borrow_mut().push(class));
    true
}

/// Joins the class's release clock into the acquiring thread (the
/// happens-before edge from the previous holder). Called *after* the
/// inner lock succeeded.
fn after_lock(class: &'static str) {
    let mut reg = registry();
    let s = reg.slot();
    if let Some(clock) = reg.lock_clocks.get(class).cloned() {
        vc_join(&mut reg.clocks[s], &clock);
    }
}

/// Publishes the releasing thread's clock to the class and pops the held
/// stack. Driven by guard `Drop`, gated on the acquisition having been
/// tracked (so an enable-flag flip mid-hold cannot unbalance the stack).
fn on_release(class: &'static str) {
    {
        let mut reg = registry();
        let s = reg.slot();
        let clock = reg.clocks[s].clone();
        match reg.lock_clocks.entry(class) {
            std::collections::hash_map::Entry::Occupied(mut e) => vc_join(e.get_mut(), &clock),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(clock);
            }
        }
        reg.clocks[s][s] += 1;
    }
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(at) = held.iter().rposition(|&c| c == class) {
            held.remove(at);
        }
    });
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Models a store (or the store half of an RMW) to a synchronizing atomic.
fn on_sync_store(id: u64, class: &'static str, order: Ordering, rmw: bool) {
    if !lockdep_enabled() {
        return;
    }
    let mut reg = registry();
    let s = reg.slot();
    if rmw && is_acquire(order) {
        if let Some(clock) = reg.atomics.get(&id).map(|a| a.clock.clone()) {
            vc_join(&mut reg.clocks[s], &clock);
        }
    }
    let releasing = is_release(order);
    let clock = reg.clocks[s].clone();
    let state = reg.atomics.entry(id).or_insert(AtomicState {
        clock: Vec::new(),
        last_store: None,
    });
    if releasing {
        vc_join(&mut state.clock, &clock);
    }
    state.last_store = Some(StoreEvent { thread: s, clock });
    if !releasing {
        reg.report(
            "WS111",
            format!(
                "data race: relaxed store to synchronizing atomic '{class}' (publication \
                 requires Ordering::Release or stronger)"
            ),
        );
    }
    reg.clocks[s][s] += 1;
}

/// Models a load of a synchronizing atomic.
fn on_sync_load(id: u64, class: &'static str, order: Ordering) {
    if !lockdep_enabled() {
        return;
    }
    let mut reg = registry();
    let s = reg.slot();
    if is_acquire(order) {
        if let Some(clock) = reg.atomics.get(&id).map(|a| a.clock.clone()) {
            vc_join(&mut reg.clocks[s], &clock);
        }
        return;
    }
    let racy = reg
        .atomics
        .get(&id)
        .and_then(|a| a.last_store.as_ref())
        .is_some_and(|ev| ev.thread != s && !vc_leq(&ev.clock, &reg.clocks[s]));
    if racy {
        reg.report(
            "WS111",
            format!(
                "data race: relaxed load of synchronizing atomic '{class}' is not \
                 happens-before-ordered with its latest store (readers require \
                 Ordering::Acquire or stronger)"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic lock-order artifact (LOCKORDER.json)
// ---------------------------------------------------------------------------

/// Renders the current lock-order graph as deterministic JSON: the
/// normalized edge list (sorted `(from, to)` pairs with observation
/// counts), per-class acquisition counts, and the deduped findings. Under
/// a fixed serial workload (see the `lockorder_dump` tool) the output is
/// byte-identical across runs and machines, so CI byte-diffs it against
/// the committed `LOCKORDER.json` baseline.
#[must_use]
pub fn lockorder_json() -> String {
    let reg = registry();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"websec-lockorder-v1\",\n  \"classes\": [\n");
    let classes: Vec<String> = reg
        .acquisitions
        .iter()
        .map(|(class, count)| {
            format!("    {{ \"class\": \"{class}\", \"acquisitions\": {count} }}")
        })
        .collect();
    out.push_str(&classes.join(",\n"));
    if !classes.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"edges\": [\n");
    let edges: Vec<String> = reg
        .edges
        .iter()
        .map(|((from, to), count)| {
            format!("    {{ \"from\": \"{from}\", \"to\": \"{to}\", \"count\": {count} }}")
        })
        .collect();
    out.push_str(&edges.join(",\n"));
    if !edges.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"findings\": [\n");
    let findings: Vec<String> = reg
        .findings
        .values()
        .map(|f| format!("    \"{}\"", f.machine_line().replace('"', "'")))
        .collect();
    out.push_str(&findings.join(",\n"));
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// TrackedMutex
// ---------------------------------------------------------------------------

/// A [`std::sync::Mutex`] with a static lock class, feeding the lockdep
/// graph and the happens-before checker when detection is enabled. The
/// disabled path costs one relaxed atomic load per acquisition.
pub struct TrackedMutex<T> {
    class: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wraps `value` under lock class `class` (one class names every
    /// instance of a logical lock — e.g. all session-table shards share
    /// `"server.shard_map"`).
    pub fn new(class: &'static str, value: T) -> Self {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// The lock class this mutex was constructed under.
    #[must_use]
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// Blocking acquisition; same contract as [`std::sync::Mutex::lock`].
    pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
        let tracked = before_lock(self.class);
        let result = self.inner.lock();
        if tracked {
            after_lock(self.class);
        }
        match result {
            Ok(inner) => Ok(TrackedMutexGuard {
                inner,
                class: self.class,
                tracked,
            }),
            Err(poisoned) => Err(PoisonError::new(TrackedMutexGuard {
                inner: poisoned.into_inner(),
                class: self.class,
                tracked,
            })),
        }
    }

    /// Non-blocking acquisition; same contract as
    /// [`std::sync::Mutex::try_lock`]. A failed `try_lock` records
    /// nothing (it cannot block, so it adds no ordering constraint).
    pub fn try_lock(&self) -> TryLockResult<TrackedMutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(inner) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Ok(TrackedMutexGuard {
                    inner,
                    class: self.class,
                    tracked,
                })
            }
            Err(TryLockError::Poisoned(poisoned)) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Err(TryLockError::Poisoned(PoisonError::new(
                    TrackedMutexGuard {
                        inner: poisoned.into_inner(),
                        class: self.class,
                        tracked,
                    },
                )))
            }
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard of a [`TrackedMutex`]; releases the lock (and publishes the
/// release clock / pops the held stack when tracked) on drop.
pub struct TrackedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    class: &'static str,
    tracked: bool,
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            on_release(self.class);
        }
    }
}

// ---------------------------------------------------------------------------
// TrackedRwLock
// ---------------------------------------------------------------------------

/// A [`std::sync::RwLock`] with a static lock class. Read and write
/// acquisitions share the class in the order graph (reader/writer cycles
/// deadlock too); both publish and join the class's release clock.
pub struct TrackedRwLock<T> {
    class: &'static str,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Wraps `value` under lock class `class`.
    pub fn new(class: &'static str, value: T) -> Self {
        TrackedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }

    /// The lock class this lock was constructed under.
    #[must_use]
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// Shared acquisition; same contract as [`std::sync::RwLock::read`].
    pub fn read(&self) -> LockResult<TrackedReadGuard<'_, T>> {
        let tracked = before_lock(self.class);
        let result = self.inner.read();
        if tracked {
            after_lock(self.class);
        }
        match result {
            Ok(inner) => Ok(TrackedReadGuard {
                inner,
                class: self.class,
                tracked,
            }),
            Err(poisoned) => Err(PoisonError::new(TrackedReadGuard {
                inner: poisoned.into_inner(),
                class: self.class,
                tracked,
            })),
        }
    }

    /// Exclusive acquisition; same contract as
    /// [`std::sync::RwLock::write`].
    pub fn write(&self) -> LockResult<TrackedWriteGuard<'_, T>> {
        let tracked = before_lock(self.class);
        let result = self.inner.write();
        if tracked {
            after_lock(self.class);
        }
        match result {
            Ok(inner) => Ok(TrackedWriteGuard {
                inner,
                class: self.class,
                tracked,
            }),
            Err(poisoned) => Err(PoisonError::new(TrackedWriteGuard {
                inner: poisoned.into_inner(),
                class: self.class,
                tracked,
            })),
        }
    }

    /// Non-blocking shared acquisition; failures record nothing.
    pub fn try_read(&self) -> TryLockResult<TrackedReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(inner) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Ok(TrackedReadGuard {
                    inner,
                    class: self.class,
                    tracked,
                })
            }
            Err(TryLockError::Poisoned(poisoned)) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Err(TryLockError::Poisoned(PoisonError::new(TrackedReadGuard {
                    inner: poisoned.into_inner(),
                    class: self.class,
                    tracked,
                })))
            }
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }

    /// Non-blocking exclusive acquisition; failures record nothing.
    pub fn try_write(&self) -> TryLockResult<TrackedWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(inner) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Ok(TrackedWriteGuard {
                    inner,
                    class: self.class,
                    tracked,
                })
            }
            Err(TryLockError::Poisoned(poisoned)) => {
                let tracked = before_lock(self.class);
                if tracked {
                    after_lock(self.class);
                }
                Err(TryLockError::Poisoned(PoisonError::new(
                    TrackedWriteGuard {
                        inner: poisoned.into_inner(),
                        class: self.class,
                        tracked,
                    },
                )))
            }
            Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII shared guard of a [`TrackedRwLock`].
pub struct TrackedReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    class: &'static str,
    tracked: bool,
}

impl<T> std::ops::Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            on_release(self.class);
        }
    }
}

/// RAII exclusive guard of a [`TrackedRwLock`].
pub struct TrackedWriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    class: &'static str,
    tracked: bool,
}

impl<T> std::ops::Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            on_release(self.class);
        }
    }
}

// ---------------------------------------------------------------------------
// Tracked atomics
// ---------------------------------------------------------------------------

fn sync_atomic_id() -> u64 {
    NEXT_ATOMIC_ID.fetch_add(1, Ordering::Relaxed)
}

macro_rules! tracked_atomic {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $value:ty) => {
        $(#[$doc])*
        pub struct $name {
            class: &'static str,
            role: AtomicRole,
            /// Instance id in the happens-before model (0 for counters).
            id: u64,
            inner: $inner,
        }

        impl $name {
            /// A counter-role atomic: a monotonic statistic the detector
            /// never models (see [`AtomicRole::Counter`]).
            pub const fn counter(class: &'static str, value: $value) -> Self {
                $name {
                    class,
                    role: AtomicRole::Counter,
                    id: 0,
                    inner: <$inner>::new(value),
                }
            }

            /// A synchronizing-role atomic: modeled by the happens-before
            /// checker whenever detection is on (see
            /// [`AtomicRole::Synchronizing`]).
            pub fn synchronizing(class: &'static str, value: $value) -> Self {
                $name {
                    class,
                    role: AtomicRole::Synchronizing,
                    id: sync_atomic_id(),
                    inner: <$inner>::new(value),
                }
            }

            /// The atomic's class name.
            #[must_use]
            pub fn class(&self) -> &'static str {
                self.class
            }

            /// The atomic's happens-before role.
            #[must_use]
            pub fn role(&self) -> AtomicRole {
                self.role
            }

            /// Same contract as the `std` atomic `load`.
            pub fn load(&self, order: Ordering) -> $value {
                let value = self.inner.load(order);
                if self.role == AtomicRole::Synchronizing {
                    on_sync_load(self.id, self.class, order);
                }
                value
            }

            /// Same contract as the `std` atomic `store`.
            pub fn store(&self, value: $value, order: Ordering) {
                self.inner.store(value, order);
                if self.role == AtomicRole::Synchronizing {
                    on_sync_store(self.id, self.class, order, false);
                }
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("class", &self.class)
                    .field("role", &self.role)
                    .field("inner", &self.inner)
                    .finish()
            }
        }
    };
}

tracked_atomic!(
    /// A role-annotated [`std::sync::atomic::AtomicU64`].
    TrackedAtomicU64,
    AtomicU64,
    u64
);
tracked_atomic!(
    /// A role-annotated [`std::sync::atomic::AtomicBool`].
    TrackedAtomicBool,
    AtomicBool,
    bool
);
tracked_atomic!(
    /// A role-annotated [`std::sync::atomic::AtomicUsize`].
    TrackedAtomicUsize,
    AtomicUsize,
    usize
);
tracked_atomic!(
    /// A role-annotated [`std::sync::atomic::AtomicU8`].
    TrackedAtomicU8,
    AtomicU8,
    u8
);

impl TrackedAtomicU64 {
    /// Same contract as [`std::sync::atomic::AtomicU64::fetch_add`]. As an
    /// RMW, an `Acquire`-or-stronger ordering also joins the atomic's
    /// release clock into the caller.
    pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        let previous = self.inner.fetch_add(value, order);
        if self.role == AtomicRole::Synchronizing {
            on_sync_store(self.id, self.class, order, true);
        }
        previous
    }

    /// Same contract as [`std::sync::atomic::AtomicU64::compare_exchange`].
    /// In the happens-before model a successful exchange is an RMW store
    /// (`success` ordering); a failed one is a plain load (`failure`
    /// ordering).
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let result = self.inner.compare_exchange(current, new, success, failure);
        if self.role == AtomicRole::Synchronizing {
            match result {
                Ok(_) => on_sync_store(self.id, self.class, success, true),
                Err(_) => on_sync_load(self.id, self.class, failure),
            }
        }
        result
    }
}

impl TrackedAtomicUsize {
    /// Same contract as [`std::sync::atomic::AtomicUsize::fetch_add`].
    pub fn fetch_add(&self, value: usize, order: Ordering) -> usize {
        let previous = self.inner.fetch_add(value, order);
        if self.role == AtomicRole::Synchronizing {
            on_sync_store(self.id, self.class, order, true);
        }
        previous
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global detector (they run
    /// on cargo's shared test threads) and force-enables detection for
    /// the scope of one body.
    fn with_detection<R>(f: impl FnOnce() -> R) -> R {
        static GUARD: Mutex<()> = Mutex::new(());
        let _guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        set_lockdep_enabled(true);
        f()
    }

    fn findings_for(classes: &[&str]) -> Vec<SyncFinding> {
        lockdep_findings()
            .into_iter()
            .filter(|f| classes.iter().any(|c| f.message.contains(c)))
            .collect()
    }

    #[test]
    fn disabled_wrappers_record_nothing() {
        // No with_detection: detection may be off or on depending on
        // sibling tests, so use the flag directly.
        if lockdep_enabled() {
            return; // another test owns the detector right now
        }
        let m = TrackedMutex::new("t.sync.off_mutex", 1u32);
        drop(m.lock());
        assert!(findings_for(&["t.sync.off_mutex"]).is_empty());
        assert!(!lockorder_json().contains("t.sync.off_mutex"));
    }

    #[test]
    fn ab_ba_inversion_reports_ws110_once() {
        with_detection(|| {
            let a = TrackedMutex::new("t.sync.inv_a", ());
            let b = TrackedMutex::new("t.sync.inv_b", ());
            for _ in 0..3 {
                let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
                let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
                drop(gb);
                drop(ga);
                let gb = b.lock().unwrap_or_else(PoisonError::into_inner);
                let ga = a.lock().unwrap_or_else(PoisonError::into_inner);
                drop(ga);
                drop(gb);
            }
            let found = findings_for(&["t.sync.inv_a"]);
            assert_eq!(found.len(), 1, "WS110 must fire exactly once: {found:?}");
            assert_eq!(found[0].code, "WS110");
            assert_eq!(
                found[0].message,
                "lock-order inversion: t.sync.inv_a -> t.sync.inv_b -> t.sync.inv_a"
            );
        });
    }

    #[test]
    fn consistent_order_is_clean_and_counted() {
        with_detection(|| {
            let outer = TrackedMutex::new("t.sync.ord_outer", ());
            let inner = TrackedRwLock::new("t.sync.ord_inner", ());
            for _ in 0..2 {
                let g = outer.lock().unwrap_or_else(PoisonError::into_inner);
                let r = inner.read().unwrap_or_else(PoisonError::into_inner);
                drop(r);
                drop(g);
            }
            assert!(findings_for(&["t.sync.ord_outer", "t.sync.ord_inner"]).is_empty());
            let json = lockorder_json();
            assert!(
                json.contains(
                    "{ \"from\": \"t.sync.ord_outer\", \"to\": \"t.sync.ord_inner\", \"count\": 2 }"
                ),
                "edge missing from {json}"
            );
        });
    }

    #[test]
    fn relaxed_publish_on_synchronizing_atomic_is_ws111() {
        with_detection(|| {
            let gen = TrackedAtomicU64::synchronizing("t.sync.race_gen", 0);
            gen.store(1, Ordering::Relaxed);
            gen.store(2, Ordering::Relaxed);
            let found = findings_for(&["t.sync.race_gen"]);
            assert_eq!(found.len(), 1, "WS111 must fire exactly once: {found:?}");
            assert_eq!(found[0].code, "WS111");
            assert!(found[0].message.contains("relaxed store"));
        });
    }

    #[test]
    fn release_acquire_pairs_are_clean() {
        with_detection(|| {
            let flag = TrackedAtomicBool::synchronizing("t.sync.hb_flag", false);
            std::thread::scope(|scope| {
                scope.spawn(|| flag.store(true, Ordering::Release));
            });
            assert!(flag.load(Ordering::Acquire));
            assert!(findings_for(&["t.sync.hb_flag"]).is_empty());
        });
    }

    #[test]
    fn unsynchronized_relaxed_read_is_ws111() {
        with_detection(|| {
            let word = TrackedAtomicU64::synchronizing("t.sync.hb_word", 0);
            std::thread::scope(|scope| {
                scope.spawn(|| word.store(7, Ordering::Release));
            });
            // The join orders this read in real time, but no tracked
            // acquire pairs with the release: the model (deliberately)
            // flags it, which is what makes the vector deterministic.
            let _ = word.load(Ordering::Relaxed);
            let found = findings_for(&["t.sync.hb_word"]);
            assert_eq!(found.len(), 1, "{found:?}");
            assert_eq!(found[0].code, "WS111");
            assert!(found[0].message.contains("relaxed load"));
        });
    }

    #[test]
    fn counter_role_is_never_modeled() {
        with_detection(|| {
            let hits = TrackedAtomicU64::counter("t.sync.counter", 0);
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(hits.load(Ordering::Relaxed), 1);
            assert!(findings_for(&["t.sync.counter"]).is_empty());
        });
    }

    #[test]
    fn poisoned_tracked_mutex_preserves_std_contract() {
        with_detection(|| {
            let m = TrackedMutex::new("t.sync.poison", 5u32);
            let _ = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _g = m.lock().unwrap();
                        panic!("poison");
                    })
                    .join()
            });
            let g = m.lock().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(*g, 5);
            drop(g);
            assert!(matches!(m.try_lock(), Err(TryLockError::Poisoned(_))));
        });
    }

    #[test]
    fn normalize_cycle_is_rotation_invariant() {
        assert_eq!(normalize_cycle(vec!["b", "c", "a"]), "a -> b -> c -> a");
        assert_eq!(normalize_cycle(vec!["a", "b", "c"]), "a -> b -> c -> a");
        assert_eq!(normalize_cycle(vec!["c", "a", "b"]), "a -> b -> c -> a");
    }

    #[test]
    fn vector_clock_algebra() {
        let mut a = vec![1, 0];
        vc_join(&mut a, &[0, 2, 3]);
        assert_eq!(a, vec![1, 2, 3]);
        assert!(vc_leq(&[1, 2], &[1, 2, 3]));
        assert!(!vc_leq(&[2, 0], &[1, 5]));
        assert!(vc_leq(&[], &[1]));
    }
}
