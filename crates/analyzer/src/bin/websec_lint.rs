//! `websec-lint`: a zero-dependency source linter for this repository.
//!
//! Walks `crates/*/src` (plus `examples/src` and `tests/tests`) with plain
//! `std::fs` and flags:
//!
//! * `.unwrap()` or `panic!` in non-test library code — fallible paths must
//!   return `Result` (`.expect("...")` is allowed: it documents an
//!   invariant). A trailing `// lint:allow(panic)` (or `unwrap`/`unsafe`)
//!   marker opts a single line out when the banned pattern is the point,
//!   e.g. the fault injector's deliberate worker panic;
//! * crate roots (`src/lib.rs`) missing `#![forbid(unsafe_code)]`;
//! * lock-order inversions in the serving and fault layers: a declarative
//!   per-file ordering table ([`LOCK_ORDER_SPECS`]) assigns each named lock
//!   a rank; within one function, locks must be acquired in ascending rank
//!   (`// lint:allow(lock-order)` opts a line out);
//! * raw `std::sync` primitive construction (`Mutex::new`, `RwLock::new`,
//!   `Atomic*::new`) in the tracked serving/fault layers, which must use
//!   the `websec_core::sync` wrappers so the `WEBSEC_LOCKDEP=1` detector
//!   sees every acquisition (`// lint:allow(raw-sync)` opts a line out);
//! * `Ordering::Relaxed` on synchronizing atomics (`generation`,
//!   `faults_enabled`, `cursor`) — their Release/Acquire pairs publish the
//!   snapshot swap and the armed fault plan and order batch claims, so a
//!   relaxed access is a real publication race, not a style tweak
//!   (`// lint:allow(relaxed-sync)`);
//! * `Ordering::Relaxed` on a line naming a counter that feeds `check.sh`'s
//!   benchmark gates (`shed`, `faults_injected`, `fired`): each such site
//!   must be an explicit, annotated decision
//!   (`// lint:allow(relaxed-counter)`). Today only the fault plan's
//!   `fired` tallies are named atomics; `shed` and `faults_injected` are
//!   entries of the serving metrics' counter table, read through its one
//!   `MetricsInner::get` load, whose doc records why Relaxed is enough;
//! * per-call heap allocation (`format!`, `.to_string()`, `Vec::new`) in
//!   the compiled decision hot-path modules (`policy/src/compiled.rs`,
//!   `xml/src/automaton.rs`) — lookups there run on every cache miss, so
//!   allocation belongs in the one-time snapshot build
//!   (`// lint:allow(hot-alloc)` opts a line out).
//!
//! Test code is exempt: by repository convention the `#[cfg(test)]` module
//! sits at the end of each file, so everything after the first `#[cfg(test)]`
//! line is treated as test code. Doc-comment lines (`///`, `//!`) and plain
//! `//` comments are skipped.
//!
//! With `--machine`, findings are emitted in the analyzer's machine
//! diagnostic format (`code|severity|file:line|message`, one per line,
//! sorted) so tooling that already parses `Report::machine` output — the
//! `ANALYSIS_*.json` baselines, grep-based CI gates — consumes lint
//! findings with the same splitter. Each rule carries a stable `LINT-*`
//! code.
//!
//! Exit status: 0 when clean, 1 on errors (or on warnings with
//! `--deny-warnings`), 2 on usage/IO failure.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use websec_analyzer::{Diagnostic, Report, Severity};

/// One lint finding. `rule` is the stable machine code (`LINT-unwrap`,
/// `LINT-lock-order`, ...) used by `--machine` output.
struct Finding {
    rule: &'static str,
    file: PathBuf,
    line: usize,
    warning: bool,
    message: String,
}

impl Finding {
    /// The finding as an analyzer diagnostic: `LINT-*` code, lint severity
    /// mapped onto the shared [`Severity`] scale, `file:line` as the span.
    fn diagnostic(&self) -> Diagnostic {
        let severity = if self.warning { Severity::Warning } else { Severity::Error };
        Diagnostic::new(
            self.rule,
            severity,
            format!("{}:{}", self.file.display(), self.line),
            self.message.clone(),
        )
    }
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut machine = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--machine" => machine = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: websec-lint [--root DIR] [--deny-warnings] [--machine]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let mut findings = Vec::new();
    match collect_lint_targets(&root) {
        Ok(targets) => {
            if targets.is_empty() {
                eprintln!(
                    "no Rust sources found under {} (expected crates/*/src, \
                     examples/src or tests/tests)",
                    root.display()
                );
                return ExitCode::from(2);
            }
            for (file, is_crate_root) in targets {
                match std::fs::read_to_string(&file) {
                    Ok(source) => lint_file(&file, &source, is_crate_root, &mut findings),
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", file.display());
                        return ExitCode::from(2);
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for f in &findings {
        if f.warning {
            warnings += 1;
        } else {
            errors += 1;
        }
    }
    if machine {
        let mut report = Report::default();
        for f in &findings {
            report.diagnostics.push(f.diagnostic());
        }
        report.normalize();
        let rendered = report.machine();
        if !rendered.is_empty() {
            println!("{rendered}");
        }
    } else {
        for f in &findings {
            let kind = if f.warning { "warning" } else { "error" };
            println!("{kind}: {}:{}: {}", f.file.display(), f.line, f.message);
        }
        println!("websec-lint: {errors} error(s), {warnings} warning(s)");
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Rust files to lint, each tagged with whether it is a crate root.
/// Scans `crates/*/src` recursively plus `examples/src` and `tests/tests`.
fn collect_lint_targets(root: &Path) -> std::io::Result<Vec<(PathBuf, bool)>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    for extra in ["examples/src", "tests/tests"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            walk_rs(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<(PathBuf, bool)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `src/bin` holds CLI entry points (including this linter, whose
            // diagnostic strings mention the banned tokens); the lint targets
            // library code.
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let is_crate_root = path.file_name().is_some_and(|n| n == "lib.rs")
                && path.parent().and_then(Path::file_name).is_some_and(|n| n == "src");
            out.push((path, is_crate_root));
        }
    }
    Ok(())
}

/// True for whole-file test targets (integration tests, benches): banned
/// patterns are allowed everywhere in them.
fn is_test_file(file: &Path) -> bool {
    file.components().any(|c| {
        let s = c.as_os_str();
        s == "tests" || s == "benches"
    })
}

/// One entry of the declarative lock-ordering table: the canonical
/// acquisition sequence (outermost first) for every file whose path ends
/// with `path`. Acquiring a lower-ranked lock while holding a
/// higher-ranked one inverts the order and can deadlock against a thread
/// acquiring canonically.
struct LockOrderSpec {
    /// `/`-normalized path suffix the spec applies to.
    path: &'static str,
    /// Lock names in canonical acquisition order, outermost first.
    order: &'static [&'static str],
}

/// The lock-ordering table for the serving and fault layers. Lock names
/// are matched as whole tokens on lines that contain an acquisition call,
/// so field accesses (`self.faults.lock()`) and helper calls
/// (`lock_counting(&shard.map, ..)`) both resolve to their class.
const LOCK_ORDER_SPECS: &[LockOrderSpec] = &[
    LockOrderSpec {
        path: "server/shard.rs",
        order: &["snapshot", "map", "session"],
    },
    LockOrderSpec {
        path: "server/mod.rs",
        order: &[
            "update_lock",
            "snapshot",
            "faults",
            "analysis",
            "map",
            "session",
        ],
    },
    LockOrderSpec {
        path: "server/analysis.rs",
        order: &["update_lock", "snapshot", "analysis"],
    },
    LockOrderSpec {
        path: "server/cache.rs",
        order: &["snapshot", "inner"],
    },
    LockOrderSpec {
        path: "core/src/faults.rs",
        order: &["counters"],
    },
    // The scenario harness's parallel batch verifier: one violation-
    // collection mutex (`scenarios.violations`), never nested with any
    // engine lock — declaring it here keeps the single-class rule
    // enforced as the harness grows.
    LockOrderSpec {
        path: "scenarios/src/runner.rs",
        order: &["shared"],
    },
];

/// The ordering spec that applies to `file`, if any.
fn lock_order_for(file: &Path) -> Option<&'static LockOrderSpec> {
    let path = file.to_string_lossy().replace('\\', "/");
    LOCK_ORDER_SPECS.iter().find(|spec| path.ends_with(spec.path))
}

/// Atomics whose Release/Acquire pairs order shared state: the snapshot
/// generation, the armed-fault-plan flag, and the batch claim `cursor`
/// that workers share over a batch's schedule.
/// `Ordering::Relaxed` on these is a publication race, not a performance
/// tweak; the runtime detector reports the same mistake as `WS111`.
const SYNC_ATOMICS: [&str; 3] = ["generation", "faults_enabled", "cursor"];

/// Counters that feed `check.sh`'s benchmark/awk gates. Accumulating them
/// with `Ordering::Relaxed` is fine; *reading* them that way where the
/// value gates CI must be an explicit, annotated decision. The rule
/// matches names, so it sees the `fired` atomics; `shed` and
/// `faults_injected` are counter-table entries whose one relaxed read,
/// `MetricsInner::get`, carries that decision in its doc.
const GATE_COUNTERS: [&str; 3] = ["shed", "faults_injected", "fired"];

/// Raw `std::sync` constructors banned in the tracked serving/fault
/// layers: every lock and atomic there must be a `websec_core::sync`
/// wrapper, or the `WEBSEC_LOCKDEP=1` detector is blind to it.
const RAW_SYNC_CONSTRUCTORS: [&str; 7] = [
    "Mutex::new(",
    "RwLock::new(",
    "Condvar::new(",
    "AtomicBool::new(",
    "AtomicU8::new(",
    "AtomicU64::new(",
    "AtomicUsize::new(",
];

/// Path fragments of the tracked-synchronization scope, matched uniformly
/// with `contains` on `/`-normalized paths. One declarative list instead of
/// per-PR ad-hoc predicates: the serving engine, the fault injector, the
/// compiled decision plane (`policy/src/compiled.rs` *and* its
/// `compiled_view.rs` introspection sibling — the fragment deliberately
/// omits the extension so both match), and the scenario harness — harness
/// bugs must be as visible to the `WEBSEC_LOCKDEP=1` detector as engine
/// bugs.
const RAW_SYNC_SCOPE: [&str; 4] = [
    "core/src/server/",
    "core/src/faults.rs",
    "policy/src/compiled",
    "scenarios/src/",
];

/// True for files whose synchronization must go through the tracked
/// wrappers (see [`RAW_SYNC_SCOPE`]).
fn raw_sync_scope(file: &Path) -> bool {
    let path = file.to_string_lossy().replace('\\', "/");
    RAW_SYNC_SCOPE.iter().any(|fragment| path.contains(fragment))
}

/// Hot-path modules of the compiled decision path: consulted on every
/// cache miss, so per-call heap allocation there is a performance bug,
/// not a style choice. Build-time allocation belongs in the snapshot
/// compilation pass (sized with `with_capacity`) — or carries an explicit
/// `// lint:allow(hot-alloc)` marker when a one-time path really needs it.
const HOT_ALLOC_SCOPE: [&str; 2] = ["policy/src/compiled.rs", "xml/src/automaton.rs"];

/// Allocation constructors banned in [`HOT_ALLOC_SCOPE`].
const HOT_ALLOC_PATTERNS: [&str; 3] = ["format!(", ".to_string()", "Vec::new("];

/// True for files under the compiled hot-path allocation rule.
fn hot_alloc_scope(file: &Path) -> bool {
    let path = file.to_string_lossy().replace('\\', "/");
    HOT_ALLOC_SCOPE.iter().any(|suffix| path.ends_with(suffix))
}

/// The banned allocation the line performs, if any. Like
/// [`raw_sync_constructor`], a match preceded by an identifier character is
/// rejected (`SmallVec::new(` is not `Vec::new(`).
fn hot_alloc_pattern(code: &str) -> Option<&'static str> {
    for pattern in HOT_ALLOC_PATTERNS {
        // Method-call patterns (leading '.') are always preceded by their
        // receiver; the identifier guard applies only to bare constructors.
        let guard_prefix = !pattern.starts_with('.');
        let mut from = 0;
        while let Some(pos) = code[from..].find(pattern) {
            let at = from + pos;
            let preceded = guard_prefix
                && at > 0
                && code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !preceded {
                return Some(pattern);
            }
            from = at + pattern.len();
        }
    }
    None
}

/// The raw constructor the line calls, if any. A match is rejected when
/// preceded by an identifier character, so `TrackedMutex::new(` does not
/// count as `Mutex::new(`.
fn raw_sync_constructor(code: &str) -> Option<&'static str> {
    for pattern in RAW_SYNC_CONSTRUCTORS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(pattern) {
            let at = from + pos;
            let preceded = at > 0
                && code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !preceded {
                return Some(pattern);
            }
            from = at + pattern.len();
        }
    }
    None
}

/// The lock rank a line acquires under `spec`, when it acquires one: the
/// line must contain an acquisition call and exactly identify a ranked
/// receiver token.
fn line_lock_rank(code: &str, spec: &LockOrderSpec) -> Option<usize> {
    let acquires = [".lock()", ".try_lock()", ".read()", ".write()", "lock_counting("];
    if !acquires.iter().any(|a| code.contains(a)) {
        return None;
    }
    for token in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if let Some(rank) = spec.order.iter().position(|name| token == *name) {
            return Some(rank);
        }
    }
    None
}

/// The first synchronizing atomic named (as a whole token) on the line.
fn sync_atomic(code: &str) -> Option<&'static str> {
    for token in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        for name in SYNC_ATOMICS {
            if token == name {
                return Some(name);
            }
        }
    }
    None
}

/// The first gate-fed counter named (as a whole token) on the line, if any.
fn gate_counter(code: &str) -> Option<&'static str> {
    for token in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        for name in GATE_COUNTERS {
            if token == name {
                return Some(name);
            }
        }
    }
    None
}

fn lint_file(file: &Path, source: &str, is_crate_root: bool, findings: &mut Vec<Finding>) {
    if is_crate_root && !source.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            rule: "LINT-forbid-unsafe",
            file: file.to_path_buf(),
            line: 1,
            warning: false,
            message: "crate root missing #![forbid(unsafe_code)]".to_string(),
        });
    }

    if is_test_file(file) {
        return;
    }

    let lock_order_spec = lock_order_for(file);
    let raw_sync_scope = raw_sync_scope(file);
    let hot_alloc_scope = hot_alloc_scope(file);
    let mut last_lock: Option<usize> = None;
    let mut in_test_code = false;
    for (idx, line) in source.lines().enumerate() {
        // Repository convention: the test module is the last item of a file,
        // so the first #[cfg(test)] marks the start of test-only code.
        if line.trim_start().starts_with("#[cfg(test)]") {
            in_test_code = true;
        }
        if in_test_code {
            continue;
        }
        // An explicit, greppable opt-out for lines where the banned pattern
        // *is* the behavior (e.g. the fault injector's deliberate panic):
        // `// lint:allow(panic)`, `// lint:allow(unwrap)`, `// lint:allow(unsafe)`.
        let allowed = |rule: &str| line.contains(&format!("lint:allow({rule})"));
        let code = strip_comment(line);
        if code.contains(".unwrap()") && !allowed("unwrap") {
            findings.push(Finding {
                rule: "LINT-unwrap",
                file: file.to_path_buf(),
                line: idx + 1,
                warning: false,
                message: ".unwrap() in non-test code: return a Result or use \
                          .expect(\"documented invariant\")"
                    .to_string(),
            });
        }
        if code.contains("panic!") && !allowed("panic") {
            findings.push(Finding {
                rule: "LINT-panic",
                file: file.to_path_buf(),
                line: idx + 1,
                warning: false,
                message: "panic! in non-test code: return an error instead".to_string(),
            });
        }
        if (code.contains("unsafe ") || code.contains("unsafe{")) && !allowed("unsafe") {
            findings.push(Finding {
                rule: "LINT-unsafe",
                file: file.to_path_buf(),
                line: idx + 1,
                warning: true,
                message: "unsafe block (should be impossible under \
                          #![forbid(unsafe_code)])"
                    .to_string(),
            });
        }
        if raw_sync_scope && !allowed("raw-sync") {
            if let Some(pattern) = raw_sync_constructor(code) {
                findings.push(Finding {
                    rule: "LINT-raw-sync",
                    file: file.to_path_buf(),
                    line: idx + 1,
                    warning: false,
                    message: format!(
                        "raw std::sync primitive '{}' in tracked serving/fault code: \
                         use the websec_core::sync wrapper so the WEBSEC_LOCKDEP=1 \
                         detector observes it",
                        pattern.trim_end_matches('(')
                    ),
                });
            }
        }
        if hot_alloc_scope && !allowed("hot-alloc") {
            if let Some(pattern) = hot_alloc_pattern(code) {
                findings.push(Finding {
                    rule: "LINT-hot-alloc",
                    file: file.to_path_buf(),
                    line: idx + 1,
                    warning: false,
                    message: format!(
                        "heap allocation '{}' in a compiled hot-path module: hoist it \
                         into the snapshot build (Vec::with_capacity / interning), or \
                         annotate a one-time path with // lint:allow(hot-alloc)",
                        pattern.trim_end_matches('(')
                    ),
                });
            }
        }
        if let Some(spec) = lock_order_spec {
            if code.contains("fn ") {
                // A new function body starts a fresh acquisition sequence.
                last_lock = None;
            }
            if let Some(rank) = line_lock_rank(code, spec) {
                if let Some(prev) = last_lock {
                    if rank < prev && !allowed("lock-order") {
                        findings.push(Finding {
                            rule: "LINT-lock-order",
                            file: file.to_path_buf(),
                            line: idx + 1,
                            warning: true,
                            message: format!(
                                "lock order inversion: '{}' acquired after '{}'; the \
                                 canonical sequence is {}",
                                spec.order[rank],
                                spec.order[prev],
                                spec.order.join(" -> ")
                            ),
                        });
                    }
                }
                last_lock = Some(rank);
            }
        }
        if code.contains("Ordering::Relaxed") {
            if let Some(name) = sync_atomic(code) {
                if !allowed("relaxed-sync") {
                    findings.push(Finding {
                        rule: "LINT-relaxed-sync",
                        file: file.to_path_buf(),
                        line: idx + 1,
                        warning: true,
                        message: format!(
                            "Ordering::Relaxed on synchronizing atomic '{name}': its \
                             Release/Acquire pairs publish shared state, so a relaxed \
                             access is a data race the runtime detector reports as \
                             WS111; use Acquire/Release (or annotate with \
                             // lint:allow(relaxed-sync))"
                        ),
                    });
                }
            } else if let Some(name) = gate_counter(code) {
                if !allowed("relaxed-counter") {
                    findings.push(Finding {
                        rule: "LINT-relaxed-counter",
                        file: file.to_path_buf(),
                        line: idx + 1,
                        warning: true,
                        message: format!(
                            "Ordering::Relaxed on gate-fed counter '{name}': check.sh \
                             gates read this value; confirm monotonic accumulation \
                             suffices and annotate with // lint:allow(relaxed-counter)"
                        ),
                    });
                }
            }
        }
    }
}

/// Removes doc-comment and line-comment content so banned tokens in prose
/// don't trip the lint. (String literals containing the tokens would still
/// trip it; none exist in this repository.)
fn strip_comment(line: &str) -> &str {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Renders findings for tests.
#[allow(dead_code)]
fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}",
            f.file.display(),
            f.line,
            f.message
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_outside_tests() {
        let mut findings = Vec::new();
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        lint_file(Path::new("crates/x/src/a.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn flags_panic_and_missing_forbid() {
        let mut findings = Vec::new();
        let src = "fn f() { panic!(\"boom\"); }\n";
        lint_file(Path::new("crates/x/src/lib.rs"), src, true, &mut findings);
        assert_eq!(findings.len(), 2); // missing forbid + panic
    }

    #[test]
    fn comments_and_expect_are_fine() {
        let mut findings = Vec::new();
        let src = "#![forbid(unsafe_code)]\n// call .unwrap() never\n/// panic! docs\nfn f() { x.expect(\"invariant\"); }\n";
        lint_file(Path::new("crates/x/src/lib.rs"), src, true, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn lint_allow_markers_suppress_single_lines() {
        let mut findings = Vec::new();
        let src = "#![forbid(unsafe_code)]\n\
                   fn f() { panic!(\"injected\"); } // lint:allow(panic)\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(unwrap)\n";
        lint_file(Path::new("crates/x/src/lib.rs"), src, true, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
        // The marker is rule-specific: allowing unwrap doesn't allow panic.
        let src = "#![forbid(unsafe_code)]\nfn f() { panic!(); } // lint:allow(unwrap)\n";
        lint_file(Path::new("crates/x/src/lib.rs"), src, true, &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn test_files_are_exempt() {
        let mut findings = Vec::new();
        let src = "fn f() { x.unwrap(); panic!(); }\n";
        lint_file(Path::new("tests/tests/a.rs"), src, false, &mut findings);
        assert!(findings.is_empty());
    }

    #[test]
    fn lock_order_inversion_is_flagged_in_shard_rs() {
        let shard = Path::new("crates/core/src/server/shard.rs");
        // session before map inside one function: inversion.
        let src = "fn bad(&self) {\n\
                   let g = lock_counting(session, &waits);\n\
                   let m = lock_counting(&shard.map, &waits);\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(shard, src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("lock order inversion"));
        assert!(findings[0].warning);

        // The canonical sequence is clean.
        let src = "fn good(&self) {\n\
                   let m = lock_counting(&shard.map, &waits);\n\
                   let g = lock_counting(session, &waits);\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(shard, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // Sequences reset at function boundaries: session in one function,
        // map in the next is not an inversion.
        let src = "fn a(&self) { let g = lock_counting(session, &waits); }\n\
                   fn b(&self) { let m = lock_counting(&shard.map, &waits); }\n";
        let mut findings = Vec::new();
        lint_file(shard, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // The opt-out marker silences a deliberate inversion.
        let src = "fn bad(&self) {\n\
                   let g = lock_counting(session, &waits);\n\
                   let m = lock_counting(&shard.map, &waits); // lint:allow(lock-order)\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(shard, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // The rule is path-scoped: the same code outside the table is not
        // checked.
        let mut findings = Vec::new();
        let src = "fn bad(&self) {\n\
                   let g = lock_counting(session, &waits);\n\
                   let m = lock_counting(&shard.map, &waits);\n\
                   }\n";
        lint_file(Path::new("crates/core/src/stack/eval.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn lock_order_table_covers_mod_and_analysis() {
        // mod.rs: the faults mutex ranks below the snapshot lock.
        let src = "fn bad(&self) {\n\
                   let f = self.faults.lock();\n\
                   let s = self.snapshot.read();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/mod.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("'snapshot' acquired after 'faults'"));

        // analysis.rs: the analysis mutex after the snapshot lock is the
        // canonical order...
        let src = "fn good(&self) {\n\
                   let s = self.snapshot.write();\n\
                   let a = self.analysis.lock();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/analysis.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // ...and the reverse is the inversion the module docs warn about.
        let src = "fn bad(&self) {\n\
                   let a = self.analysis.lock();\n\
                   let s = self.snapshot.write();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/analysis.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("lock order inversion"));
    }

    #[test]
    fn raw_sync_primitives_are_flagged_in_tracked_scope() {
        let file = Path::new("crates/core/src/server/mod.rs");
        let src = "fn f() {\n\
                   let m = Mutex::new(0);\n\
                   let a = AtomicU64::new(0);\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert_eq!(findings.len(), 2, "{}", render(&findings));
        assert!(findings.iter().all(|f| !f.warning));
        assert!(findings[0].message.contains("raw std::sync primitive 'Mutex::new'"));

        // Tracked wrappers are exactly the point — they must not match.
        let src = "fn f() { let m = TrackedMutex::new(\"c\", 0); \
                   let a = TrackedAtomicU64::counter(\"c\", 0); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // Out of scope (not serving/fault code) and opt-outs are clean.
        let src = "fn f() { let m = Mutex::new(0); }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/stack/mod.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
        let src = "fn f() { let m = Mutex::new(0); } // lint:allow(raw-sync)\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn relaxed_on_synchronizing_atomic_is_flagged() {
        let file = Path::new("crates/core/src/server/mod.rs");
        let src = "fn f(&self) { let g = self.generation.load(Ordering::Relaxed); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("synchronizing atomic 'generation'"));
        assert!(findings[0].message.contains("WS111"));

        // Acquire/Release on the same atomic is the fix, not a finding.
        let src = "fn f(&self) { let g = self.generation.load(Ordering::Acquire); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // The explicit opt-out still works.
        let src = "fn f(&self) { let g = self.faults_enabled.load(Ordering::Relaxed); } \
                   // lint:allow(relaxed-sync)\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn hot_alloc_is_flagged_in_compiled_modules() {
        let file = Path::new("crates/policy/src/compiled.rs");
        let src = "fn f(name: &str) {\n\
                   let k = name.to_string();\n\
                   let v: Vec<u32> = Vec::new();\n\
                   let s = format!(\"{k}\");\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert_eq!(findings.len(), 3, "{}", render(&findings));
        assert!(findings.iter().all(|f| !f.warning));
        assert!(findings[0].message.contains("heap allocation '.to_string()'"));

        // Sized and interned forms are the fix, not findings — and a
        // non-Vec `::new(` must not match.
        let src = "fn f() { let v = Vec::with_capacity(4); \
                   let s = SmallVec::new(); let o = String::from(\"x\"); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // The opt-out marks deliberate build-path allocation, and the rule
        // is path-scoped.
        let src = "fn f() { let v: Vec<u32> = Vec::new(); } // lint:allow(hot-alloc)\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
        let src = "fn f() { let s = format!(\"x\"); }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/policy/src/engine.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn raw_sync_scope_covers_compiled_plane_and_scenarios_uniformly() {
        // The declarative scope list replaces per-PR ad-hoc predicates:
        // the compiled decision plane (both `compiled.rs` and its
        // `compiled_view.rs` sibling — the fragment omits the extension)
        // and every scenario-harness module are in scope.
        let src = "fn f() { let m = Mutex::new(0); }\n";
        for path in [
            "crates/policy/src/compiled.rs",
            "crates/policy/src/compiled_view.rs",
            "crates/scenarios/src/runner.rs",
            "crates/scenarios/src/suite.rs",
            "crates/core/src/server/analysis.rs",
            "crates/core/src/faults.rs",
        ] {
            let mut findings = Vec::new();
            lint_file(Path::new(path), src, false, &mut findings);
            assert_eq!(findings.len(), 1, "expected raw-sync finding in {path}");
            assert_eq!(findings[0].rule, "LINT-raw-sync");
        }
        // Non-compiled policy modules stay out of scope.
        let mut findings = Vec::new();
        lint_file(Path::new("crates/policy/src/engine.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }

    #[test]
    fn analysis_memo_mutex_ranks_inside_the_update_lock() {
        // Canonical: the Deny gate reads and commits the analysis memo
        // while holding the update lock...
        let src = "fn good(&self) {\n\
                   let w = self.update_lock.lock();\n\
                   let m = self.analysis.lock();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/analysis.rs"), src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // ...and taking the update lock under the memo mutex inverts.
        let src = "fn bad(&self) {\n\
                   let m = self.analysis.lock();\n\
                   let w = self.update_lock.lock();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/analysis.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("'update_lock' acquired after 'analysis'"));

        // mod.rs ranks the memo between the faults mutex and the shard
        // locks.
        let src = "fn bad(&self) {\n\
                   let g = lock_counting(&shard.map, &waits);\n\
                   let m = self.analysis.lock();\n\
                   }\n";
        let mut findings = Vec::new();
        lint_file(Path::new("crates/core/src/server/mod.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("lock order inversion"));
    }

    #[test]
    fn machine_rendering_uses_the_shared_diagnostic_format() {
        let mut findings = Vec::new();
        let src = "fn f() { x.unwrap(); }\n";
        lint_file(Path::new("crates/x/src/a.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1);
        let line = findings[0].diagnostic().machine_line();
        let parts: Vec<&str> = line.split('|').collect();
        assert_eq!(parts[0], "LINT-unwrap");
        assert_eq!(parts[1], "error");
        assert_eq!(parts[2], "crates/x/src/a.rs:1");
        // Warnings map onto the shared severity scale.
        let mut findings = Vec::new();
        let src = "fn f(&self) { let g = self.generation.load(Ordering::Relaxed); }\n";
        lint_file(Path::new("crates/core/src/server/mod.rs"), src, false, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .diagnostic()
            .machine_line()
            .starts_with("LINT-relaxed-sync|warning|"));
    }

    #[test]
    fn relaxed_gate_counter_is_flagged_with_opt_out() {
        let file = Path::new("crates/core/src/server/metrics.rs");
        let src = "fn snap(&self) { let s = self.shed.load(Ordering::Relaxed); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert_eq!(findings.len(), 1, "{}", render(&findings));
        assert!(findings[0].message.contains("gate-fed counter 'shed'"));

        // Whole-token matching: 'finished' must not match 'shed'.
        let src = "fn snap(&self) { let f = self.finished.load(Ordering::Relaxed); }\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));

        // Annotated sites pass.
        let src = "fn snap(&self) { let s = self.faults_injected.load(Ordering::Relaxed); } \
                   // lint:allow(relaxed-counter)\n";
        let mut findings = Vec::new();
        lint_file(file, src, false, &mut findings);
        assert!(findings.is_empty(), "{}", render(&findings));
    }
}
