//! Fixture-driven rule tests: every rule gets a violating snippet and a
//! clean one, suppression semantics are exercised end to end, an injected
//! violation in a throwaway workspace proves the CI gate trips, and the
//! final test runs the analyzer over *this* repository and demands zero
//! unsuppressed findings — the self-test the `analyze` CI job relies on.

use privid_analyzer::config::Config;
use privid_analyzer::diag::RuleId;
use privid_analyzer::engine::{check_source, run};

/// A config mirroring the real analyzer.toml's shape, scoped to fixture paths.
fn fixture_config() -> Config {
    Config::parse(
        r#"
        [workspace]
        exclude = ["target/"]

        [lock-order]
        order = ["admission-gate", "camera-registry", "ledger-state"]
        indexed = ["admission-gate"]

        [lock-order.aliases]
        gate = "admission-gate"
        cameras = "camera-registry"
        state = "ledger-state"

        [lock-order.scoped-calls]
        exclusive = "admission-gate"

        [[taint]]
        name = "budget-debit"
        idents = ["check_and_debit"]
        allow = ["src/budget.rs"]

        [[taint]]
        name = "release-construction"
        idents = ["NoisyRelease"]
        construct-only = true
        allow = ["src/session.rs"]

        [panic-freedom]
        paths = ["src/"]

        [f64-exactness]
        files = ["src/record.rs"]
        float-names = ["epsilon"]
        float-suffixes = ["_secs"]
        "#,
    )
    .expect("fixture config parses")
}

fn rules_of(path: &str, src: &str) -> Vec<RuleId> {
    let (findings, _) = check_source(path, src, &fixture_config());
    findings.iter().map(|d| d.rule).collect()
}

// ---- dp-taint -------------------------------------------------------------

#[test]
fn taint_flags_confined_ident_outside_allowlist() {
    let src = "fn f(l: &Ledger) { l.check_and_debit(w, m, e).unwrap(); }\n";
    let rules = rules_of("src/rogue.rs", src);
    assert!(rules.contains(&RuleId::DpTaint), "expected dp-taint, got {rules:?}");
}

#[test]
fn taint_allows_ident_in_allowlisted_module_and_in_tests() {
    assert!(!rules_of("src/budget.rs", "fn f(l: &L) { l.check_and_debit(w, m, e); }\n")
        .contains(&RuleId::DpTaint));
    // tests/ trees are exempt: they exercise the ledger deliberately.
    assert!(rules_of("tests/admission.rs", "fn f(l: &L) { l.check_and_debit(w, m, e); }\n").is_empty());
}

#[test]
fn construct_only_taint_distinguishes_construction_from_type_position() {
    // Construction (struct literal / path) outside the allowlist: flagged.
    assert!(rules_of("src/rogue.rs", "fn f() { let r = NoisyRelease { value: 1.0 }; }\n")
        .contains(&RuleId::DpTaint));
    assert!(rules_of("src/rogue.rs", "fn f() { let r = NoisyRelease::new(1.0); }\n")
        .contains(&RuleId::DpTaint));
    // Merely naming the type (signature, annotation): clean.
    assert!(!rules_of("src/rogue.rs", "fn f(r: &NoisyRelease) -> Vec<NoisyRelease> { todo() }\n")
        .contains(&RuleId::DpTaint));
    // Construction in the allowlisted module: clean.
    assert!(!rules_of("src/session.rs", "fn f() { let r = NoisyRelease { value: 1.0 }; }\n")
        .contains(&RuleId::DpTaint));
}

// ---- lock-order -----------------------------------------------------------

#[test]
fn lock_order_flags_inversion_and_reacquisition() {
    // cameras (rank 1) acquired, then gate (rank 0) inside it: inversion.
    let inverted = "fn f(&self) {\n    let c = self.cameras.write();\n    let g = self.gate.lock();\n}\n";
    assert!(rules_of("src/svc.rs", inverted).contains(&RuleId::LockOrder));

    // Same lock twice while the first guard lives: re-acquisition (deadlock).
    let twice = "fn f(&self) {\n    let a = self.state.lock();\n    let b = self.state.lock();\n}\n";
    assert!(rules_of("src/svc.rs", twice).contains(&RuleId::LockOrder));
}

#[test]
fn lock_order_accepts_declared_order_and_dropped_guards() {
    // gate then cameras then state: the declared order.
    let ordered = "fn f(&self) {\n    let g = self.gate.lock();\n    let c = self.cameras.write();\n    let s = self.state.lock();\n}\n";
    assert!(!rules_of("src/svc.rs", ordered).contains(&RuleId::LockOrder));

    // Statement-extent guard dies at the `;`: the next acquisition is fresh.
    let seq = "fn f(&self) {\n    self.state.lock().insert(k, v);\n    self.state.lock().insert(k2, v2);\n}\n";
    assert!(!rules_of("src/svc.rs", seq).contains(&RuleId::LockOrder));
}

#[test]
fn indexed_family_requires_strictly_ascending_literal_subscripts() {
    // Ascending shard gates — the canonical fleet order: clean.
    let ascending = "fn f(&self) {\n    let a = self.shards[0].gate.lock();\n    let b = self.shards[1].gate.lock();\n}\n";
    assert!(!rules_of("src/svc.rs", ascending).contains(&RuleId::LockOrder), "ascending must pass");

    // Descending: flagged — two admissions overlapping on {0, 1} would
    // contend in opposite orders and deadlock.
    let descending = "fn f(&self) {\n    let a = self.shards[1].gate.lock();\n    let b = self.shards[0].gate.lock();\n}\n";
    assert!(rules_of("src/svc.rs", descending).contains(&RuleId::LockOrder), "descending must be rejected");

    // Equal indexes: a self-deadlock, flagged.
    let equal = "fn f(&self) {\n    let a = self.shards[1].gate.lock();\n    let b = self.shards[1].gate.lock();\n}\n";
    assert!(rules_of("src/svc.rs", equal).contains(&RuleId::LockOrder), "equal must be rejected");

    // A computed second index cannot prove ascending order: flagged.
    let computed = "fn f(&self, k: usize) {\n    let a = self.shards[0].gate.lock();\n    let b = self.shards[k].gate.lock();\n}\n";
    assert!(rules_of("src/svc.rs", computed).contains(&RuleId::LockOrder), "computed index must be rejected");

    // Scoped calls participate in the family too: ascending exclusive() is
    // clean, descending is not.
    let scoped_ok = "fn f(&self) {\n    self.shards[2].admission.exclusive(|| {\n        self.shards[5].admission.exclusive(|| {});\n    });\n}\n";
    assert!(!rules_of("src/svc.rs", scoped_ok).contains(&RuleId::LockOrder), "ascending scoped calls must pass");
    let scoped_bad = "fn f(&self) {\n    self.shards[5].admission.exclusive(|| {\n        self.shards[2].admission.exclusive(|| {});\n    });\n}\n";
    assert!(rules_of("src/svc.rs", scoped_bad).contains(&RuleId::LockOrder), "descending scoped calls must be rejected");

    // Non-indexed locks keep the plain re-acquisition diagnostic even with
    // ascending subscripts: `ledger-state` is not a declared family.
    let non_family = "fn f(&self) {\n    let a = self.cams[0].state.lock();\n    let b = self.cams[1].state.lock();\n}\n";
    assert!(rules_of("src/svc.rs", non_family).contains(&RuleId::LockOrder), "non-family locks must not ascend");
}

#[test]
fn lock_order_sees_through_scoped_calls() {
    // `exclusive` holds the admission gate for its call: acquiring the gate
    // again inside the closure is a re-acquisition.
    let nested = "fn f(&self) {\n    self.admission.exclusive(|| {\n        let g = self.gate.lock();\n    });\n}\n";
    assert!(rules_of("src/svc.rs", nested).contains(&RuleId::LockOrder));
    // Registry work under the scoped gate follows the declared order: clean.
    let fine = "fn f(&self) {\n    self.admission.exclusive(|| {\n        let c = self.cameras.write();\n    });\n}\n";
    assert!(!rules_of("src/svc.rs", fine).contains(&RuleId::LockOrder));
}

#[test]
fn lock_order_accepts_a_condvar_wait_holding_only_its_own_guard() {
    // The guard handed to the wait is released while the thread sleeps.
    let alone = "fn f(&self) {\n    let g = self.state.lock();\n    let _ = self.cv.wait_timeout(g, tick);\n}\n";
    assert!(!rules_of("src/svc.rs", alone).contains(&RuleId::LockOrder));
    // A guard dropped before the wait is not held across it, and an empty
    // argument list is not a condvar wait at all (`Child::wait()`).
    let dropped =
        "fn f(&self) {\n    self.cameras.write().clear();\n    let mut g = self.state.lock();\n    g = self.cv.wait(g);\n}\n";
    assert!(!rules_of("src/svc.rs", dropped).contains(&RuleId::LockOrder));
    let child = "fn f(&self) {\n    let g = self.state.lock();\n    self.child.wait();\n}\n";
    assert!(!rules_of("src/svc.rs", child).contains(&RuleId::LockOrder));
}

#[test]
fn lock_order_flags_parking_while_another_lock_is_held() {
    // Declared order respected, and still a deadlock: whoever would notify
    // may need `camera-registry`, which sleeps with this thread.
    let parked =
        "fn f(&self) {\n    let c = self.cameras.write();\n    let g = self.state.lock();\n    let g = self.cv.wait(g);\n}\n";
    let (findings, _) = check_source("src/svc.rs", parked, &fixture_config());
    assert!(
        findings.iter().any(|d| d.rule == RuleId::LockOrder && d.message.contains("parks in `wait`")),
        "{findings:?}"
    );
    // Every wait flavour parks, and a guard not handed to the wait is held.
    for wait in ["wait_timeout(g, tick)", "wait_while(g, |n| *n == 0)", "wait_timeout_while(g, tick, |n| *n == 0)"] {
        let src = format!("fn f(&self) {{\n    let c = self.cameras.write();\n    let g = self.state.lock();\n    let _ = self.cv.{wait};\n}}\n");
        assert!(rules_of("src/svc.rs", &src).contains(&RuleId::LockOrder), "{wait}");
    }
    let wrong = "fn f(&self, other: Guard) {\n    let g = self.state.lock();\n    let _ = self.cv.wait(other);\n}\n";
    assert!(rules_of("src/svc.rs", wrong).contains(&RuleId::LockOrder));
}

/// The committed analyzer.toml must declare the server's firing signal — the
/// one mutex a thread parks with — as a leaf after `conn-registry`.
#[test]
fn committed_config_declares_the_firing_signal_as_a_leaf() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/privid-analyzer");
    let toml = std::fs::read_to_string(root.join("analyzer.toml")).expect("committed analyzer.toml");
    let cfg = Config::parse(&toml).expect("committed analyzer.toml parses");
    assert_eq!(cfg.lock_aliases.get("generation").map(String::as_str), Some("firing-signal"));
    assert!(cfg.lock_rank("firing-signal") > cfg.lock_rank("conn-registry"));
    assert_eq!(cfg.lock_rank("firing-signal"), Some(cfg.lock_order.len() - 1));

    // Parking on it next to the standing registry is the deadlock the rule
    // exists for: the appender that would signal needs that registry.
    let parked = "fn f(&self) {\n    let s = self.standing.lock();\n    let g = self.generation.lock();\n    let _ = self.published.wait_timeout(g, tick);\n}\n";
    let (findings, _) = check_source("crates/privid-server/src/server.rs", parked, &cfg);
    assert!(findings.iter().any(|d| d.rule == RuleId::LockOrder), "{findings:?}");
}

// ---- panic-freedom --------------------------------------------------------

#[test]
fn panic_rule_flags_unwrap_expect_macros_and_indexing() {
    let rules = rules_of(
        "src/serve.rs",
        "fn f(v: &[u8]) -> u8 {\n    let x = maybe().unwrap();\n    let y = maybe().expect(\"y\");\n    if bad { panic!(\"no\") }\n    v[0]\n}\n",
    );
    assert_eq!(rules.iter().filter(|r| **r == RuleId::PanicFreedom).count(), 4, "{rules:?}");
}

#[test]
fn panic_rule_skips_tests_out_of_scope_paths_and_non_index_brackets() {
    // #[cfg(test)] items are masked.
    let masked = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { maybe().unwrap(); }\n}\n";
    assert!(rules_of("src/serve.rs", masked).is_empty());
    // Out-of-scope path (not under a configured prefix).
    assert!(rules_of("benches/b.rs", "fn f() { maybe().unwrap(); }\n").is_empty());
    // `let [a, b] = …` destructuring and array types are not index expressions.
    assert!(rules_of("src/serve.rs", "fn f(p: [u8; 2]) { let [a, b] = p; }\n").is_empty());
}

// ---- f64-exactness --------------------------------------------------------

#[test]
fn float_rule_flags_decimal_formatting_in_wire_files_only() {
    // Inline capture of a floatish ident, decimal: flagged.
    assert!(rules_of("src/record.rs", "fn f(epsilon: f64) -> String { format!(\"{epsilon}\") }\n")
        .contains(&RuleId::F64Exactness));
    // Floatish positional argument without .to_bits(): flagged.
    assert!(rules_of("src/record.rs", "fn f(slot_secs: f64) -> String { format!(\"{}\", slot_secs) }\n")
        .contains(&RuleId::F64Exactness));
    // Hex spec of the bits, or routing through .to_bits(): clean.
    assert!(rules_of("src/record.rs", "fn f(bits_secs: u64) -> String { format!(\"{bits_secs:016x}\") }\n").is_empty());
    assert!(rules_of("src/record.rs", "fn f(epsilon: f64) -> String { format!(\"{}\", epsilon.to_bits()) }\n").is_empty());
    // Same decimal formatting outside the configured wire files: clean.
    assert!(rules_of("src/other.rs", "fn f(epsilon: f64) -> String { format!(\"{epsilon}\") }\n").is_empty());
}

// ---- suppressions ---------------------------------------------------------

#[test]
fn suppression_silences_its_line_and_the_next() {
    let cfg = fixture_config();
    // End-of-line form.
    let eol = "fn f() { maybe().unwrap() } // privid-analyzer: allow(panic-freedom) -- proven infallible in tests\n";
    let (findings, suppressed) = check_source("src/serve.rs", eol, &cfg);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
    // Line-above form.
    let above = "// privid-analyzer: allow(panic-freedom) -- proven infallible in tests\nfn f() { maybe().unwrap() }\n";
    let (findings, suppressed) = check_source("src/serve.rs", above, &cfg);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
    // Two lines above: out of range, the finding stands.
    let far = "// privid-analyzer: allow(panic-freedom) -- too far away\n\nfn f() { maybe().unwrap() }\n";
    let (findings, _) = check_source("src/serve.rs", far, &cfg);
    assert_eq!(findings.len(), 1);
}

#[test]
fn suppression_without_reason_or_with_unknown_rule_is_itself_a_finding() {
    let cfg = fixture_config();
    let no_reason = "fn f() { maybe().unwrap() } // privid-analyzer: allow(panic-freedom)\n";
    let (findings, _) = check_source("src/serve.rs", no_reason, &cfg);
    assert!(findings.iter().any(|d| d.rule == RuleId::Suppression), "{findings:?}");
    // The original finding is NOT silenced by a malformed suppression.
    assert!(findings.iter().any(|d| d.rule == RuleId::PanicFreedom), "{findings:?}");

    let unknown = "fn f() {} // privid-analyzer: allow(made-up-rule) -- because\n";
    let (findings, _) = check_source("src/serve.rs", unknown, &cfg);
    assert!(findings.iter().any(|d| d.rule == RuleId::Suppression), "{findings:?}");

    // A suppression finding cannot itself be suppressed.
    let meta = "// privid-analyzer: allow(suppression) -- nice try\nfn f() {} // privid-analyzer: allow(bogus) -- x\n";
    let (findings, _) = check_source("src/serve.rs", meta, &cfg);
    assert!(findings.iter().any(|d| d.rule == RuleId::Suppression), "{findings:?}");
}

// ---- the CI gate, end to end ----------------------------------------------

/// Injecting a violation into a throwaway workspace must produce a finding —
/// which is exactly what makes `privid-analyzer -- check` (and the CI
/// `analyze` job wrapping it) exit non-zero.
#[test]
fn injected_violation_fails_a_workspace_run() {
    let dir = std::env::temp_dir().join(format!("privid-analyzer-gate-{}", std::process::id()));
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture workspace");
    std::fs::write(src_dir.join("clean.rs"), "fn ok(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n").unwrap();
    std::fs::write(src_dir.join("dirty.rs"), "fn bad(x: Option<u8>) -> u8 { x.unwrap() }\n").unwrap();

    let report = run(&dir, &fixture_config()).expect("fixture workspace run");
    assert_eq!(report.files, 2);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, RuleId::PanicFreedom);
    assert!(report.findings[0].file.ends_with("dirty.rs"));

    // Suppressing the injected site (with a reason) makes the same tree clean.
    std::fs::write(
        src_dir.join("dirty.rs"),
        "fn bad(x: Option<u8>) -> u8 { x.unwrap() } // privid-analyzer: allow(panic-freedom) -- fixture\n",
    )
    .unwrap();
    let report = run(&dir, &fixture_config()).expect("fixture workspace re-run");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);

    std::fs::remove_dir_all(&dir).ok();
}

/// An allowlist entry naming a file that does not exist is a config error
/// (exit 2), not a clean run: the orphaned line would hand its capability to
/// whatever file is next created at that path, with no review. Driven through
/// the real binary, since the exit code is the CI contract.
#[test]
fn orphaned_allowlist_entry_is_a_config_error() {
    let dir = std::env::temp_dir().join(format!("privid-analyzer-orphan-{}", std::process::id()));
    let src_dir = dir.join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir fixture workspace");
    std::fs::write(src_dir.join("budget.rs"), "fn f(l: &L) { l.check_and_debit(w, m, e); }\n").unwrap();
    let config = "[[taint]]\nname = \"budget-debit\"\nidents = [\"check_and_debit\"]\n\
                  allow = [\"src/budget.rs\", \"src/deleted_bench.rs\"]\n\
                  [f64-exactness]\nfiles = [\"src/gone_record.rs\"]\n";
    std::fs::write(dir.join("analyzer.toml"), config).unwrap();
    let check = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_privid-analyzer"))
            .args(["check", "--root"])
            .arg(&dir)
            .output()
            .expect("analyzer binary runs")
    };

    let out = check();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "orphaned entries must be a config error: {stderr}");
    assert!(stderr.contains("src/deleted_bench.rs"), "the taint orphan is named: {stderr}");
    assert!(stderr.contains("src/gone_record.rs"), "the f64-exactness orphan is named: {stderr}");
    assert!(!stderr.contains("\"src/budget.rs\""), "entries with a file behind them are fine: {stderr}");

    // Creating the files (or dropping the entries) makes the same tree clean.
    std::fs::write(src_dir.join("deleted_bench.rs"), "fn g() {}\n").unwrap();
    std::fs::write(src_dir.join("gone_record.rs"), "fn h() {}\n").unwrap();
    let out = check();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

/// The committed analyzer.toml must keep the storage `Vfs` layer inside the
/// panic-freedom surface: `FaultVfs` and friends live on the serving path
/// (every WAL byte flows through them), so a stray `unwrap` there is a
/// production panic, not test scaffolding. Guards against the coverage
/// quietly shrinking when storage modules move.
#[test]
fn committed_config_covers_storage_vfs_modules_for_panic_freedom() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/privid-analyzer");
    let toml = std::fs::read_to_string(root.join("analyzer.toml")).expect("committed analyzer.toml");
    let cfg = Config::parse(&toml).expect("committed analyzer.toml parses");

    // An unwrap in non-test vfs code is flagged under the committed config…
    let dirty = "fn decide(&self) { self.plan.lock().unwrap(); }\n";
    let (findings, _) = check_source("crates/privid-store/src/vfs.rs", dirty, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::PanicFreedom),
        "committed config no longer covers privid-store vfs code: {findings:?}"
    );

    // …while the module's #[cfg(test)] fixtures stay exempt.
    let test_only = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { plan().lock().unwrap(); }\n}\n";
    let (findings, _) = check_source("crates/privid-store/src/vfs.rs", test_only, &cfg);
    assert!(findings.is_empty(), "{findings:?}");

    // The fault-plan mutex is part of the declared lock order (leaf rank):
    // nesting another declared lock under it must be an inversion.
    let nested = "fn f(&self) {\n    let p = self.plan.lock();\n    let i = self.inner.lock();\n}\n";
    let (findings, _) = check_source("crates/privid-store/src/vfs.rs", nested, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "fault-plan must be a leaf in the committed lock order: {findings:?}"
    );
}

/// The committed analyzer.toml must cover the aggregate-state cache (the
/// second cache tier added with the incremental-fold path): its mutex is a
/// declared leaf in the lock order, and the module sits inside the
/// panic-freedom surface. Guards against the new module silently escaping
/// the privacy-review allowlists.
#[test]
fn committed_config_covers_the_aggregate_cache_module() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/privid-analyzer");
    let toml = std::fs::read_to_string(root.join("analyzer.toml")).expect("committed analyzer.toml");
    let cfg = Config::parse(&toml).expect("committed analyzer.toml parses");

    // An unwrap in non-test aggcache code is flagged under the committed config.
    let dirty = "fn probe(&self) { self.agg_entries.lock().unwrap(); }\n";
    let (findings, _) = check_source("crates/privid-core/src/aggcache.rs", dirty, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::PanicFreedom),
        "committed config no longer covers privid-core aggcache code: {findings:?}"
    );

    // `agg-cache-entries` is declared: acquiring a registry lock (which every
    // rank orders *before* the caches) under it must be an inversion…
    let nested = "fn f(&self) {\n    let a = self.agg_entries.lock();\n    let c = self.cameras.write();\n}\n";
    let (findings, _) = check_source("crates/privid-core/src/aggcache.rs", nested, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "agg-cache-entries must be a declared leaf in the committed lock order: {findings:?}"
    );

    // …and it is ordered after the chunk-cache mutex, so probing tier 2 while
    // holding tier 1 follows the declared order (the reverse would not).
    let tiered = "fn f(&self) {\n    let c = self.entries.lock();\n    let a = self.agg_entries.lock();\n}\n";
    let (findings, _) = check_source("crates/privid-core/src/aggcache.rs", tiered, &cfg);
    assert!(
        !findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "cache-entries before agg-cache-entries should follow the declared order: {findings:?}"
    );
    let inverted = "fn f(&self) {\n    let a = self.agg_entries.lock();\n    let c = self.entries.lock();\n}\n";
    let (findings, _) = check_source("crates/privid-core/src/aggcache.rs", inverted, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "agg-cache-entries before cache-entries must be an inversion: {findings:?}"
    );
}

/// The committed analyzer.toml must declare the per-shard admission gates as
/// an indexed lock family: the fleet's deadlock-freedom argument rests on
/// every multi-shard admission taking the gates in ascending shard order,
/// and this is the machine check that keeps literal acquisition sites
/// honest. Guards against the family declaration quietly disappearing.
#[test]
fn committed_config_rejects_out_of_order_shard_gate_acquisition() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/privid-analyzer");
    let toml = std::fs::read_to_string(root.join("analyzer.toml")).expect("committed analyzer.toml");
    let cfg = Config::parse(&toml).expect("committed analyzer.toml parses");
    assert!(
        cfg.lock_indexed.iter().any(|l| l == "admission-gate"),
        "admission-gate must be declared an indexed family: {:?}",
        cfg.lock_indexed
    );

    // Descending shard gates under the committed config: an inversion.
    let descending =
        "fn f(&self) {\n    self.shards[1].admission.exclusive(|| {\n        self.shards[0].admission.exclusive(|| {});\n    });\n}\n";
    let (findings, _) = check_source("crates/privid-core/src/service.rs", descending, &cfg);
    assert!(
        findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "committed config must reject out-of-order shard gate acquisition: {findings:?}"
    );

    // Ascending shard gates: the canonical order, clean.
    let ascending =
        "fn f(&self) {\n    self.shards[0].admission.exclusive(|| {\n        self.shards[1].admission.exclusive(|| {});\n    });\n}\n";
    let (findings, _) = check_source("crates/privid-core/src/service.rs", ascending, &cfg);
    assert!(
        !findings.iter().any(|d| d.rule == RuleId::LockOrder),
        "ascending shard gate acquisition must stay clean: {findings:?}"
    );
}

// ---- the workspace self-test ----------------------------------------------

/// The analyzer, run over this repository with the committed analyzer.toml,
/// must report zero unsuppressed findings. This is the test-suite mirror of
/// the CI `analyze` gate: a regression in either the rules or the code shows
/// up here before it shows up in CI.
#[test]
fn workspace_is_clean_under_committed_config() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/privid-analyzer")
        .to_path_buf();
    let toml = std::fs::read_to_string(root.join("analyzer.toml")).expect("committed analyzer.toml");
    let cfg = Config::parse(&toml).expect("committed analyzer.toml parses");
    let report = run(&root, &cfg).expect("workspace walk");
    assert!(report.files > 50, "walk looks truncated: {} files", report.files);
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings in the workspace:\n{}",
        report
            .findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
