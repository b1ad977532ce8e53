//! Tier-1 gate for the `krb-lint` static-analysis pass: the workspace must
//! be clean — zero live findings, zero stale allowlist entries — and the
//! allowlist must stay small enough to burn down, not grow.

use krb_lint::run;
use std::path::Path;

const MAX_ALLOW_ENTRIES: usize = 10;

#[test]
fn workspace_passes_krb_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(root).expect("lint pass runs");
    assert!(report.files_scanned > 0, "krb-lint scanned zero files — the pass proved nothing");
    assert!(
        report.findings.is_empty(),
        "krb-lint findings (fix them or, with justification, allowlist):\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_allow.is_empty(),
        "stale lint.allow entries (the code is clean now — delete them):\n{}",
        report
            .stale_allow
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.allow_count <= MAX_ALLOW_ENTRIES,
        "lint.allow has {} entries (max {MAX_ALLOW_ENTRIES}); fix code instead of allowlisting",
        report.allow_count
    );
}

/// Every known-bad fixture fires its one expected finding; every
/// known-good twin stays silent. The fixtures are scanned under a neutral
/// path (`crates/fixture/src/...`) so no path-scoped rule or exemption
/// interferes, except the L6 adapter pair, which is scanned under
/// `crates/core/src/...`, where that half of L6 applies.
#[test]
fn l8_l9_fixture_corpus_fires_deterministically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join("crates/lint/tests/fixtures");
    let bad: &[(&str, &str, &str)] = &[
        ("l8_guard_across_send.rs", "L8", "master_across_send"),
        ("l8_guard_across_ship.rs", "L8", "primary_across_ship"),
        ("l8_temp_guard_in_call.rs", "L8", "master_across_build_full_seq"),
        ("l8_lock_order.rs", "L8", "order_ledger_master"),
        ("l8_same_lock_twice.rs", "L8", "order_master_master"),
        ("l9_multihop_format.rs", "L9", "aliased"),
        ("l9_password_println.rs", "L9", "password"),
        ("l9_field_from.rs", "L9", "DesKey"),
        ("l9_mon_frame.rs", "L9", "session_key"),
        ("l9_variant_binding.rs", "L9", "key"),
        ("l6_deskey_adapter.rs", "L6", "seal_note"),
    ];
    for (file, rule, key) in bad {
        let crate_dir = if *rule == "L6" { "core" } else { "fixture" };
        let src = std::fs::read_to_string(dir.join(file)).expect(file);
        let findings = krb_lint::scan_file(&format!("crates/{crate_dir}/src/{file}"), &src);
        assert_eq!(
            findings.len(),
            1,
            "{file}: expected exactly one finding, got {findings:?}"
        );
        assert_eq!(findings[0].rule, *rule, "{file}");
        assert_eq!(findings[0].key, *key, "{file}");

        // ...and its good twin is clean.
        let twin = file.replace(".rs", "_ok.rs");
        let src = std::fs::read_to_string(dir.join(&twin)).expect(&twin);
        let findings = krb_lint::scan_file(&format!("crates/{crate_dir}/src/{twin}"), &src);
        assert!(findings.is_empty(), "{twin}: expected clean, got {findings:?}");
    }
}

/// Stale-allowlist enforcement covers the scope-aware rules: in the
/// mini-workspace fixture, the used L8 entry shows up as allowed while
/// the unmatched L8 (lock-order) and L9 entries are reported stale.
#[test]
fn stale_l8_l9_allow_entries_fail_the_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/lint/tests/fixtures/stale_ws");
    let report = krb_lint::run(&root).expect("fixture lint pass runs");
    assert!(report.findings.is_empty(), "live: {:?}", report.findings);
    assert!(
        report
            .allowed
            .iter()
            .any(|f| f.rule == "L8" && f.key == "master_across_send"),
        "the used L8 entry must be exercised: {:?}",
        report.allowed
    );
    let stale: Vec<(String, String)> = report
        .stale_allow
        .iter()
        .map(|e| (e.rule.clone(), e.key.clone()))
        .collect();
    assert_eq!(
        stale,
        vec![
            ("L8".to_string(), "order_ledger_master".to_string()),
            ("L9".to_string(), "password".to_string())
        ],
        "both scope-rule entries must be flagged stale"
    );
    assert!(!report.is_clean(), "stale entries must fail the run");
}

#[test]
fn allowlisted_findings_are_still_tracked() {
    // The one blessed entry (kdb's master-key-encrypted principal key) must
    // show up as *allowed*, proving the allowlist matches real findings
    // rather than rotting silently.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run(root).expect("lint pass runs");
    assert!(
        report
            .allowed
            .iter()
            .any(|f| f.rule == "L1" && f.key == "key_encrypted"),
        "expected the kdb key_encrypted entry to be exercised"
    );
}
