//! Root-level checks of the `krb-adversary` subsystem through the
//! umbrella-crate facade: the seeded Dolev–Yao soak must be byte-identical
//! under replay, the honest protocol must keep both oracles green, and the
//! `--smoke` document must carry every schema key.

use athena_kerberos::adversary::{self, AdvConfig, Leak, ADVERSARY_JSON_KEYS, ADV_SEED};

#[test]
fn smoke_document_is_deterministic_and_self_verifying() {
    // `smoke_json` runs every leak mode at CI scale and *internally*
    // verifies each run against its expected oracle verdicts — honest
    // green, each leak tripping exactly the matching detections — so a
    // successful return is itself the assertion.
    let a = adversary::smoke_json(ADV_SEED).expect("smoke must self-verify").render();
    let b = adversary::smoke_json(ADV_SEED).expect("smoke must self-verify").render();
    assert_eq!(a, b, "same seed must replay byte-identically");
    for key in ADVERSARY_JSON_KEYS {
        assert!(a.contains(&format!("\"{key}\"")), "smoke JSON missing key {key:?}");
    }
}

#[test]
fn honest_soak_through_the_facade_stays_green() {
    let cfg = AdvConfig::smoke(ADV_SEED, Leak::None);
    let report = adversary::run(cfg).expect("honest protocol must not trip an oracle");
    adversary::verify_expectations(&report).expect("honest expectations");

    assert!(report.secrecy_ok() && report.auth_ok());
    assert_eq!(report.closure_keys, 0, "no leak: the attacker derives no keys");
    assert_eq!(report.accepted_forgeries, 0);
    assert!(report.injections() > 0, "the attacker must actually attack");
    assert!(report.logins_ok > 0 && report.app_ok > 0, "victim work must go through");

    // The report renders deterministically in both shapes.
    let again = adversary::run(AdvConfig::smoke(ADV_SEED, Leak::None)).unwrap();
    assert_eq!(report.to_json().render(), again.to_json().render());
    assert_eq!(report.render_human(), again.render_human());
}
