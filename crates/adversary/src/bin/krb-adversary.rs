//! `krb-adversary` — seeded Dolev–Yao active attacker with oracles.
//!
//! ```text
//! krb-adversary [--seed N] [--steps N] [--leak none|user-key|service-key|master-key]
//!               [--json] [--smoke]
//! ```
//!
//! `--smoke` runs every leak mode at CI scale, checks each run against
//! its expected oracle verdicts (the honest protocol must stay green;
//! each leak must trip exactly the matching detections), and prints one
//! combined JSON document. Two runs with the same seed are
//! byte-identical, which `scripts/check.sh` verifies with `diff`.
//! Without `--smoke`, one soak runs at the given scale and prints a
//! human summary with the attacker's closure dump (or, with `--json`,
//! the report object). An oracle violation in honest mode prints the
//! seed and the exact replay command line, then exits 1. See
//! `crates/adversary/src/soak.rs` for the oracle definitions.

use krb_adversary::{soak, AdvConfig, Leak};
use krb_sim::soak::or_exit;
use krb_tools::args::Args;

const USAGE: &str = "krb-adversary [--seed N] [--steps N] \
                     [--leak none|user-key|service-key|master-key] [--json] [--smoke]";

fn main() {
    let mut cfg = AdvConfig::default();
    let mut smoke = false;
    let mut json = false;
    let mut args = Args::from_env("krb-adversary", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--steps" => cfg.steps = args.value(&flag, "a number"),
            "--leak" => {
                let names = "one of: none user-key service-key master-key";
                cfg.leak = args.value_with(&flag, names, Leak::parse);
            }
            "--json" => json = true,
            "--smoke" => smoke = true,
            other => args.unknown(other),
        }
    }

    if smoke {
        println!("{}", or_exit("krb-adversary", soak::smoke_json(cfg.seed)));
        return;
    }

    let report = or_exit("krb-adversary", soak::run(cfg));
    if json {
        println!("{{\"tool\":\"krb-adversary\",\"run\":{}}}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if let Err(why) = soak::verify_expectations(&report) {
        eprintln!("krb-adversary: self-test failed: {why}");
        std::process::exit(1);
    }
}
