//! `krb-repl` — million-principal-realm replication gate.
//!
//! ```text
//! krb-repl [--principals N] [--rounds N] [--writes N] [--seed N]
//!          [--profile NAME] [--slaves N] [--log-cap N] [--json] [--smoke]
//! ```
//!
//! Bulk-loads a realm at depth through the kdb pre-splitting batch path,
//! then drives journaled incremental propagation rounds against the
//! slaves under a fault profile, checking the replication-conservation
//! and metrics≡journal oracles throughout. `--smoke` is the CI shape
//! (10^5 principals, mild profile) printing one JSON document; two runs
//! with the same seed are byte-identical, which `scripts/check.sh`
//! verifies with `diff`. Any oracle violation prints the replay command
//! line and exits 1. See `crates/sim/src/repl.rs` for the oracle
//! definitions.

use krb_sim::repl;
use krb_sim::{Profile, ReplConfig};

fn main() {
    let mut cfg = ReplConfig::default();
    let mut smoke = false;
    let mut json = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--principals" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.principals = n,
                None => return usage("--principals needs a number"),
            },
            "--rounds" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.rounds = n,
                None => return usage("--rounds needs a number"),
            },
            "--writes" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.writes_per_round = n,
                None => return usage("--writes needs a number"),
            },
            "--seed" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage("--seed needs a number"),
            },
            "--slaves" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.slaves = n,
                None => return usage("--slaves needs a number"),
            },
            "--log-cap" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.log_cap = n,
                None => return usage("--log-cap needs a number"),
            },
            "--profile" => match take_value(&mut i).as_deref().and_then(Profile::parse) {
                Some(p) => cfg.profile = p,
                None => {
                    return usage("--profile needs one of: mild stormy partition dup-heavy corrupt")
                }
            },
            "--json" => json = true,
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if smoke {
        cfg = ReplConfig::smoke(cfg.seed);
        json = true;
    }

    match repl::run_repl(cfg) {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                println!(
                    "krb-repl: profile={} seed={} principals={} — all oracles hold",
                    report.profile.as_str(),
                    report.seed,
                    report.principals
                );
                println!(
                    "  {} admin writes over {} rounds; {} transfers ({} incr, {} full): \
                     {} accepted, {} rejected; final seq {}; {} bytes shipped",
                    report.admin_writes,
                    report.rounds,
                    report.shipped.transfers,
                    report.shipped.incr,
                    report.shipped.full,
                    report.shipped.accepted,
                    report.shipped.rejected,
                    report.final_seq,
                    report.shipped.bytes
                );
            }
        }
        Err(failure) => {
            eprintln!("krb-repl: {failure}");
            std::process::exit(1);
        }
    }
}

fn usage(err: &str) {
    eprintln!("krb-repl: {err}");
    eprintln!(
        "usage: krb-repl [--principals N] [--rounds N] [--writes N] [--seed N] \
         [--profile mild|stormy|partition|dup-heavy|corrupt] [--slaves N] [--log-cap N] \
         [--json] [--smoke]"
    );
    std::process::exit(2);
}
