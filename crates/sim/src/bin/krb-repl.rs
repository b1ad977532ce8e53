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

use krb_sim::{repl, soak, Profile, ReplConfig};
use krb_tools::args::Args;

const USAGE: &str = "krb-repl [--principals N] [--rounds N] [--writes N] [--seed N] \
                     [--profile mild|stormy|partition|dup-heavy|corrupt] [--slaves N] [--log-cap N] \
                     [--json] [--smoke]";

fn main() {
    let mut cfg = ReplConfig::default();
    let mut smoke = false;
    let mut json = false;
    let mut args = Args::from_env("krb-repl", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--principals" => cfg.principals = args.value(&flag, "a number"),
            "--rounds" => cfg.rounds = args.value(&flag, "a number"),
            "--writes" => cfg.writes_per_round = args.value(&flag, "a number"),
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--slaves" => cfg.slaves = args.value(&flag, "a number"),
            "--log-cap" => cfg.log_cap = args.value(&flag, "a number"),
            "--profile" => {
                let names = "one of: mild stormy partition dup-heavy corrupt";
                cfg.profile = args.value_with(&flag, names, Profile::parse);
            }
            "--json" => json = true,
            "--smoke" => smoke = true,
            other => args.unknown(other),
        }
    }

    if smoke {
        cfg = ReplConfig::smoke(cfg.seed);
        json = true;
    }

    let report = soak::or_exit("krb-repl", repl::run_repl(cfg));
    if json {
        println!("{}", report.render_json());
        return;
    }
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
