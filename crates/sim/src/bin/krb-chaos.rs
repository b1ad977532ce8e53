//! `krb-chaos` — deterministic fault-injection soak with invariant oracles.
//!
//! ```text
//! krb-chaos [--seed N] [--ops N] [--profile NAME] [--workstations N]
//!           [--slaves N] [--json] [--smoke]
//! ```
//!
//! `--smoke` runs every fault profile at CI scale and prints one combined
//! JSON document; two runs with the same seed are byte-identical, which
//! `scripts/check.sh` verifies with `diff`. Without `--smoke`, one profile
//! runs at the given scale and prints a human summary (or, with `--json`,
//! the report object). Any oracle violation prints the seed, the exact
//! replay command line, and the fault plan's window list, then exits 1.
//! See `crates/sim/src/chaos.rs` for the oracle definitions.

use krb_sim::chaos;
use krb_sim::{Profile, SoakConfig};

fn main() {
    let mut cfg = SoakConfig::default();
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
            "--seed" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage("--seed needs a number"),
            },
            "--ops" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.ops = n,
                None => return usage("--ops needs a number"),
            },
            "--workstations" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.workstations = n,
                None => return usage("--workstations needs a number"),
            },
            "--slaves" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.slaves = n,
                None => return usage("--slaves needs a number"),
            },
            "--profile" => match take_value(&mut i).as_deref().and_then(Profile::parse) {
                Some(p) => cfg.profile = p,
                None => return usage("--profile needs one of: mild stormy partition dup-heavy corrupt"),
            },
            "--json" => json = true,
            "--smoke" => smoke = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    if smoke {
        match chaos::smoke_json(cfg.seed) {
            Ok(doc) => println!("{doc}"),
            Err(failure) => {
                eprintln!("krb-chaos: {failure}");
                std::process::exit(1);
            }
        }
        return;
    }

    match chaos::run(cfg) {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                println!(
                    "krb-chaos: profile={} seed={} ops={} — all oracles hold",
                    report.profile.as_str(),
                    report.seed,
                    report.ops
                );
                println!(
                    "  logins {}/{} ok, app {}/{} ok, kprop {}/{} accepted, {} healed after heal()",
                    report.logins_ok,
                    report.logins_attempted,
                    report.app_ok,
                    report.app_requests,
                    report.kprop.accepted,
                    report.kprop.transfers,
                    report.healed_logins
                );
                println!(
                    "  net: sent={} delivered={} dropped={} duplicated={} corrupted={}",
                    report.net.sent,
                    report.net.delivered,
                    report.net.dropped,
                    report.net.duplicated,
                    report.net.corrupted
                );
                println!(
                    "  replay: {} hits for {} duplicates at the server; journal: {} events, {} traces",
                    report.replay_hits,
                    report.dups_at_server,
                    report.journal_events,
                    report.traces_checked
                );
            }
        }
        Err(failure) => {
            eprintln!("krb-chaos: {failure}");
            std::process::exit(1);
        }
    }
}

fn usage(err: &str) {
    eprintln!("krb-chaos: {err}");
    eprintln!(
        "usage: krb-chaos [--seed N] [--ops N] [--profile mild|stormy|partition|dup-heavy|corrupt] \
         [--workstations N] [--slaves N] [--json] [--smoke]"
    );
    std::process::exit(2);
}
