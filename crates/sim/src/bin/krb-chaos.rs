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

use krb_sim::{chaos, soak, Profile, SoakConfig};
use krb_tools::args::Args;

const USAGE: &str = "krb-chaos [--seed N] [--ops N] [--profile mild|stormy|partition|dup-heavy|corrupt] \
                     [--workstations N] [--slaves N] [--json] [--smoke]";

fn main() {
    let mut cfg = SoakConfig::default();
    let mut smoke = false;
    let mut json = false;
    let mut args = Args::from_env("krb-chaos", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--ops" => cfg.ops = args.value(&flag, "a number"),
            "--workstations" => cfg.workstations = args.value(&flag, "a number"),
            "--slaves" => cfg.slaves = args.value(&flag, "a number"),
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
        println!("{}", soak::or_exit("krb-chaos", chaos::smoke_json(cfg.seed)).render());
        return;
    }

    let report = soak::or_exit("krb-chaos", chaos::run(cfg));
    if json {
        println!("{}", report.to_json().render());
        return;
    }
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
