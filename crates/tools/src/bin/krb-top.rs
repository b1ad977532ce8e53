//! `krb-top` — the operator's dashboard over the KDC introspection plane.
//!
//! ```text
//! krb-top [--seed N] [--polls N] [--tail N] [--top K] [--once] [--json]
//! ```
//!
//! Stands up the seeded monitoring rig (a realm whose KDC serves the
//! `krb-mon` frames on the MON port), drives deterministic traffic, and
//! polls the introspection frames after each round. Without flags it
//! prints one dashboard screen per poll. `--once` runs a single poll;
//! `--json` emits the final poll's machine-readable snapshot instead —
//! `krb-top --once --json` is byte-identical across runs and is the CI
//! gate `scripts/check.sh` pins. Exemplar and flight-record trace ids in
//! the output resolve to full timelines via `krb-trace` on the same
//! run's journal dump. See `crates/tools/src/krbtop.rs`.

use krb_tools::args::Args;
use krb_tools::krbtop::{render_dashboard, run, to_json, TopConfig};

const USAGE: &str = "krb-top [--seed N] [--polls N] [--tail N] [--top K] [--once] [--json]";

fn main() {
    let mut cfg = TopConfig::default();
    let mut json = false;
    let mut args = Args::from_env("krb-top", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--polls" => cfg.polls = args.value(&flag, "a number"),
            "--tail" => cfg.tail = args.value(&flag, "a number"),
            "--top" => cfg.top_k = args.value(&flag, "a number"),
            "--once" => cfg.polls = 1,
            "--json" => json = true,
            other => args.unknown(other),
        }
    }

    let run = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("krb-top: monitoring rig failed: {e}");
            std::process::exit(1);
        }
    };
    if json {
        match run.snapshots.last() {
            Some(snap) => println!("{}", to_json(snap).render()),
            None => {
                eprintln!("krb-top: no snapshot produced");
                std::process::exit(1);
            }
        }
    } else {
        for snap in &run.snapshots {
            print!("{}", render_dashboard(snap));
        }
    }
}
