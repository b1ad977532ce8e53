//! `krb-stat` — run the deterministic shared-realm KDC load loop.
//!
//! ```text
//! krb-stat [--iters N] [--users N] [--seed N] [--threads N] [--smoke]
//!          [--out PATH] [--journal PATH]
//! ```
//!
//! `--threads N` workers hammer **one shared realm** (the concurrent-KDC
//! configuration of DESIGN.md §15) on simulated clocks only, so two
//! same-config runs are byte-identical. `--smoke` is the fast CI
//! configuration (25 cycles per thread). The JSON snapshot goes to `--out`,
//! or to stdout without it; `--journal` additionally writes the run's
//! event-journal dump, ready for `krb-trace --input`. See
//! `crates/tools/src/krbstat.rs` for what the fields mean; performance
//! figures come from `benchmark/` (kbench), not from this tool.

use krb_tools::args::Args;
use krb_tools::{run_load, StatConfig};

const USAGE: &str = "krb-stat [--iters N] [--users N] [--seed N] [--threads N] [--smoke] \
                     [--out PATH] [--journal PATH]";

fn main() {
    let mut cfg = StatConfig::default();
    let mut out: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let mut args = Args::from_env("krb-stat", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--iters" => cfg.iters = args.value(&flag, "a number"),
            "--users" => cfg.users = args.value(&flag, "a number"),
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--threads" => cfg.threads = args.value(&flag, "a number"),
            "--smoke" => cfg = StatConfig::smoke(),
            "--out" => out = Some(args.value(&flag, "a path")),
            "--journal" => journal_out = Some(args.value(&flag, "a path")),
            other => args.unknown(other),
        }
    }

    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("krb-stat: load loop failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &journal_out {
        if let Err(e) = std::fs::write(path, &report.journal_dump) {
            eprintln!("krb-stat: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{}\n", report.to_json().render())) {
                eprintln!("krb-stat: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "krb-stat: {} AS + {} TGS (shared realm), {} errors -> {path}",
                report.as_ok, report.tgs_ok, report.errors
            );
        }
        None => println!("{}", report.to_json().render()),
    }
}
