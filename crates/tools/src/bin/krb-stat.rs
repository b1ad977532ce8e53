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

use krb_tools::{run_load, StatConfig};

fn main() {
    let mut cfg = StatConfig::default();
    let mut out: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--iters" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.iters = n,
                None => return usage("--iters needs a number"),
            },
            "--users" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.users = n,
                None => return usage("--users needs a number"),
            },
            "--seed" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return usage("--seed needs a number"),
            },
            "--threads" => match take_value(&mut i).and_then(|v| v.parse().ok()) {
                Some(n) => cfg.threads = n,
                None => return usage("--threads needs a number"),
            },
            "--smoke" => cfg = StatConfig::smoke(),
            "--out" => match take_value(&mut i) {
                Some(p) => out = Some(p),
                None => return usage("--out needs a path"),
            },
            "--journal" => match take_value(&mut i) {
                Some(p) => journal_out = Some(p),
                None => return usage("--journal needs a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
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
            if let Err(e) = std::fs::write(path, &report.json) {
                eprintln!("krb-stat: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "krb-stat: {} AS + {} TGS (shared realm), {} errors -> {path}",
                report.as_ok, report.tgs_ok, report.errors
            );
        }
        None => print!("{}", report.json),
    }
}

fn usage(err: &str) {
    eprintln!("krb-stat: {err}");
    eprintln!(
        "usage: krb-stat [--iters N] [--users N] [--seed N] [--threads N] [--smoke] \
         [--out PATH] [--journal PATH]"
    );
    std::process::exit(2);
}
