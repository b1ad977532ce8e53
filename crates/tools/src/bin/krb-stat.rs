//! `krb-stat` — run the KDC load loop and write `BENCH_kdc.json`.
//!
//! ```text
//! krb-stat [--iters N] [--users N] [--seed N] [--threads N] [--sim-clock]
//!          [--scale] [--smoke] [--out PATH] [--journal PATH]
//! ```
//!
//! `--threads N` workers hammer **one shared realm** (the concurrent-KDC
//! configuration of DESIGN.md §15). `--scale` runs it at 1/4/8/16
//! threads and appends a `"scaling"` array to the
//! snapshot. `--smoke` is the fast deterministic CI configuration (25
//! cycles, simulated latency clock); without it the defaults measure real
//! wall time. `--journal` additionally writes the run's event-journal
//! dump, ready for `krb-trace --input`. See `crates/tools/src/krbstat.rs`
//! for what the numbers mean.

use krb_tools::{run_load, run_scale, StatConfig};

/// The thread counts `--scale` sweeps.
const SCALE_THREADS: &[usize] = &[1, 4, 8, 16];

fn main() {
    let mut cfg = StatConfig::default();
    let mut out = String::from("BENCH_kdc.json");
    let mut journal_out: Option<String> = None;
    let mut scale = false;
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
            "--sim-clock" => cfg.sim_clock = true,
            "--scale" => scale = true,
            "--smoke" => cfg = StatConfig::smoke(),
            "--out" => match take_value(&mut i) {
                Some(p) => out = p,
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

    let result = if scale { run_scale(&cfg, SCALE_THREADS) } else { run_load(&cfg) };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("krb-stat: load loop failed: {e}");
            std::process::exit(1);
        }
    };
    // Bench-rot check: before overwriting, compare against whatever
    // snapshot is committed at the output path. Advisory only — CI output
    // shows the warning, the exit code stays 0.
    if let Ok(committed) = std::fs::read_to_string(&out) {
        if let Some(warning) = krb_tools::drift_warning(&report.json, &committed) {
            eprintln!("{warning}");
        }
    }
    if let Err(e) = std::fs::write(&out, &report.json) {
        eprintln!("krb-stat: cannot write {out}: {e}");
        std::process::exit(1);
    }
    if let Some(path) = &journal_out {
        if let Err(e) = std::fs::write(path, &report.journal_dump) {
            eprintln!("krb-stat: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "krb-stat: {} AS + {} TGS in {} us ({} clock, shared realm{}), {} errors -> {}",
        report.as_ok,
        report.tgs_ok,
        report.elapsed_us,
        if cfg.sim_clock { "sim" } else { "wall" },
        if scale { ", scaling sweep" } else { "" },
        report.errors,
        out
    );
}

fn usage(err: &str) {
    eprintln!("krb-stat: {err}");
    eprintln!(
        "usage: krb-stat [--iters N] [--users N] [--seed N] [--threads N] [--sim-clock] \
         [--scale] [--smoke] [--out PATH] [--journal PATH]"
    );
    std::process::exit(2);
}
