//! `krb-trace` — reconstruct per-request timelines from a journal dump.
//!
//! ```text
//! krb-trace [--input PATH] [--json] [--errors-only] [--component C] [--smoke]
//! ```
//!
//! Reads a `krb_telemetry::journal` dump (from `--input` or stdin) and
//! prints one timeline per trace id — a login's AS → TGS → AP hops as a
//! tree — or the same structure as JSON with `--json`. `--errors-only`
//! keeps only traces containing an error event; `--component ws|kdc|app|
//! kprop|net` keeps only that hop's events. `--smoke` ignores the input
//! and runs the self-contained CI pass (seeded login + forced failures,
//! byte-identity across two runs); it exits non-zero on any failed check.

use krb_tools::args::Args;
use krb_tools::krbtrace;
use std::io::Read;

const USAGE: &str = "krb-trace [--input PATH] [--json] [--errors-only] [--component C] [--smoke]";

fn main() {
    let mut input: Option<String> = None;
    let mut json = false;
    let mut filter = krbtrace::TraceFilter::default();
    let mut smoke = false;
    let mut args = Args::from_env("krb-trace", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--input" => input = Some(args.value(&flag, "a path")),
            "--json" => json = true,
            "--errors-only" => filter.errors_only = true,
            "--component" => {
                let known = ["ws", "kdc", "app", "kprop", "net"];
                filter.component = Some(args.value_with(&flag, "one of ws|kdc|app|kprop|net", |c| {
                    known.contains(&c).then(|| c.to_string())
                }));
            }
            "--smoke" => smoke = true,
            other => args.unknown(other),
        }
    }

    if smoke {
        match krbtrace::smoke() {
            Ok(report) => print!("{report}"),
            Err(why) => {
                eprintln!("krb-trace: smoke FAILED: {why}");
                std::process::exit(1);
            }
        }
        return;
    }

    let text = match &input {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("krb-trace: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("krb-trace: cannot read stdin: {e}");
                std::process::exit(1);
            }
            buf
        }
    };

    let events = krbtrace::parse_dump(&text);
    if json {
        println!("{}", krbtrace::to_json(events, &filter).render());
    } else {
        print!("{}", krbtrace::render_timelines(events, &filter));
    }
}
