//! `krb-lint` binary: scan the workspace, print findings, exit non-zero
//! when the tree is not clean (live findings or stale allowlist entries).
//!
//! Usage: `krb-lint [ROOT] [--json] [--explain L<k>]`
//!
//! - `--json` emits the machine-readable report (`krb-lint/v2` schema)
//!   instead of the human lines; the exit code still reflects
//!   cleanliness, so CI can pipe the JSON *and* gate on the status.
//! - `--explain L8` prints one rule's full documentation and exits
//!   successfully without scanning.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: krb-lint [ROOT] [--json] [--explain L<k>]");
    ExitCode::FAILURE
}

/// Print a line to stdout, tolerating a closed pipe (`krb-lint --json |
/// head` must not panic — the JSON mode exists to be piped).
fn emit(line: &str) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut explain: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--explain" => match args.next() {
                Some(rule) => explain = Some(rule),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("krb-lint: unknown flag `{flag}`");
                return usage();
            }
            path if root.is_none() => root = Some(PathBuf::from(path)),
            _ => return usage(),
        }
    }

    if let Some(rule) = explain {
        return match krb_lint::explain(&rule) {
            Some(r) => {
                emit(&format!("{} — {}\n\n{}", r.id, r.title, r.detail));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "krb-lint: no rule `{rule}`; active rules: {}",
                    krb_lint::RULES
                        .iter()
                        .map(|r| r.id)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                ExitCode::FAILURE
            }
        };
    }

    let root = match root {
        Some(p) => p,
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match krb_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("krb-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let report = match krb_lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("krb-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        emit(&report.to_json().render());
    } else {
        for f in &report.findings {
            emit(&f.to_string());
        }
        for e in &report.stale_allow {
            emit(&format!(
                "STALE lint.allow:{} `{}` matches no finding; delete the line",
                e.line, e
            ));
        }
        let per_rule: Vec<String> = report
            .counts()
            .iter()
            .filter(|(_, live, allowed)| live + allowed > 0)
            .map(|(id, live, allowed)| format!("{id}:{live}+{allowed}a"))
            .collect();
        emit(&format!(
            "krb-lint: {} file(s), {} finding(s), {} allowlisted, {} stale allow entr{}{}{}",
            report.files_scanned,
            report.findings.len(),
            report.allowed.len(),
            report.stale_allow.len(),
            if report.stale_allow.len() == 1 { "y" } else { "ies" },
            if per_rule.is_empty() { "" } else { " — " },
            per_rule.join(" "),
        ));
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
