//! `krb_tools::args` through a real binary: every complaint about the
//! command line is the tool's name, the complaint, the usage line, exit 2.

use std::process::Command;

/// Run `krb-top` with `args`; return (exit code, stderr).
fn krb_top(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_krb-top")).args(args).output().expect("spawn");
    assert!(out.stdout.is_empty(), "a usage error prints nothing on stdout");
    (out.status.code(), String::from_utf8(out.stderr).expect("utf-8"))
}

const USAGE: &str = "usage: krb-top [--seed N] [--polls N] [--tail N] [--top K] [--once] [--json]\n";

#[test]
fn missing_unparsable_and_unknown_each_produce_the_usage_error() {
    for (args, complaint) in [
        (&["--once", "--seed"][..], "--seed needs a number"),
        (&["--polls", "many"][..], "--polls needs a number"),
        (&["--tail", "-1"][..], "--tail needs a number"),
        (&["--json", "--frobnicate"][..], "unknown argument `--frobnicate`"),
        (&["stray"][..], "unknown argument `stray`"),
    ] {
        let (code, stderr) = krb_top(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("krb-top: {complaint}\n{USAGE}"), "{args:?}");
    }
}
