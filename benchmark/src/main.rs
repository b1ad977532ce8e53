//! `kbench`: a four-workload, layer-attributed benchmark of the login,
//! ticket, admin and propagation paths. See `benchmark/README.md`.

mod churn;
mod compare;
mod json;
mod load;
mod metrics;
mod probes;
mod realm;
mod report;
mod run;
mod schedule;
mod span;
mod stats;

use json::Json;
use metrics::Kind;
use report::{DEFAULT_SECONDS, DEFAULT_SEED};
use run::Plan;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  kbench run [--seed N] [--workload NAME] [--seconds N] [--smoke] [--out FILE]
  kbench compare A.json B.json
  kbench measure --workload NAME --seed N --seconds N --trace 0|1
  kbench contract        (prints BENCHMARK.json)
  kbench metrics         (prints the metric glossary)";

/// Options shared by `run`, `worker` and `measure`.
struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?);
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.clamp(1, 60),
            "--trace" => o.traced = number()? != 0,
            "--out" => o.out = Some(PathBuf::from(value)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(o)
}

/// Run one workload in this process. `measure` prints the driver's result
/// line, `worker` everything that was measured.
fn worker(o: &Options, contract: bool) -> Result<bool, String> {
    let kind = o.workload.ok_or("--workload is required")?;
    let plan = Plan::new(kind, o.seconds, o.smoke);
    let outcome = if o.traced {
        run::traced(kind, o.seed, plan)?
    } else {
        run::untraced(kind, o.seed, plan)?
    };
    if let Some(path) = &o.trace_out {
        let lines: String = outcome
            .first_spans
            .iter()
            .map(|s| report::span_json(s).render() + "\n")
            .collect();
        std::fs::write(path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for note in &outcome.notes {
        eprintln!("kbench: {}: {note}", kind.name());
    }
    let doc = if contract {
        report::contract_json(o.traced, &outcome)
    } else {
        report::outcome_json(kind, o.seed, o.traced, &outcome)
    };
    println!("{}", doc.render());
    // A printed result is a completed run; `correct` carries the verdict
    // to the driver, the exit code carries it to `run`.
    Ok(contract || outcome.failed == 0)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Re-execute `kbench` for one pass of one workload, so that peak RSS and
/// allocator state belong to that pass alone.
fn spawn_worker(
    kind: Kind,
    o: &Options,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .args(["--workload", kind.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: worker printed nothing", kind.name()))?;
    Json::parse(last).map_err(|e| format!("{}: worker output: {e}", kind.name()))
}

fn run_all(o: &Options) -> Result<bool, String> {
    let home = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = home.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let kinds: Vec<Kind> = o.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);

    let mut correct = true;
    let mut workloads = Vec::new();
    let mut counts = Vec::new();
    for kind in kinds {
        eprintln!("kbench: {} ...", kind.name());
        // Two untraced passes, the traced one between them: the result
        // then carries how far one pass of this code reads from the next.
        let first = spawn_worker(kind, o, false, None)?;
        let trace_file = out_dir.join(format!("trace-{}.jsonl", kind.name()));
        let traced = spawn_worker(kind, o, true, Some(&trace_file))?;
        let untraced = report::merge_passes(&first, &spawn_worker(kind, o, false, None)?);
        report::print_workload(kind, &untraced, &traced);
        for doc in [&untraced, &traced] {
            correct &= doc.get("correct") == Some(&Json::Bool(true));
        }
        let plan = Plan::new(kind, o.seconds, o.smoke);
        counts.push((
            kind.name().to_string(),
            Json::obj()
                .with("warmup_ops", plan.warmup_ops)
                .with("measured_ops", plan.measured_ops)
                .with("principals", kind.principals() as u64),
        ));
        workloads.push((
            kind.name().to_string(),
            Json::obj()
                .with("untraced", untraced)
                .with("traced", traced),
        ));
    }

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let provenance = Json::obj()
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], home),
        )
        .with("rustc", command_line("rustc", &["-V"], home))
        .with("available_parallelism", threads)
        .with(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .with(
            "load",
            "closed loop, one client thread (udp_loopback adds UdpServer's own)",
        )
        .with("counts", Json::Obj(counts));
    let doc = Json::obj()
        .with("schema", "kbench/v1")
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("smoke", o.smoke)
        .with("provenance", provenance)
        .with("workloads", Json::Obj(workloads));
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("results-{}.json", o.seed)));
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());
    println!("correct: {correct}");
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((verb, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match verb.as_str() {
        "run" => parse_options(rest).and_then(|o| run_all(&o)),
        "worker" => parse_options(rest).and_then(|o| worker(&o, false)),
        "measure" => parse_options(rest).and_then(|o| worker(&o, true)),
        "compare" => compare_files(rest),
        "metrics" => {
            report::print_glossary();
            Ok(true)
        }
        "contract" => {
            print!("{}", report::benchmark_json().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("kbench: {message}");
            ExitCode::from(2)
        }
    }
}
