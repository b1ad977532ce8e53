//! Result documents: what a worker prints, what the driver's contract
//! asks for, what `run` collects and shows, and `BENCHMARK.json` itself.

use crate::compare::differing_counts;
use crate::json::Json;
use crate::metrics::{Better, Kind, Source, END_TO_END, PER_LAYER};
use crate::run::{Figure, Outcome};
use crate::span::SpanRec;

/// Seconds a run measures when nothing else is asked.
pub const DEFAULT_SECONDS: u64 = 20;
/// The seed `run` uses when none is given.
pub const DEFAULT_SEED: u64 = 42;

fn figure_json(f: &Figure) -> Json {
    let mut doc = Json::obj()
        .with("value", f.value)
        .with("unit", f.unit)
        .with("n", f.n);
    if let Some((min, max)) = f.spread {
        doc = doc.with("min", min).with("max", max);
    }
    doc
}

/// Everything a worker measured, as one JSON document.
pub fn outcome_json(kind: Kind, seed: u64, traced: bool, outcome: &Outcome) -> Json {
    let figures = outcome
        .figures
        .iter()
        .map(|(name, f)| (name.clone(), figure_json(f)))
        .collect();
    let counts = outcome
        .counts
        .iter()
        .map(|(name, v)| (name.clone(), Json::from(*v)))
        .collect();
    Json::obj()
        .with("workload", kind.name())
        .with("seed", seed)
        .with("traced", traced)
        .with("correct", outcome.failed == 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with(
            "notes",
            Json::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        )
        .with("figures", Json::Obj(figures))
        .with("counts", Json::Obj(counts))
}

/// One figure out of two passes' readings of it: the better value, a range
/// that covers both values and both ranges, the samples of both.
fn merge_figure(better: Better, a: &Json, b: &Json) -> Json {
    let field = |doc: &Json, name: &str| doc.get(name).and_then(Json::as_f64);
    let (Some(va), Some(vb)) = (field(a, "value"), field(b, "value")) else {
        return a.clone();
    };
    let value = match better {
        Better::Lower => va.min(vb),
        Better::Higher => va.max(vb),
    };
    let ends = |name: &str| {
        [field(a, name), field(b, name), Some(va), Some(vb)]
            .into_iter()
            .flatten()
    };
    Json::obj()
        .with("value", value)
        .with(
            "unit",
            a.get("unit").and_then(Json::as_str).unwrap_or_default(),
        )
        .with(
            "n",
            field(a, "n").unwrap_or(0.0) + field(b, "n").unwrap_or(0.0),
        )
        .with("min", ends("min").fold(f64::INFINITY, f64::min))
        .with("max", ends("max").fold(f64::NEG_INFINITY, f64::max))
}

/// Fold two untraced passes of one workload into one worker document. A
/// single pass cannot know how far the next pass of the same code will read
/// from it; two can. Each end-to-end figure takes the better pass's value —
/// interference only ever makes a pass worse — and a range stretched over
/// both, which is what `compare` weighs a change against. The passes must
/// agree on every repeatable count.
pub fn merge_passes(a: &Json, b: &Json) -> Json {
    let figures_of = |doc: &Json| {
        doc.get("figures")
            .map(|f| f.fields().to_vec())
            .unwrap_or_default()
    };
    let theirs = figures_of(b);
    let figures = figures_of(a)
        .into_iter()
        .map(|(name, ours)| {
            let metric = END_TO_END.iter().find(|m| m.name == name);
            let other = theirs.iter().find(|(n, _)| *n == name);
            let merged = match (metric, other) {
                (Some(metric), Some((_, other))) => merge_figure(metric.better, &ours, other),
                _ => ours,
            };
            (name, merged)
        })
        .collect();

    let number = |doc: &Json, name: &str| doc.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let mut notes: Vec<Json> = [a, b]
        .iter()
        .flat_map(|doc| {
            doc.get("notes")
                .map(Json::items)
                .unwrap_or_default()
                .to_vec()
        })
        .collect();
    let counts = a.get("counts").cloned().unwrap_or_else(Json::obj);
    let (_, differing) = differing_counts(a, b);
    let failed = number(a, "failed") + number(b, "failed") + differing.len() as f64;
    for name in differing {
        notes.push(Json::from(format!(
            "the two passes disagree on the count {name}"
        )));
    }
    Json::obj()
        .with("workload", a.get("workload").cloned().unwrap_or(Json::Null))
        .with("seed", a.get("seed").cloned().unwrap_or(Json::Null))
        .with("traced", false)
        .with("correct", failed == 0.0)
        .with("attempted", number(a, "attempted") + number(b, "attempted"))
        .with("failed", failed)
        .with("notes", Json::Arr(notes))
        .with("figures", Json::Obj(figures))
        .with("counts", counts)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every end-to-end metric of
/// `BENCHMARK.json` (untraced) or every per-layer metric (traced). A
/// per-layer figure the workload does not exercise reads 0.
pub fn contract_json(traced: bool, outcome: &Outcome) -> Json {
    let listed: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let metrics = listed
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome
                .figures
                .get(name)
                .map(|f| f.value)
                .or_else(|| outcome.counts.get(name).map(|c| *c as f64))
                .unwrap_or(0.0);
            (
                name.to_string(),
                Json::obj().with("value", value).with("unit", unit),
            )
        })
        .collect();
    Json::obj()
        .with("correct", outcome.failed == 0)
        .with("attempted", outcome.attempted.max(1))
        .with("failed", outcome.failed)
        .with("metrics", Json::Obj(metrics))
}

/// One span as a JSON line of `trace-<workload>.jsonl`.
pub fn span_json(s: &SpanRec) -> Json {
    Json::obj()
        .with("op", u64::from(s.op))
        .with("name", s.name)
        .with(
            "parent",
            s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
        )
        .with("start_ns", s.start_ns)
        .with("end_ns", s.end_ns)
}

/// `BENCHMARK.json`, in the driver's schema, from the tables in
/// [`crate::metrics`].
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "measure",
    ];
    Json::obj()
        .with(
            "command",
            Json::Arr(command.into_iter().map(Json::from).collect()),
        )
        .with("paths", Json::Arr(vec![Json::from("benchmark")]))
        .with("run_seconds", DEFAULT_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                Kind::ALL
                    .iter()
                    .filter(|k| k.in_contract())
                    .map(|k| Json::obj().with("name", k.name()).with("why", k.why()))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_contract)
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                    })
                    .collect(),
            ),
        )
}

/// The metric glossary and interaction table, as the Markdown tables
/// `README.md` carries.
pub fn print_glossary() {
    println!("| end-to-end metric | unit | better | bound | workloads | what it measures |");
    println!("|---|---|---|---|---|---|");
    for m in END_TO_END {
        let workloads: Vec<&str> = m.workloads.iter().map(|k| k.name()).collect();
        println!(
            "| `{}` | {} | {} | {:.0} % | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            workloads.join(", "),
            m.what
        );
    }
    println!("\n| per-layer metric | unit | source | the end-to-end figure it should move |");
    println!("|---|---|---|---|");
    for m in PER_LAYER {
        let source = match m.source {
            Source::Span(name) => format!("span `{name}`"),
            Source::SpanSelf(name) => format!("self time of span `{name}`"),
            Source::Probe => "stage probe".to_string(),
            Source::Count => "count (repeats exactly)".to_string(),
            Source::Derived => "derived".to_string(),
        };
        println!("| `{}` | {} | {source} | {} |", m.name, m.unit, m.moves);
    }
}

fn show(value: f64) -> String {
    if value == 0.0 || value.abs() >= 100.0 {
        format!("{value:.0}")
    } else if value.abs() >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

fn show_figure(doc: &Json) -> Option<String> {
    let value = doc.get("value")?.as_f64()?;
    let unit = doc.get("unit").and_then(Json::as_str).unwrap_or("");
    let mut text = format!("{:>12} {unit:<6}", show(value));
    if let (Some(min), Some(max)) = (
        doc.get("min").and_then(Json::as_f64),
        doc.get("max").and_then(Json::as_f64),
    ) {
        text.push_str(&format!(" [{} .. {}]", show(min), show(max)));
    }
    if let Some(n) = doc.get("n").and_then(Json::as_f64) {
        text.push_str(&format!(" n={n}"));
    }
    Some(text)
}

/// Print every metric of one workload by name and unit, from the worker
/// documents `run` collected.
pub fn print_workload(kind: Kind, untraced: &Json, traced: &Json) {
    println!("\n== {} — {}", kind.name(), kind.why());
    if kind == Kind::UdpLoopback {
        println!("   (host loopback, not a link; throughput and tail are informational there)");
    }
    let measured = untraced.get("figures").and_then(|f| f.get("measured_s"));
    let ops = measured
        .and_then(|m| m.get("n"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let seconds = measured
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!("-- end to end (untraced pass: {ops} ops measured in {seconds:.2} s)");
    for metric in END_TO_END {
        let figure = untraced
            .get("figures")
            .and_then(|f| f.get(metric.name))
            .and_then(show_figure);
        match figure {
            Some(text) => println!("  {:<28}{text}", metric.name),
            None if metric.workloads.contains(&kind) => {
                println!("  {:<28}{:>12}        (too few samples)", metric.name, "-")
            }
            None => {}
        }
    }
    println!("-- per layer (traced pass over segment 1)");
    for metric in PER_LAYER {
        let figure = traced
            .get("figures")
            .and_then(|f| f.get(metric.name))
            .and_then(show_figure);
        let count = traced
            .get("counts")
            .and_then(|c| c.get(metric.name))
            .and_then(Json::as_f64);
        match (figure, count) {
            (Some(text), _) => println!("  {:<28}{text}", metric.name),
            (None, Some(n)) => println!("  {:<28}{:>12} {:<6}", metric.name, show(n), metric.unit),
            (None, None) => println!(
                "  {:<28}{:>12} {:<6} (not exercised)",
                metric.name, "-", metric.unit
            ),
        }
    }
    for (label, doc) in [("untraced", untraced), ("traced", traced)] {
        let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        println!("-- checks ({label}): {attempted} attempted, {failed} failed");
        for note in doc.get("notes").map(Json::items).unwrap_or_default() {
            println!("   ! {}", note.as_str().unwrap_or_default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated (`kbench contract`); the committed
    /// file must be what the tables say.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), benchmark_json());
        assert!(text.len() <= 64 * 1024);
        for kind in Kind::ALL {
            assert!(kind.why().chars().count() <= 200 && !kind.why().contains('\n'));
        }
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.figures.insert(
            "tgs_p50_us".into(),
            Figure {
                unit: "us",
                value: 9.5,
                spread: None,
                n: 5,
            },
        );
        outcome.figures.insert(
            "as_p50_us".into(),
            Figure {
                unit: "us",
                value: 30.0,
                spread: None,
                n: 5,
            },
        );
        outcome.counts.insert("kdc.as_ok".into(), 7);
        let plain = contract_json(false, &outcome);
        let keys: Vec<&str> = plain.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = plain
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["setup_s", "ops_per_s", "tgs_p50_us", "rss_peak_mb"]);
        let traced = contract_json(true, &outcome);
        let metrics = traced.get("metrics").expect("metrics");
        assert_eq!(metrics.fields().len(), PER_LAYER.len());
        assert_eq!(
            metrics
                .get("kdc.as_ok")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            metrics
                .get("kadm.handle_ns")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn two_passes_merge_into_the_better_value_and_the_wider_range() {
        let pass = |tgs: f64, rate: f64, as_ok: u64| {
            let figures = Json::obj()
                .with(
                    "tgs_p50_us",
                    Json::obj()
                        .with("value", tgs)
                        .with("unit", "us")
                        .with("n", 100u64)
                        .with("min", tgs - 0.1)
                        .with("max", tgs + 0.2),
                )
                .with(
                    "ops_per_s",
                    Json::obj()
                        .with("value", rate)
                        .with("unit", "1/s")
                        .with("n", 100u64),
                )
                .with(
                    "measured_s",
                    Json::obj()
                        .with("value", tgs)
                        .with("unit", "s")
                        .with("n", 1u64),
                );
            Json::obj()
                .with("workload", "ticket_steady")
                .with("seed", 42u64)
                .with("attempted", 10u64)
                .with("failed", 0u64)
                .with("notes", Json::Arr(Vec::new()))
                .with("figures", figures)
                .with("counts", Json::obj().with("kdc.as_ok", as_ok))
        };
        let merged = merge_passes(&pass(10.0, 500.0, 7), &pass(11.0, 550.0, 7));
        let figure = |name: &str, field: &str| {
            merged
                .get("figures")
                .and_then(|f| f.get(name))
                .and_then(|f| f.get(field))
                .and_then(Json::as_f64)
        };
        // Lower is better for a latency, higher for a rate; the range covers both passes.
        assert_eq!(
            (
                figure("tgs_p50_us", "value"),
                figure("tgs_p50_us", "min"),
                figure("tgs_p50_us", "max")
            ),
            (Some(10.0), Some(9.9), Some(11.2))
        );
        assert_eq!(
            (
                figure("ops_per_s", "value"),
                figure("ops_per_s", "min"),
                figure("ops_per_s", "max")
            ),
            (Some(550.0), Some(500.0), Some(550.0))
        );
        assert_eq!(figure("tgs_p50_us", "n"), Some(200.0));
        // Not an end-to-end metric: the first pass's reading stands.
        assert_eq!(figure("measured_s", "value"), Some(10.0));
        assert_eq!(merged.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(merged.get("attempted").and_then(Json::as_f64), Some(20.0));
        // Same seed, same code: a count that differs between the passes is a failure.
        let drifted = merge_passes(&pass(10.0, 500.0, 7), &pass(10.0, 500.0, 8));
        assert_eq!(drifted.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(drifted.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn a_failed_check_makes_the_document_incorrect() {
        let outcome = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(
            contract_json(false, &outcome).get("correct"),
            Some(&Json::Bool(false))
        );
        assert_eq!(
            outcome_json(Kind::LoginStorm, 1, false, &outcome).get("correct"),
            Some(&Json::Bool(false))
        );
    }
}
