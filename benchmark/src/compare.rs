//! `kbench compare A.json B.json`: per (workload, metric) the two values,
//! the change with its base, the bound, and a verdict; and an exact-equality
//! check of the counts that must repeat for one seed.

use crate::json::Json;
use crate::metrics::{repeatable, Better, Kind, END_TO_END};

/// What a pair of values says about a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the measurement is tight enough to say so.
    Ok,
    /// Better by more than the bound and more than the spread.
    Improved,
    /// Worse by more than the bound and more than the spread.
    Regression,
    /// The slices' spread exceeds the bound (or the change): the runs
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the base `a`. `spread` is the wider of the two runs'
/// (max − min) / value — for a quiet-slice figure the distance from the best
/// slice to the one five times as far in as the quiet level, for a median of
/// groups the distance between the quartiles — and 0 for single-shot figures.
pub fn verdict(better: Better, bound: f64, a: f64, b: f64, spread: f64) -> Verdict {
    if a == b {
        return Verdict::Ok;
    }
    if a == 0.0 {
        // No base to take a share of: any move away from zero is decided
        // by its direction alone (this is `fail_ratio`'s case).
        return if (b > a) == (better == Better::Lower) {
            Verdict::Regression
        } else {
            Verdict::Improved
        };
    }
    let worse = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse.abs() <= bound {
        if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    } else if spread >= worse.abs() {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Regression
    } else {
        Verdict::Improved
    }
}

fn relative_spread(figure: &Json) -> f64 {
    let field = |name| figure.get(name).and_then(Json::as_f64);
    match (field("value"), field("min"), field("max")) {
        (Some(value), Some(min), Some(max)) if value != 0.0 => (max - min) / value.abs(),
        _ => 0.0,
    }
}

/// The repeatable counts of worker document `a`: how many there are, and the
/// names of those that worker document `b` does not report with equal value.
pub fn differing_counts(a: &Json, b: &Json) -> (usize, Vec<String>) {
    let ours = a.get("counts").map(Json::fields).unwrap_or_default();
    let ours = ours.iter().filter(|(name, _)| repeatable(name));
    let differing = ours
        .clone()
        .filter(|(name, value)| b.get("counts").and_then(|c| c.get(name)) != Some(value))
        .map(|(name, _)| name.clone())
        .collect();
    (ours.count(), differing)
}

/// Compare two result documents; prints the table and returns whether
/// every end-to-end metric escaped `regression` and every repeatable count
/// (same seed only) was equal.
pub fn compare(a: &Json, b: &Json) -> bool {
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let mut clean = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound", "spread"
    );
    for kind in Kind::ALL {
        let side = |doc: &'_ Json, pass: &str| -> Option<Json> {
            doc.get("workloads")?.get(kind.name())?.get(pass).cloned()
        };
        let (Some(ua), Some(ub)) = (side(a, "untraced"), side(b, "untraced")) else {
            continue;
        };
        for metric in END_TO_END {
            let figure = |doc: &Json| doc.get("figures").and_then(|f| f.get(metric.name)).cloned();
            let (Some(fa), Some(fb)) = (figure(&ua), figure(&ub)) else {
                continue;
            };
            let value = |f: &Json| f.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (value(&fa), value(&fb));
            let spread = relative_spread(&fa).max(relative_spread(&fb));
            let v = verdict(metric.better, metric.bound, va, vb, spread);
            clean &= v != Verdict::Regression;
            let change = if va != 0.0 {
                format!("{:+.1}%", (vb - va) / va * 100.0)
            } else {
                "n/a".to_string()
            };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>9} {:>6.0}% {:>6.1}%  {} ({} is better; base A = {:.4} {})",
                kind.name(), metric.name, va, vb, change, metric.bound * 100.0, spread * 100.0,
                v.as_str(), metric.better.as_str(), va, metric.unit,
            );
        }
        if !same_seed {
            continue;
        }
        for pass in ["untraced", "traced"] {
            let (Some(da), Some(db)) = (side(a, pass), side(b, pass)) else {
                continue;
            };
            let (checked, differing) = differing_counts(&da, &db);
            if differing.is_empty() {
                println!(
                    "{:<14} counts ({pass}): {checked} repeatable counts bit-equal",
                    kind.name()
                );
            } else {
                clean = false;
                println!(
                    "{:<14} counts ({pass}): DIFFER: {}",
                    kind.name(),
                    differing.join(", ")
                );
            }
        }
    }
    if !same_seed {
        println!("seeds differ: repeatable counts not compared");
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        // Inside the bound with tight slices: ok.
        assert_eq!(verdict(Lower, 0.10, 100.0, 105.0, 0.02), Verdict::Ok);
        // Inside the bound but the slices swing wider than it: cannot tell.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 105.0, 0.15),
            Verdict::Unresolved
        );
        // Worse by more than bound and spread.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 120.0, 0.05),
            Verdict::Regression
        );
        assert_eq!(
            verdict(Higher, 0.10, 100.0, 80.0, 0.05),
            Verdict::Regression
        );
        // Better by more than bound and spread.
        assert_eq!(verdict(Lower, 0.10, 100.0, 80.0, 0.05), Verdict::Improved);
        assert_eq!(verdict(Higher, 0.10, 100.0, 120.0, 0.05), Verdict::Improved);
        // A big change inside an even bigger spread is still unresolved.
        assert_eq!(
            verdict(Lower, 0.10, 100.0, 120.0, 0.30),
            Verdict::Unresolved
        );
        // fail_ratio: bound 0, base 0 — any rise is a regression.
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(Lower, 0.0, 0.0, 0.001, 0.0), Verdict::Regression);
        assert_eq!(verdict(Lower, 0.0, 0.002, 0.001, 0.0), Verdict::Improved);
    }

    fn doc(seed: u64, tgs: f64, as_ok: u64) -> Json {
        let figures = Json::obj().with(
            "tgs_p50_us",
            Json::obj()
                .with("value", tgs)
                .with("unit", "us")
                .with("min", tgs * 0.99)
                .with("max", tgs * 1.01),
        );
        let pass = Json::obj().with("figures", figures).with(
            "counts",
            Json::obj()
                .with("kdc.as_ok", as_ok)
                .with("netsim.udp_timeouts", 3u64),
        );
        let both = Json::obj()
            .with("untraced", pass.clone())
            .with("traced", pass);
        Json::obj()
            .with("seed", seed)
            .with("workloads", Json::obj().with("ticket_steady", both))
    }

    #[test]
    fn compare_flags_regressions_and_count_drift() {
        assert!(compare(&doc(42, 10.0, 500), &doc(42, 10.5, 500)));
        assert!(
            !compare(&doc(42, 10.0, 500), &doc(42, 12.0, 500)),
            "20% slower is a regression"
        );
        assert!(
            !compare(&doc(42, 10.0, 500), &doc(42, 10.0, 501)),
            "a repeatable count moved"
        );
        assert!(
            compare(&doc(42, 10.0, 500), &doc(43, 10.0, 777)),
            "other seed: counts not compared"
        );
    }
}
