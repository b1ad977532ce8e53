//! One workload, one process: set-up, warm-up, measured phase, checks.
//!
//! An untraced run produces the end-to-end figures. A traced run replays
//! segment 1's op sequence twice on two identically seeded realms — once
//! plain, once with spans on — and produces the per-layer figures plus the
//! overhead of tracing itself. End-to-end numbers never come from a traced
//! pass.

use crate::churn::ChurnLoad;
use crate::load::{AuthLoad, AuthSpec, Checks, Load, Samples, SliceMark};
use crate::metrics::{Kind, Source, END_TO_END, PER_LAYER, PER_TICK};
use crate::probes;
use crate::realm::RealmSpec;
use crate::span::{self_times, SpanRec, Tracer};
use crate::stats::{median, median_of_groups, percentile_of, quiet_level, Summary};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Equal parts the measured phase is split into.
pub const SEGMENTS: u64 = 5;
/// Fewest ops a scaled-down run makes, so that medians stay reportable.
const MIN_OPS: u64 = 25;

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Untimed ops before the timer starts.
    pub warmup_ops: u64,
    /// Ops in the measured phase: whole slices, the same number in each
    /// of the [`SEGMENTS`].
    pub measured_ops: u64,
    /// Whether this is the scaled-down run.
    pub smoke: bool,
}

impl Plan {
    /// The frozen counts for `seconds` requested seconds; `smoke` divides
    /// ops by 100 and warm-up by 10 and sets up once.
    pub fn new(kind: Kind, seconds: u64, smoke: bool) -> Plan {
        let full = kind.ops_per_second() * seconds.max(1);
        let chunk = SEGMENTS * kind.slice_ops();
        let (ops, warmup) = if smoke {
            (
                (full / 100).max(MIN_OPS).max(chunk),
                kind.warmup_ops().div_ceil(10),
            )
        } else {
            (full, kind.warmup_ops())
        };
        Plan {
            warmup_ops: warmup,
            measured_ops: ops - ops % chunk,
            smoke,
        }
    }

    /// Ops in one segment.
    pub fn segment_ops(&self) -> u64 {
        self.measured_ops / SEGMENTS
    }
}

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// Unit.
    pub unit: &'static str,
    /// The figure.
    pub value: f64,
    /// The range behind it: for a quiet-slice figure the best slice and
    /// the one five times as far in, for a median of groups the quartiles.
    pub spread: Option<(f64, f64)>,
    /// Samples, segments or slices behind it.
    pub n: u64,
}

impl Figure {
    fn plain(unit: &'static str, value: f64, n: u64) -> Figure {
        Figure {
            unit,
            value,
            spread: None,
            n,
        }
    }

    fn of(unit: &'static str, s: Summary) -> Figure {
        Figure {
            unit,
            value: s.value,
            spread: Some((s.min, s.max)),
            n: s.n as u64,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Figures by metric name. A metric the workload does not exercise, or
    /// that had too few samples, is absent.
    pub figures: BTreeMap<String, Figure>,
    /// Counts that must repeat exactly for a given seed.
    pub counts: BTreeMap<String, u64>,
    /// Ops and probes attempted, over every phase.
    pub attempted: u64,
    /// Those that failed, plus end-of-run mismatches.
    pub failed: u64,
    /// The first few failures.
    pub notes: Vec<String>,
    /// Raw spans of the first 1 000 traced ops.
    pub first_spans: Vec<SpanRec>,
}

fn setup(kind: Kind, seed: u64, tracer: Tracer, total: u64) -> Result<Box<dyn Load>, String> {
    let realm = |slaves, udp| RealmSpec {
        principals: kind.principals(),
        slaves,
        udp,
    };
    let auth = |udp, logged_in| AuthSpec {
        realm: realm(0, udp),
        logged_in,
    };
    Ok(match kind {
        Kind::LoginStorm => Box::new(AuthLoad::setup(auth(false, 0), seed, tracer, total)?),
        Kind::TicketSteady => Box::new(AuthLoad::setup(
            auth(false, PER_TICK as usize),
            seed,
            tracer,
            total,
        )?),
        Kind::UdpLoopback => Box::new(AuthLoad::setup(
            auth(true, PER_TICK as usize),
            seed,
            tracer,
            total,
        )?),
        Kind::PasswdChurn => Box::new(ChurnLoad::setup(realm(1, false), seed, tracer, total)?),
    })
}

/// Set up `times` times, one realm alive at a time; returns the last realm
/// and how long each set-up took.
fn timed_setups(
    kind: Kind,
    seed: u64,
    total: u64,
    times: usize,
) -> Result<(Box<dyn Load>, Vec<f64>), String> {
    let mut took = Vec::with_capacity(times);
    let mut load = None;
    for _ in 0..times.max(1) {
        drop(load.take());
        let t0 = Instant::now();
        load = Some(setup(kind, seed, Tracer::off(), total)?);
        took.push(t0.elapsed().as_secs_f64());
    }
    Ok((load.ok_or("no set-up ran")?, took))
}

/// Run `ops` ops, marking the end of every slice; returns the wall time.
fn drive(load: &mut dyn Load, ops: u64, samples: &mut Samples, checks: &mut Checks) -> f64 {
    let slice_ops = load.slice_ops();
    let t0 = Instant::now();
    let mut slice_start = t0;
    for done in 1..=ops {
        load.op(samples, checks);
        if done % slice_ops == 0 {
            let now = Instant::now();
            samples.slices.push(SliceMark {
                wall_ns: (now - slice_start).as_nanos() as u64,
                ends: [
                    samples.as_ns.len(),
                    samples.tgs_ns.len(),
                    samples.ap_ns.len(),
                ],
            });
            slice_start = now;
        }
    }
    t0.elapsed().as_secs_f64()
}

fn warm_up(load: &mut dyn Load, ops: u64, checks: &mut Checks) {
    drive(load, ops, &mut Samples::default(), checks);
}

/// Consecutive exchanges a 99th percentile is read from: 20 lie beyond it,
/// and the group still fits inside a quiet spell (ten ticks, or 40 cycles).
const TAIL_GROUP: usize = 2_000;
/// Consecutive cycles a `kpasswd` or propagation median is read from: the
/// fewest with 10 samples beyond it.
const WRITE_GROUP: usize = 21;

/// A percentile read off each group of `size` consecutive samples — the
/// slices of a figure a single tick or cycle has too few samples for.
struct Grouped {
    size: usize,
    p: f64,
    /// Samples whose group is still filling.
    pending: Vec<u64>,
    /// The groups' percentiles so far, in microseconds.
    us: Vec<f64>,
}

impl Grouped {
    fn new(size: usize, p: f64) -> Grouped {
        Grouped {
            size,
            p,
            pending: Vec::with_capacity(size),
            us: Vec::new(),
        }
    }

    fn feed(&mut self, samples: &[u64]) {
        for sample in samples {
            self.pending.push(*sample);
            if self.pending.len() == self.size {
                if let Some(ns) = percentile_of(&mut self.pending, self.p) {
                    self.us.push(ns as f64 / 1000.0);
                }
                self.pending.clear();
            }
        }
    }
}

/// Per-slice throughput and median latencies, and per-group figures, of
/// the measured phase so far.
struct Slices {
    ops_per_s: Vec<f64>,
    /// Medians of the AS, TGS and AP exchanges, in microseconds.
    p50_us: [Vec<f64>; 3],
    /// 99th percentiles of the AS and TGS exchanges.
    p99: [Grouped; 2],
    /// Medians of `kpasswd` and of propagation.
    write_p50: [Grouped; 2],
}

impl Slices {
    fn new() -> Slices {
        Slices {
            ops_per_s: Vec::new(),
            p50_us: Default::default(),
            p99: [
                Grouped::new(TAIL_GROUP, 0.99),
                Grouped::new(TAIL_GROUP, 0.99),
            ],
            write_p50: [
                Grouped::new(WRITE_GROUP, 0.5),
                Grouped::new(WRITE_GROUP, 0.5),
            ],
        }
    }

    /// Fold in a segment.
    fn take(&mut self, samples: &Samples, slice_ops: u64) {
        let mut starts = [0usize; 3];
        for mark in &samples.slices {
            self.ops_per_s
                .push(slice_ops as f64 * 1e9 / mark.wall_ns.max(1) as f64);
            for (k, data) in [&samples.as_ns, &samples.tgs_ns, &samples.ap_ns]
                .into_iter()
                .enumerate()
            {
                let mut slice = data[starts[k]..mark.ends[k]].to_vec();
                starts[k] = mark.ends[k];
                if let Some(ns) = percentile_of(&mut slice, 0.5) {
                    self.p50_us[k].push(ns as f64 / 1000.0);
                }
            }
        }
        self.p99[0].feed(&samples.as_ns);
        self.p99[1].feed(&samples.tgs_ns);
        self.write_p50[0].feed(&samples.kpasswd_ns);
        self.write_p50[1].feed(&samples.prop_ns);
    }

    fn quiet_ops_per_s(&self) -> Option<Summary> {
        quiet_level(&self.ops_per_s, true)
    }
}

/// The program's own counters, read through the registry the KDCs share.
const COUNTERS: &[(&str, &str)] = &[
    ("kdc.as_ok", "kdc_as_ok_total"),
    ("kdc.tgs_ok", "kdc_tgs_ok_total"),
    ("kdc.errors", "kdc_error_total"),
    ("kdc.sched_hits", "kdc_sched_cache_hits_total"),
    ("kdc.sched_misses", "kdc_sched_cache_misses_total"),
    ("kdc.store_swaps", "kdc_store_swaps_total"),
    ("core.replay_evictions", "kdc_replay_evictions_total"),
    ("core.replay_hits", "kdc_replay_hits_total"),
];

/// Cumulative counts at this instant.
fn read_counts(load: &dyn Load) -> BTreeMap<String, u64> {
    let realm = load.realm();
    let mut counts: BTreeMap<String, u64> = COUNTERS
        .iter()
        .map(|(name, counter)| (name.to_string(), realm.registry.counter_value(counter)))
        .collect();
    let net = realm.router.stats();
    counts.insert("netsim.delivered".into(), net.delivered);
    counts.insert("netsim.dropped".into(), net.dropped);
    counts.insert(
        "telemetry.journal_events".into(),
        realm.journal.events_recorded(),
    );
    counts.insert(
        "telemetry.journal_dropped".into(),
        realm.journal.events_dropped(),
    );
    for (name, value) in load.own_counts() {
        counts.insert(name.to_string(), value);
    }
    counts
}

/// Counts over a phase: the difference of two readings, plus the figures
/// that are states rather than flows.
fn phase_counts(load: &dyn Load, before: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let after = read_counts(load);
    let mut counts: BTreeMap<String, u64> = after
        .iter()
        .map(|(name, value)| (name.clone(), value - before.get(name).copied().unwrap_or(0)))
        .collect();
    // Live replay entries: every verified request inserts one and only a
    // purge sweep removes it. The KDC's cache is private, so its size is
    // what it accepted minus what it evicted; the application servers'
    // caches are the harness's own.
    let realm = load.realm();
    let kdc_entries = after["kdc.tgs_ok"].saturating_sub(after["core.replay_evictions"]);
    let app_entries: usize = realm.services.iter().map(|s| s.replay.len()).sum();
    counts.insert(
        "core.replay_entries".into(),
        kdc_entries + app_entries as u64,
    );
    // 48 bits survive a trip through a JSON number exactly.
    counts.insert(
        "schedule_digest".into(),
        load.schedule_digest() & 0xffff_ffff_ffff,
    );
    counts
}

fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn finish(load: &mut dyn Load, mut checks: Checks, out: &mut Outcome) {
    load.verify(&mut checks);
    out.attempted = checks.attempted;
    out.failed = checks.failed;
    out.notes = checks.notes;
}

/// The untraced run: every end-to-end figure.
///
/// Throughput and the medians are quiet-slice figures (see
/// [`quiet_level`]): on a shared box whole runs land in a slow phase, and
/// only the undisturbed slices repeat. `kpasswd` and propagation have one
/// sample per cycle, so their medians are read per group of
/// [`WRITE_GROUP`] cycles. The 99th percentiles are read per group of
/// [`TAIL_GROUP`] exchanges and reported as the median group (see
/// [`median_of_groups`]); the 95th percentiles of `kpasswd` and propagation
/// are taken over the whole phase. Tails carry the box's noise.
pub fn untraced(kind: Kind, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let setups = if plan.smoke { (1, 0) } else { kind.setups() };

    let (mut load, mut setup_s) = timed_setups(kind, seed, plan.measured_ops, setups.0)?;
    warm_up(load.as_mut(), plan.warmup_ops, &mut checks);

    let before = read_counts(load.as_ref());
    let mut slices = Slices::new();
    let (mut kpasswd_ns, mut prop_ns) = (Vec::new(), Vec::new());
    let mut measured_s = 0.0;
    for _ in 0..SEGMENTS {
        let mut samples = Samples::default();
        measured_s += drive(load.as_mut(), plan.segment_ops(), &mut samples, &mut checks);
        slices.take(&samples, load.slice_ops());
        kpasswd_ns.append(&mut samples.kpasswd_ns);
        prop_ns.append(&mut samples.prop_ns);
    }
    out.counts = phase_counts(load.as_ref(), &before);

    // A workload reports the metrics it is listed under and no others.
    let listed = |name: &str| {
        END_TO_END
            .iter()
            .all(|m| m.name != name || m.workloads.contains(&kind))
    };
    let mut put = |name: &str, figure: Option<Figure>| {
        if let Some(figure) = figure.filter(|_| listed(name)) {
            out.figures.insert(name.to_string(), figure);
        }
    };
    put(
        "measured_s",
        Some(Figure::plain("s", measured_s, plan.measured_ops)),
    );
    put(
        "ops_per_s",
        slices.quiet_ops_per_s().map(|s| Figure::of("1/s", s)),
    );
    // Over loopback the two threads' wake-ups are part of the exchange, not
    // interference: there the typical slice is reported, not the quietest.
    let typical = kind == Kind::UdpLoopback;
    for (name, per_slice) in ["as_p50_us", "tgs_p50_us", "ap_p50_us"]
        .into_iter()
        .zip(&slices.p50_us)
    {
        let level = if typical {
            median_of_groups(per_slice)
        } else {
            quiet_level(per_slice, false)
        };
        put(name, level.map(|s| Figure::of("us", s)));
    }
    for (name, groups) in ["as_p99_us", "tgs_p99_us"].into_iter().zip(&slices.p99) {
        put(
            name,
            median_of_groups(&groups.us).map(|s| Figure::of("us", s)),
        );
    }
    for (name, groups) in ["kpasswd_p50_us", "prop_p50_us"]
        .into_iter()
        .zip(&slices.write_p50)
    {
        put(
            name,
            quiet_level(&groups.us, false).map(|s| Figure::of("us", s)),
        );
    }
    for (name, data) in [
        ("kpasswd_p95_us", &mut kpasswd_ns),
        ("prop_p95_us", &mut prop_ns),
    ] {
        let n = data.len() as u64;
        put(
            name,
            percentile_of(data, 0.95).map(|ns| Figure::plain("us", ns as f64 / 1000.0, n)),
        );
    }

    finish(load.as_mut(), checks, &mut out);
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.figures.insert(
        "fail_ratio".into(),
        Figure::plain("ratio", ratio, out.attempted),
    );
    if let Some(mb) = rss_peak_mb() {
        out.figures
            .insert("rss_peak_mb".into(), Figure::plain("MB", mb, 1));
    }

    // The peak is on record; the realm can go, and set-up can be timed
    // again this far into the run.
    drop(load);
    if setups.1 > 0 {
        setup_s.extend(timed_setups(kind, seed, plan.measured_ops, setups.1)?.1);
    }
    if let Some(quiet) = quiet_level(&setup_s, false) {
        out.figures.insert("setup_s".into(), Figure::of("s", quiet));
    }
    Ok(out)
}

/// Spans the harness expects per op, for sizing the buffer.
const SPANS_PER_OP: u64 = 24;

/// The traced run: every per-layer figure.
pub fn traced(kind: Kind, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut checks = Checks::default();
    let ops = plan.segment_ops();

    // Segment 1, plain: the base the tracing overhead is measured from.
    let plain = {
        let mut load = setup(kind, seed, Tracer::off(), plan.measured_ops)?;
        warm_up(load.as_mut(), plan.warmup_ops, &mut checks);
        let mut samples = Samples::default();
        drive(load.as_mut(), ops, &mut samples, &mut checks);
        load.verify(&mut checks);
        let mut slices = Slices::new();
        slices.take(&samples, load.slice_ops());
        slices.quiet_ops_per_s()
    };

    // Segment 1 again, same seed, with spans on.
    let per_op = if kind == Kind::PasswdChurn {
        SPANS_PER_OP * 60
    } else {
        SPANS_PER_OP
    };
    let tracer = Tracer::new((ops * per_op) as usize);
    let mut load = setup(kind, seed, tracer.clone(), plan.measured_ops)?;
    warm_up(load.as_mut(), plan.warmup_ops, &mut checks);
    let before = read_counts(load.as_ref());
    let mut samples = Samples::default();
    tracer.start();
    let wall = drive(load.as_mut(), ops, &mut samples, &mut checks);
    let spans = tracer.finish();
    out.counts = phase_counts(load.as_ref(), &before);
    let mut slices = Slices::new();
    slices.take(&samples, load.slice_ops());

    let mut figures: Vec<(&str, Option<f64>, u64)> = Vec::new();

    // Span medians, whole and self.
    let own = self_times(&spans);
    let mut by_name: HashMap<&str, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for (span, own) in spans.iter().zip(&own) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_ns());
        entry.1.push(*own);
    }
    for metric in PER_LAYER {
        let (name, own) = match metric.source {
            Source::Span(name) => (name, false),
            Source::SpanSelf(name) => (name, true),
            _ => continue,
        };
        if let Some((whole, selfs)) = by_name.get_mut(name) {
            let data = if own { selfs } else { whole };
            figures.push((
                metric.name,
                percentile_of(data, 0.5).map(|ns| ns as f64),
                data.len() as u64,
            ));
        }
    }
    let span_median = |figures: &[(&str, Option<f64>, u64)], name: &str| {
        figures
            .iter()
            .find(|(n, ..)| *n == name)
            .and_then(|(_, v, _)| *v)
    };

    // Stage probes on what the KDC served during the traced segment.
    let (prices, captured) = {
        let captured = load
            .realm()
            .captures
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        (probes::run(load.realm(), &captured), captured.len() as u64)
    };
    for (name, value) in [
        ("crypto.seal_ns", prices.seal),
        ("crypto.unseal_ns", prices.unseal),
        ("crypto.sched_build_ns", prices.sched_build),
        ("crypto.string_to_key_ns", prices.string_to_key),
        ("crypto.keygen_ns", prices.keygen),
        ("crypto.cbc_cksum_ns_per_kb", prices.cbc_cksum_per_kb),
        ("core.decode_ns", prices.decode),
        ("core.encode_ns", prices.encode),
        ("core.principal_new_ns", prices.principal_new),
        ("core.reply_part_encode_ns", prices.reply_part_encode),
        ("core.ticket_seal_ns", prices.ticket_seal),
        ("core.replay_check_ns", prices.replay_check),
        ("kdb.get_ns", prices.kdb_get),
        ("kdb.key_unseal_ns", prices.key_unseal),
        ("kdb.snapshot_mem_ns", prices.snapshot_mem),
        ("kdb.change_key_ns", prices.change_key),
        ("kdb.dump_ns", prices.dump),
        ("telemetry.journal_record_ns", prices.journal_record),
        ("telemetry.span_ns", prices.telemetry_span),
    ] {
        figures.push((name, value, captured));
    }

    // How much of the handle span the probes explain.
    let count = |name: &str| out.counts.get(name).copied().unwrap_or(0) as f64;
    let misses_per_as = if count("kdc.as_ok") > 0.0 {
        (count("kdc.sched_misses") / count("kdc.as_ok")).min(2.0)
    } else {
        0.0
    };
    for (stem, sum) in [
        ("as", prices.sum_as(misses_per_as)),
        ("tgs", prices.sum_tgs()),
    ] {
        let handle = span_median(
            &figures,
            if stem == "as" {
                "kdc.handle_as_ns"
            } else {
                "kdc.handle_tgs_ns"
            },
        );
        if let Some(handle) = handle.filter(|h| *h > 0.0) {
            let (sum_name, cover_name) = match stem {
                "as" => ("kdc.probe_sum_as_ns", "kdc.probe_coverage_as"),
                _ => ("kdc.probe_sum_tgs_ns", "kdc.probe_coverage_tgs"),
            };
            figures.push((sum_name, Some(sum), captured));
            figures.push((cover_name, Some(sum / handle), captured));
        }
    }
    let lookups = count("kdc.sched_hits") + count("kdc.sched_misses");
    if lookups > 0.0 {
        figures.push((
            "kdc.sched_hit_ratio",
            Some(count("kdc.sched_hits") / lookups),
            lookups as u64,
        ));
    }
    // Quiet slices on both sides, so the difference is the tracing and not
    // the box's mood.
    if let (Some(plain), Some(traced)) = (plain, slices.quiet_ops_per_s()) {
        let overhead = (plain.value - traced.value) / plain.value * 100.0;
        figures.push(("trace.overhead_pct", Some(overhead), traced.n as u64));
    }
    if kind == Kind::UdpLoopback {
        // Informational: whole-segment figures, which swing with the box.
        figures.push(("netsim.udp_ops_per_s", Some(ops as f64 / wall), ops));
        let p99 = percentile_of(&mut samples.tgs_ns, 0.99).map(|ns| ns as f64 / 1000.0);
        figures.push(("netsim.udp_rtt_p99_us", p99, samples.tgs_ns.len() as u64));
        figures.push((
            "netsim.udp_timeouts",
            Some(load.realm().timeouts as f64),
            ops,
        ));
    }
    let own_timings = load.own_timings();
    for (name, data) in &own_timings {
        let values: Vec<f64> = data.iter().map(|v| *v as f64).collect();
        figures.push((*name, median(&values), data.len() as u64));
    }

    for (name, value, n) in figures {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("ns", |m| m.unit);
        if let Some(value) = value {
            out.figures
                .insert(name.to_string(), Figure::plain(unit, value, n));
        }
    }
    out.first_spans = spans.into_iter().take_while(|s| s.op < 1_000).collect();
    finish(load.as_mut(), checks, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_frozen_counts_not_time_budgets() {
        for kind in Kind::ALL {
            let plan = Plan::new(kind, 10, false);
            let chunk = SEGMENTS * kind.slice_ops();
            assert_eq!(
                plan.measured_ops,
                kind.ops_per_second() * 10 / chunk * chunk
            );
            assert_eq!(
                plan.segment_ops() % kind.slice_ops(),
                0,
                "segments are whole slices"
            );
            assert_eq!(plan.warmup_ops % kind.slice_ops(), 0, "and start on a tick");
            assert_eq!(
                plan,
                Plan::new(kind, 10, false),
                "same request, same counts"
            );
            let smoke = Plan::new(kind, 10, true);
            assert!(smoke.measured_ops >= MIN_OPS);
            assert!(smoke.measured_ops <= (plan.measured_ops / 50).max(MIN_OPS));
            assert_eq!(smoke.warmup_ops % kind.slice_ops(), 0);
        }
    }

    #[test]
    fn groups_fill_across_calls_and_report_when_full() {
        let mut medians = Grouped::new(WRITE_GROUP, 0.5);
        medians.feed(&[5_000; 20]);
        assert!(medians.us.is_empty(), "20 of 21");
        // The 21st sample completes the first group; 24 more make one
        // further group and leave 3 waiting.
        medians.feed(&[9_000; 25]);
        assert_eq!(medians.us, vec![5.0, 9.0]);
        assert_eq!(medians.pending.len(), 3);
    }

    #[test]
    fn slices_split_a_segment_at_its_marks() {
        // Two slices of 30 TGS exchanges: 10 us then 20 us; no AS or AP.
        let mark = |wall_ns, tgs_end| SliceMark {
            wall_ns,
            ends: [0, tgs_end, 0],
        };
        let samples = Samples {
            tgs_ns: [vec![10_000; 30], vec![20_000; 30]].concat(),
            slices: vec![mark(1_000_000, 30), mark(2_000_000, 60)],
            ..Samples::default()
        };
        let mut slices = Slices::new();
        slices.take(&samples, 30);
        assert_eq!(slices.ops_per_s, vec![30_000.0, 15_000.0]);
        assert_eq!(slices.p50_us[1], vec![10.0, 20.0]);
        assert!(
            slices.p99[1].us.is_empty() && slices.p99[1].pending.len() == 60,
            "no group is full yet"
        );
        assert!(slices.p50_us[0].is_empty() && slices.p50_us[2].is_empty());
        assert_eq!(slices.quiet_ops_per_s().map(|s| s.value), Some(30_000.0));
    }
}
