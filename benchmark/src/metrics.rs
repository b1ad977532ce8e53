//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end figure each
//! is expected to move. Later changes quote these names; they are permanent.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Requests per tick of the protocol clock, one per simulated user, and the
/// users `ticket_steady` and `udp_loopback` log in during set-up.
///
/// 200 and not 256: a replay cache holds up to 900 ticks of requests (it
/// sweeps every 300 ticks and keeps 600), and 900 x 256 = 230 400 entries
/// sit 0.4 % above the point where a hash table of 2^18 buckets doubles
/// (7/8 full), so each of the KDC's 16 stripes and each of the 8 servers'
/// caches doubles early or late by the luck of the seed. 900 x 200 lies in
/// the middle of a size class. Peak RSS of `login_storm` over ten seeds of
/// 10 s: 72-80 MB at 256, 47.2-47.6 MB at 200; over six seeds of 20 s, by
/// when the sweeps' tombstones have made every table double: 80.6-85.2 MB
/// at 256, 79.8-81.4 MB at 200.
pub const PER_TICK: u64 = 200;

/// The four workloads, in the order they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The 8:55 am rush: every op is a fresh user's full login.
    LoginStorm,
    /// Mid-morning: logged-in users fetch and use service tickets.
    TicketSteady,
    /// Writes beside reads: password changes and propagation among logins.
    PasswdChurn,
    /// `ticket_steady` with the TGS exchange over loopback UDP.
    UdpLoopback,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::LoginStorm,
        Kind::TicketSteady,
        Kind::PasswdChurn,
        Kind::UdpLoopback,
    ];

    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LoginStorm => "login_storm",
            Kind::TicketSteady => "ticket_steady",
            Kind::PasswdChurn => "passwd_churn",
            Kind::UdpLoopback => "udp_loopback",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Kind::LoginStorm => "20k principals, every op a fresh user's AS+TGS+AP login: principal lookup, key unseal and schedule build miss the 64-entry cache on every client",
            Kind::TicketSteady => "5k principals, 200 logged-in users doing TGS+AP: schedule cache ~100% hits, replay caches at 120k-180k entries with purge sweeps; no AS, no lookup misses",
            Kind::PasswdChurn => "20k principals, master+slave: cycles of 50 slave logins, one kpasswd, one incremental kprop round; every write deep-copies the realm and flushes the schedule cache",
            Kind::UdpLoopback => "ticket_steady's realm and schedule with TGS over UdpServer/udp_request on the host loopback (not a link): transport is ~90% of the exchange, crypto ~0",
        }
    }

    /// Ops measured per requested second. Frozen: calibrated once on the
    /// commit that introduced the benchmark so that `--seconds N` measures
    /// for about N seconds there, and never adjusted to the clock, so that
    /// op counts — and with them every count the program makes — repeat
    /// exactly. An op is a login, a TGS+AP pair, a cycle, a TGS+AP pair.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Kind::LoginStorm => 30_000,
            Kind::TicketSteady => 50_000,
            Kind::PasswdChurn => 32,
            Kind::UdpLoopback => 10_000,
        }
    }

    /// Untimed ops before the measured phase.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Kind::LoginStorm => 100 * PER_TICK,
            // Past tick 600, so the replay caches are at steady size and
            // their first purge sweeps are behind the timer.
            Kind::TicketSteady => 700 * PER_TICK,
            Kind::PasswdChurn => 20,
            Kind::UdpLoopback => 50 * PER_TICK,
        }
    }

    /// Ops in one slice: a tick's requests, or one cycle.
    pub fn slice_ops(self) -> u64 {
        match self {
            Kind::PasswdChurn => 1,
            _ => PER_TICK,
        }
    }

    /// Listed in `BENCHMARK.json`. `udp_loopback` is not: on this shared
    /// box the loopback round trip is multi-modal (medians of 30, 90 and
    /// 150 us were all seen within an hour), so no bound the driver allows
    /// would hold. `kbench run` still runs it.
    pub fn in_contract(self) -> bool {
        self != Kind::UdpLoopback
    }

    /// Set-ups timed before the measured phase, and again after it: one to
    /// two seconds' worth in all. `setup_s` is their quiet level (with this
    /// few, the lowest), so that one quiet moment anywhere in the run is
    /// enough to read it true.
    pub fn setups(self) -> (usize, usize) {
        match self {
            Kind::LoginStorm => (20, 10),
            Kind::TicketSteady | Kind::UdpLoopback => (40, 20),
            Kind::PasswdChurn => (8, 4),
        }
    }

    /// User principals in the realm.
    pub fn principals(self) -> usize {
        match self {
            Kind::LoginStorm | Kind::PasswdChurn => 20_000,
            Kind::TicketSteady | Kind::UdpLoopback => 5_000,
        }
    }
}

/// An end-to-end metric: something a user of the realm would see.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which it may worsen before `compare` calls
    /// a regression.
    pub bound: f64,
    /// Workloads that exercise it.
    pub workloads: &'static [Kind],
    /// Listed in `BENCHMARK.json`: reported by every workload listed there,
    /// never 0.
    pub in_contract: bool,
    /// What it measures.
    pub what: &'static str,
}

use Kind::{LoginStorm as L, PasswdChurn as P, TicketSteady as T, UdpLoopback as U};

/// The end-to-end metrics.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25, workloads: &[L, T, P, U], in_contract: true,
        what: "realm build, KDC start, TGT acquisition, slave bootstrap; lowest of 12 to 60 set-ups, two thirds before and one third after the measured phase; warm-up excluded" },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25, workloads: &[L, T, P], in_contract: true,
        what: "ops per second of a slice (one 200-op tick, or one cycle), an op as the workload defines it; quiet-slice figure" },
    EndToEnd { name: "as_p50_us", unit: "us", better: Better::Lower, bound: 0.10, workloads: &[L, P], in_contract: false,
        what: "client-observed AS exchange incl. string_to_key and reply decryption; per-slice median, quiet-slice figure" },
    EndToEnd { name: "as_p99_us", unit: "us", better: Better::Lower, bound: 0.25, workloads: &[L, P], in_contract: false,
        what: "same, 99th percentile per group of 2000 consecutive exchanges; median group" },
    EndToEnd { name: "tgs_p50_us", unit: "us", better: Better::Lower, bound: 0.10, workloads: &[L, T, P, U], in_contract: true,
        what: "client-observed TGS exchange; per-slice median, quiet-slice figure (on udp_loopback the median slice)" },
    EndToEnd { name: "tgs_p99_us", unit: "us", better: Better::Lower, bound: 0.25, workloads: &[L, T, P], in_contract: false,
        what: "same, 99th percentile per group of 2000 consecutive exchanges; median group" },
    EndToEnd { name: "ap_p50_us", unit: "us", better: Better::Lower, bound: 0.10, workloads: &[L, T], in_contract: false,
        what: "AP exchange with mutual authentication; per-slice median, quiet-slice figure" },
    EndToEnd { name: "kpasswd_p50_us", unit: "us", better: Better::Lower, bound: 0.10, workloads: &[P], in_contract: false,
        what: "password typed -> status reply, including the snapshot swap; median per group of 21 consecutive cycles, quiet-slice figure" },
    EndToEnd { name: "kpasswd_p95_us", unit: "us", better: Better::Lower, bound: 0.25, workloads: &[P], in_contract: false,
        what: "same, 95th percentile over the whole phase" },
    EndToEnd { name: "prop_p50_us", unit: "us", better: Better::Lower, bound: 0.10, workloads: &[P], in_contract: false,
        what: "master log append -> slave serving the new key; median per group of 21 consecutive cycles, quiet-slice figure" },
    EndToEnd { name: "prop_p95_us", unit: "us", better: Better::Lower, bound: 0.25, workloads: &[P], in_contract: false,
        what: "same, 95th percentile over the whole phase" },
    EndToEnd { name: "fail_ratio", unit: "ratio", better: Better::Lower, bound: 0.0, workloads: &[L, T, P, U], in_contract: false,
        what: "failed / attempted; any rise is a regression" },
    EndToEnd { name: "rss_peak_mb", unit: "MB", better: Better::Lower, bound: 0.10, workloads: &[L, T, P, U], in_contract: true,
        what: "VmHWM of the workload's process at its end" },
];

/// Where a per-layer figure comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Median duration of the spans with this name.
    Span(&'static str),
    /// Median self time (duration minus children) of the spans with this name.
    SpanSelf(&'static str),
    /// A stage probe: the public function timed on captured inputs.
    Probe,
    /// A count over the traced segment; repeats exactly for a given seed.
    Count,
    /// Derived from other figures or not repeatable.
    Derived,
}

/// A per-layer metric.
pub struct PerLayer {
    /// `layer.name`; the layer is the repository module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where the figure comes from.
    pub source: Source,
    /// The `metric@workload` it should move.
    pub moves: &'static str,
}

const fn span(name: &'static str, span: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        source: Source::Span(span),
        moves,
    }
}
const fn span_self(name: &'static str, span: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        source: Source::SpanSelf(span),
        moves,
    }
}
const fn probe(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        source: Source::Probe,
        moves,
    }
}
const fn count(name: &'static str, better: Better, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
        source: Source::Count,
        moves,
    }
}

/// The per-layer metrics. A span-derived figure is 0 on a workload that
/// never makes the call; probes price their function on every workload.
pub const PER_LAYER: &[PerLayer] = &[
    // The client's view of each exchange in the traced run: the base of
    // every share quoted from this table.
    span("client.as_ns", "client.as", "base of as_p50_us shares"),
    span("client.tgs_ns", "client.tgs", "base of tgs_p50_us shares"),
    span("client.ap_ns", "client.ap", "base of ap_p50_us shares"),
    span(
        "client.kpasswd_ns",
        "client.kpasswd",
        "base of kpasswd_p50_us shares",
    ),
    span(
        "client.prop_ns",
        "client.prop",
        "base of prop_p50_us shares",
    ),
    // crypto
    probe(
        "crypto.seal_ns",
        "as_/tgs_/ap_p50_us, ops_per_s @login_storm, ticket_steady; ~0 @udp_loopback",
    ),
    probe(
        "crypto.unseal_ns",
        "as_/tgs_/ap_p50_us, ops_per_s @login_storm, ticket_steady; ~0 @udp_loopback",
    ),
    probe("crypto.sched_build_ns", "as_p50_us@login_storm only"),
    probe("crypto.string_to_key_ns", "as_p50_us@login_storm only"),
    probe(
        "crypto.keygen_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady (one session key per ticket)",
    ),
    PerLayer {
        name: "crypto.cbc_cksum_ns_per_kb",
        unit: "ns/KB",
        better: Better::Lower,
        source: Source::Probe,
        moves: "prop_p50_us@passwd_churn, setup_s@passwd_churn",
    },
    // core
    probe(
        "core.decode_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady",
    ),
    probe(
        "core.encode_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady",
    ),
    span(
        "core.build_as_req_ns",
        "core.build_as_req",
        "as_p50_us@login_storm",
    ),
    span(
        "core.read_as_reply_ns",
        "core.read_as_reply",
        "as_p50_us@login_storm",
    ),
    span(
        "core.build_tgs_req_ns",
        "core.build_tgs_req",
        "tgs_p50_us @login_storm, ticket_steady",
    ),
    span(
        "core.read_tgs_reply_ns",
        "core.read_tgs_reply",
        "tgs_p50_us @login_storm, ticket_steady",
    ),
    probe(
        "core.principal_new_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady (two per exchange)",
    ),
    probe(
        "core.reply_part_encode_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady",
    ),
    probe(
        "core.ticket_seal_ns",
        "as_/tgs_p50_us @login_storm, ticket_steady",
    ),
    span("core.mk_req_ns", "core.mk_req", "ap_p50_us@ticket_steady"),
    span(
        "core.rd_req_ns",
        "core.rd_req",
        "ap_p50_us, tgs_p50_us @ticket_steady",
    ),
    span("core.mk_rep_ns", "core.mk_rep", "ap_p50_us@ticket_steady"),
    span("core.rd_rep_ns", "core.rd_rep", "ap_p50_us@ticket_steady"),
    probe(
        "core.replay_check_ns",
        "tgs_p50_us, tgs_p99_us @ticket_steady",
    ),
    count(
        "core.replay_entries",
        Better::Lower,
        "rss_peak_mb, tgs_p99_us @ticket_steady (sweeps are the tail)",
    ),
    count(
        "core.replay_evictions",
        Better::Lower,
        "tgs_p99_us@ticket_steady",
    ),
    count(
        "core.replay_hits",
        Better::Lower,
        "equals the replay probes sent",
    ),
    // kdb
    probe("kdb.get_ns", "as_p50_us@login_storm; none @ticket_steady"),
    probe(
        "kdb.key_unseal_ns",
        "as_p50_us@login_storm; none @ticket_steady",
    ),
    probe(
        "kdb.snapshot_mem_ns",
        "kpasswd_p50_us, prop_p50_us, ops_per_s, rss_peak_mb @passwd_churn",
    ),
    probe("kdb.change_key_ns", "kpasswd_p50_us@passwd_churn"),
    probe("kdb.dump_ns", "setup_s@passwd_churn"),
    // kdc
    span(
        "kdc.handle_as_ns",
        "kdc.handle_as",
        "as_p50_us @login_storm, passwd_churn",
    ),
    span(
        "kdc.handle_tgs_ns",
        "kdc.handle_tgs",
        "tgs_p50_us @login_storm, ticket_steady",
    ),
    PerLayer {
        name: "kdc.probe_sum_as_ns",
        unit: "ns",
        better: Better::Lower,
        source: Source::Derived,
        moves: "numerator of kdc.probe_coverage_as",
    },
    PerLayer {
        name: "kdc.probe_sum_tgs_ns",
        unit: "ns",
        better: Better::Lower,
        source: Source::Derived,
        moves: "numerator of kdc.probe_coverage_tgs",
    },
    PerLayer {
        name: "kdc.probe_coverage_as",
        unit: "ratio",
        better: Better::Higher,
        source: Source::Derived,
        moves: "share of kdc.handle_as_ns the stage probes explain",
    },
    PerLayer {
        name: "kdc.probe_coverage_tgs",
        unit: "ratio",
        better: Better::Higher,
        source: Source::Derived,
        moves: "share of kdc.handle_tgs_ns the stage probes explain",
    },
    count("kdc.as_ok", Better::Higher, "equals the AS requests sent"),
    count("kdc.tgs_ok", Better::Higher, "equals the TGS requests sent"),
    count(
        "kdc.errors",
        Better::Lower,
        "equals the negative probes the KDC refuses",
    ),
    count("kdc.sched_hits", Better::Higher, "as_p50_us@login_storm"),
    count(
        "kdc.sched_misses",
        Better::Lower,
        "as_p50_us@login_storm; as_p99_us@passwd_churn after each flush",
    ),
    PerLayer {
        name: "kdc.sched_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        source: Source::Derived,
        moves: "as_p50_us@login_storm (<= 0.7 there, >= 0.99 @ticket_steady)",
    },
    count(
        "kdc.store_swaps",
        Better::Lower,
        "0 @login_storm, ticket_steady, udp_loopback; >= 1 per cycle @passwd_churn",
    ),
    span(
        "kdc.install_db_ns",
        "kdc.install_db",
        "prop_p50_us@passwd_churn",
    ),
    // netsim
    span_self(
        "netsim.rpc_self_ns",
        "netsim.rpc",
        "every in-process p50 by its share",
    ),
    span_self(
        "netsim.udp_rtt_self_ns",
        "netsim.udp_rtt",
        "tgs_p50_us@udp_loopback only",
    ),
    PerLayer {
        name: "netsim.udp_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        source: Source::Derived,
        moves: "informational (not repeatable on a shared box)",
    },
    PerLayer {
        name: "netsim.udp_rtt_p99_us",
        unit: "us",
        better: Better::Lower,
        source: Source::Derived,
        moves: "informational (not repeatable on a shared box)",
    },
    PerLayer {
        name: "netsim.udp_timeouts",
        unit: "count",
        better: Better::Lower,
        source: Source::Derived,
        moves: "informational; a timeout is also a failed op",
    },
    count(
        "netsim.delivered",
        Better::Higher,
        "two per in-process exchange",
    ),
    count("netsim.dropped", Better::Lower, "0 on a default SimNet"),
    // kadm
    span(
        "kadm.build_req_ns",
        "kadm.build_req",
        "kpasswd_p50_us@passwd_churn",
    ),
    span(
        "kadm.handle_ns",
        "kadm.handle",
        "kpasswd_p50_us@passwd_churn",
    ),
    count("kadm.audit_records", Better::Higher, "one per kpasswd"),
    // kprop
    span(
        "kprop.build_segment_ns",
        "kprop.build_segment",
        "prop_p50_us@passwd_churn",
    ),
    span_self(
        "kprop.apply_self_ns",
        "kprop.apply",
        "prop_p50_us@passwd_churn",
    ),
    PerLayer {
        name: "kprop.segment_bytes",
        unit: "B",
        better: Better::Lower,
        source: Source::Count,
        moves: "prop_p50_us@passwd_churn (total shipped over the segment)",
    },
    PerLayer {
        name: "kprop.full_dump_ns",
        unit: "ns",
        better: Better::Lower,
        source: Source::Derived,
        moves: "setup_s@passwd_churn (the slave's bootstrap)",
    },
    // telemetry
    probe(
        "telemetry.journal_record_ns",
        "every in-process p50 by its share",
    ),
    probe("telemetry.span_ns", "every in-process p50 by its share"),
    count(
        "telemetry.journal_events",
        Better::Lower,
        "one per exchange the KDC serves",
    ),
    count(
        "telemetry.journal_dropped",
        Better::Lower,
        "ring evictions; no latency effect",
    ),
    // the tracing itself
    PerLayer {
        name: "trace.overhead_pct",
        unit: "%",
        better: Better::Lower,
        source: Source::Derived,
        moves: "traced vs untraced segment-1 throughput; end-to-end figures never include it",
    },
];

/// The counts that must repeat exactly between two runs with one seed.
pub fn repeatable(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.name == name && m.source == Source::Count)
        || name == "schedule_digest"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} is defined twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert_eq!(END_TO_END.len(), 13);
        assert!(PER_LAYER.len() <= 128);
        for kind in Kind::ALL.into_iter().filter(|k| k.in_contract()) {
            assert!(END_TO_END
                .iter()
                .filter(|m| m.in_contract)
                .all(|m| m.workloads.contains(&kind)));
        }
    }
}
