//! `krb-top`: the operator's live view of a running KDC.
//!
//! The paper's Athena deployment was shared infrastructure: somebody had
//! to notice when the authentication service degraded before thousands of
//! users did. This module is that somebody's tool. It stands up (or, for
//! a future `krbd`, would connect to) a realm whose KDC serves the
//! `krb-mon` introspection frames on [`krb_netsim::ports::MON`], polls
//! all five queries over the simulated network, and renders either a
//! human dashboard or a machine-readable JSON snapshot:
//!
//! - **health** — the derived verdict ladder (healthy/degraded/failing)
//!   from error rate, replay rate, and journal drops;
//! - **kdc counters** — AS/TGS successes, errors, replay hits (total and
//!   per stripe), store snapshot swaps;
//! - **latency** — histogram summaries *with trace exemplars*: each
//!   bucket remembers the last traced request that landed in it, so a
//!   p99 spike links directly to a `krb-trace` timeline;
//! - **top principals** — bounded heavy-hitter tables (who is hammering
//!   the AS, which services dominate the TGS, which principals error);
//! - **journal tail & flight recorder** — the newest events and the
//!   complete captured chains of recent failures.
//!
//! The seeded rig ([`run`]) drives deterministic traffic (clean logins, a
//! replayed authenticator, a wrong password, an unknown principal) under
//! simulated clocks, so `krb-top --once --json` is byte-identical across
//! same-seed runs — `scripts/check.sh` pins that. The dashboard mode
//! polls the same frames between traffic rounds, which is exactly what a
//! real `krb-top` would do against a live `krbd` socket.

use crate::{kdb_init, register_service, register_user, ToolError, Workstation};
use kerberos::{krb_rd_req, ErrorCode, Principal, ReplayCache};
use krb_crypto::{KeyGenerator, Scheduled};
use krb_kdc::{shared_clock, Deployment, RealmConfig};
use krb_mon::{
    ErrorTraces, HealthReport, HealthSpec, JournalTail, MonRequest, MonService, MonState,
    StatSnapshot, TopPrincipals,
};
use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};
use krb_telemetry::{lcg_clock_us, ClockUs, FlightRecorder, Journal, Json, Registry, TraceCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

const REALM: &str = "MON.MIT.EDU";
const START: u32 = 600_000_000;
const KDC_ADDR: [u8; 4] = [18, 72, 0, 10];
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];
/// Source port the monitoring client queries from.
const CLIENT_PORT: u16 = 40_000;
/// Flight-recorder ring capacity in the rig.
const FLIGHT_CAP: usize = 16;
/// Heavy-hitter table capacity in the rig.
const SKETCH_K: usize = 8;

/// Rig and rendering parameters.
#[derive(Clone, Copy, Debug)]
pub struct TopConfig {
    /// Seeds the database, trace ids, and the simulated latency clock.
    pub seed: u64,
    /// Traffic-then-query rounds ("polls") to run.
    pub polls: usize,
    /// Journal lines per `Tail` query.
    pub tail: u32,
    /// Entries per heavy-hitter table in replies.
    pub top_k: u32,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig { seed: 42, polls: 3, tail: 8, top_k: 5 }
    }
}

/// The five decoded frames of one poll.
#[derive(Clone, Debug)]
pub struct TopSnapshot {
    /// Which poll round produced this (0-based).
    pub poll: usize,
    /// The `Stat` reply.
    pub stat: StatSnapshot,
    /// The `Health` reply.
    pub health: HealthReport,
    /// The `Tail` reply.
    pub tail: JournalTail,
    /// The `Top` reply.
    pub top: TopPrincipals,
    /// The `ErrTraces` reply.
    pub flights: ErrorTraces,
}

/// Everything one `krb-top` invocation produced.
#[derive(Clone, Debug)]
pub struct TopRun {
    /// One snapshot per poll, in poll order.
    pub snapshots: Vec<TopSnapshot>,
    /// The realm journal's full rendered dump after the last poll — the
    /// `krb-trace` input that resolves any exemplar or flight trace id.
    pub journal_dump: String,
}

/// Stand up the seeded realm, drive `cfg.polls` rounds of traffic, query
/// the `MonService` frames after each round over the simulated network.
pub fn run(cfg: &TopConfig) -> Result<TopRun, ToolError> {
    let intk = |_| ToolError::Krb(ErrorCode::IntkErr);
    let polls = cfg.polls.max(1);
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let mut boot = kdb_init(REALM, "mon-master-pw", START, cfg.seed).map_err(intk)?;
    for user in ["bcn", "mjl", "eva"] {
        register_user(&mut boot.db, user, "", &format!("pw-{user}"), START).map_err(intk)?;
    }
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(cfg.seed ^ 0x5EED));
    let svc_key =
        register_service(&mut boot.db, "sample", "host", START, &mut keygen).map_err(intk)?;
    let dep = Deployment::install(
        &mut router,
        REALM,
        boot.db,
        RealmConfig::new(REALM),
        KDC_ADDR,
        0,
        START,
    )
    .map_err(|_| ToolError::Krb(ErrorCode::IntkErr))?;

    // Telemetry: shared registry + journal, simulated latency clock, the
    // flight recorder hooked onto the journal, heavy-hitter tables on.
    let registry = Registry::shared();
    let journal = Journal::shared();
    let clock_us = lcg_clock_us(cfg.seed, 40, 400);
    let recorder = Arc::new(FlightRecorder::new(FLIGHT_CAP));
    journal.set_flight_recorder(Arc::clone(&recorder));
    dep.master.set_telemetry(Arc::clone(&registry), ClockUs::clone(&clock_us));
    dep.master.set_journal(Arc::clone(&journal));
    let top = dep.master.enable_top_stats(SKETCH_K);

    // The introspection plane, served right next to the KDC.
    let state = MonState::new("kdc-master", Arc::clone(&registry), Arc::clone(&journal))
        .with_recorder(Arc::clone(&recorder))
        .with_sketch("as_clients", top.as_clients.clone())
        .with_sketch("tgs_services", top.tgs_services.clone())
        .with_sketch("error_principals", top.error_principals.clone())
        .with_health(HealthSpec::kdc());
    let mon_ep = Endpoint::new(KDC_ADDR, ports::MON);
    router.serve(mon_ep, MonService(Arc::new(state)));

    let service = Principal::parse("sample.host", REALM)?;
    let sched = Scheduled::new(&svc_key);
    let replay = ReplayCache::new();
    let mut ws = Workstation::new(
        WS_ADDR,
        REALM,
        dep.kdc_endpoints(),
        shared_clock(Arc::clone(&dep.clock_cell)),
    );
    ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock_us), cfg.seed);
    let client = Endpoint::new(WS_ADDR, CLIENT_PORT);

    let mut snapshots = Vec::with_capacity(polls);
    for poll in 0..polls {
        drive_round(&mut router, &dep, &mut ws, &service, &sched, &replay, &journal, &clock_us)?;
        snapshots.push(query(&mut router, client, mon_ep, cfg, poll)?);
    }
    Ok(TopRun { snapshots, journal_dump: journal.render() })
}

/// One round of seeded traffic: two clean full logins (bcn, mjl), an
/// AS-only login (eva), a replayed authenticator, a wrong password, and
/// an unknown principal — successes for the counters and heavy hitters,
/// failures for the health model and the flight recorder.
#[allow(clippy::too_many_arguments)]
fn drive_round(
    router: &mut Router,
    dep: &Deployment,
    ws: &mut Workstation,
    service: &Principal,
    sched: &Scheduled,
    replay: &ReplayCache,
    journal: &Arc<Journal>,
    clock_us: &ClockUs,
) -> Result<(), ToolError> {
    let app_ctx = |ws: &Workstation| -> Result<TraceCtx, ToolError> {
        let trace = ws.current_trace().ok_or(ToolError::Krb(ErrorCode::IntkErr))?;
        Ok(TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock_us), trace))
    };

    // Two clean Figure-9 flows.
    for user in ["bcn", "mjl"] {
        dep.advance_time(1);
        ws.kinit(router, user, &format!("pw-{user}"))?;
        let (ap, _) = ws.mk_request(router, service, 0, true)?;
        let ctx = app_ctx(ws)?;
        krb_rd_req(&ap, service, sched, ws.addr, ws.now(), replay, Some(&ctx))?;
    }

    // AS-only login: eva shows up in the as_clients table but never asks
    // for a service ticket.
    dep.advance_time(1);
    ws.kinit(router, "eva", "pw-eva")?;

    // A replayed authenticator: the replay-cache verdict lands at the app
    // hop and the flight recorder captures the trace's chain.
    dep.advance_time(1);
    ws.kinit(router, "bcn", "pw-bcn")?;
    let (ap, _) = ws.mk_request(router, service, 0, true)?;
    let ctx = app_ctx(ws)?;
    krb_rd_req(&ap, service, sched, ws.addr, ws.now(), replay, Some(&ctx))?;
    match krb_rd_req(&ap, service, sched, ws.addr, ws.now(), replay, Some(&ctx)) {
        Err(ErrorCode::RdApRepeat) => {}
        _ => return Err(ToolError::Krb(ErrorCode::RdApRepeat)),
    }

    // Wrong password: the KDC answers normally (it never sees the
    // password, §4.2); the workstation reports the failure.
    dep.advance_time(1);
    if ws.kinit(router, "mjl", "wrong-pw").is_ok() {
        return Err(ToolError::Krb(ErrorCode::IntkBadPw));
    }

    // Unknown principal: the KDC itself rejects — a kdc_error_total
    // increment, a journaled kdc_err, and an error_principals entry.
    dep.advance_time(1);
    if ws.kinit(router, "nosuch", "pw").is_ok() {
        return Err(ToolError::Krb(ErrorCode::KdcPrUnknown));
    }
    Ok(())
}

/// Query all five frames over the simulated network.
fn query(
    router: &mut Router,
    client: Endpoint,
    mon_ep: Endpoint,
    cfg: &TopConfig,
    poll: usize,
) -> Result<TopSnapshot, ToolError> {
    let undec = ToolError::Krb(ErrorCode::RdApUndec);
    let stat = StatSnapshot::decode(&router.rpc(client, mon_ep, &MonRequest::Stat.encode())?)
        .ok_or(undec.clone())?;
    let health = HealthReport::decode(&router.rpc(client, mon_ep, &MonRequest::Health.encode())?)
        .ok_or(undec.clone())?;
    let tail =
        JournalTail::decode(&router.rpc(client, mon_ep, &MonRequest::Tail(cfg.tail).encode())?)
            .ok_or(undec.clone())?;
    let top =
        TopPrincipals::decode(&router.rpc(client, mon_ep, &MonRequest::Top(cfg.top_k).encode())?)
            .ok_or(undec.clone())?;
    let flights = ErrorTraces::decode(
        &router.rpc(client, mon_ep, &MonRequest::ErrTraces(cfg.top_k).encode())?,
    )
    .ok_or(undec)?;
    Ok(TopSnapshot { poll, stat, health, tail, top, flights })
}

fn counter(stat: &StatSnapshot, name: &str) -> u64 {
    stat.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn latency_json(stat: &StatSnapshot, name: &str) -> Json {
    let Some(h) = stat.hists.iter().find(|h| h.name == name) else {
        return Json::obj().with("count", 0u64);
    };
    let exemplars: Json = h
        .exemplars
        .iter()
        .map(|(le, trace)| {
            let le = le.map_or_else(|| "inf".to_string(), |b| b.to_string());
            Json::obj().with("le", le).with("trace", format!("{trace:016x}"))
        })
        .collect();
    Json::obj()
        .with("count", h.count)
        .with("p50", h.p50)
        .with("p95", h.p95)
        .with("p99", h.p99)
        .with("max", h.max)
        .with("exemplars", exemplars)
}

/// One snapshot as the deterministic JSON document `--json` emits.
pub fn to_json(snap: &TopSnapshot) -> Json {
    let stat = &snap.stat;
    // Health verdicts, in spec order.
    let health: Json = snap
        .health
        .components
        .iter()
        .map(|c| {
            Json::obj()
                .with("component", &c.component)
                .with("state", &c.state)
                .with("err_permille", c.err_permille)
                .with("replay_permille", c.replay_permille)
                .with("total", c.total)
                .with("journal_dropped", c.journal_dropped)
        })
        .collect();
    // The KDC outcome counters, stripes included.
    let kdc = Json::obj()
        .with("as_ok", counter(stat, "kdc_as_ok_total"))
        .with("tgs_ok", counter(stat, "kdc_tgs_ok_total"))
        .with("errors", counter(stat, "kdc_error_total"))
        .with("replay_hits", counter(stat, "kdc_replay_hits_total"))
        .with("store_swaps", stat.store_swaps())
        .with("stripe_hits", stat.stripe_hits().into_iter().collect::<Json>());
    // Heavy-hitter tables, in attachment order.
    let top = snap.top.tables.iter().fold(Json::obj(), |top, (label, entries)| {
        let rows: Json = entries
            .iter()
            .map(|e| Json::obj().with("key", &e.key).with("count", e.count).with("err", e.err))
            .collect();
        top.with(label, rows)
    });
    let records: Json = snap
        .flights
        .records
        .iter()
        .map(|r| {
            Json::obj()
                .with("trace", format!("{:016x}", r.trace))
                .with("fail_kind", &r.fail_kind)
                .with("at_us", r.at_us)
                .with("truncated", r.truncated)
                .with("dropped_at_capture", r.dropped_at_capture)
                .with("chain", r.chain.iter().collect::<Json>())
        })
        .collect();
    Json::obj()
        .with("tool", "krb-top")
        .with("component", &stat.component)
        .with("poll", snap.poll)
        .with("health", health)
        .with("kdc", kdc)
        .with(
            "latency_us",
            Json::obj()
                .with("as", latency_json(stat, "kdc_as_latency_us"))
                .with("tgs", latency_json(stat, "kdc_tgs_latency_us")),
        )
        .with("top", top)
        .with(
            "journal",
            Json::obj()
                .with("events", snap.tail.events)
                .with("dropped", snap.tail.dropped)
                .with("tail", snap.tail.lines.iter().collect::<Json>()),
        )
        .with(
            "flight",
            Json::obj()
                .with("captures", snap.flights.captures)
                .with("evicted", snap.flights.evicted)
                .with("records", records),
        )
}

/// Render one snapshot as the human dashboard (one poll's screen).
pub fn render_dashboard(snap: &TopSnapshot) -> String {
    let stat = &snap.stat;
    let mut out = String::new();
    let _ = writeln!(out, "krb-top — {} (poll {})", stat.component, snap.poll);
    for c in &snap.health.components {
        let _ = writeln!(
            out,
            "  health {:<4} {:<8} err={}‰ replay={}‰ total={} journal_dropped={}",
            c.component, c.state.to_uppercase(), c.err_permille, c.replay_permille, c.total,
            c.journal_dropped,
        );
    }
    let _ = writeln!(
        out,
        "  kdc    as_ok={} tgs_ok={} errors={} replay_hits={} store_swaps={}",
        counter(stat, "kdc_as_ok_total"),
        counter(stat, "kdc_tgs_ok_total"),
        counter(stat, "kdc_error_total"),
        counter(stat, "kdc_replay_hits_total"),
        stat.store_swaps(),
    );
    for name in ["kdc_as_latency_us", "kdc_tgs_latency_us"] {
        if let Some(h) = stat.hists.iter().find(|h| h.name == name) {
            let exemplar = h
                .exemplars
                .last()
                .map(|(_, t)| format!(" exemplar-trace={t:016x}"))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<7}count={} p50={} p95={} p99={} max={}{}",
                name.trim_start_matches("kdc_").trim_end_matches("_latency_us"),
                h.count, h.p50, h.p95, h.p99, h.max, exemplar,
            );
        }
    }
    for (label, entries) in &snap.top.tables {
        let rows: Vec<String> =
            entries.iter().map(|e| format!("{}={}", e.key, e.count)).collect();
        let _ = writeln!(out, "  top {label}: {}", rows.join(" "));
    }
    let _ = writeln!(
        out,
        "  journal events={} dropped={} (tail {} lines)",
        snap.tail.events,
        snap.tail.dropped,
        snap.tail.lines.len()
    );
    for line in &snap.tail.lines {
        let _ = writeln!(out, "    {line}");
    }
    let _ = writeln!(
        out,
        "  flight captures={} evicted={}",
        snap.flights.captures, snap.flights.evicted
    );
    for r in &snap.flights.records {
        let _ = writeln!(
            out,
            "    trace={:016x} fail={} chain={} events{}",
            r.trace,
            r.fail_kind,
            r.chain.len(),
            if r.truncated { " TRUNCATED" } else { "" },
        );
    }
    out
}

/// Keys a well-formed `krb-top --json` snapshot must contain; the schema
/// test pins them.
pub const TOP_JSON_KEYS: &[&str] = &[
    "\"tool\"",
    "\"component\"",
    "\"health\"",
    "\"state\"",
    "\"err_permille\"",
    "\"replay_permille\"",
    "\"journal_dropped\"",
    "\"kdc\"",
    "\"as_ok\"",
    "\"tgs_ok\"",
    "\"errors\"",
    "\"replay_hits\"",
    "\"store_swaps\"",
    "\"stripe_hits\"",
    "\"latency_us\"",
    "\"exemplars\"",
    "\"top\"",
    "\"as_clients\"",
    "\"tgs_services\"",
    "\"error_principals\"",
    "\"journal\"",
    "\"events\"",
    "\"dropped\"",
    "\"flight\"",
    "\"captures\"",
    "\"trace\"",
    "\"fail_kind\"",
    "\"truncated\"",
    "\"chain\"",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krbtrace::{group_traces, parse_dump};
    use kerberos::{build_as_req, Message};
    use krb_kdc::{fixed_clock, Kdc, KdcRole};

    fn once() -> TopRun {
        run(&TopConfig { polls: 1, ..TopConfig::default() }).expect("rig")
    }

    #[test]
    fn same_seed_json_snapshots_are_byte_identical() {
        let a = once();
        let b = once();
        assert_eq!(
            to_json(a.snapshots.last().unwrap()),
            to_json(b.snapshots.last().unwrap())
        );
        assert_eq!(a.journal_dump, b.journal_dump);
        let c = run(&TopConfig { seed: 7, polls: 1, ..TopConfig::default() }).expect("rig");
        assert_ne!(
            to_json(a.snapshots.last().unwrap()),
            to_json(c.snapshots.last().unwrap()),
            "seed must reach the snapshot"
        );
    }

    #[test]
    fn json_snapshot_contains_every_schema_key() {
        let run = once();
        let json = to_json(run.snapshots.last().unwrap()).render();
        for key in TOP_JSON_KEYS {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn a_control_character_in_a_client_name_reaches_the_json_escaped() {
        // The AS request names its client in the clear (§4.2), so whatever
        // a client sends there lands in the KDC's error table and, through
        // the `TopPrincipals` frame, in the operator's JSON.
        let boot = kdb_init(REALM, "mon-master-pw", START, 1).expect("realm");
        let kdc = Kdc::new(boot.db, RealmConfig::new(REALM), fixed_clock(START), KdcRole::Master, 1);
        let top = kdc.enable_top_stats(SKETCH_K);
        let evil = Principal::new("ev\u{1}il", "", REALM).expect("a legal name");
        let req = build_as_req(&evil, &Principal::tgs(REALM, REALM), 96, START);
        let reply = kdc.handle(&req, WS_ADDR);
        assert!(matches!(Message::decode(&reply), Ok(Message::Err(_))), "{reply:?}");
        let entries = top.error_principals.top(SKETCH_K);
        assert_eq!(entries[0].key, "ev\u{1}il");

        let mut snap = once().snapshots.pop().expect("one poll");
        snap.top.tables = vec![("error_principals".to_string(), entries)];
        let json = to_json(&snap).render();
        assert!(json.contains(r#"{"key":"ev\u0001il","count":1,"err":0}"#), "{json}");
        assert!(!json.contains('\u{1}'), "raw U+0001 in:\n{json}");
    }

    #[test]
    fn health_reflects_the_forced_failures() {
        let run = once();
        let snap = run.snapshots.last().unwrap();
        let kdc = &snap.health.components[0];
        assert_eq!(kdc.component, "kdc");
        // One unknown-principal rejection among ~seven successful
        // exchanges: above the 50‰ degraded line, below failing.
        assert_eq!(kdc.state, "degraded", "{kdc:?}");
        assert!(kdc.err_permille > 50, "{kdc:?}");
        assert_eq!(kdc.journal_dropped, 0);
    }

    #[test]
    fn top_tables_rank_the_heavy_hitters() {
        let run = once();
        let snap = run.snapshots.last().unwrap();
        let table = |label: &str| -> Vec<(String, u64)> {
            snap.top
                .tables
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, entries)| {
                    entries.iter().map(|e| (e.key.clone(), e.count)).collect()
                })
                .expect(label)
        };
        // Per round: bcn logs in twice, mjl twice (one wrong-password — the
        // KDC still answers the AS), eva once.
        let clients = table("as_clients");
        assert_eq!(clients[0], ("bcn".to_string(), 2));
        assert!(clients.contains(&("mjl".to_string(), 2)), "{clients:?}");
        assert!(clients.contains(&("eva".to_string(), 1)), "{clients:?}");
        assert_eq!(table("tgs_services")[0].0, "sample.host");
        assert_eq!(table("error_principals"), vec![("nosuch".to_string(), 1)]);
    }

    #[test]
    fn exemplar_traces_resolve_to_journal_timelines() {
        let run = once();
        let snap = run.snapshots.last().unwrap();
        let timelines = group_traces(parse_dump(&run.journal_dump));
        let exemplars: Vec<String> = snap
            .stat
            .hists
            .iter()
            .flat_map(|h| h.exemplars.iter().map(|(_, t)| format!("{t:016x}")))
            .collect();
        assert!(!exemplars.is_empty(), "traced load must leave exemplars");
        for trace in &exemplars {
            let tl = timelines
                .iter()
                .find(|tl| &tl.trace == trace)
                .unwrap_or_else(|| panic!("exemplar {trace} has no timeline"));
            assert!(
                tl.events.iter().any(|e| e.comp == "kdc"),
                "exemplar {trace} timeline is missing its KDC hop: {:?}",
                tl.events
            );
        }
        // The clean-login exemplar resolves to the complete Figure-9 chain.
        let full = [
            "login_start", "as_req", "as_ok", "login_ok", "tgs_req", "tgs_ok", "ap_sent",
            "ap_verified",
        ];
        assert!(
            exemplars.iter().any(|trace| {
                timelines.iter().any(|tl| {
                    &tl.trace == trace
                        && tl.events.iter().map(|e| e.kind.as_str()).eq(full.iter().copied())
                })
            }),
            "no exemplar resolves to a complete clean login"
        );
    }

    #[test]
    fn flight_records_capture_complete_failure_chains() {
        let run = once();
        let snap = run.snapshots.last().unwrap();
        let kinds: Vec<&str> =
            snap.flights.records.iter().map(|r| r.fail_kind.as_str()).collect();
        assert!(kinds.contains(&"replay_hit"), "{kinds:?}");
        assert!(kinds.contains(&"login_err"), "{kinds:?}");
        // The unknown-principal failure dedups to the later ws-side
        // login_err, but its captured chain still holds the KDC verdict.
        assert!(
            snap.flights
                .records
                .iter()
                .any(|r| r.chain.iter().any(|l| l.contains("kind=kdc_err"))),
            "no captured chain holds the kdc_err hop: {:?}",
            snap.flights.records
        );
        for r in &snap.flights.records {
            assert!(!r.truncated, "nothing dropped, nothing truncated: {r:?}");
            assert_eq!(r.dropped_at_capture, 0);
            assert!(!r.chain.is_empty());
        }
        assert_eq!(snap.tail.dropped, 0);
    }

    #[test]
    fn dashboard_mode_polls_and_renders_every_section() {
        let run = run(&TopConfig { polls: 2, ..TopConfig::default() }).expect("rig");
        assert_eq!(run.snapshots.len(), 2);
        // Counters are cumulative across polls.
        let as_ok = |s: &TopSnapshot| counter(&s.stat, "kdc_as_ok_total");
        assert_eq!(as_ok(&run.snapshots[1]), 2 * as_ok(&run.snapshots[0]));
        let text = render_dashboard(&run.snapshots[1]);
        for needle in
            ["krb-top — kdc-master", "health kdc", "top as_clients", "flight captures=", "exemplar-trace="]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
