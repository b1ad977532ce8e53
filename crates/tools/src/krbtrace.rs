//! `krb-trace`: reconstruct per-request timelines from a journal dump.
//!
//! The journal (`krb_telemetry::journal`) records what each hop of a
//! multi-hop exchange did; this module turns its line-oriented dump back
//! into per-trace timelines — the paper's Figure 9 flow (AS → TGS → AP)
//! becomes one readable tree per login. The parser is the inverse of
//! `Event::render_line`; `#`-comment lines are skipped and the `shard=NN`
//! prefix of a merged `krb-stat` dump rides along as one more field, so a
//! multi-worker dump ingests as-is.
//!
//! [`smoke`] is the self-contained CI pass: it stands up a seeded realm,
//! drives one clean login plus three forced failures, and asserts that the
//! reconstruction is complete, ordered, byte-identical across same-seed
//! runs, and that each failure's error event lands at the correct hop.

use crate::{kdb_init, register_service, register_user, ToolError, Workstation};
use kerberos::{krb_rd_req_sched_ctx, ErrorCode, Principal, ReplayCache};
use krb_crypto::{KeyGenerator, Scheduled};
use krb_kdc::{shared_clock, Deployment, RealmConfig};
use krb_netsim::{NetConfig, Router, SimNet};
use krb_telemetry::{lcg_clock_us, ClockUs, EventKind, Journal, Registry, TraceCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// One parsed journal event (string-typed: the dump is the contract).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Journal sequence number (per worker).
    pub seq: u64,
    /// Injected-clock timestamp, microseconds.
    pub us: u64,
    /// Trace correlation id (16 hex digits), if the event carried one.
    pub trace: Option<String>,
    /// Component that recorded the event (`ws`/`kdc`/`app`/`kprop`/`net`).
    pub comp: String,
    /// Event kind (snake_case, see `krb_telemetry::EventKind`).
    pub kind: String,
    /// Remaining `key=value` fields, in recorded order.
    pub fields: Vec<(String, String)>,
}

impl TraceEvent {
    /// Is this an error-kind event?
    pub fn is_error(&self) -> bool {
        EventKind::parse(&self.kind).is_some_and(|k| k.is_error())
    }
}

/// All events sharing one trace id, in dump order.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// The trace id (`-` groups untraced events).
    pub trace: String,
    /// The trace's events in dump order.
    pub events: Vec<TraceEvent>,
}

/// Parse a journal dump. Malformed lines and `#` comments are skipped —
/// a timeline tool should salvage what it can from a partial dump.
pub fn parse_dump(text: &str) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut seq = None;
        let mut us = None;
        let mut trace = None;
        let mut comp = None;
        let mut kind = None;
        let mut fields = Vec::new();
        for tok in line.split_whitespace() {
            let Some((k, v)) = tok.split_once('=') else { continue };
            match k {
                "seq" => seq = v.parse().ok(),
                "us" => us = v.parse().ok(),
                "trace" => trace = Some(v.to_string()),
                "comp" => comp = Some(v.to_string()),
                "kind" => kind = Some(v.to_string()),
                _ => fields.push((k.to_string(), v.to_string())),
            }
        }
        if let (Some(seq), Some(us), Some(comp), Some(kind)) = (seq, us, comp, kind) {
            out.push(TraceEvent {
                seq,
                us,
                trace: trace.filter(|t| t != "-"),
                comp,
                kind,
                fields,
            });
        }
    }
    out
}

/// Group events into per-trace timelines, in first-seen order; untraced
/// events (if any) are collected under the `-` timeline at the end.
pub fn group_traces(events: Vec<TraceEvent>) -> Vec<Timeline> {
    let mut order: Vec<String> = Vec::new();
    let mut by_trace: std::collections::HashMap<String, Vec<TraceEvent>> =
        std::collections::HashMap::new();
    let mut untraced: Vec<TraceEvent> = Vec::new();
    for e in events {
        match &e.trace {
            Some(t) => {
                let t = t.clone();
                if !by_trace.contains_key(&t) {
                    order.push(t.clone());
                }
                by_trace.entry(t).or_default().push(e);
            }
            None => untraced.push(e),
        }
    }
    let mut out: Vec<Timeline> = order
        .into_iter()
        .map(|t| {
            let events = by_trace.remove(&t).unwrap_or_default();
            Timeline { trace: t, events }
        })
        .collect();
    if !untraced.is_empty() {
        out.push(Timeline { trace: "-".to_string(), events: untraced });
    }
    out
}

/// Display filters.
#[derive(Clone, Debug, Default)]
pub struct TraceFilter {
    /// Show only timelines containing at least one error event.
    pub errors_only: bool,
    /// Show only events from this component (`ws`/`kdc`/`app`/`kprop`/`net`).
    pub component: Option<String>,
}

impl TraceFilter {
    fn apply(&self, timelines: Vec<Timeline>) -> Vec<Timeline> {
        timelines
            .into_iter()
            .filter_map(|mut tl| {
                if let Some(comp) = &self.component {
                    tl.events.retain(|e| &e.comp == comp);
                }
                if tl.events.is_empty() {
                    return None;
                }
                if self.errors_only && !tl.events.iter().any(TraceEvent::is_error) {
                    return None;
                }
                Some(tl)
            })
            .collect()
    }
}

/// Render timelines as a text tree, timestamps relative to each trace's
/// first event.
pub fn render_timelines(events: Vec<TraceEvent>, filter: &TraceFilter) -> String {
    let timelines = filter.apply(group_traces(events));
    let mut out = String::new();
    for tl in &timelines {
        let errors = tl.events.iter().filter(|e| e.is_error()).count();
        let _ = writeln!(
            out,
            "trace {} · {} event{} · {} error{}",
            tl.trace,
            tl.events.len(),
            if tl.events.len() == 1 { "" } else { "s" },
            errors,
            if errors == 1 { "" } else { "s" },
        );
        let t0 = tl.events.first().map_or(0, |e| e.us);
        for (i, e) in tl.events.iter().enumerate() {
            let branch = if i + 1 == tl.events.len() { "└─" } else { "├─" };
            let mut fields = String::new();
            for (k, v) in &e.fields {
                let _ = write!(fields, " {k}={v}");
            }
            let _ = writeln!(
                out,
                "  {branch} [+{}us] {:<5} {}{}",
                e.us.saturating_sub(t0),
                e.comp,
                e.kind,
                fields
            );
        }
    }
    if timelines.is_empty() {
        out.push_str("no traces\n");
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render timelines as JSON (hand-rolled, like the rest of the workspace:
/// no serialization dependency).
pub fn render_json(events: Vec<TraceEvent>, filter: &TraceFilter) -> String {
    let timelines = filter.apply(group_traces(events));
    let mut out = String::from("{\n  \"traces\": [\n");
    for (ti, tl) in timelines.iter().enumerate() {
        let _ = write!(out, "    {{\"trace\": \"{}\", \"events\": [\n", json_escape(&tl.trace));
        for (ei, e) in tl.events.iter().enumerate() {
            let mut fields = String::new();
            for (fi, (k, v)) in e.fields.iter().enumerate() {
                if fi > 0 {
                    fields.push_str(", ");
                }
                let _ = write!(fields, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
            }
            let _ = write!(
                out,
                "      {{\"seq\": {}, \"us\": {}, \"comp\": \"{}\", \"kind\": \"{}\", \"fields\": {{{}}}}}{}\n",
                e.seq,
                e.us,
                json_escape(&e.comp),
                json_escape(&e.kind),
                fields,
                if ei + 1 == tl.events.len() { "" } else { "," },
            );
        }
        let _ = write!(out, "    ]}}{}\n", if ti + 1 == timelines.len() { "" } else { "," });
    }
    out.push_str("  ]\n}\n");
    out
}

const SMOKE_REALM: &str = "TRACE.MIT.EDU";
const SMOKE_START: u32 = 600_000_000;
const SMOKE_KDC: [u8; 4] = [18, 72, 0, 10];
const SMOKE_WS: [u8; 4] = [18, 72, 0, 5];

/// One seeded smoke run: a clean full login, a replayed authenticator, a
/// wrong password, and an unknown principal — four traces in one journal.
/// Returns the journal's rendered dump.
fn smoke_run(seed: u64) -> Result<String, ToolError> {
    let bad = |_| ToolError::Krb(ErrorCode::IntkErr);
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let mut boot = kdb_init(SMOKE_REALM, "trace-master-pw", SMOKE_START, seed).map_err(bad)?;
    register_user(&mut boot.db, "bcn", "", "bcn-pw", SMOKE_START).map_err(bad)?;
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(seed ^ 0x5EED));
    let svc_key =
        register_service(&mut boot.db, "sample", "host", SMOKE_START, &mut keygen).map_err(bad)?;
    let dep = Deployment::install(
        &mut router,
        SMOKE_REALM,
        boot.db,
        RealmConfig::new(SMOKE_REALM),
        SMOKE_KDC,
        0,
        SMOKE_START,
    )
    .map_err(|_| ToolError::Krb(ErrorCode::IntkErr))?;

    let journal = Journal::shared();
    let clock_us = lcg_clock_us(seed, 40, 400);
    dep.master.set_telemetry(Registry::shared(), ClockUs::clone(&clock_us));
    dep.master.set_journal(Arc::clone(&journal));

    let service = Principal::parse("sample.host", SMOKE_REALM)?;
    let sched = Scheduled::new(&svc_key);
    let mut replay = ReplayCache::new();
    let mut ws = Workstation::new(
        SMOKE_WS,
        SMOKE_REALM,
        dep.kdc_endpoints(),
        shared_clock(Arc::clone(&dep.clock_cell)),
    );
    ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock_us), seed);

    let app_ctx = |ws: &Workstation| -> Result<TraceCtx, ToolError> {
        let trace = ws.current_trace().ok_or(ToolError::Krb(ErrorCode::IntkErr))?;
        Ok(TraceCtx::new(Arc::clone(&journal), ClockUs::clone(&clock_us), trace))
    };

    // Trace 1: the clean Figure 9 flow — AS, TGS, AP with mutual auth.
    dep.advance_time(1);
    ws.kinit(&mut router, "bcn", "bcn-pw")?;
    let (ap, _) = ws.mk_request(&mut router, &service, 0, true)?;
    let ctx = app_ctx(&ws)?;
    krb_rd_req_sched_ctx(&ap, &service, &sched, ws.addr, ws.now(), &mut replay, Some(&ctx))?;

    // Trace 2: a second login whose authenticator is then replayed — the
    // replay-cache verdict must land at the app hop.
    dep.advance_time(1);
    ws.kinit(&mut router, "bcn", "bcn-pw")?;
    let (ap, _) = ws.mk_request(&mut router, &service, 0, true)?;
    let ctx = app_ctx(&ws)?;
    krb_rd_req_sched_ctx(&ap, &service, &sched, ws.addr, ws.now(), &mut replay, Some(&ctx))?;
    match krb_rd_req_sched_ctx(&ap, &service, &sched, ws.addr, ws.now(), &mut replay, Some(&ctx)) {
        Err(ErrorCode::RdApRepeat) => {}
        _ => return Err(ToolError::Krb(ErrorCode::RdApRepeat)),
    }

    // Trace 3: wrong password. The KDC answers normally (it never sees the
    // password, §4.2); the failure is the workstation's to report.
    dep.advance_time(1);
    if ws.kinit(&mut router, "bcn", "wrong-pw").is_ok() {
        return Err(ToolError::Krb(ErrorCode::IntkBadPw));
    }

    // Trace 4: unknown principal — this one the KDC rejects itself.
    dep.advance_time(1);
    if ws.kinit(&mut router, "nosuch", "pw").is_ok() {
        return Err(ToolError::Krb(ErrorCode::KdcPrUnknown));
    }

    Ok(journal.render())
}

/// The expected event chain of a clean traced login.
const FULL_LOGIN_KINDS: [&str; 8] = [
    "login_start",
    "as_req",
    "as_ok",
    "login_ok",
    "tgs_req",
    "tgs_ok",
    "ap_sent",
    "ap_verified",
];

/// The CI smoke pass. Runs the seeded rig twice, asserts the dumps are
/// byte-identical, reconstructs the timelines, and checks that the clean
/// login is one complete ordered trace and that each forced failure's
/// error event sits at the correct hop. Returns a human-readable report
/// (including the clean login's rendered timeline) or a description of
/// the first failed check.
pub fn smoke() -> Result<String, String> {
    let seed = 42;
    let dump = smoke_run(seed).map_err(|e| format!("smoke rig failed: {e}"))?;
    let dump2 = smoke_run(seed).map_err(|e| format!("smoke rig rerun failed: {e}"))?;
    if dump != dump2 {
        return Err("same-seed journal dumps are not byte-identical".to_string());
    }

    let events = parse_dump(&dump);
    let timelines = group_traces(events.clone());
    if timelines.len() != 4 {
        return Err(format!("expected 4 traces, got {}", timelines.len()));
    }

    // The clean login: one trace, ≥ 8 events, in protocol order.
    let login = &timelines[0];
    let kinds: Vec<&str> = login.events.iter().map(|e| e.kind.as_str()).collect();
    if kinds != FULL_LOGIN_KINDS {
        return Err(format!("clean login chain out of order: {kinds:?}"));
    }
    if !login.events.windows(2).all(|w| w[0].seq < w[1].seq) {
        return Err("clean login events not seq-ordered".to_string());
    }
    let comp_of = |i: usize| login.events[i].comp.as_str();
    if comp_of(2) != "kdc" || comp_of(5) != "kdc" || comp_of(7) != "app" || comp_of(0) != "ws" {
        return Err("clean login events at wrong hops".to_string());
    }

    // Replayed authenticator: replay_hit at the app hop, on trace 2.
    let replayed = &timelines[1];
    if !replayed.events.iter().any(|e| e.comp == "app" && e.kind == "replay_hit") {
        return Err("replayed authenticator did not journal replay_hit at the app hop".to_string());
    }

    // Wrong password: the KDC answered fine; the workstation reports it.
    let badpw = &timelines[2];
    let has = |tl: &Timeline, comp: &str, kind: &str, field: (&str, &str)| {
        tl.events.iter().any(|e| {
            e.comp == comp
                && e.kind == kind
                && e.fields.iter().any(|(k, v)| (k.as_str(), v.as_str()) == field)
        })
    };
    if !has(badpw, "ws", "login_err", ("err_kind", "bad_password")) {
        return Err("wrong password did not journal login_err err_kind=bad_password at ws".to_string());
    }
    if badpw.events.iter().any(|e| e.comp == "kdc" && e.is_error()) {
        return Err("wrong password wrongly journaled a KDC error (the KDC never sees passwords)".to_string());
    }

    // Unknown principal: the KDC itself rejects, at its hop.
    let unknown = &timelines[3];
    if !has(unknown, "kdc", "kdc_err", ("err_kind", "unknown_principal")) {
        return Err("unknown principal did not journal kdc_err err_kind=unknown_principal".to_string());
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "krb-trace smoke: {} traces / {} events, byte-identical across two seed-{seed} runs",
        timelines.len(),
        events.len(),
    );
    report.push_str(&render_timelines(
        events.into_iter().filter(|e| e.trace.as_deref() == Some(login.trace.as_str())).collect(),
        &TraceFilter::default(),
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_and_reports_the_full_chain() {
        let report = smoke().expect("smoke");
        for kind in FULL_LOGIN_KINDS {
            assert!(report.contains(kind), "missing {kind} in:\n{report}");
        }
    }

    #[test]
    fn parse_inverts_render() {
        let dump = smoke_run(7).expect("rig");
        let events = parse_dump(&dump);
        assert!(!events.is_empty());
        // Every non-comment line round-trips into an event.
        let lines = dump.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')).count();
        assert_eq!(events.len(), lines);
    }

    #[test]
    fn filters_select_errors_and_components() {
        let dump = smoke_run(7).expect("rig");
        let events = parse_dump(&dump);

        let errors = TraceFilter { errors_only: true, component: None };
        let text = render_timelines(events.clone(), &errors);
        assert!(text.contains("replay_hit"), "{text}");
        assert!(text.contains("login_err"), "{text}");
        // The clean login's trace has no errors and must be filtered out.
        let clean = &group_traces(events.clone())[0];
        assert!(clean.events.iter().all(|e| !e.is_error()));
        assert!(!text.contains(&clean.trace), "{text}");

        let kdc_only = TraceFilter { errors_only: false, component: Some("kdc".to_string()) };
        let text = render_timelines(events.clone(), &kdc_only);
        assert!(text.contains("as_ok"), "{text}");
        assert!(!text.contains("login_start"), "{text}");

        let json = render_json(events, &TraceFilter::default());
        assert!(json.contains("\"traces\""), "{json}");
        assert!(json.contains("\"kind\": \"ap_verified\""), "{json}");
    }

    #[test]
    fn different_seeds_change_the_dump() {
        assert_ne!(smoke_run(1).expect("rig"), smoke_run(2).expect("rig"));
    }
}
