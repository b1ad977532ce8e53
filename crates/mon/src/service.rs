//! `MonService`: the query endpoint that serves the introspection frames.
//!
//! A [`MonState`] bundles read handles onto a component's telemetry — the
//! shared [`Registry`], the shared [`Journal`], optionally a
//! [`FlightRecorder`] and heavy-hitter sketches — plus the health
//! configuration. [`MonService`] wraps it as a [`Service`] so the
//! simulator can bind it next to the KDC (or any other server) on
//! [`krb_netsim::ports::MON`]; `krbd` later serves the same frames on a
//! real socket by calling [`MonState::handle_frame`] from its UDP loop.
//!
//! The service holds **read handles only**: answering a query never
//! mutates protocol state, so a monitoring client cannot perturb a run
//! (beyond the simulated network traffic it generates).

use crate::frames::{
    ComponentHealth, ErrTrace, ErrorTraces, HealthReport, HistStat, JournalTail, MonRequest,
    StatSnapshot, TopPrincipals,
};
use krb_netsim::{Packet, Service};
use krb_telemetry::{
    FlightRecorder, HealthInputs, HealthThresholds, Journal, Registry, SpaceSaving,
};
use std::sync::Arc;

/// How to compute one component's health verdict from registry counters.
/// Counter lists are summed, so a component can pool e.g. all three app
/// protocols into one verdict.
#[derive(Clone, Debug)]
pub struct HealthSpec {
    /// Component label in the report ("kdc", "app", ...).
    pub component: String,
    /// Counters whose sum is the success count.
    pub ok_counters: Vec<String>,
    /// Counters whose sum is the error count.
    pub err_counters: Vec<String>,
    /// Counters whose sum is the replay-hit count.
    pub replay_counters: Vec<String>,
    /// Counters of internal faults: a non-zero sum makes the component at
    /// least degraded, however clean its request rates look.
    pub fault_counters: Vec<String>,
    /// Rate thresholds for the verdict ladder.
    pub thresholds: HealthThresholds,
}

impl HealthSpec {
    /// A spec with default thresholds and no counters; push names onto
    /// the lists.
    pub fn new(component: &str) -> Self {
        HealthSpec {
            component: component.to_string(),
            ok_counters: Vec::new(),
            err_counters: Vec::new(),
            replay_counters: Vec::new(),
            fault_counters: Vec::new(),
            thresholds: HealthThresholds::default(),
        }
    }

    /// The standard KDC spec: AS+TGS successes vs `kdc_error_total`,
    /// replay hits as the replay signal, and a store snapshot that failed
    /// to read (the KDC keeps serving the last good one) as a fault.
    pub fn kdc() -> Self {
        HealthSpec {
            component: "kdc".to_string(),
            ok_counters: vec!["kdc_as_ok_total".into(), "kdc_tgs_ok_total".into()],
            err_counters: vec!["kdc_error_total".into()],
            replay_counters: vec!["kdc_replay_hits_total".into()],
            fault_counters: vec!["kdc_snapshot_failures_total".into()],
            thresholds: HealthThresholds::default(),
        }
    }

    /// The standard application-server spec for one counter `prefix`
    /// ("rlogin", "pop", "zephyr", ...): `<prefix>_ok_total` vs
    /// `<prefix>_err_total`, with `<prefix>_replay_hits_total` as the
    /// replay signal — the same counter families the metrics≡journal
    /// oracle reconciles. One `MonState` can carry any number of these
    /// next to [`HealthSpec::kdc`], so a kprop/kadm/app host serves the
    /// identical frames the KDC does.
    pub fn app(prefix: &str) -> Self {
        HealthSpec {
            component: prefix.to_string(),
            ok_counters: vec![format!("{prefix}_ok_total")],
            err_counters: vec![format!("{prefix}_err_total")],
            replay_counters: vec![format!("{prefix}_replay_hits_total")],
            fault_counters: Vec::new(),
            thresholds: HealthThresholds::default(),
        }
    }
}

/// The read-side state a `MonService` answers from.
pub struct MonState {
    component: String,
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    recorder: Option<Arc<FlightRecorder>>,
    sketches: Vec<(String, SpaceSaving)>,
    health: Vec<HealthSpec>,
}

impl MonState {
    /// Bundle the read handles for `component`.
    pub fn new(component: &str, registry: Arc<Registry>, journal: Arc<Journal>) -> Self {
        MonState {
            component: component.to_string(),
            registry,
            journal,
            recorder: None,
            sketches: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Attach the component's flight recorder (serves `ErrTraces`).
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a labeled heavy-hitter table (serves `Top`). Order of
    /// attachment is the order tables appear in replies.
    pub fn with_sketch(mut self, label: &str, sketch: SpaceSaving) -> Self {
        self.sketches.push((label.to_string(), sketch));
        self
    }

    /// Attach a health spec (serves `Health`). Order of attachment is the
    /// order verdicts appear in replies.
    pub fn with_health(mut self, spec: HealthSpec) -> Self {
        self.health.push(spec);
        self
    }

    /// Build the `Stat` reply.
    pub fn stat(&self) -> StatSnapshot {
        let hists = self
            .registry
            .histograms()
            .into_iter()
            .map(|(name, h)| {
                let s = h.summary();
                let exemplars = h
                    .exemplars()
                    .into_iter()
                    .filter_map(|(bound, trace)| trace.map(|t| (bound, t.0)))
                    .collect();
                HistStat {
                    name,
                    count: s.count,
                    sum: s.sum,
                    max: s.max,
                    p50: s.p50,
                    p95: s.p95,
                    p99: s.p99,
                    exemplars,
                }
            })
            .collect();
        StatSnapshot {
            component: self.component.clone(),
            counters: self.registry.counters(),
            gauges: self.registry.gauges(),
            hists,
            journal_events: self.journal.events_recorded(),
            journal_dropped: self.journal.events_dropped(),
        }
    }

    /// Build the `Health` reply.
    pub fn health(&self) -> HealthReport {
        let dropped = self.journal.events_dropped();
        let sum = |names: &[String]| names.iter().map(|n| self.registry.counter_value(n)).sum();
        let components = self
            .health
            .iter()
            .map(|spec| {
                let inputs = HealthInputs {
                    ok: sum(&spec.ok_counters),
                    err: sum(&spec.err_counters),
                    replay_hits: sum(&spec.replay_counters),
                    journal_dropped: dropped,
                    faults: sum(&spec.fault_counters),
                };
                let v = spec.thresholds.evaluate(&inputs);
                ComponentHealth {
                    component: spec.component.clone(),
                    state: v.state.as_str().to_string(),
                    err_permille: v.err_permille,
                    replay_permille: v.replay_permille,
                    total: v.total,
                    journal_dropped: dropped,
                }
            })
            .collect();
        HealthReport { components }
    }

    /// Build the `Tail` reply: the last `n` retained journal lines.
    pub fn tail(&self, n: u32) -> JournalTail {
        let dump = self.journal.dump();
        let skip = dump.len().saturating_sub(n as usize);
        let lines = dump[skip..]
            .iter()
            .map(|e| {
                let mut line = String::new();
                e.render_line(&mut line);
                line.truncate(line.trim_end().len());
                line
            })
            .collect();
        JournalTail {
            lines,
            events: self.journal.events_recorded(),
            dropped: self.journal.events_dropped(),
        }
    }

    /// Build the `Top` reply, each table truncated to `n` entries.
    pub fn top(&self, n: u32) -> TopPrincipals {
        TopPrincipals {
            tables: self
                .sketches
                .iter()
                .map(|(label, sketch)| (label.clone(), sketch.top(n as usize)))
                .collect(),
        }
    }

    /// Build the `ErrTraces` reply: the `n` most recent failures, newest
    /// first. Without a recorder the reply is empty (not an error — the
    /// component simply does not record flights).
    pub fn err_traces(&self, n: u32) -> ErrorTraces {
        let Some(recorder) = &self.recorder else {
            return ErrorTraces::default();
        };
        let records = recorder
            .recent(n as usize)
            .into_iter()
            .map(|rec| {
                let chain = rec
                    .chain
                    .iter()
                    .map(|e| {
                        let mut line = String::new();
                        e.render_line(&mut line);
                        line.truncate(line.trim_end().len());
                        line
                    })
                    .collect();
                ErrTrace {
                    trace: rec.trace.0,
                    fail_kind: rec.fail_kind.as_str().to_string(),
                    at_us: rec.at_us,
                    truncated: rec.truncated,
                    dropped_at_capture: rec.dropped_at_capture,
                    chain,
                }
            })
            .collect();
        ErrorTraces {
            records,
            captures: recorder.captures_total(),
            evicted: recorder.evicted_total(),
        }
    }

    /// Answer one encoded request with an encoded reply — the seam a real
    /// `krbd` UDP loop calls. Undecodable requests get no reply (the
    /// client times out), matching how the KDC treats garbage datagrams.
    pub fn handle_frame(&self, request: &[u8]) -> Option<Vec<u8>> {
        Some(match MonRequest::decode(request)? {
            MonRequest::Stat => self.stat().encode(),
            MonRequest::Health => self.health().encode(),
            MonRequest::Tail(n) => self.tail(n).encode(),
            MonRequest::Top(n) => self.top(n).encode(),
            MonRequest::ErrTraces(n) => self.err_traces(n).encode(),
        })
    }
}

impl std::fmt::Debug for MonState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonState")
            .field("component", &self.component)
            .field("sketches", &self.sketches.len())
            .field("health_specs", &self.health.len())
            .finish()
    }
}

/// [`MonState`] bound to the netsim [`Service`] seam.
#[derive(Debug)]
pub struct MonService(pub Arc<MonState>);

impl Service for MonService {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        self.0.handle_frame(&req.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_telemetry::{Component, EventKind, TraceId};

    fn state() -> (MonState, Arc<Registry>, Arc<Journal>) {
        let registry = Registry::shared();
        let journal = Journal::shared();
        let state =
            MonState::new("kdc-master", Arc::clone(&registry), Arc::clone(&journal));
        (state, registry, journal)
    }

    #[test]
    fn stat_reflects_registry_and_journal() {
        let (state, registry, journal) = state();
        registry.counter("kdc_as_ok_total").add(5);
        registry.counter("kdc_store_swaps_total").add(2);
        let h = registry.histogram("kdc_as_latency_us");
        h.record_with_trace(40, Some(TraceId(0xBEEF)));
        journal.record(1, None, Component::Kdc, EventKind::AsOk, vec![]);

        let snap = state.stat();
        assert_eq!(snap.component, "kdc-master");
        assert!(snap.counters.contains(&("kdc_as_ok_total".to_string(), 5)));
        assert_eq!(snap.store_swaps(), 2);
        assert_eq!(snap.journal_events, 1);
        let hist = &snap.hists[0];
        assert_eq!(hist.count, 1);
        assert!(hist.exemplars.iter().any(|(_, t)| *t == 0xBEEF));
    }

    #[test]
    fn health_sums_counter_lists_per_spec() {
        let (state, registry, _journal) = state();
        let state = state.with_health(HealthSpec::kdc());
        registry.counter("kdc_as_ok_total").add(90);
        registry.counter("kdc_tgs_ok_total").add(4);
        registry.counter("kdc_error_total").add(6); // 6/100 = 60‰ → degraded
        let report = state.health();
        assert_eq!(report.components.len(), 1);
        let c = &report.components[0];
        assert_eq!((c.component.as_str(), c.state.as_str()), ("kdc", "degraded"));
        assert_eq!((c.err_permille, c.total), (60, 100));
    }

    #[test]
    fn one_state_serves_kdc_and_app_verdicts_side_by_side() {
        // An application host attaches its own spec next to the KDC's;
        // the report carries both verdicts in attachment order.
        let (state, registry, _journal) = state();
        let state = state.with_health(HealthSpec::kdc()).with_health(HealthSpec::app("rlogin"));
        registry.counter("kdc_as_ok_total").add(100);
        registry.counter("rlogin_ok_total").add(7);
        registry.counter("rlogin_replay_hits_total").add(3); // 3/7 = 428‰ → failing
        let report = state.health();
        assert_eq!(report.components.len(), 2);
        assert_eq!(report.components[0].component, "kdc");
        assert_eq!(report.components[0].state, "healthy");
        let app = &report.components[1];
        assert_eq!((app.component.as_str(), app.state.as_str()), ("rlogin", "failing"));
        assert_eq!((app.replay_permille, app.total), (428, 7));
    }

    #[test]
    fn tail_returns_the_newest_lines() {
        let (state, _registry, journal) = state();
        for n in 0..10u64 {
            journal.record(n, None, Component::Kdc, EventKind::AsOk, vec![("n", n.into())]);
        }
        let tail = state.tail(3);
        assert_eq!(tail.lines.len(), 3);
        assert!(tail.lines[0].contains("n=7"));
        assert!(tail.lines[2].contains("n=9"));
        assert_eq!(tail.events, 10);
        assert_eq!(tail.dropped, 0);
    }

    #[test]
    fn top_serves_attached_sketches_in_order() {
        let (state, _registry, _journal) = state();
        let clients = SpaceSaving::new(4);
        let services = SpaceSaving::new(4);
        clients.observe("bcn");
        clients.observe("bcn");
        services.observe("rlogin.host");
        let state = state
            .with_sketch("as_clients", clients)
            .with_sketch("tgs_services", services);
        let top = state.top(8);
        assert_eq!(top.tables[0].0, "as_clients");
        assert_eq!(top.tables[0].1[0].key, "bcn");
        assert_eq!(top.tables[0].1[0].count, 2);
        assert_eq!(top.tables[1].0, "tgs_services");
    }

    #[test]
    fn err_traces_serves_the_flight_recorder_newest_first() {
        let (state, _registry, journal) = state();
        let recorder = Arc::new(FlightRecorder::new(8));
        journal.set_flight_recorder(Arc::clone(&recorder));
        let state = state.with_recorder(recorder);
        for n in 0..2 {
            journal.record(
                n,
                Some(TraceId::derive(5, n)),
                Component::Kdc,
                EventKind::KdcErr,
                vec![],
            );
        }
        let traces = state.err_traces(8);
        assert_eq!(traces.records.len(), 2);
        assert_eq!(traces.records[0].trace, TraceId::derive(5, 1).0, "newest first");
        assert_eq!(traces.records[0].fail_kind, "kdc_err");
        assert_eq!(traces.captures, 2);
    }

    #[test]
    fn wrapped_journal_drop_accounting_agrees_across_surfaces() {
        // Force ring wraparound, then assert every surface that reports
        // drop counts — the published registry counter, `StatSnapshot`,
        // `JournalTail`, and the flight record's capture-time figure —
        // says the same number, and that the flight recorder flags the
        // beheaded chain as truncated rather than presenting it complete.
        let registry = Registry::shared();
        let journal = Arc::new(Journal::new(8));
        journal.publish(&registry);
        let recorder = Arc::new(FlightRecorder::new(4));
        journal.set_flight_recorder(Arc::clone(&recorder));
        let state = MonState::new("kdc-master", Arc::clone(&registry), Arc::clone(&journal))
            .with_recorder(Arc::clone(&recorder));

        let t = TraceId::derive(11, 0);
        journal.record(0, Some(t), Component::Ws, EventKind::LoginStart, vec![]);
        for n in 0..32 {
            let filler = TraceId::derive(11, 99);
            journal.record(10 + n, Some(filler), Component::Kdc, EventKind::AsOk, vec![]);
        }
        journal.record(99, Some(t), Component::Kdc, EventKind::KdcErr, vec![]);

        let dropped = journal.events_dropped();
        assert!(dropped > 0, "ring of 8 must have wrapped under 34 events");
        assert_eq!(registry.counter_value("journal_dropped_total"), dropped);
        assert_eq!(state.stat().journal_dropped, dropped);
        assert_eq!(state.tail(4).dropped, dropped);

        let traces = state.err_traces(4);
        let record = &traces.records[0];
        assert_eq!(record.trace, t.0);
        assert_eq!(record.dropped_at_capture, dropped);
        assert!(record.truncated, "evicted login_start must mark the chain truncated");
        assert!(
            record.chain.iter().all(|line| !line.contains("login_start")),
            "the evicted head must not reappear in the served chain: {:?}",
            record.chain
        );
    }

    #[test]
    fn err_traces_without_a_recorder_is_empty() {
        let (state, _registry, _journal) = state();
        assert_eq!(state.err_traces(8), ErrorTraces::default());
    }

    #[test]
    fn handle_frame_round_trips_every_request() {
        let (state, registry, _journal) = state();
        registry.counter("x_total").inc();
        let state = state.with_health(HealthSpec::kdc());
        for req in [
            MonRequest::Stat,
            MonRequest::Health,
            MonRequest::Tail(5),
            MonRequest::Top(5),
            MonRequest::ErrTraces(5),
        ] {
            let reply = state.handle_frame(&req.encode()).expect("replied");
            let ok = match req {
                MonRequest::Stat => StatSnapshot::decode(&reply).is_some(),
                MonRequest::Health => HealthReport::decode(&reply).is_some(),
                MonRequest::Tail(_) => JournalTail::decode(&reply).is_some(),
                MonRequest::Top(_) => TopPrincipals::decode(&reply).is_some(),
                MonRequest::ErrTraces(_) => ErrorTraces::decode(&reply).is_some(),
            };
            assert!(ok, "reply decodes for {req:?}");
        }
        assert!(state.handle_frame(b"\xFFgarbage").is_none(), "garbage gets no reply");
    }

    #[test]
    fn service_answers_over_the_netsim_seam() {
        use krb_netsim::sim::{NetConfig, SimNet};
        use krb_netsim::{ports, Endpoint, Ipv4, Router};
        let (state, registry, _journal) = state();
        registry.counter("kdc_as_ok_total").add(3);
        let svc = MonService(Arc::new(state));
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let mon_ep = Endpoint { addr: Ipv4([18, 72, 0, 10]), port: ports::MON };
        let client = Endpoint { addr: Ipv4([18, 72, 0, 5]), port: 40_000 };
        router.serve(mon_ep, svc);
        let reply = router
            .rpc(client, mon_ep, &MonRequest::Stat.encode())
            .expect("mon rpc answered");
        let snap = StatSnapshot::decode(&reply).expect("stat frame");
        assert!(snap.counters.contains(&("kdc_as_ok_total".to_string(), 3)));
    }
}
