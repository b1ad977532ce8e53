//! `krb-chaos`: a deterministic fault-injection soak with invariant oracles.
//!
//! The paper *argues* its reliability properties: slaves exist so
//! "authentication can still be achieved" when the master is down (§5.3),
//! PCBC makes tampering detectable (§2.2), and replay caches reject
//! duplicated authenticators (§4.3). This module *tests* those claims
//! adversarially: a seeded [`FaultPlan`] (see `krb_netsim::fault`) batters
//! every transport — KDC datagrams, application RPCs, kprop dumps — while
//! N workstations run login / AP-request / kprop rounds, and four oracle
//! families are machine-checked after every step:
//!
//! * **safety** — no authentication ever succeeds from a corrupted ticket,
//!   a wrong key, or a replayed authenticator (probed every round);
//! * **liveness** — after `heal()`, every pending login eventually
//!   succeeds via master-or-slave failover;
//! * **conservation** — telemetry counters balance at every idle point:
//!   `sent + duplicated == delivered + dropped` (corruption never
//!   double-counts: a corrupted packet is still delivered); and for
//!   replication, at every quiescent point — a slave acknowledging the
//!   master's journal head — the slave's installed mirror dumps
//!   byte-identically to the master's database (a faulted incremental
//!   stream converges or is rejected, never installs divergence);
//! * **trace completeness** — every minted TraceId terminates in an
//!   `_ok`/`_err` journal event, every `ap_sent` is followed by a verdict,
//!   every `kprop_dump` by an apply or reject, and the journal drops
//!   nothing.
//!
//! Determinism contract: a run is a pure function of
//! `(seed, profile, ops, workstations, slaves)`. An oracle failure prints
//! the seed, the replay command line, and [`FaultPlan::render`]'s window
//! list — everything needed to replay the run byte-identically.

use crate::soak::{self, drain, ClientRound, SlaveSet, SoakFailure};
use kerberos::{krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache};
use krb_apps::{NetService, RloginServer};
use krb_crypto::{string_to_key, KeyGenerator, Scheduled};
use krb_kdc::{Deployment, RealmConfig};
use krb_kprop::{KpropMaster, Tally};
use krb_netsim::{
    ports, Endpoint, Fault, FaultPlan, FaultWindow, Ipv4, LinkMatch, NetStats, Packet, Router,
    Service, EPOCH_1987,
};
use krb_telemetry::{ClockUs, Component, Event, EventKind, Field, Json, TraceCtx};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

const REALM: &str = "ATHENA.MIT.EDU";
/// Domain-separation constant mixed into the engine's RNG stream.
const CHAOS_SEED: u64 = 0xC4A05;
/// Master KDC host; slaves get consecutive last octets. (Shared with the
/// `krb-repl` scenario so [`Profile::windows`]' master-link faults apply.)
pub(crate) const MASTER_ADDR: HostAddr = [18, 72, 5, 1];
/// The application server host.
const APP_ADDR: HostAddr = [18, 72, 5, 40];
/// Base of the workstation address range.
const WS_ADDR_BASE: u8 = 10;
/// Principals in the admin-churn pool: only the KDBM touches these, so
/// key rotations and deletes never strand a workstation login.
const N_CHURN: usize = 4;
/// Every n-th transfer to a slave is forced to a full dump: the scheduled
/// anti-entropy that catches a slave restart the master never observed.
const ANTI_ENTROPY_EVERY: u64 = 5;

/// A named fault profile: which windows the plan schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Profile {
    /// Background noise: light loss, small delays, rare single-bit flips.
    Mild,
    /// Everything at once: loss bursts, reordering, duplication,
    /// multi-bit corruption, a congestion spike at the master.
    #[default]
    Stormy,
    /// §5.3's availability story: the master partitions early, then the
    /// whole KDC set partitions until heal.
    Partition,
    /// Duplication only — the replay-cache accounting profile: every
    /// injected duplicate that reaches the server must be a `replay_hit`.
    DupHeavy,
    /// Corruption-dominant: §2.2's tamper-evidence under sustained fire.
    Corrupt,
}

/// Every profile, in the order the smoke gate runs them.
pub const ALL_PROFILES: [Profile; 5] = [
    Profile::Mild,
    Profile::Stormy,
    Profile::Partition,
    Profile::DupHeavy,
    Profile::Corrupt,
];

impl Profile {
    /// Stable name used on the command line and in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Mild => "mild",
            Profile::Stormy => "stormy",
            Profile::Partition => "partition",
            Profile::DupHeavy => "dup-heavy",
            Profile::Corrupt => "corrupt",
        }
    }

    /// Inverse of [`Profile::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        ALL_PROFILES.into_iter().find(|p| p.as_str() == s)
    }

    /// The fault windows this profile schedules against a deployment.
    /// Times are simulated-network milliseconds; net time only advances
    /// while packets are in flight, so active windows are short and
    /// "until heal" windows are open-ended (`u64::MAX`, closed by
    /// [`krb_netsim::SimNet::heal_faults`]). Shared with the `krb-repl` scenario,
    /// which batters its replication links with the same profiles.
    pub(crate) fn windows(self, slave_addrs: &[HostAddr]) -> Vec<FaultWindow> {
        let any = LinkMatch::Any;
        let master = LinkMatch::Host(Ipv4(MASTER_ADDR));
        let app = LinkMatch::Host(Ipv4(APP_ADDR));
        let open = u64::MAX;
        match self {
            Profile::Mild => vec![
                FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Loss(0.05) },
                FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Delay(8) },
                FaultWindow {
                    from_ms: 0,
                    until_ms: open,
                    link: any,
                    fault: Fault::Corrupt { prob: 0.02, max_bits: 1 },
                },
            ],
            Profile::Stormy => vec![
                FaultWindow { from_ms: 0, until_ms: 300, link: any, fault: Fault::Loss(0.25) },
                FaultWindow { from_ms: 300, until_ms: open, link: any, fault: Fault::Loss(0.10) },
                FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Reorder(40) },
                FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Duplicate(0.10) },
                FaultWindow {
                    from_ms: 0,
                    until_ms: open,
                    link: any,
                    fault: Fault::Corrupt { prob: 0.08, max_bits: 3 },
                },
                FaultWindow { from_ms: 100, until_ms: 400, link: master, fault: Fault::Delay(25) },
            ],
            Profile::Partition => {
                let mut w = vec![
                    FaultWindow { from_ms: 0, until_ms: 200, link: master, fault: Fault::Partition },
                    FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Loss(0.05) },
                    FaultWindow { from_ms: 200, until_ms: open, link: master, fault: Fault::Partition },
                ];
                for &addr in slave_addrs {
                    w.push(FaultWindow {
                        from_ms: 200,
                        until_ms: open,
                        link: LinkMatch::Host(Ipv4(addr)),
                        fault: Fault::Partition,
                    });
                }
                w
            }
            Profile::DupHeavy => vec![
                FaultWindow { from_ms: 0, until_ms: open, link: app, fault: Fault::Duplicate(0.6) },
                FaultWindow { from_ms: 0, until_ms: open, link: any, fault: Fault::Duplicate(0.25) },
            ],
            Profile::Corrupt => vec![
                FaultWindow {
                    from_ms: 0,
                    until_ms: open,
                    link: any,
                    fault: Fault::Corrupt { prob: 0.30, max_bits: 8 },
                },
                FaultWindow {
                    from_ms: 40,
                    until_ms: 120,
                    link: app,
                    fault: Fault::Corrupt { prob: 1.0, max_bits: 2 },
                },
            ],
        }
    }
}

/// Soak parameters. A run is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Seeded workstations (one registered user each).
    pub workstations: usize,
    /// Operation rounds (each is a login, an app request, or both, with a
    /// kprop round every [`SoakConfig::kprop_every`] ops).
    pub ops: usize,
    /// Seed for the engine RNG, the network RNG, and the fault plan.
    pub seed: u64,
    /// Which fault profile to run under.
    pub profile: Profile,
    /// Slave KDCs besides the master.
    pub slaves: usize,
    /// Ops between kprop propagation rounds.
    pub kprop_every: usize,
    /// Master update-journal retention (records). Small caps force
    /// gap-induced full-dump fallbacks when a slave lags behind a fault
    /// window — exactly the recovery path the soak should exercise.
    pub kprop_log_cap: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            workstations: 6,
            ops: 200,
            seed: CHAOS_SEED,
            profile: Profile::Stormy,
            slaves: 2,
            kprop_every: 16,
            kprop_log_cap: 32,
        }
    }
}

impl SoakConfig {
    /// The CI smoke shape: small and fast, but every oracle family fires.
    pub fn smoke(seed: u64, profile: Profile) -> Self {
        SoakConfig {
            workstations: 3,
            ops: 36,
            seed,
            profile,
            slaves: 1,
            kprop_every: 9,
            kprop_log_cap: 4,
        }
    }
}

/// What a completed (all-oracles-green) soak observed.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Profile the run used.
    pub profile: Profile,
    /// Seed the run used.
    pub seed: u64,
    /// Rounds executed.
    pub ops: u64,
    /// Login attempts (kinit calls during the fault phase).
    pub logins_attempted: u64,
    /// Logins that succeeded during the fault phase.
    pub logins_ok: u64,
    /// Logins that failed (typed error or timeout) during the fault phase.
    pub logins_failed: u64,
    /// Application requests put on the wire.
    pub app_requests: u64,
    /// Application requests the server verified and answered.
    pub app_ok: u64,
    /// Application requests that failed (corrupted, dropped, or refused).
    pub app_err: u64,
    /// Safety probe rounds executed (each = corrupt + wrong-key + replay).
    pub safety_probes: u64,
    /// kprop transfers shipped (per slave), by kind and by outcome.
    pub kprop: Tally,
    /// Seeded admin mutations journaled on the master (key rotations,
    /// principal adds/deletes of the churn pool).
    pub admin_writes: u64,
    /// `replay_hit` count at the application server.
    pub replay_hits: u64,
    /// Injected duplicates that reached the application server.
    pub dups_at_server: u64,
    /// Workstations with no valid login when the network healed.
    pub pending_after_faults: u64,
    /// Pending logins that completed after heal (liveness oracle).
    pub healed_logins: u64,
    /// Network delivery counters at the end of the run.
    pub net: NetStats,
    /// Plan-attributed drops (`net_fault_dropped_total`).
    pub fault_dropped: u64,
    /// Plan-attributed partition drops.
    pub fault_partitioned: u64,
    /// Plan-delayed packets.
    pub fault_delayed: u64,
    /// Plan-duplicated packets.
    pub fault_duplicated: u64,
    /// Journal events recorded.
    pub journal_events: u64,
    /// Distinct trace ids checked by the completeness oracle.
    pub traces_checked: u64,
}

/// JSON keys the report must carry — the smoke test below pins them.
pub const CHAOS_JSON_KEYS: &[&str] = &[
    "tool",
    "seed",
    "profiles",
    "profile",
    "ops",
    "logins_ok",
    "app_ok",
    "replay_hits",
    "dups_at_server",
    "healed_logins",
    "net",
    "corrupted",
    "journal",
    "oracles",
    "safety",
    "liveness",
    "conservation",
    "trace_completeness",
    "metrics_journal",
    "kprop_incr",
    "kprop_full",
    "admin_writes",
    "repl_conservation",
];

impl SoakReport {
    /// The report as one JSON object. Every oracle reads `pass`: a
    /// violation aborts the run before a report exists.
    pub fn to_json(&self) -> Json {
        let net = Json::obj()
            .with("sent", self.net.sent)
            .with("delivered", self.net.delivered)
            .with("dropped", self.net.dropped)
            .with("duplicated", self.net.duplicated)
            .with("corrupted", self.net.corrupted)
            .with("fault_dropped", self.fault_dropped)
            .with("fault_partitioned", self.fault_partitioned)
            .with("fault_delayed", self.fault_delayed)
            .with("fault_duplicated", self.fault_duplicated);
        let oracles = [
            "safety",
            "liveness",
            "conservation",
            "trace_completeness",
            "metrics_journal",
            "repl_conservation",
        ]
        .into_iter()
        .fold(Json::obj(), |o, oracle| o.with(oracle, "pass"));
        Json::obj()
            .with("profile", self.profile.as_str())
            .with("seed", self.seed)
            .with("ops", self.ops)
            .with("logins_attempted", self.logins_attempted)
            .with("logins_ok", self.logins_ok)
            .with("logins_failed", self.logins_failed)
            .with("app_requests", self.app_requests)
            .with("app_ok", self.app_ok)
            .with("app_err", self.app_err)
            .with("safety_probes", self.safety_probes)
            .with("kprop_rounds", self.kprop.transfers)
            .with("kprop_accepted", self.kprop.accepted)
            .with("kprop_rejected", self.kprop.rejected)
            .with("kprop_incr", self.kprop.incr)
            .with("kprop_full", self.kprop.full)
            .with("admin_writes", self.admin_writes)
            .with("replay_hits", self.replay_hits)
            .with("dups_at_server", self.dups_at_server)
            .with("pending_after_faults", self.pending_after_faults)
            .with("healed_logins", self.healed_logins)
            .with("net", net)
            .with("journal", Json::obj().with("events", self.journal_events).with("dropped", 0u64))
            .with("traces_checked", self.traces_checked)
            .with("oracles", oracles)
    }
}

/// Wraps the application service to count raw deliveries and distinct
/// request payloads — `requests - distinct` is exactly the injected
/// duplicates that reached the server, counted where they land (network
/// taps never see duplicate copies).
struct DupLedger {
    requests: u64,
    distinct: HashSet<Vec<u8>>,
}

struct CountingService<S: Service> {
    inner: S,
    ledger: Arc<Mutex<DupLedger>>,
}

impl<S: Service> Service for CountingService<S> {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        {
            let mut ledger = self.ledger.lock();
            ledger.requests += 1;
            ledger.distinct.insert(req.payload.clone());
        }
        self.inner.handle(req)
    }
}

/// The per-round safety probes: corrupted ticket, wrong key, replayed
/// authenticator. Each must be refused with a typed error; an accept is
/// an oracle failure, and a refusal of the *legitimate* request is a
/// false reject (also a failure).
fn safety_probe(
    ap: &ApReq,
    svc: &Principal,
    svc_key: &Scheduled,
    wrong_key: &Scheduled,
    addr: HostAddr,
    now: u32,
    round: u64,
) -> Result<(), String> {
    // Corrupted ticket: flip one bit in the first cipher block — PCBC
    // garbles everything after it (§2.2), so the open must fail.
    let mut corrupted = ap.clone();
    let bit = (round as usize) % (8 * 8.min(corrupted.ticket.0.len()));
    corrupted.ticket.0[bit / 8] ^= 1 << (bit % 8);
    let cache = ReplayCache::new();
    if krb_rd_req(&corrupted, svc, svc_key, addr, now, &cache, None).is_ok() {
        return Err(format!("corrupted ticket (bit {bit}) was accepted"));
    }

    // Wrong key: a server that does not hold the srvtab key learns nothing.
    let cache = ReplayCache::new();
    if krb_rd_req(ap, svc, wrong_key, addr, now, &cache, None).is_ok() {
        return Err("AP_REQ verified under the wrong service key".to_string());
    }

    // Replay: the same authenticator twice — first accept, then refuse.
    let cache = ReplayCache::new();
    if let Err(e) = krb_rd_req(ap, svc, svc_key, addr, now, &cache, None) {
        return Err(format!("legitimate AP_REQ falsely rejected: {e}"));
    }
    match krb_rd_req(ap, svc, svc_key, addr, now, &cache, None) {
        Err(ErrorCode::RdApRepeat) => Ok(()),
        Err(e) => Err(format!("replayed authenticator refused with {e}, want RdApRepeat")),
        Ok(_) => Err("replayed authenticator was accepted".to_string()),
    }
}

/// Run one soak. Returns the report if every oracle holds; the first
/// violation aborts the run with a replayable [`SoakFailure`] whose
/// context is [`FaultPlan::render`] of the plan in force.
pub fn run(config: SoakConfig) -> Result<SoakReport, SoakFailure> {
    let start = EPOCH_1987;
    let nws = config.workstations.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed ^ CHAOS_SEED);

    // --- Realm: master + slaves, one user per workstation, one app service.
    let mut boot = kdb_init(REALM, "chaos-master", start, config.seed).unwrap();
    for i in 0..nws {
        register_user(&mut boot.db, &format!("chaos{i}"), "", &format!("pw{i}"), start).unwrap();
    }
    for c in 0..N_CHURN {
        register_user(&mut boot.db, &format!("churn{c}"), "", &format!("churn-pw{c}"), start)
            .unwrap();
    }
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(config.seed.wrapping_add(17)));
    let rcmd_key = register_service(&mut boot.db, "rcmd", "chaosd", start, &mut keygen).unwrap();
    let rcmd_sched = Scheduled::new(&rcmd_key);
    let wrong_key = Scheduled::new(&string_to_key("not-the-srvtab-key"));
    let svc = Principal::parse("rcmd.chaosd", REALM).unwrap();

    let (mut router, registry, journal, clock_us) = soak::network(config.seed, 1 << 16);
    let dep = Deployment::install(
        &mut router,
        REALM,
        boot.db,
        RealmConfig::new(REALM),
        MASTER_ADDR,
        config.slaves,
        start,
    )
    .unwrap();
    dep.set_telemetry_all(Arc::clone(&registry), ClockUs::clone(&clock_us));
    dep.set_journal_all(Arc::clone(&journal));
    let slave_addrs: Vec<HostAddr> = dep.slaves.iter().map(|(a, _)| *a).collect();

    // Fault plan on the wire.
    let plan = FaultPlan::with_windows(config.seed, config.profile.windows(&slave_addrs));
    let plan_text = plan.render();
    let fail = |oracle: &'static str, detail: String| SoakFailure {
        oracle,
        detail,
        replay_cmd: format!(
            "krb-chaos --seed {} --ops {} --profile {} (workstations={}, slaves={})",
            config.seed,
            config.ops,
            config.profile.as_str(),
            config.workstations,
            config.slaves
        ),
        context: plan_text.clone(),
    };
    router.net().set_fault_plan(plan);

    // Application server (rlogin), wrapped so duplicate deliveries are
    // counted server-side.
    let mut rlogin = RloginServer::new(svc.clone(), rcmd_key);
    rlogin.set_telemetry(Arc::clone(&registry));
    let mut rlogin_net = NetService::new(
        rlogin,
        krb_kdc::shared_clock(Arc::clone(&dep.clock_cell)),
    );
    rlogin_net.set_journal(Arc::clone(&journal), ClockUs::clone(&clock_us));
    let ledger = Arc::new(Mutex::new(DupLedger { requests: 0, distinct: HashSet::new() }));
    let app_ep = Endpoint::new(APP_ADDR, ports::KLOGIN);
    router.serve(app_ep, CountingService { inner: rlogin_net, ledger: Arc::clone(&ledger) });

    // The slaves' kpropds (see `soak`, DESIGN.md §19). On every accepted
    // transfer the hook swaps the new mirror into the serving slave KDC.
    let slave_kdcs: Vec<_> = dep.slaves.iter().map(|(_, kdc)| Arc::clone(kdc)).collect();
    let slaves = SlaveSet::serve(
        &mut router,
        dep.master_key,
        &slave_addrs,
        &journal,
        &clock_us,
        move |k, db| {
            if let Ok(mirror) = db.snapshot_mem() {
                slave_kdcs[k].install_db(mirror);
            }
        },
    );
    // The master's write → journal → ship pipeline.
    let mut kprop = KpropMaster::new(
        MASTER_ADDR,
        1001,
        config.seed ^ 0x6B70,
        config.kprop_log_cap,
        &slave_addrs,
    );
    kprop.set_journal(Arc::clone(&journal), ClockUs::clone(&clock_us));
    let mut churn_exists = vec![true; N_CHURN];

    // Workstations, each with its own trace stream.
    let mut stations: Vec<Workstation> = (0..nws)
        .map(|i| {
            let addr = [18, 72, 6, WS_ADDR_BASE + (i % 200) as u8];
            let mut eps = dep.kdc_endpoints();
            let n = eps.len();
            eps.rotate_left(i % n);
            let mut ws = Workstation::new(
                addr,
                REALM,
                eps,
                krb_kdc::shared_clock(Arc::clone(&dep.clock_cell)),
            );
            ws.enable_tracing(
                Arc::clone(&journal),
                ClockUs::clone(&clock_us),
                config.seed ^ (0x5700 + i as u64 * 7919),
            );
            ws
        })
        .collect();
    let mut logged_in = vec![false; nws];

    let mut report = SoakReport {
        profile: config.profile,
        seed: config.seed,
        ops: config.ops as u64,
        ..Default::default()
    };

    let conservation = |router: &Router, at: String| -> Result<(), SoakFailure> {
        let s = router.stats();
        if s.sent + s.duplicated != s.delivered + s.dropped {
            return Err(fail(
                "conservation",
                format!(
                    "at {at}: sent({}) + duplicated({}) != delivered({}) + dropped({})",
                    s.sent, s.duplicated, s.delivered, s.dropped
                ),
            ));
        }
        Ok(())
    };

    // --- The soak proper.
    for op in 0..config.ops {
        dep.advance_time(1);
        let w = rng.random_range(0..nws);
        let user = format!("chaos{w}");
        let was_logged_in = logged_in[w];
        let round = soak::client_round(
            &mut stations[w],
            &mut router,
            was_logged_in,
            &user,
            &format!("pw{w}"),
            &svc,
            app_ep,
        );
        match round {
            ClientRound::Login(ok) => {
                report.logins_attempted += 1;
                logged_in[w] = ok;
                *if ok { &mut report.logins_ok } else { &mut report.logins_failed } += 1;
            }
            ClientRound::NoTicket => {
                // Drop the session and force a fresh login.
                report.app_err += 1;
                stations[w].kdestroy();
                logged_in[w] = false;
            }
            ClientRound::NoRequest(_) => report.app_err += 1,
            ClientRound::Sent { ap, trace, ok, .. } => {
                report.app_requests += 1;
                *if ok { &mut report.app_ok } else { &mut report.app_err } += 1;
                // Client-side terminal so the trace oracle can hold even
                // when the wire ate the exchange.
                if let (false, Some(t)) = (ok, trace) {
                    TraceCtx::new(Arc::clone(&journal), ClockUs::clone(&clock_us), t).record(
                        Component::Ws,
                        EventKind::ApErr,
                        vec![("why", Field::from("wire"))],
                    );
                }

                // Safety oracle, probed with this round's AP_REQ.
                report.safety_probes += 1;
                let now = start + op as u32 + 1;
                let addr = stations[w].addr;
                safety_probe(&ap, &svc, &rcmd_sched, &wrong_key, addr, now, op as u64)
                    .map_err(|detail| fail("safety", detail))?;
            }
        }
        // Periodic logout forces fresh AS exchanges under faults.
        if was_logged_in && op % 7 == 6 {
            stations[w].kdestroy();
            logged_in[w] = false;
        }

        // Seeded admin write (KDBM): rotate, add, or delete a churn-pool
        // principal and journal the mutation — the update stream that
        // incremental propagation ships slave-ward.
        if op % 4 == 2 {
            let c = rng.random_range(0..N_CHURN);
            let name = format!("churn{c}");
            let now = start + op as u32 + 1;
            let kind = rng.random_range(0..4u8);
            let exists = churn_exists[c];
            let wrote = dep
                .master
                .with_db_mut(|db| {
                    kprop
                        .write(db, |tx| {
                            if exists && kind == 0 {
                                tx.delete(&name, "")?;
                                return Ok(false);
                            }
                            let key = string_to_key(&format!("churn-{c}-{op}"));
                            if exists {
                                tx.change_key(&name, "", &key, now, "kadmin.")?;
                            } else {
                                tx.add_principal(&name, "", &key, u32::MAX, 96, now, "kadmin.")?;
                            }
                            Ok(true)
                        })
                        .ok()
                })
                .flatten();
            if let Some(now_exists) = wrote {
                churn_exists[c] = now_exists;
                report.admin_writes += 1;
            }
        }

        // kprop round: one transfer per slave from the master's snapshot,
        // with the replication conservation oracle at each head ack.
        if config.kprop_every > 0 && op % config.kprop_every == config.kprop_every - 1 {
            slaves
                .ship_round(&mut kprop, &mut router, dep.master.snapshot().db(), ANTI_ENTROPY_EVERY)
                .map_err(|detail| fail("repl_conservation", detail))?;
        }

        router.pump();
        for ws in &stations {
            drain(&mut router, ws.endpoint);
        }
        conservation(&router, format!("op {op}"))?;
    }

    // --- Heal, then the liveness oracle.
    report.pending_after_faults = logged_in.iter().filter(|ok| !**ok).count() as u64;
    router.net().heal_faults();
    router.pump();
    for ws in &stations {
        drain(&mut router, ws.endpoint);
    }

    for w in 0..nws {
        if logged_in[w] {
            continue;
        }
        dep.advance_time(1);
        let user = format!("chaos{w}");
        let mut healed = false;
        let mut last_err = String::new();
        for _ in 0..3 {
            match stations[w].kinit(&mut router, &user, &format!("pw{w}")) {
                Ok(()) => {
                    healed = true;
                    break;
                }
                Err(e) => last_err = e.to_string(),
            }
            let ep = stations[w].endpoint;
            drain(&mut router, ep);
        }
        if !healed {
            return Err(fail(
                "liveness",
                format!("ws {w} ({user}) cannot log in after heal: {last_err}"),
            ));
        }
        logged_in[w] = true;
        report.healed_logins += 1;
        let ep = stations[w].endpoint;
        drain(&mut router, ep);
    }

    router.pump();
    conservation(&router, "post-heal".to_string())?;

    // --- Post-heal replication: every slave reaches the journal head and
    // then holds a byte-identical mirror.
    slaves
        .catch_up(&mut kprop, &mut router, dep.master.snapshot().db())
        .map_err(|detail| fail("repl_conservation", detail))?;
    report.kprop = kprop.tally();

    // --- Replay-cache accounting oracle (§4.3).
    report.replay_hits = registry.counter_value("rlogin_replay_hits_total");
    {
        let ledger = ledger.lock();
        report.dups_at_server = ledger.requests - ledger.distinct.len() as u64;
    }
    if report.replay_hits > report.dups_at_server {
        return Err(fail(
            "safety",
            format!(
                "replay cache false reject: {} hits but only {} duplicates reached the server",
                report.replay_hits, report.dups_at_server
            ),
        ));
    }
    if config.profile == Profile::DupHeavy {
        if report.dups_at_server == 0 && config.ops >= 20 {
            return Err(fail(
                "conservation",
                "dup-heavy profile injected no duplicates at the server".to_string(),
            ));
        }
        if report.replay_hits != report.dups_at_server {
            return Err(fail(
                "safety",
                format!(
                    "replay accounting: {} hits != {} injected duplicates at the server",
                    report.replay_hits, report.dups_at_server
                ),
            ));
        }
    }

    // --- Trace completeness oracle.
    if journal.events_dropped() != 0 {
        return Err(fail(
            "trace_completeness",
            format!("journal dropped {} events", journal.events_dropped()),
        ));
    }
    let mut events = journal.dump();
    events.sort_by_key(|e| e.seq);
    report.journal_events = events.len() as u64;
    let mut by_trace: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in &events {
        if let Some(t) = e.trace {
            by_trace.entry(t.0).or_default().push(e);
        }
    }
    report.traces_checked = by_trace.len() as u64;
    for (trace, evs) in &by_trace {
        if evs.iter().any(|e| e.kind == EventKind::LoginStart)
            && !evs
                .iter()
                .any(|e| matches!(e.kind, EventKind::LoginOk | EventKind::LoginErr))
        {
            return Err(fail(
                "trace_completeness",
                format!("trace {trace:016x}: login_start without login_ok/login_err"),
            ));
        }
        for (i, e) in evs.iter().enumerate() {
            if e.kind == EventKind::ApSent
                && !evs[i + 1..].iter().any(|later| {
                    matches!(
                        later.kind,
                        EventKind::ApVerified
                            | EventKind::ApErr
                            | EventKind::ReplayHit
                            | EventKind::AppOk
                            | EventKind::AppErr
                    )
                })
            {
                return Err(fail(
                    "trace_completeness",
                    format!("trace {trace:016x}: ap_sent (seq {}) never resolved", e.seq),
                ));
            }
        }
        if evs.iter().any(|e| e.kind == EventKind::KpropDump)
            && !evs
                .iter()
                .any(|e| matches!(e.kind, EventKind::KpropApply | EventKind::KpropReject))
        {
            return Err(fail(
                "trace_completeness",
                format!("trace {trace:016x}: kprop_dump without apply/reject"),
            ));
        }
    }

    soak::metrics_journal(&registry, &journal).map_err(|detail| fail("metrics_journal", detail))?;

    report.net = router.stats();
    report.fault_dropped = registry.counter_value("net_fault_dropped_total");
    report.fault_partitioned = registry.counter_value("net_fault_partitioned_total");
    report.fault_delayed = registry.counter_value("net_fault_delayed_total");
    report.fault_duplicated = registry.counter_value("net_fault_duplicated_total");
    Ok(report)
}

/// The CI smoke gate: run every profile at smoke scale under one seed and
/// combine the reports into one JSON document. Deterministic: two calls
/// with the same seed render byte-identically.
pub fn smoke_json(seed: u64) -> Result<Json, SoakFailure> {
    let runs = ALL_PROFILES.iter().map(|p| Ok(run(SoakConfig::smoke(seed, *p))?.to_json()));
    soak::smoke_document("krb-chaos", seed, "profiles", runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_round_trip() {
        for p in ALL_PROFILES {
            assert_eq!(Profile::parse(p.as_str()), Some(p));
        }
        assert_eq!(Profile::parse("nope"), None);
    }

    #[test]
    fn smoke_passes_and_is_byte_identical() {
        let a = smoke_json(CHAOS_SEED).expect("oracles hold").render();
        let b = smoke_json(CHAOS_SEED).expect("oracles hold").render();
        assert_eq!(a, b, "same seed must replay byte-identically");
        for key in CHAOS_JSON_KEYS {
            assert!(a.contains(&format!("\"{key}\"")), "missing JSON key {key}: {a}");
        }
    }

    #[test]
    fn dup_heavy_replay_accounting_is_exact() {
        let report = run(SoakConfig {
            profile: Profile::DupHeavy,
            ops: 60,
            workstations: 4,
            slaves: 1,
            seed: 0xD0D0,
            kprop_every: 16,
            kprop_log_cap: 32,
        })
        .expect("oracles hold");
        assert!(report.dups_at_server > 0, "{report:?}");
        assert_eq!(report.replay_hits, report.dups_at_server);
    }

    #[test]
    fn dup_heavy_seed_5_is_reproducible() {
        // This config has two services with deliveries due in one pump
        // pass, so the document depends on the order `Router` serves them
        // in. Were that a `HashMap`'s order, each run would draw its own
        // `RandomState`: four runs, four independent orders.
        let cfg =
            SoakConfig { seed: 5, ops: 120, profile: Profile::DupHeavy, ..Default::default() };
        let first = run(cfg).expect("oracles hold").to_json().render();
        for _ in 0..3 {
            assert_eq!(run(cfg).expect("oracles hold").to_json().render(), first);
        }
    }

    #[test]
    fn partition_profile_heals_every_pending_login() {
        let report = run(SoakConfig {
            profile: Profile::Partition,
            ops: 40,
            workstations: 4,
            slaves: 1,
            seed: 0x9A87,
            kprop_every: 10,
            kprop_log_cap: 4,
        })
        .expect("oracles hold");
        // The full-partition window must actually strand somebody, and the
        // heal must recover every one of them.
        assert_eq!(report.pending_after_faults, report.healed_logins);
        assert!(report.fault_partitioned > 0, "{report:?}");
        // With the small journal cap, a slave partitioned across admin
        // writes must have recovered through the full-dump fallback.
        assert!(report.kprop.full > 0, "{report:?}");
        assert!(report.admin_writes > 0, "{report:?}");
    }

    #[test]
    fn incremental_stream_carries_the_steady_state() {
        // Mild profile: most transfers land, so after bootstrap the steady
        // state ships segments, not dumps — and the replication oracle
        // still holds at every quiescent point.
        let report = run(SoakConfig {
            profile: Profile::Mild,
            ops: 80,
            workstations: 3,
            slaves: 2,
            seed: 0x1DC2,
            kprop_every: 8,
            kprop_log_cap: 64,
        })
        .expect("oracles hold");
        assert!(report.admin_writes > 0, "{report:?}");
        assert!(report.kprop.incr > 0, "steady state never went incremental: {report:?}");
        assert!(
            report.kprop.incr > report.kprop.full,
            "segments should dominate dumps on a mild network: {report:?}"
        );
    }

    #[test]
    fn corrupt_profile_rejects_with_typed_errors_never_panics() {
        let report = run(SoakConfig {
            profile: Profile::Corrupt,
            ops: 50,
            workstations: 3,
            slaves: 1,
            seed: 0xBADB17,
            kprop_every: 12,
            kprop_log_cap: 16,
        })
        .expect("oracles hold");
        assert!(report.net.corrupted > 0, "{report:?}");
    }
}
