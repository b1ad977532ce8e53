//! The adversary soak: a seeded Dolev–Yao attacker driven against a live
//! realm, with machine-checked secrecy and authentication oracles.
//!
//! The paper's threat model is an *active* network attacker: "we assume
//! that packets traveling along the network can be read, modified, and
//! inserted at will" (§1). The wire-tap scenarios in `krb_sim::attacks`
//! cover reading; this engine covers inserting. One honest victim runs
//! login / AP-request rounds while the attacker, working only from
//! captured datagrams and its derivation closure ([`crate::knowledge`]),
//! schedules injections from a seeded menu:
//!
//! * **replay** — a captured KDC or application request, re-sent verbatim
//!   with a spoofed source (§4.3's replay cache must refuse it);
//! * **time-shift** — the same, after driving the realm clock past the
//!   ±5-minute skew window (§4.2's timestamp check must refuse it);
//! * **splice** — the ticket of one captured exchange paired with the
//!   authenticator of another (the session-key match must refuse it);
//! * **forge** — a self-minted ticket under a guessed or learned key, or
//!   a fresh authenticator under a learned session key (only a scenario
//!   that *explicitly leaked* a key can make this stick);
//! * **impersonate** — a bogus AS reply injected at the victim with the
//!   KDC's spoofed source address (the password-derived decryption and
//!   nonce check must refuse it);
//! * **kprop replay / splice / truncate / forge** — captured incremental
//!   propagation segments (the realm runs a live master→slave journal
//!   stream) re-sent verbatim, re-headed with another segment's checksum,
//!   chopped mid-record, or minted from whole cloth. The slave's `kpropd`
//!   must refuse each with a typed rejection; only an explicitly leaked
//!   master key can make a forged transfer stick.
//!
//! After every step two oracle families are checked:
//!
//! * **secrecy** — no protected key (user, service, krbtgt, master, or
//!   any honest session key, harvested as ground truth while the run
//!   proceeds) ever appears in the attacker's closure, unless the
//!   scenario leaked exactly that key on purpose;
//! * **authentication** — the application server never records an
//!   `ap_verified`/`app_ok` journal event on a trace that is not an
//!   honest client's AP exchange. Every injection is re-stamped with an
//!   adversary-minted [`TraceId`], so even a byte-identical replay is
//!   attributed to the attacker.
//!
//! KDC-level replay is deliberately *not* an authentication violation:
//! replaying a captured TGS request makes the KDC issue a reply, but that
//! reply is sealed under the ticket-granting ticket's session key (§4.3),
//! so the secrecy oracle — not the authentication oracle — guards it.
//!
//! Determinism contract: a run is a pure function of
//! `(seed, steps, leak)`. Reports, closure dumps, and oracle verdicts are
//! byte-identical across runs with the same config; an oracle failure
//! carries the replay command line.

use crate::knowledge::{key_fingerprint, Knowledge};
use kerberos::{
    build_tgs_req, ApReq, Authenticator, Credential, EncKdcReplyPart, EncryptedTicket, HostAddr,
    KdcRep, Message, Principal, Ticket, MAX_SKEW_SECS,
};
use krb_apps::{frame_request, request_cksum, RloginNetService, RloginServer};
use krb_crypto::{open, seal, string_to_key, DesKey, KeyGenerator, Mode, Scheduled, SecretKey};
use krb_kdb::dump as kdump;
use krb_kdc::{Deployment, RealmConfig};
use krb_kprop::{
    build_incr_segment, parse_incr_reply, IncrReply, KpropMaster, Tally, UpdateOp, UpdateRecord,
    FULL_MAGIC, INCR_MAGIC,
};
use krb_netsim::{ports, Endpoint, InjectKind, Packet, Router, EPOCH_1987};
use krb_sim::soak::{self, drain, ClientRound, SlaveSet, SoakFailure};
use krb_telemetry::{ClockUs, Component, EventKind, Field, Journal, Registry, TraceId};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

const REALM: &str = "ATHENA.MIT.EDU";
/// Domain-separation constant for the engine's RNG and trace streams.
pub const ADV_SEED: u64 = 0xD01E;
/// Master KDC host.
const MASTER_ADDR: HostAddr = [18, 72, 9, 1];
/// Application server host.
const APP_ADDR: HostAddr = [18, 72, 9, 40];
/// The slave KDC receiving the incremental propagation stream.
const SLAVE_ADDR: HostAddr = [18, 72, 9, 2];
/// The honest victim's workstation.
const WS_ADDR: HostAddr = [18, 72, 9, 100];
/// Bound on the attacker's capture tape; overflow is reported, not eaten.
pub const ADV_TAPE_CAP: usize = 8192;

/// Which long-term key, if any, the scenario hands the attacker up front.
/// `--leak` exists so the oracles can be *self-testing*: each leak must
/// provably trip exactly the matching detections (see
/// [`verify_expectations`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Leak {
    /// No leak: the honest protocol. Both oracles must stay green.
    #[default]
    None,
    /// The victim's password-derived key (a stolen password). The closure
    /// must cascade to the TGT and service session keys, and forged
    /// exchanges must be accepted — tripping secrecy *and* authentication.
    UserKey,
    /// The application server's srvtab key (a compromised server host).
    /// The closure opens captured service tickets (session keys trip
    /// secrecy) and self-minted tickets verify (tripping authentication),
    /// but the user's key and the TGT session key must stay safe.
    ServiceKey,
    /// The KDC master key (the §5.2 catastrophic compromise). Every
    /// principal key in a captured propagation dump decrypts — the
    /// secrecy cascade must reach the user, service, and krbtgt keys —
    /// and a forged incremental transfer seals correctly, so the slave's
    /// `kpropd` accepts it (tripping authentication).
    MasterKey,
}

impl Leak {
    /// Stable name used on the command line and in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Leak::None => "none",
            Leak::UserKey => "user-key",
            Leak::ServiceKey => "service-key",
            Leak::MasterKey => "master-key",
        }
    }

    /// Inverse of [`Leak::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        ALL_LEAKS.into_iter().find(|l| l.as_str() == s)
    }
}

/// Every leak mode, in the order the smoke gate runs them.
pub const ALL_LEAKS: [Leak; 4] =
    [Leak::None, Leak::UserKey, Leak::ServiceKey, Leak::MasterKey];

/// Soak parameters. A run is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct AdvConfig {
    /// Attack steps (each is one honest round plus one injection).
    pub steps: u64,
    /// Seed for the engine RNG, the network RNG, and the trace streams.
    pub seed: u64,
    /// Which key the scenario leaks to the attacker, if any.
    pub leak: Leak,
}

impl Default for AdvConfig {
    fn default() -> Self {
        AdvConfig { steps: 96, seed: ADV_SEED, leak: Leak::None }
    }
}

impl AdvConfig {
    /// The CI smoke shape: small and fast, but every attack kind fires.
    pub fn smoke(seed: u64, leak: Leak) -> Self {
        AdvConfig { steps: 48, seed, leak }
    }

    /// An oracle violation of a run of this config (`secrecy`,
    /// `authentication`, `metrics_journal` or the `self-test`) at `step`.
    fn fail(&self, oracle: &'static str, step: u64, detail: String) -> SoakFailure {
        SoakFailure {
            oracle,
            detail,
            replay_cmd: format!(
                "krb-adversary --seed {} --steps {} --leak {}",
                self.seed,
                self.steps,
                self.leak.as_str()
            ),
            context: format!("at step {step}"),
        }
    }
}

/// What a completed run observed. In honest mode the violation lists are
/// empty by construction (the first violation aborts the run); in leak
/// modes they carry the labels/details the self-test asserts on.
#[derive(Debug, Clone, Default)]
pub struct AdvReport {
    /// Seed the run used.
    pub seed: u64,
    /// Steps executed.
    pub steps: u64,
    /// Leak mode the run used.
    pub leak: Leak,
    /// Login attempts by the honest victim.
    pub logins_attempted: u64,
    /// Logins that succeeded.
    pub logins_ok: u64,
    /// Logins that failed (usually attacker-induced).
    pub logins_failed: u64,
    /// Honest application exchanges the server answered.
    pub app_ok: u64,
    /// Honest application exchanges that failed.
    pub app_err: u64,
    /// Verbatim replays injected.
    pub replays: u64,
    /// Time-shifted replays injected.
    pub time_shifts: u64,
    /// Ticket/authenticator splices injected.
    pub splices: u64,
    /// Forged tickets and forged-session exchanges injected.
    pub forges: u64,
    /// Spoofed-KDC replies injected at the victim.
    pub impersonations: u64,
    /// Distinct adversary exchanges the application server accepted.
    pub accepted_forgeries: u64,
    /// Typed rejections of adversary traffic, by protocol error code.
    pub rejections: BTreeMap<u8, u64>,
    /// Honest incremental propagation transfers shipped to the slave, by
    /// kind and by outcome.
    pub kprop: Tally,
    /// Captured journal segments replayed verbatim at the slave.
    pub kprop_replays: u64,
    /// Segments re-headed with another segment's checksum.
    pub kprop_splices: u64,
    /// Segments chopped mid-record.
    pub kprop_truncates: u64,
    /// Transfers minted from whole cloth (leaked or guessed master key).
    pub kprop_forges: u64,
    /// Slave `kpropd` rejections of adversary transfers, by reject slug.
    pub kprop_rejections: BTreeMap<String, u64>,
    /// Keys in the final closure.
    pub closure_keys: u64,
    /// Credentials (ticket + matching session key) in the final closure.
    pub closure_creds: u64,
    /// Undecrypted ciphertext blobs in the final closure.
    pub closure_blobs: u64,
    /// Cleartext atoms in the final closure.
    pub closure_atoms: u64,
    /// Successful derivation steps taken by saturation.
    pub derivations: u64,
    /// Fingerprints of every key in the closure (sorted).
    pub key_fps: Vec<u64>,
    /// Packets the bounded capture tape refused.
    pub tape_dropped: u64,
    /// Journal events recorded.
    pub journal_events: u64,
    /// Journal events dropped (capacity overflow).
    pub journal_dropped: u64,
    /// Secrecy-oracle violations: sorted, deduplicated protected-key
    /// labels that appeared in the closure without being leaked.
    pub secrecy_violations: Vec<String>,
    /// Authentication-oracle violations: accepted adversary exchanges.
    pub auth_violations: Vec<String>,
    /// Deterministic closure dump (fingerprints and provenance only).
    pub closure_dump: String,
}

/// JSON keys the report must carry — the smoke test below pins them.
pub const ADVERSARY_JSON_KEYS: &[&str] = &[
    "tool",
    "seed",
    "steps",
    "leak",
    "logins_ok",
    "app_ok",
    "injections",
    "replay",
    "time_shift",
    "splice",
    "forge",
    "impersonate",
    "accepted_forgeries",
    "rejections",
    "kprop",
    "transfers",
    "accepted",
    "truncate",
    "why",
    "closure",
    "keys",
    "creds",
    "blobs",
    "atoms",
    "derivations",
    "key_fps",
    "tape_dropped",
    "journal",
    "events",
    "dropped",
    "oracles",
    "secrecy",
    "authentication",
    "metrics_journal",
    "violations",
];

fn json_str_list(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // Details are built from principal names, hex, and error codes —
        // no quotes or backslashes — so plain quoting is safe.
        let _ = write!(s, "\"{v}\"");
    }
    s.push(']');
    s
}

impl AdvReport {
    /// Total injections across all attack kinds.
    pub fn injections(&self) -> u64 {
        self.replays + self.time_shifts + self.splices + self.forges + self.impersonations
    }

    /// Total injections aimed at the propagation stream.
    pub fn kprop_injections(&self) -> u64 {
        self.kprop_replays + self.kprop_splices + self.kprop_truncates + self.kprop_forges
    }

    /// Did the secrecy oracle stay green?
    pub fn secrecy_ok(&self) -> bool {
        self.secrecy_violations.is_empty()
    }

    /// Did the authentication oracle stay green?
    pub fn auth_ok(&self) -> bool {
        self.auth_violations.is_empty()
    }

    /// Render as one JSON object (no trailing newline). Hand-rolled like
    /// `krb-chaos`'s — the workspace takes no serialization dependency.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"seed\":{},\"steps\":{},\"leak\":\"{}\"",
            self.seed,
            self.steps,
            self.leak.as_str()
        );
        let _ = write!(
            s,
            ",\"logins_attempted\":{},\"logins_ok\":{},\"logins_failed\":{}",
            self.logins_attempted, self.logins_ok, self.logins_failed
        );
        let _ = write!(s, ",\"app_ok\":{},\"app_err\":{}", self.app_ok, self.app_err);
        let _ = write!(
            s,
            ",\"injections\":{{\"replay\":{},\"time_shift\":{},\"splice\":{},\
             \"forge\":{},\"impersonate\":{},\"total\":{}}}",
            self.replays,
            self.time_shifts,
            self.splices,
            self.forges,
            self.impersonations,
            self.injections()
        );
        let _ = write!(s, ",\"accepted_forgeries\":{}", self.accepted_forgeries);
        s.push_str(",\"rejections\":[");
        for (i, (code, n)) in self.rejections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"code\":{code},\"n\":{n}}}");
        }
        s.push(']');
        let _ = write!(
            s,
            ",\"kprop\":{{\"transfers\":{},\"accepted\":{},\"replay\":{},\"splice\":{},\
             \"truncate\":{},\"forge\":{},\"rejections\":[",
            self.kprop.transfers,
            self.kprop.accepted,
            self.kprop_replays,
            self.kprop_splices,
            self.kprop_truncates,
            self.kprop_forges
        );
        for (i, (why, n)) in self.kprop_rejections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"why\":\"{why}\",\"n\":{n}}}");
        }
        s.push_str("]}");
        let _ = write!(
            s,
            ",\"closure\":{{\"keys\":{},\"creds\":{},\"blobs\":{},\"atoms\":{},\
             \"derivations\":{},\"key_fps\":[",
            self.closure_keys,
            self.closure_creds,
            self.closure_blobs,
            self.closure_atoms,
            self.derivations
        );
        for (i, fp) in self.key_fps.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{fp:016x}\"");
        }
        s.push_str("]}");
        let _ = write!(s, ",\"tape_dropped\":{}", self.tape_dropped);
        let _ = write!(
            s,
            ",\"journal\":{{\"events\":{},\"dropped\":{}}}",
            self.journal_events, self.journal_dropped
        );
        // `metrics_journal` is constant here by construction: a report only
        // exists when `run` finished, and `run` aborts with a `SoakFailure`
        // on any metrics≡journal mismatch before building the report.
        let _ = write!(
            s,
            ",\"oracles\":{{\"secrecy\":\"{}\",\"authentication\":\"{}\",\"metrics_journal\":\"pass\"}}",
            if self.secrecy_ok() { "pass" } else { "tripped" },
            if self.auth_ok() { "pass" } else { "tripped" }
        );
        let _ = write!(
            s,
            ",\"violations\":{{\"secrecy\":{},\"authentication\":{}}}}}",
            json_str_list(&self.secrecy_violations),
            json_str_list(&self.auth_violations)
        );
        s
    }

    /// Human-readable summary, including the closure dump.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "krb-adversary: seed={} steps={} leak={}",
            self.seed,
            self.steps,
            self.leak.as_str()
        );
        let _ = writeln!(
            s,
            "  victim: logins {}/{} ok, app {} ok / {} err",
            self.logins_ok, self.logins_attempted, self.app_ok, self.app_err
        );
        let _ = writeln!(
            s,
            "  injected: {} replay, {} time-shift, {} splice, {} forge, {} impersonate",
            self.replays, self.time_shifts, self.splices, self.forges, self.impersonations
        );
        let mut rej = String::new();
        for (code, n) in &self.rejections {
            let _ = write!(rej, " {}x{:?}", n, kerberos::ErrorCode::from_u8(*code));
        }
        let _ = writeln!(s, "  rejections:{}", if rej.is_empty() { " none" } else { &rej });
        let _ = writeln!(
            s,
            "  kprop: {}/{} honest transfers ok; injected {} replay, {} splice, {} truncate, {} forge",
            self.kprop.accepted,
            self.kprop.transfers,
            self.kprop_replays,
            self.kprop_splices,
            self.kprop_truncates,
            self.kprop_forges
        );
        let mut krej = String::new();
        for (why, n) in &self.kprop_rejections {
            let _ = write!(krej, " {n}x{why}");
        }
        let _ = writeln!(s, "  kprop rejections:{}", if krej.is_empty() { " none" } else { &krej });
        let _ = writeln!(s, "  accepted forgeries: {}", self.accepted_forgeries);
        s.push_str(&self.closure_dump);
        let _ = writeln!(
            s,
            "  oracles: secrecy={} authentication={}",
            if self.secrecy_ok() { "pass" } else { "TRIPPED" },
            if self.auth_ok() { "pass" } else { "TRIPPED" }
        );
        for v in &self.secrecy_violations {
            let _ = writeln!(s, "    secrecy: {v}");
        }
        for v in &self.auth_violations {
            let _ = writeln!(s, "    authentication: {v}");
        }
        s
    }
}

/// The running attacker and its victim realm.
struct Engine {
    cfg: AdvConfig,
    router: Router,
    dep: Deployment,
    ws: Workstation,
    svc: Principal,
    app_ep: Endpoint,
    kdc_ep: Endpoint,
    journal: Arc<Journal>,
    clock_us: ClockUs,
    registry: Arc<Registry>,
    tape: Arc<Mutex<Vec<Packet>>>,
    /// Index of the first tape packet the attacker has not yet observed.
    cursor: usize,
    kn: Knowledge,
    rng: StdRng,
    /// Ground-truth copy of the victim's password-derived key, used only
    /// to harvest honest session keys into the protected set.
    user_key: DesKey,
    /// Protected-key fingerprints and their labels: the secrecy oracle's
    /// ground truth.
    protected: BTreeMap<u64, &'static str>,
    /// Fingerprints the scenario explicitly leaked (exempt from secrecy).
    exempt: BTreeSet<u64>,
    /// Protected fingerprints already reported, so a violation is
    /// recorded once.
    flagged: BTreeSet<u64>,
    /// Traces of honest AP exchanges (authentication-oracle allowlist).
    honest_traces: BTreeSet<u64>,
    /// Traces minted for injections (every injection is re-stamped).
    adv_traces: BTreeSet<u64>,
    adv_trace_seq: u64,
    /// Adversary traces already reported as accepted.
    auth_flagged: BTreeSet<u64>,
    /// First journal sequence number not yet scanned by the oracles.
    journal_cursor: u64,
    logged_in: bool,
    /// Master-key schedule driving the honest propagation stream.
    sched: Scheduled,
    /// The master's write → journal → ship pipeline. No journal is
    /// attached: the slave's events alone carry the honest traces.
    kprop: KpropMaster,
    /// Key source for the admin-churn rotations the stream carries.
    kprop_keygen: KeyGenerator<StdRng>,
    /// The key the scenario handed the attacker, if any — used by the
    /// kprop forgery the way a real attacker would use stolen material.
    leaked_key: Option<DesKey>,
    report: AdvReport,
}

impl Engine {
    fn new(cfg: AdvConfig) -> Self {
        let start = EPOCH_1987;
        let mut boot = kdb_init(REALM, "adv-master", start, cfg.seed).unwrap();
        register_user(&mut boot.db, "victim", "", "victim-pw", start).unwrap();
        // Admin-churn principal: only the KDBM rotates it, so the
        // propagation stream always has fresh updates to carry.
        register_user(&mut boot.db, "propchurn", "", "propchurn-pw", start).unwrap();
        let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(cfg.seed.wrapping_add(9)));
        let svc_key = register_service(&mut boot.db, "svc", "host", start, &mut keygen).unwrap();
        let svc = Principal::new("svc", "host", REALM).unwrap();

        let (mut router, registry, journal, clock_us) = soak::network(cfg.seed, 1 << 15);
        let tape = router.net().add_capture_bounded(ADV_TAPE_CAP);
        let dep = Deployment::install(
            &mut router,
            REALM,
            boot.db,
            RealmConfig::new(REALM),
            MASTER_ADDR,
            0,
            start,
        )
        .unwrap();
        dep.set_telemetry_all(Arc::clone(&registry), ClockUs::clone(&clock_us));
        dep.set_journal_all(Arc::clone(&journal));

        let mut rlogin = RloginServer::new(svc.clone(), svc_key);
        rlogin.set_telemetry(Arc::clone(&registry));
        let mut rlogin_net =
            RloginNetService::new(rlogin, krb_kdc::shared_clock(Arc::clone(&dep.clock_cell)));
        rlogin_net.set_journal(Arc::clone(&journal), ClockUs::clone(&clock_us));
        let app_ep = Endpoint::new(APP_ADDR, ports::KLOGIN);
        router.serve(app_ep, rlogin_net);

        let mut ws = Workstation::new(
            WS_ADDR,
            REALM,
            dep.kdc_endpoints(),
            krb_kdc::shared_clock(Arc::clone(&dep.clock_cell)),
        );
        ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock_us), cfg.seed ^ 0x3A11);

        // The slave `kpropd` receiving the incremental stream — another
        // honest victim, whose transfers transit the tapped wire. The set is
        // dropped: the oracles watch whom the slave accepts, not its mirror.
        SlaveSet::serve(
            &mut router,
            dep.master_key,
            &[SLAVE_ADDR],
            &journal,
            &clock_us,
            |_, _| {},
        );

        let user_key = string_to_key("victim-pw");

        // The protected set: every long-term key in the realm, by
        // fingerprint. Honest session keys are added as the run mints
        // them (ground truth harvested outside the attacker's view).
        let mut protected = BTreeMap::new();
        protected.insert(key_fingerprint(&user_key), "user-key");
        protected.insert(key_fingerprint(&svc_key), "service-key");
        protected.insert(key_fingerprint(&string_to_key("propchurn-pw")), "propchurn-key");
        let tgt_key = {
            let snap = dep.master.snapshot();
            let (_, k) = snap.db().get_with_key("krbtgt", REALM).unwrap().unwrap();
            k
        };
        protected.insert(key_fingerprint(&tgt_key), "krbtgt-key");
        protected.insert(key_fingerprint(&dep.master_key), "master-key");

        // The scenario's explicit leak: hand the attacker the key and
        // exempt exactly that fingerprint from the secrecy oracle.
        let mut kn = Knowledge::new();
        let mut exempt = BTreeSet::new();
        let mut leaked_key = None;
        match cfg.leak {
            Leak::None => {}
            Leak::UserKey => {
                let fp = key_fingerprint(&user_key);
                exempt.insert(fp);
                kn.learn_key(&user_key, "leaked: victim's password-derived key");
                leaked_key = Some(user_key);
            }
            Leak::ServiceKey => {
                let fp = key_fingerprint(&svc_key);
                exempt.insert(fp);
                kn.learn_key(&svc_key, "leaked: svc.host srvtab key");
                leaked_key = Some(svc_key);
            }
            Leak::MasterKey => {
                let fp = key_fingerprint(&dep.master_key);
                exempt.insert(fp);
                kn.learn_key(&dep.master_key, "leaked: the KDC master key");
                leaked_key = Some(dep.master_key);
            }
        }

        let report =
            AdvReport { seed: cfg.seed, steps: cfg.steps, leak: cfg.leak, ..Default::default() };

        let sched = Scheduled::new(&dep.master_key);
        Engine {
            rng: StdRng::seed_from_u64(cfg.seed ^ ADV_SEED),
            cfg,
            router,
            dep,
            ws,
            svc,
            app_ep,
            kdc_ep: Endpoint::new(MASTER_ADDR, ports::KDC),
            journal,
            clock_us,
            registry,
            tape,
            cursor: 0,
            kn,
            user_key,
            protected,
            exempt,
            flagged: BTreeSet::new(),
            honest_traces: BTreeSet::new(),
            adv_traces: BTreeSet::new(),
            adv_trace_seq: 0,
            auth_flagged: BTreeSet::new(),
            journal_cursor: 0,
            logged_in: false,
            sched,
            kprop: KpropMaster::new(MASTER_ADDR, 2000, cfg.seed ^ 0x6B92, 64, &[SLAVE_ADDR]),
            kprop_keygen: KeyGenerator::new(StdRng::seed_from_u64(cfg.seed ^ 0x6B92)),
            leaked_key,
            report,
        }
    }

    fn mint_trace(&mut self) -> TraceId {
        self.adv_trace_seq += 1;
        let t = TraceId::derive(self.cfg.seed ^ 0xADE5, self.adv_trace_seq);
        self.adv_traces.insert(t.0);
        t
    }

    /// Record the injection in the journal and put it on the wire with a
    /// spoofed source. Every injection carries a fresh adversary trace so
    /// the authentication oracle can attribute any acceptance.
    fn inject(&mut self, kind: InjectKind, claimed_src: Endpoint, dst: Endpoint, wire: Vec<u8>) {
        let t = self.mint_trace();
        self.journal.record(
            (self.clock_us)(),
            Some(t),
            Component::Net,
            EventKind::AdvInject,
            vec![("kind", Field::from(kind.as_str())), ("n", Field::from(wire.len()))],
        );
        self.router.net().inject(kind, claimed_src, dst, wire, Some(t));
        self.router.pump();
    }

    /// Feed every not-yet-seen tape packet to the attacker's closure, and
    /// harvest honest session keys into the protected set (ground truth
    /// the attacker never sees: AS replies opened with the victim's own
    /// key).
    fn observe_new(&mut self) {
        let fresh: Vec<Packet> = {
            let tape = self.tape.lock();
            tape[self.cursor.min(tape.len())..].to_vec()
        };
        self.cursor += fresh.len();
        for p in &fresh {
            // The attacker's own injections carry the spoofed tap flag.
            // It learns nothing from them — the closure already contains
            // everything it can synthesize — and re-ingesting forged
            // tickets would pollute the credential store with self-made
            // material. Honest *responses* to injections (e.g. the KDC's
            // reply to a forged TGS request) are not spoofed and are
            // observed normally.
            if p.spoofed {
                continue;
            }
            if let Ok(Message::KdcRep(rep)) = Message::decode(&p.payload) {
                if let Ok(plain) = open(Mode::Pcbc, &self.user_key, &[0u8; 8], &rep.enc_part) {
                    if let Ok(part) = EncKdcReplyPart::decode(&plain) {
                        let fp = key_fingerprint(&part.session_key.as_des_key());
                        self.protected.entry(fp).or_insert("tgt-session");
                    }
                }
            }
            let news = self.kn.observe_packet(p);
            for (fp, via) in news {
                self.journal.record(
                    (self.clock_us)(),
                    None,
                    Component::Net,
                    EventKind::AdvLearn,
                    vec![
                        ("fp", Field::Str(format!("{fp:016x}"))),
                        ("via", Field::from(via)),
                    ],
                );
            }
            // The §5.3 eavesdropper guarantee inverted: dump lines carry
            // principal keys encrypted in the master key, so a leaked
            // master key decrypts every key a captured full transfer
            // ships — the secrecy cascade the self-test demands.
            if self.cfg.leak == Leak::MasterKey
                && p.dst.port == ports::KPROP
                && p.payload.starts_with(FULL_MAGIC)
                && p.payload.len() > 28
            {
                let Ok(text) = std::str::from_utf8(&p.payload[28..]) else { continue };
                let Ok(entries) = kdump::parse(text) else { continue };
                for e in entries {
                    let mut block = e.key_encrypted;
                    self.sched.decrypt_block(&mut block);
                    let k = DesKey::from_bytes(block);
                    let via = format!("decrypted from propagated dump: {}", e.name);
                    for (fp, how) in self.kn.learn_key(&k, &via) {
                        self.journal.record(
                            (self.clock_us)(),
                            None,
                            Component::Net,
                            EventKind::AdvLearn,
                            vec![
                                ("fp", Field::Str(format!("{fp:016x}"))),
                                ("via", Field::from(how)),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// One honest propagation round: the KDBM rotates the churn
    /// principal's key, and the master ships the planned transfer to the
    /// slave — bootstrap full dump first, incremental segments after.
    fn kprop_round(&mut self) {
        let now = self.ws.now();
        let new_key = self.kprop_keygen.generate();
        let wrote = self.dep.master.with_db_mut(|db| {
            self.kprop.write(db, |tx| tx.change_key("propchurn", "", &new_key, now, "kadmin."))
        });
        if let Some(Ok(())) = wrote {
            // Ground truth: the rotated key transits only inside the
            // (master-key-encrypted) dump line, so it is protected.
            self.protected.entry(key_fingerprint(&new_key)).or_insert("propchurn-key");
        }
        let shipped = self
            .kprop
            .ship(&mut self.router, self.dep.master.snapshot().db(), 0, false)
            .expect("master dumps; journal slice is consecutive");
        self.honest_traces.extend(shipped.map(|s| s.trace.0));
    }

    /// One honest victim round: log in if needed, otherwise run a real
    /// AP exchange against the application server.
    fn honest_round(&mut self) {
        let round = soak::client_round(
            &mut self.ws,
            &mut self.router,
            self.logged_in,
            "victim",
            "victim-pw",
            &self.svc,
            self.app_ep,
        );
        let (session_key, trace, ok) = match round {
            ClientRound::Login(ok) => {
                self.report.logins_attempted += 1;
                self.logged_in = ok;
                *if ok { &mut self.report.logins_ok } else { &mut self.report.logins_failed } += 1;
                return;
            }
            ClientRound::NoTicket => (None, None, false),
            ClientRound::NoRequest(session_key) => (Some(session_key), None, false),
            ClientRound::Sent { session_key, trace, ok, .. } => (Some(session_key), trace, ok),
        };
        if let Some(k) = session_key {
            // Ground truth: this session key is protected from here on.
            self.protected.entry(key_fingerprint(&k)).or_insert("svc-session");
        }
        self.honest_traces.extend(trace.map(|t| t.0));
        if ok {
            self.report.app_ok += 1;
        } else {
            self.report.app_err += 1;
            self.ws.kdestroy();
            self.logged_in = false;
        }
    }

    /// Captured request datagrams (KDC or application), for replay.
    fn captured_requests(&self) -> Vec<Packet> {
        let tape = self.tape.lock();
        tape.iter()
            .filter(|p| {
                !p.spoofed && (p.dst.port == ports::KDC || p.dst.port == ports::KLOGIN)
            })
            .cloned()
            .collect()
    }

    /// Captured application requests that parse, for splicing.
    fn captured_app_reqs(&self) -> Vec<(ApReq, String, Vec<u8>)> {
        let tape = self.tape.lock();
        tape.iter()
            .filter(|p| !p.spoofed && p.dst.port == ports::KLOGIN)
            .filter_map(|p| krb_apps::parse_request(&p.payload).ok())
            .collect()
    }

    /// Replay a captured request verbatim (optionally after driving the
    /// realm clock past the skew window), spoofing the original source.
    fn attack_replay(&mut self, shift: bool) {
        let pool = self.captured_requests();
        if pool.is_empty() {
            return;
        }
        let pick = pool[self.rng.random_range(0..pool.len())].clone();
        if shift {
            self.dep.advance_time(MAX_SKEW_SECS + 60);
            self.report.time_shifts += 1;
        } else {
            self.report.replays += 1;
        }
        let kind = if shift { InjectKind::TimeShift } else { InjectKind::Replay };
        self.inject(kind, pick.src, pick.dst, pick.payload);
        drain(&mut self.router, pick.src);
    }

    /// Pair the ticket of one captured exchange with the authenticator of
    /// another — the session key sealed in ticket A must refuse to open
    /// authenticator B.
    fn attack_splice(&mut self) {
        let pool = self.captured_app_reqs();
        if pool.len() < 2 {
            return;
        }
        let i = self.rng.random_range(0..pool.len());
        let mut j = self.rng.random_range(0..pool.len());
        if i == j {
            j = (j + 1) % pool.len();
        }
        let (a, _, _) = &pool[i];
        let (b, op, payload) = &pool[j];
        let spliced = ApReq {
            realm: a.realm.clone(),
            ticket: a.ticket.clone(),
            authenticator: b.authenticator.clone(),
            mutual: false,
        };
        let wire = frame_request(&spliced, op, payload);
        self.report.splices += 1;
        let src = Endpoint::new(WS_ADDR, 1023);
        self.inject(InjectKind::Splice, src, self.app_ep, wire);
        drain(&mut self.router, src);
    }

    /// The first forgery target the closure suggests: a client name seen
    /// in clear AS requests, falling back to the known victim.
    fn target_client(&self) -> Principal {
        let (name, instance) = self
            .kn
            .clients()
            .next()
            .cloned()
            .unwrap_or_else(|| ("victim".to_string(), String::new()));
        Principal::new(&name, &instance, REALM)
            .unwrap_or_else(|_| Principal::new("victim", "", REALM).unwrap())
    }

    /// Mint a ticket from whole cloth, sealed under a guessed or learned
    /// key, and present it with a matching authenticator. Only a leaked
    /// service key can make the server's `open` succeed.
    fn attack_forge_ticket(&mut self) {
        let pool = self.kn.key_fps();
        let idx = self.rng.random_range(0..=pool.len());
        let sealing = if idx < pool.len() {
            self.kn.key(pool[idx]).unwrap()
        } else {
            DesKey::from_bytes(self.rng.random::<u64>().to_be_bytes())
        };
        let invented = DesKey::from_bytes(self.rng.random::<u64>().to_be_bytes());
        let client = self.target_client();
        let now = self.ws.now();
        let ticket = Ticket::new(
            &self.svc,
            &client,
            WS_ADDR,
            now,
            96,
            SecretKey::new(*invented.as_bytes()),
        )
        .seal(&sealing);
        let payload = client.name.clone().into_bytes();
        let cksum = request_cksum(&invented, "login", &payload);
        let auth = Authenticator::new(&client, WS_ADDR, now, cksum).seal(&invented);
        let ap = ApReq {
            realm: REALM.to_string(),
            ticket,
            authenticator: auth.0,
            mutual: false,
        };
        let wire = frame_request(&ap, "login", &payload);
        self.report.forges += 1;
        let src = Endpoint::new(WS_ADDR, 1023);
        self.inject(InjectKind::Forge, src, self.app_ep, wire);
        drain(&mut self.router, src);
    }

    /// Use the closure's best credential: a captured service ticket whose
    /// session key is known (fresh authenticator, spoofed client source),
    /// or a ticket-granting ticket (forged TGS exchange — the reply feeds
    /// the closure). Falls back to a whole-cloth forgery.
    fn attack_forge_session(&mut self) {
        // A service credential: impersonate the client directly.
        let cred = self
            .kn
            .creds_for("svc")
            .into_iter()
            .find(|c| self.kn.key(c.key_fp).is_some())
            .cloned();
        if let Some(c) = cred {
            let k = self.kn.key(c.key_fp).unwrap();
            let client = match &c.client {
                Some((name, instance, realm)) => Principal::new(name, instance, realm)
                    .unwrap_or_else(|_| self.target_client()),
                None => self.target_client(),
            };
            let addr = c.addr.unwrap_or(WS_ADDR);
            let now = self.ws.now();
            let payload = client.name.clone().into_bytes();
            let cksum = request_cksum(&k, "login", &payload);
            let auth = Authenticator::new(&client, addr, now, cksum).seal(&k);
            let ap = ApReq {
                realm: c.srealm.clone(),
                ticket: EncryptedTicket(c.ticket.clone()),
                authenticator: auth.0,
                mutual: false,
            };
            let wire = frame_request(&ap, "login", &payload);
            self.report.forges += 1;
            let src = Endpoint::new(addr, 1023);
            self.inject(InjectKind::Forge, src, self.app_ep, wire);
            drain(&mut self.router, src);
            return;
        }
        // A TGT: run a forged TGS exchange; the captured reply is sealed
        // under the (known) TGT session key, so saturation opens it and
        // the closure gains a service credential for next time.
        let tgt = self
            .kn
            .creds_for("krbtgt")
            .into_iter()
            .find(|c| self.kn.key(c.key_fp).is_some())
            .cloned();
        if let Some(c) = tgt {
            let k = self.kn.key(c.key_fp).unwrap();
            let client = self.target_client();
            let fake = Credential {
                service: Principal::tgs(REALM, REALM),
                issuing_realm: c.srealm.clone(),
                session_key: SecretKey::new(*k.as_bytes()),
                ticket: EncryptedTicket(c.ticket.clone()),
                life: c.life,
                issued: c.issued,
                kvno: c.kvno,
            };
            let svc = self.svc.clone();
            let req = build_tgs_req(&fake, &client, WS_ADDR, self.ws.now(), &svc, 96);
            self.report.forges += 1;
            let src = Endpoint::new(WS_ADDR, 1023);
            self.inject(InjectKind::Forge, src, self.kdc_ep, req);
            drain(&mut self.router, src);
            return;
        }
        self.attack_forge_ticket();
    }

    /// Inject a bogus AS reply at the victim with the KDC's spoofed
    /// source address. The next login finds it first — and must reject it
    /// (wrong key, wrong nonce), costing at most a retry.
    fn attack_impersonate_kdc(&mut self) {
        let invented = DesKey::from_bytes(self.rng.random::<u64>().to_be_bytes());
        let now = self.ws.now();
        let part = EncKdcReplyPart {
            session_key: SecretKey::new(self.rng.random::<u64>().to_be_bytes()),
            sname: "krbtgt".to_string(),
            sinstance: REALM.to_string(),
            srealm: REALM.to_string(),
            life: 96,
            kvno: 1,
            kdc_time: now,
            nonce: now,
            ticket: EncryptedTicket(vec![0u8; 16]),
        };
        let enc_part = seal(Mode::Pcbc, &invented, &[0u8; 8], &part.encode()).unwrap();
        let wire = Message::KdcRep(KdcRep { enc_part }).encode();
        self.report.impersonations += 1;
        let ws_ep = self.ws.endpoint;
        // Deliberately NOT drained: the forged reply sits in the victim's
        // inbox so the next real login exercises the rejection path.
        self.inject(InjectKind::Impersonate, self.kdc_ep, ws_ep, wire);
    }

    /// Captured incremental journal segments (never the attacker's own
    /// spoofed injections). Full dumps are excluded: replaying the latest
    /// one is idempotent by design — same state, same sequence — so only
    /// segments make a crisp refuse-always pool.
    fn captured_kprop_segments(&self) -> Vec<Packet> {
        let tape = self.tape.lock();
        tape.iter()
            .filter(|p| {
                !p.spoofed && p.dst.port == ports::KPROP && p.payload.starts_with(INCR_MAGIC)
            })
            .cloned()
            .collect()
    }

    /// The highest sequence number the slave has acknowledged on the
    /// tapped wire — everything a real attacker needs to aim a forgery.
    fn observed_kprop_head(&self) -> Option<u64> {
        let tape = self.tape.lock();
        tape.iter()
            .filter(|p| !p.spoofed && p.src.port == ports::KPROP)
            .filter_map(|p| match parse_incr_reply(&p.payload) {
                IncrReply::Accepted(n) => Some(n),
                IncrReply::Rejected(_) => None,
            })
            .max()
    }

    /// Re-send a captured journal segment verbatim. The slave has already
    /// applied it, so the sequencing check must refuse it as a replayed
    /// update — the skew-edge twin of §4.3's replay cache.
    fn attack_kprop_replay(&mut self) {
        let pool = self.captured_kprop_segments();
        if pool.is_empty() {
            return;
        }
        let pick = pool[self.rng.random_range(0..pool.len())].clone();
        self.report.kprop_replays += 1;
        self.inject(InjectKind::Replay, pick.src, pick.dst, pick.payload);
        drain(&mut self.router, pick.src);
    }

    /// Head of one captured segment (magic + checksum) on the body of
    /// another: the keyed checksum must refuse the hybrid.
    fn attack_kprop_splice(&mut self) {
        let pool = self.captured_kprop_segments();
        if pool.len() < 2 {
            return;
        }
        let i = self.rng.random_range(0..pool.len());
        let mut j = self.rng.random_range(0..pool.len());
        if i == j {
            j = (j + 1) % pool.len();
        }
        let mut wire = pool[j].payload[..16].to_vec();
        wire.extend_from_slice(&pool[i].payload[16..]);
        self.report.kprop_splices += 1;
        self.inject(InjectKind::Splice, pool[i].src, pool[i].dst, wire);
        drain(&mut self.router, pool[i].src);
    }

    /// Chop the tail off a captured segment — truncation must read as
    /// damage (bad packet or checksum), never as a shorter valid transfer.
    fn attack_kprop_truncate(&mut self) {
        let pool = self.captured_kprop_segments();
        if pool.is_empty() {
            return;
        }
        let pick = pool[self.rng.random_range(0..pool.len())].clone();
        let cut =
            (1 + self.rng.random_range(0..16usize)).min(pick.payload.len().saturating_sub(1));
        let wire = pick.payload[..pick.payload.len() - cut].to_vec();
        self.report.kprop_truncates += 1;
        self.inject(InjectKind::Spoof, pick.src, pick.dst, wire);
        drain(&mut self.router, pick.src);
    }

    /// Mint an incremental transfer from whole cloth, aimed at the
    /// sequence number the slave last acknowledged on the wire, sealed
    /// under the scenario's leaked key (or a guess). Only the leaked
    /// *master* key verifies — anything else must draw a checksum
    /// rejection.
    fn attack_kprop_forge(&mut self) {
        let Some(head) = self.observed_kprop_head() else { return };
        let sealing = self
            .leaked_key
            .unwrap_or_else(|| DesKey::from_bytes(self.rng.random::<u64>().to_be_bytes()));
        let record = UpdateRecord {
            seq: head + 1,
            op: UpdateOp::Delete { name: "propchurn".to_string(), instance: String::new() },
        };
        let Ok(wire) = build_incr_segment(&Scheduled::new(&sealing), head, &[record]) else {
            return;
        };
        self.report.kprop_forges += 1;
        let src = Endpoint::new(MASTER_ADDR, 1900);
        self.inject(InjectKind::Forge, src, Endpoint::new(SLAVE_ADDR, ports::KPROP), wire);
        drain(&mut self.router, src);
    }

    fn attack_round(&mut self) {
        match self.rng.random_range(0..10u32) {
            0 => self.attack_replay(false),
            1 => self.attack_replay(true),
            2 => self.attack_splice(),
            3 => self.attack_forge_ticket(),
            4 => self.attack_forge_session(),
            5 => self.attack_impersonate_kdc(),
            6 => self.attack_kprop_replay(),
            7 => self.attack_kprop_splice(),
            8 => self.attack_kprop_truncate(),
            _ => self.attack_kprop_forge(),
        }
    }

    /// Check both oracle families over everything learned/journaled since
    /// the last check. Honest mode fails fast; leak modes collect.
    fn oracle_check(&mut self, step: u64) -> Result<(), SoakFailure> {
        // Secrecy: protected ∩ closure, minus the explicit leak.
        let mut new_secrecy: Vec<String> = Vec::new();
        for (&fp, &label) in &self.protected {
            if self.exempt.contains(&fp) || self.flagged.contains(&fp) {
                continue;
            }
            if self.kn.has_key_fp(fp) {
                self.flagged.insert(fp);
                new_secrecy.push(label.to_string());
            }
        }

        // Authentication: every application-server acceptance must sit on
        // an honest AP-exchange trace. Tally typed rejections of
        // adversary traffic while scanning.
        let mut events = self.journal.dump();
        events.sort_by_key(|e| e.seq);
        let mut new_auth: Vec<String> = Vec::new();
        for e in events.iter().filter(|e| e.seq >= self.journal_cursor) {
            let adv = e.trace.map(|t| self.adv_traces.contains(&t.0)).unwrap_or(false);
            if adv
                && matches!(
                    e.kind,
                    EventKind::ApErr | EventKind::ReplayHit | EventKind::KdcErr | EventKind::AppErr
                )
            {
                for (k, v) in &e.fields {
                    if *k == "code" {
                        if let Field::U64(code) = v {
                            *self.report.rejections.entry(*code as u8).or_insert(0) += 1;
                        }
                    }
                }
            }
            // A slave installing an adversary-injected transfer is an
            // authentication violation of the propagation stream; typed
            // refusals of adversary transfers are tallied by reject slug.
            if e.component == Component::Kprop {
                match e.kind {
                    EventKind::KpropApply => match e.trace {
                        Some(t) if self.honest_traces.contains(&t.0) => {}
                        Some(t) if self.adv_traces.contains(&t.0) => {
                            if self.auth_flagged.insert(t.0) {
                                self.report.accepted_forgeries += 1;
                                new_auth.push(format!(
                                    "slave kpropd installed adversary transfer (step {step})"
                                ));
                            }
                        }
                        Some(t) => {
                            if self.auth_flagged.insert(t.0) {
                                new_auth.push(format!(
                                    "slave kpropd installed transfer on unknown trace \
                                     {t:016x} (step {step})",
                                    t = t.0
                                ));
                            }
                        }
                        None => new_auth.push(format!(
                            "slave kpropd installed untraced transfer (step {step}, seq {})",
                            e.seq
                        )),
                    },
                    EventKind::KpropReject if adv => {
                        let why = e
                            .fields
                            .iter()
                            .find_map(|(k, v)| match (k, v) {
                                (&"why", Field::Str(s)) => Some(s.clone()),
                                _ => None,
                            })
                            .unwrap_or_else(|| "unknown".to_string());
                        *self.report.kprop_rejections.entry(why).or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
            if e.component == Component::App
                && matches!(e.kind, EventKind::ApVerified | EventKind::AppOk)
            {
                match e.trace {
                    Some(t) if self.honest_traces.contains(&t.0) => {}
                    Some(t) if self.adv_traces.contains(&t.0) => {
                        if self.auth_flagged.insert(t.0) {
                            self.report.accepted_forgeries += 1;
                            new_auth.push(format!(
                                "server accepted adversary exchange (step {step}, {})",
                                e.kind.as_str()
                            ));
                        }
                    }
                    Some(t) => {
                        if self.auth_flagged.insert(t.0) {
                            new_auth.push(format!(
                                "server accepted exchange on unknown trace {t:016x} (step {step})",
                                t = t.0
                            ));
                        }
                    }
                    None => new_auth.push(format!(
                        "server accepted untraced exchange (step {step}, seq {})",
                        e.seq
                    )),
                }
            }
        }
        if let Some(last) = events.last() {
            self.journal_cursor = last.seq + 1;
        }

        if self.cfg.leak == Leak::None {
            if let Some(v) = new_secrecy.first() {
                return Err(self.cfg.fail(
                    "secrecy",
                    step,
                    format!("protected key [{v}] entered the attacker's closure"),
                ));
            }
            if let Some(v) = new_auth.first() {
                return Err(self.cfg.fail("authentication", step, v.clone()));
            }
        }
        self.report.secrecy_violations.extend(new_secrecy);
        self.report.auth_violations.extend(new_auth);
        Ok(())
    }

    fn finish(mut self) -> AdvReport {
        let (keys, creds, blobs, atoms, derivations) = self.kn.counts();
        self.report.closure_keys = keys;
        self.report.closure_creds = creds;
        self.report.closure_blobs = blobs;
        self.report.closure_atoms = atoms;
        self.report.derivations = derivations;
        self.report.key_fps = self.kn.key_fps();
        self.report.kprop = self.kprop.tally();
        self.report.closure_dump = self.kn.dump();
        self.report.tape_dropped = self.registry.counter_value("net_capture_dropped_total");
        self.report.journal_events = self.journal.events_recorded();
        self.report.journal_dropped = self.journal.events_dropped();
        self.report.secrecy_violations.sort();
        self.report.secrecy_violations.dedup();
        self.report.auth_violations.sort();
        self.report.auth_violations.dedup();
        self.report
    }
}

/// Run one adversary soak. In honest mode ([`Leak::None`]) the first
/// oracle violation aborts with a replayable [`SoakFailure`] naming the
/// step; in leak modes violations are collected into the report for the
/// self-test.
pub fn run(cfg: AdvConfig) -> Result<AdvReport, SoakFailure> {
    let mut eng = Engine::new(cfg);
    for step in 0..cfg.steps {
        eng.dep.advance_time(1);
        eng.honest_round();
        eng.kprop_round();
        eng.observe_new();
        eng.attack_round();
        eng.observe_new();
        eng.oracle_check(step)?;
    }
    // Telemetry consistency: every counter the victim realm exported must
    // be recomputable from the journal, even under active attack — forged
    // and replayed traffic has to be *counted* exactly as it is journaled.
    soak::metrics_journal(&eng.registry, &eng.journal)
        .map_err(|detail| cfg.fail("metrics_journal", cfg.steps, detail))?;
    Ok(eng.finish())
}

/// Assert that a report trips *exactly* the oracles its leak mode
/// predicts — the self-test behind `--leak`. Returns a description of the
/// first discrepancy.
pub fn verify_expectations(r: &AdvReport) -> Result<(), String> {
    let has = |label: &str| r.secrecy_violations.iter().any(|v| v == label);
    match r.leak {
        Leak::None => {
            if !r.secrecy_ok() {
                return Err(format!("honest run tripped secrecy: {:?}", r.secrecy_violations));
            }
            if !r.auth_ok() {
                return Err(format!("honest run tripped authentication: {:?}", r.auth_violations));
            }
            if r.injections() == 0 {
                return Err("honest run injected nothing — the soak is vacuous".to_string());
            }
            if r.app_ok == 0 || r.logins_ok == 0 {
                return Err("honest traffic never succeeded — the soak is vacuous".to_string());
            }
            if r.kprop.transfers == 0 || r.kprop.accepted == 0 {
                return Err("the propagation stream never ran — the soak is vacuous".to_string());
            }
            if r.kprop_injections() == 0 {
                return Err("no injections targeted the propagation stream".to_string());
            }
            if r.kprop_rejections.is_empty() {
                return Err("kprop injections were never refused with typed errors".to_string());
            }
        }
        Leak::UserKey => {
            if !has("tgt-session") || !has("svc-session") {
                return Err(format!(
                    "user-key leak must cascade to tgt-session and svc-session keys, got {:?}",
                    r.secrecy_violations
                ));
            }
            if has("service-key") || has("krbtgt-key") || has("master-key") {
                return Err(format!(
                    "user-key leak must not reach other long-term keys, got {:?}",
                    r.secrecy_violations
                ));
            }
            if r.auth_ok() {
                return Err("user-key leak never produced an accepted forgery".to_string());
            }
        }
        Leak::ServiceKey => {
            if !has("svc-session") {
                return Err(format!(
                    "service-key leak must expose captured session keys, got {:?}",
                    r.secrecy_violations
                ));
            }
            if has("user-key") || has("tgt-session") || has("krbtgt-key") || has("master-key") {
                return Err(format!(
                    "service-key leak must not reach the user's side, got {:?}",
                    r.secrecy_violations
                ));
            }
            if r.auth_ok() {
                return Err("service-key leak never produced an accepted forgery".to_string());
            }
        }
        Leak::MasterKey => {
            for need in ["user-key", "service-key", "krbtgt-key", "propchurn-key"] {
                if !has(need) {
                    return Err(format!(
                        "master-key leak must decrypt every key in the propagated dump \
                         (missing {need}), got {:?}",
                        r.secrecy_violations
                    ));
                }
            }
            if r.auth_ok() {
                return Err(
                    "master-key leak never produced an accepted forged transfer".to_string()
                );
            }
            if r.kprop_forges == 0 {
                return Err("master-key leak never forged a propagation transfer".to_string());
            }
        }
    }
    Ok(())
}

/// The CI smoke gate: run every leak mode at smoke scale under one seed,
/// check each against its expectations, and render a combined JSON
/// document. Deterministic: two calls with the same seed are
/// byte-identical.
pub fn smoke_json(seed: u64) -> Result<String, SoakFailure> {
    let runs = ALL_LEAKS.iter().map(|leak| {
        let cfg = AdvConfig::smoke(seed, *leak);
        let report = run(cfg)?;
        verify_expectations(&report).map_err(|why| cfg.fail("self-test", cfg.steps, why))?;
        Ok(report.render_json())
    });
    soak::smoke_document("krb-adversary", seed, "runs", runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_names_round_trip() {
        for l in ALL_LEAKS {
            assert_eq!(Leak::parse(l.as_str()), Some(l));
        }
        assert_eq!(Leak::parse("nope"), None);
    }

    #[test]
    fn honest_run_keeps_both_oracles_green() {
        let r = run(AdvConfig::smoke(ADV_SEED, Leak::None)).expect("oracles hold");
        verify_expectations(&r).expect("honest expectations");
        assert_eq!(r.closure_keys, 0, "closure learned a key from honest traffic");
        assert_eq!(r.accepted_forgeries, 0);
        assert!(!r.rejections.is_empty(), "injections were never refused with typed errors");
    }

    #[test]
    fn leaked_user_key_trips_exactly_the_matching_oracles() {
        let r = run(AdvConfig::smoke(ADV_SEED, Leak::UserKey)).expect("leak modes never abort");
        verify_expectations(&r).expect("user-key expectations");
        assert!(r.accepted_forgeries > 0);
    }

    #[test]
    fn leaked_service_key_trips_exactly_the_matching_oracles() {
        let r = run(AdvConfig::smoke(ADV_SEED, Leak::ServiceKey)).expect("leak modes never abort");
        verify_expectations(&r).expect("service-key expectations");
        assert!(r.accepted_forgeries > 0);
    }

    #[test]
    fn leaked_master_key_cascades_through_the_propagation_stream() {
        let r = run(AdvConfig::smoke(ADV_SEED, Leak::MasterKey)).expect("leak modes never abort");
        verify_expectations(&r).expect("master-key expectations");
        assert!(r.kprop_forges > 0, "{r:?}");
        assert!(r.accepted_forgeries > 0, "{r:?}");
    }

    #[test]
    fn honest_kprop_stream_refuses_every_injection() {
        let r = run(AdvConfig::smoke(ADV_SEED, Leak::None)).expect("oracles hold");
        assert!(r.kprop_injections() > 0, "{r:?}");
        assert!(!r.kprop_rejections.is_empty(), "{r:?}");
        // Sequencing and integrity refusals both appear: replays draw
        // `replayed_update`, splices/truncates draw damage slugs.
        assert!(r.kprop_rejections.contains_key("replayed_update"), "{:?}", r.kprop_rejections);
    }

    #[test]
    fn smoke_is_byte_identical_and_carries_every_key() {
        let a = smoke_json(ADV_SEED).expect("smoke passes");
        let b = smoke_json(ADV_SEED).expect("smoke passes");
        assert_eq!(a, b, "same seed must replay byte-identically");
        for key in ADVERSARY_JSON_KEYS {
            assert!(a.contains(&format!("\"{key}\"")), "missing JSON key {key}: {a}");
        }
    }
}
