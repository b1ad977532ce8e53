//! The realm under test and the client side of every exchange.
//!
//! Everything here goes through the repository's public API: the realm is
//! built with `PrincipalDb` and stood up with `Deployment::install`, the
//! KDC is configured as deployed (shared registry, wall-clock spans,
//! journal attached), and each exchange is the sequence of library calls a
//! real client makes. A span is recorded around each call that crosses a
//! layer boundary; with tracing off a span is one branch.

use crate::span::Tracer;
use kerberos::{
    build_as_req, build_tgs_req_with, krb_mk_rep, krb_mk_req, krb_rd_rep, krb_rd_req_sched,
    read_as_reply_with_key, read_tgs_reply_with, Credential, ErrorCode, HostAddr, Principal,
    ReplayCache, DEFAULT_SERVICE_LIFE, DEFAULT_TGT_LIFE,
};
use krb_crypto::{string_to_key, DesKey, KeyGenerator, Scheduled};
use krb_kdb::{DbError, MemStore, PrincipalDb};
use krb_kdc::{Deployment, Kdc, RealmConfig};
use krb_netsim::{
    ports, udp_request, Endpoint, NetConfig, NetError, Packet, Router, Service, SimNet, UdpServer,
};
use krb_telemetry::{wall_clock_us, Journal, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The realm every workload runs in.
pub const REALM: &str = "BENCH.MIT.EDU";
/// Protocol time at set-up; the harness advances it one second per tick.
pub const START: u32 = 600_000_000;
/// Master KDC host; slaves take the following addresses.
pub const KDC_ADDR: HostAddr = [18, 72, 0, 10];
/// The workstation every simulated user sits at (in-process transport).
pub const WS_ADDR: HostAddr = [18, 72, 0, 77];
/// The address the KDC sees over the host loopback.
pub const LOOPBACK: HostAddr = [127, 0, 0, 1];
/// Application services registered in every realm.
pub const N_SERVICES: usize = 8;
/// Request/reply pairs kept for the stage probes.
pub const CAPTURE_CAP: usize = 10_000;

/// Principal name of user `i`.
pub fn user_name(i: u32) -> String {
    format!("u{i:05}")
}

/// Password of user `i` after `version` changes; the seed reaches the
/// program only through generated inputs like this one.
pub fn password(seed: u64, i: u32, version: u32) -> String {
    format!("pw{seed:x}.{i}.{version}")
}

/// Why an exchange did not produce its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// A protocol error, from the KDC's reply or from local verification.
    Krb(ErrorCode),
    /// The transport gave up.
    Net(NetError),
    /// The exchange completed but its result is not what was asked for.
    Wrong(&'static str),
}

impl From<ErrorCode> for Refusal {
    fn from(e: ErrorCode) -> Self {
        Refusal::Krb(e)
    }
}

impl From<NetError> for Refusal {
    fn from(e: NetError) -> Self {
        Refusal::Net(e)
    }
}

/// Result of an exchange.
pub type Outcome<T> = Result<T, Refusal>;

/// One request the KDC served while tracing, with what it answered.
pub struct Captured {
    /// Request datagram.
    pub request: Vec<u8>,
    /// Reply datagram.
    pub reply: Vec<u8>,
    /// Source address the KDC saw.
    pub sender: HostAddr,
    /// Protocol time when it was served.
    pub now: u32,
}

/// Shared buffer of captured pairs.
pub type Captures = Arc<Mutex<Vec<Captured>>>;

/// The benchmark's own `Service` wrapper around a KDC: a span around
/// `Kdc::handle_traced` — the direct-call price of an exchange — and,
/// while tracing, a copy of each request/reply pair for the stage probes.
struct TracedKdc {
    kdc: Arc<Kdc<MemStore>>,
    clock: Arc<AtomicU32>,
    tracer: Tracer,
    captures: Captures,
}

impl Service for TracedKdc {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        // Byte 1 is the message type (1 = AS_REQ, 3 = TGS_REQ).
        let name = match req.payload.get(1) {
            Some(1) => "kdc.handle_as",
            Some(3) => "kdc.handle_tgs",
            _ => "kdc.handle_other",
        };
        let sender = req.src.addr.0;
        let reply = self.tracer.span(name, || {
            self.kdc.handle_traced(&req.payload, sender, req.trace)
        });
        if self.tracer.enabled() {
            let mut captures = self.captures.lock().unwrap_or_else(|p| p.into_inner());
            if captures.len() < CAPTURE_CAP {
                captures.push(Captured {
                    request: req.payload.clone(),
                    reply: reply.clone(),
                    sender,
                    now: self.clock.load(Ordering::SeqCst),
                });
            }
        }
        Some(reply)
    }
}

/// An application server as the harness plays it: its principal, its
/// srvtab key schedule and its own replay cache.
pub struct AppServer {
    /// `svcK.hostK@REALM`.
    pub principal: Principal,
    /// Schedule of the srvtab key, built once per process as a long-lived
    /// server does.
    pub sched: Scheduled,
    /// The server's replay cache (§4.3).
    pub replay: ReplayCache,
}

/// A logged-in user: the TGT and the schedule of its session key.
pub struct Session {
    /// The user.
    pub client: Principal,
    /// The ticket-granting ticket.
    pub tgt: Credential,
    /// Schedule of the TGT's session key, built once at login.
    pub tgt_sched: Scheduled,
}

impl Session {
    /// Build the session-key schedule for a fresh TGT — the first thing a
    /// client does before it can seal an authenticator.
    pub fn new(tracer: &Tracer, client: Principal, tgt: Credential) -> Session {
        let tgt_sched = tracer.span("crypto.client_sched", || Scheduled::new(&tgt.key()));
        Session {
            client,
            tgt,
            tgt_sched,
        }
    }
}

/// How KDC traffic travels.
pub enum Wire {
    /// `Router::rpc` on a default `SimNet`.
    Sim,
    /// `udp_request` to a `UdpServer` on the host loopback.
    Udp(UdpServer),
}

/// What a workload needs of a realm.
#[derive(Clone, Copy, Debug)]
pub struct RealmSpec {
    /// User principals in the database.
    pub principals: usize,
    /// Slave KDCs (installed from a master dump, as `kprop` would).
    pub slaves: usize,
    /// Serve the master over loopback UDP instead of the simulated net.
    pub udp: bool,
}

/// A realm stood up for one run.
pub struct Realm {
    /// The simulated network with the KDCs (and kpropd) bound to it.
    pub router: Router,
    /// Master and slaves.
    pub dep: Deployment,
    /// The registry every KDC reports into.
    pub registry: Arc<Registry>,
    /// The journal every KDC records into.
    pub journal: Arc<Journal>,
    /// The application servers.
    pub services: Vec<AppServer>,
    /// The ticket-granting service principal.
    pub tgs: Principal,
    /// The workload seed (passwords derive from it).
    pub seed: u64,
    /// Protocol time, mirrored into the deployment's clock cell.
    pub now: u32,
    /// Source address of every client request.
    pub client_addr: HostAddr,
    /// Transport of KDC traffic.
    pub wire: Wire,
    /// Span sink shared with the service wrappers.
    pub tracer: Tracer,
    /// Request/reply pairs captured while tracing.
    pub captures: Captures,
    /// Requests the transport gave up on.
    pub timeouts: u64,
}

fn far_future() -> u32 {
    START + 5 * 365 * 24 * 3600
}

/// The application servers' principals with their keys.
type Srvtabs = Vec<(Principal, DesKey)>;

/// Build the principal database: `krbtgt`, the application services
/// (random keys, returned as the servers' srvtabs) and `principals` users
/// whose keys derive from their seeded passwords.
pub fn build_db(seed: u64, principals: usize) -> Result<(PrincipalDb<MemStore>, Srvtabs), DbError> {
    let master_key = string_to_key(&format!("master-{seed:x}"));
    let mut db = PrincipalDb::create(MemStore::new(), master_key, START)?;
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(seed ^ 0x5EED));
    let tgs_key = keygen.generate();
    db.add_principal(
        "krbtgt",
        REALM,
        &tgs_key,
        far_future(),
        DEFAULT_TGT_LIFE,
        START,
        "kdb_init.",
    )?;
    let mut srvtabs = Vec::with_capacity(N_SERVICES);
    for k in 0..N_SERVICES {
        let (name, instance) = (format!("svc{k}"), format!("host{k}"));
        let key = keygen.generate();
        db.add_principal(
            &name,
            &instance,
            &key,
            far_future(),
            DEFAULT_SERVICE_LIFE,
            START,
            "kadmin.",
        )?;
        let principal = Principal::new(&name, &instance, REALM)
            .map_err(|_| DbError::BadName(format!("{name}.{instance}")))?;
        srvtabs.push((principal, key));
    }
    let users: Vec<(String, String, DesKey)> = (0..principals as u32)
        .map(|i| {
            (
                user_name(i),
                String::new(),
                string_to_key(&password(seed, i, 0)),
            )
        })
        .collect();
    db.bulk_register(&users, far_future(), DEFAULT_TGT_LIFE, START, "kadmin.")?;
    Ok((db, srvtabs))
}

impl Realm {
    /// Stand the realm up, configured as deployed. With a recording
    /// `tracer`, the KDC endpoints are served through [`TracedKdc`].
    pub fn build(seed: u64, spec: RealmSpec, tracer: Tracer) -> Result<Realm, String> {
        let (db, srvtabs) = build_db(seed, spec.principals).map_err(|e| e.to_string())?;
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let dep = Deployment::install(
            &mut router,
            REALM,
            db,
            RealmConfig::new(REALM),
            KDC_ADDR,
            spec.slaves,
            START,
        )
        .map_err(|e| e.to_string())?;
        let registry = Registry::shared();
        let journal = Journal::shared();
        dep.set_telemetry_all(Arc::clone(&registry), wall_clock_us());
        dep.set_journal_all(Arc::clone(&journal));

        let captures: Captures = Arc::new(Mutex::new(Vec::new()));
        let traced = |kdc: &Arc<Kdc<MemStore>>| TracedKdc {
            kdc: Arc::clone(kdc),
            clock: Arc::clone(&dep.clock_cell),
            tracer: tracer.clone(),
            captures: Arc::clone(&captures),
        };
        let tracing = tracer.attached();
        if tracing {
            router.serve(Endpoint::new(KDC_ADDR, ports::KDC), traced(&dep.master));
            for (addr, slave) in &dep.slaves {
                router.serve(Endpoint::new(*addr, ports::KDC), traced(slave));
            }
        }
        let wire = if spec.udp {
            let server = if tracing {
                UdpServer::spawn("127.0.0.1:0", traced(&dep.master))
            } else {
                UdpServer::spawn("127.0.0.1:0", krb_kdc::KdcService(Arc::clone(&dep.master)))
            };
            Wire::Udp(server.map_err(|e| e.to_string())?)
        } else {
            Wire::Sim
        };
        let services = srvtabs
            .into_iter()
            .map(|(principal, key)| AppServer {
                principal,
                sched: Scheduled::new(&key),
                replay: ReplayCache::new(),
            })
            .collect();
        Ok(Realm {
            router,
            dep,
            registry,
            journal,
            services,
            tgs: Principal::tgs(REALM, REALM),
            seed,
            now: START,
            client_addr: if spec.udp { LOOPBACK } else { WS_ADDR },
            wire,
            tracer,
            captures,
            timeouts: 0,
        })
    }

    /// Advance the protocol clock one second.
    pub fn tick(&mut self) {
        self.now += 1;
        self.dep.set_time(self.now);
    }

    /// The master KDC's endpoint.
    pub fn master_ep(&self) -> Endpoint {
        Endpoint::new(KDC_ADDR, ports::KDC)
    }

    /// The principal of user `i`.
    pub fn user(&self, i: u32) -> Principal {
        Principal {
            name: user_name(i),
            instance: String::new(),
            realm: REALM.to_string(),
        }
    }

    /// One request/reply with a KDC, over whichever wire the realm uses.
    pub fn kdc_rpc(&mut self, kdc: Endpoint, payload: &[u8]) -> Outcome<Vec<u8>> {
        let src = Endpoint::new(self.client_addr, 1023);
        let reply = match &self.wire {
            Wire::Sim => self
                .tracer
                .span("netsim.rpc", || self.router.rpc(src, kdc, payload)),
            Wire::Udp(server) => self.tracer.span("netsim.udp_rtt", || {
                udp_request(server.local_addr, payload, Duration::from_millis(500), 0)
            }),
        };
        if reply == Err(NetError::Timeout) {
            self.timeouts += 1;
        }
        Ok(reply?)
    }

    /// The AS exchange as the client sees it (Fig. 5): build the request,
    /// one round trip, turn the password into a key, open the reply. The
    /// reply must decrypt under the user's key and echo the request time.
    pub fn as_exchange(
        &mut self,
        kdc: Endpoint,
        client: &Principal,
        password: &str,
        service: &Principal,
        life: u8,
    ) -> Outcome<Credential> {
        let now = self.now;
        let request = self.tracer.span("core.build_as_req", || {
            build_as_req(client, service, life, now)
        });
        let reply = self.kdc_rpc(kdc, &request)?;
        let key = self
            .tracer
            .span("crypto.string_to_key", || string_to_key(password));
        let cred = self.tracer.span("core.read_as_reply", || {
            read_as_reply_with_key(&reply, &key, now)
        })?;
        if !cred.service.same_local(service) {
            return Err(Refusal::Wrong("AS reply names another service"));
        }
        Ok(cred)
    }

    /// Log a user in: the AS exchange for the TGS, then the schedule of the
    /// TGT's session key.
    pub fn login(&mut self, kdc: Endpoint, client: Principal, password: &str) -> Outcome<Session> {
        let tgs = self.tgs.clone();
        let tgt = self.as_exchange(kdc, &client, password, &tgs, DEFAULT_TGT_LIFE)?;
        Ok(Session::new(&self.tracer, client, tgt))
    }

    /// The TGS exchange (Fig. 8). Returns the credential — which must be
    /// for the requested service — and the request datagram, so a caller
    /// can replay it verbatim.
    pub fn tgs_exchange(
        &mut self,
        kdc: Endpoint,
        session: &Session,
        service: usize,
    ) -> Outcome<(Credential, Vec<u8>)> {
        let (now, addr) = (self.now, self.client_addr);
        let target = &self.services[service].principal;
        let request = self.tracer.span("core.build_tgs_req", || {
            build_tgs_req_with(
                &session.tgt,
                &session.tgt_sched,
                &session.client,
                addr,
                now,
                target,
                DEFAULT_SERVICE_LIFE,
            )
        });
        let reply = self.kdc_rpc(kdc, &request)?;
        let cred = self.tracer.span("core.read_tgs_reply", || {
            read_tgs_reply_with(&reply, &session.tgt_sched, now)
        })?;
        if cred.service != self.services[service].principal {
            return Err(Refusal::Wrong("TGS reply names another service"));
        }
        Ok((cred, request))
    }

    /// Send a datagram the KDC has already served and read the answer as
    /// the TGS reply it pretends to be.
    pub fn replay_tgs(
        &mut self,
        kdc: Endpoint,
        session: &Session,
        request: &[u8],
    ) -> Outcome<Credential> {
        let reply = self.kdc_rpc(kdc, request)?;
        Ok(read_tgs_reply_with(&reply, &session.tgt_sched, self.now)?)
    }

    /// The AP exchange with mutual authentication (Fig. 6 and 7), played
    /// in-process: the client builds the request, the server verifies it
    /// against its own replay cache and answers, the client checks the
    /// answer. The server must have authenticated exactly `client`.
    pub fn ap_exchange(
        &mut self,
        client: &Principal,
        cred: &Credential,
        service: usize,
    ) -> Outcome<()> {
        let (now, addr) = (self.now, self.client_addr);
        let key = cred.key();
        let request = self.tracer.span("core.mk_req", || {
            krb_mk_req(
                &cred.ticket,
                &cred.issuing_realm,
                &key,
                client,
                addr,
                now,
                0,
                true,
            )
        });
        let server = &mut self.services[service];
        let verified = self.tracer.span("core.rd_req", || {
            krb_rd_req_sched(
                &request,
                &server.principal,
                &server.sched,
                addr,
                now,
                &mut server.replay,
            )
        })?;
        if verified.client != *client || !verified.mutual_requested {
            return Err(Refusal::Wrong("server authenticated another client"));
        }
        let reply = self.tracer.span("core.mk_rep", || krb_mk_rep(&verified));
        self.tracer
            .span("core.rd_rep", || krb_rd_rep(&reply, &key, now))?;
        Ok(())
    }
}
