//! A workstation: the user-facing side of Kerberos (paper §6.1).
//!
//! Binds the pure client routines of the applications library to a network
//! and a credential cache, giving the end-user programs their behaviour:
//! `kinit` (login / new TGT), transparent service-ticket acquisition,
//! `klist`, and `kdestroy`. Includes KDC failover: a workstation tries the
//! master and then each slave (§5.3: replication exists for "higher
//! availability").

use crate::ToolError;
use kerberos::{
    build_as_req, build_tgs_req_with, krb_mk_req, read_as_reply_with_password,
    read_tgs_reply_with, ApReq, Credential, CredentialCache, ErrorCode, HostAddr, Principal,
    DEFAULT_SERVICE_LIFE, DEFAULT_TGT_LIFE,
};
use krb_crypto::Scheduled;
use krb_kdc::Clock;
use krb_netsim::{Endpoint, Router};
use krb_telemetry::{ClockUs, Component, EventKind, Field, Journal, TraceCtx, TraceId};
use std::sync::Arc;

/// One workstation on the (simulated) network.
pub struct Workstation {
    /// Our network address — what ends up inside tickets.
    pub addr: HostAddr,
    /// Source endpoint for client traffic.
    pub endpoint: Endpoint,
    /// The local realm.
    pub realm: String,
    /// KDC endpoints in preference order (master first).
    pub kdc_endpoints: Vec<Endpoint>,
    /// The per-login ticket file.
    pub cache: CredentialCache,
    /// This host's clock (skewable for §4.3 experiments).
    pub clock: Clock,
    /// KDC endpoints of remote realms, for cross-realm exchanges (§7.2).
    remote_kdcs: Vec<(String, Endpoint)>,
    /// Last timestamp placed in an authenticator. Authenticators must be
    /// unique per (client, second) — a real clock ticks between requests;
    /// a simulated one may not, so we enforce monotonicity ourselves.
    last_auth_ts: u32,
    /// Journal + microsecond clock + trace seed, when tracing is enabled.
    tracing: Option<(Arc<Journal>, ClockUs, u64)>,
    /// `(shard, nshards)` when minted trace ids must land on one shard of
    /// a sharded KDC journal (see [`Workstation::enable_tracing_sharded`]).
    trace_align: Option<(u64, u64)>,
    /// Logins performed — the counter behind deterministic trace minting.
    logins: u64,
    /// The active login's trace id; every hop of this session carries it.
    current_trace: Option<TraceId>,
}

impl Workstation {
    /// Set up a workstation at `addr` in `realm`.
    pub fn new(addr: HostAddr, realm: &str, kdc_endpoints: Vec<Endpoint>, clock: Clock) -> Self {
        Workstation {
            addr,
            endpoint: Endpoint::new(addr, 1023),
            realm: realm.to_string(),
            kdc_endpoints,
            cache: CredentialCache::new(),
            clock,
            remote_kdcs: Vec::new(),
            last_auth_ts: 0,
            tracing: None,
            trace_align: None,
            logins: 0,
            current_trace: None,
        }
    }

    /// Enable per-login tracing: each `kinit` mints
    /// `TraceId::derive(seed, n)` for login number `n`, journals the
    /// workstation-side hops, and stamps the id onto every packet this
    /// workstation sends (simulator metadata — never the V4 wire bytes).
    pub fn enable_tracing(&mut self, journal: Arc<Journal>, clock_us: ClockUs, seed: u64) {
        self.tracing = Some((journal, clock_us, seed));
        self.trace_align = None;
    }

    /// Like [`Workstation::enable_tracing`], but every minted trace id is
    /// re-aligned so `trace % nshards == shard`. A KDC with a sharded
    /// journal sink routes events by exactly that remainder, so this
    /// workstation's KDC hops land in its own worker's journal — the
    /// per-shard rings stay a pure function of each worker's own
    /// execution even when many workers hammer one shared KDC.
    pub fn enable_tracing_sharded(
        &mut self,
        journal: Arc<Journal>,
        clock_us: ClockUs,
        seed: u64,
        shard: u64,
        nshards: u64,
    ) {
        self.tracing = Some((journal, clock_us, seed));
        self.trace_align = Some((shard, nshards.max(1)));
    }

    /// The active login's trace id, if tracing is enabled.
    pub fn current_trace(&self) -> Option<TraceId> {
        self.tracing.as_ref()?;
        self.current_trace
    }

    /// A context for journaling at this hop, if tracing is on and a login
    /// is active.
    fn trace_ctx(&self) -> Option<TraceCtx> {
        let (journal, clock, _) = self.tracing.as_ref()?;
        let trace = self.current_trace?;
        Some(TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace))
    }

    /// Start a new login trace (called by the `kinit` variants).
    fn begin_login_trace(&mut self, username: &str) -> Option<TraceCtx> {
        let (journal, clock, seed) = self.tracing.as_ref()?;
        let mut trace = TraceId::derive(*seed, self.logins);
        if let Some((shard, nshards)) = self.trace_align {
            trace = TraceId(align_trace(trace.0, shard, nshards));
        }
        self.logins += 1;
        self.current_trace = Some(trace);
        let ctx = TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace);
        ctx.record(
            Component::Ws,
            EventKind::LoginStart,
            vec![("user", Field::from(username))],
        );
        Some(ctx)
    }

    /// Journal the login verdict at the workstation.
    fn record_login_outcome<T>(ctx: Option<&TraceCtx>, result: &Result<T, ToolError>) {
        let Some(ctx) = ctx else { return };
        match result {
            Ok(_) => ctx.record(Component::Ws, EventKind::LoginOk, vec![]),
            Err(ToolError::Krb(code)) => ctx.record(
                Component::Ws,
                EventKind::LoginErr,
                vec![("err_kind", Field::from(code.kind())), ("code", Field::from(*code as u8))],
            ),
            Err(ToolError::Net(_)) => ctx.record(
                Component::Ws,
                EventKind::LoginErr,
                vec![("err_kind", Field::from("net"))],
            ),
        }
    }

    /// Current time as this workstation sees it.
    pub fn now(&self) -> u32 {
        (self.clock)()
    }

    /// A timestamp for an authenticator: the clock reading, bumped past
    /// the previous one if the clock has not ticked since.
    fn auth_ts(&mut self) -> u32 {
        let t = self.now().max(self.last_auth_ts + 1);
        self.last_auth_ts = t;
        t
    }

    /// Retries per KDC before falling over to the next (UDP clients
    /// retransmit; the V4 library tried each server several times).
    /// Public so availability tests can budget exactly how many timeouts
    /// a partitioned KDC costs before the slave answers.
    pub const RETRIES_PER_KDC: usize = 3;

    /// Try each KDC in order, with retransmissions, until one answers
    /// (availability, Fig. 10; loss tolerance on the open network).
    fn kdc_rpc(&self, router: &mut Router, request: &[u8]) -> Result<Vec<u8>, ToolError> {
        for &ep in &self.kdc_endpoints {
            for _attempt in 0..Self::RETRIES_PER_KDC {
                match router.rpc_traced(self.endpoint, ep, request, self.current_trace()) {
                    Ok(reply) => return Ok(reply),
                    Err(krb_netsim::NetError::Timeout) => continue,
                    Err(e) => return Err(ToolError::Net(e)),
                }
            }
        }
        Err(ToolError::Net(krb_netsim::NetError::Timeout))
    }

    /// `kinit` / login (§4.2, §6.1): obtain a TGT with the user's password.
    pub fn kinit(
        &mut self,
        router: &mut Router,
        username: &str,
        password: &str,
    ) -> Result<(), ToolError> {
        let ctx = self.begin_login_trace(username);
        let r = self.kinit_inner(router, username, password, ctx.as_ref());
        Self::record_login_outcome(ctx.as_ref(), &r);
        r
    }

    fn kinit_inner(
        &mut self,
        router: &mut Router,
        username: &str,
        password: &str,
        ctx: Option<&TraceCtx>,
    ) -> Result<(), ToolError> {
        let client = Principal::parse(username, &self.realm)?;
        let now = self.now();
        let tgs = Principal::tgs(&self.realm, &self.realm);
        let req = build_as_req(&client, &tgs, DEFAULT_TGT_LIFE, now);
        if let Some(ctx) = ctx {
            ctx.record(Component::Ws, EventKind::AsReq, vec![("client", Field::from(username))]);
        }
        let reply = self.kdc_rpc(router, &req)?;
        let tgt = read_as_reply_with_password(&reply, password, now)?;
        self.cache.initialize(client, tgt);
        Ok(())
    }

    /// Smartcard login (§8's proposed "better solution"): the AS reply is
    /// decrypted *on the card*, so neither the password nor the long-term
    /// key ever enters workstation memory — a trojaned log-in program can
    /// steal at most the bounded-lifetime TGT.
    pub fn kinit_with_card(
        &mut self,
        router: &mut Router,
        card: &mut crate::smartcard::Smartcard,
    ) -> Result<(), ToolError> {
        let owner = card.owner.clone();
        let ctx = self.begin_login_trace(&owner);
        let r = (|| {
            let client = Principal::parse(&owner, &self.realm)?;
            let now = self.now();
            let tgs = Principal::tgs(&self.realm, &self.realm);
            let req = build_as_req(&client, &tgs, DEFAULT_TGT_LIFE, now);
            if let Some(ctx) = &ctx {
                ctx.record(Component::Ws, EventKind::AsReq, vec![("client", Field::from(owner.as_str()))]);
            }
            let reply = self.kdc_rpc(router, &req)?;
            let tgt = card.process_as_reply(&reply, now)?;
            self.cache.initialize(client, tgt);
            Ok(())
        })();
        Self::record_login_outcome(ctx.as_ref(), &r);
        r
    }

    /// The logged-in user, if any.
    pub fn whoami(&self) -> Option<&Principal> {
        self.cache.owner.as_ref()
    }

    /// Get a ticket for `service`, consulting the cache first ("When a
    /// program requires a ticket that has not already been requested",
    /// §4.4) and the TGS otherwise. Handles cross-realm targets by first
    /// fetching a TGT for the remote realm (§7.2).
    pub fn get_service_ticket(
        &mut self,
        router: &mut Router,
        service: &Principal,
    ) -> Result<Credential, ToolError> {
        let now = self.now();
        if let Some(c) = self.cache.get(service, now) {
            return Ok(c.clone());
        }
        let client = self.cache.owner.clone().ok_or(ToolError::Krb(ErrorCode::IntkErr))?;

        // Which TGT do we need: local, or the remote realm's?
        let tgt = if service.realm == self.realm {
            self.cache.tgt(&self.realm, now).cloned()
        } else {
            match self.cache.tgt(&service.realm, now) {
                Some(t) => Some(t.clone()),
                None => {
                    // Ask the local TGS for a cross-realm TGT first. One
                    // schedule covers both the request and the reply.
                    let local_tgt = self
                        .cache
                        .tgt(&self.realm, now)
                        .cloned()
                        .ok_or(ToolError::Krb(ErrorCode::RdApExp))?;
                    let local_sched = Scheduled::new(&local_tgt.key());
                    let remote_tgs = Principal::tgs(&service.realm, &self.realm);
                    if let Some(ctx) = self.trace_ctx() {
                        ctx.record(
                            Component::Ws,
                            EventKind::TgsReq,
                            vec![("service", Field::from(remote_tgs.to_string()))],
                        );
                    }
                    let ts = self.auth_ts();
                    let req = build_tgs_req_with(
                        &local_tgt,
                        &local_sched,
                        &client,
                        self.addr,
                        ts,
                        &remote_tgs,
                        DEFAULT_TGT_LIFE,
                    );
                    let reply = self.kdc_rpc(router, &req)?;
                    let cred = read_tgs_reply_with(&reply, &local_sched, ts)?;
                    self.cache.store(cred.clone());
                    Some(cred)
                }
            }
        }
        .ok_or(ToolError::Krb(ErrorCode::RdApExp))?;

        // Ask the issuing realm's TGS (remote for cross-realm). If a
        // retransmitted request was answered with "replay" — meaning the
        // original arrived but its reply was lost — rebuild with a fresh
        // authenticator and try again. The TGT session-key schedule is
        // built once here and reused for every attempt's request + reply.
        let tgt_sched = Scheduled::new(&tgt.key());
        if let Some(ctx) = self.trace_ctx() {
            ctx.record(
                Component::Ws,
                EventKind::TgsReq,
                vec![("service", Field::from(service.to_string()))],
            );
        }
        let mut last = ErrorCode::IntkErr;
        for _ in 0..Self::RETRIES_PER_KDC {
            let ts = self.auth_ts();
            let req = build_tgs_req_with(
                &tgt,
                &tgt_sched,
                &client,
                self.addr,
                ts,
                service,
                DEFAULT_SERVICE_LIFE,
            );
            let reply = if service.realm == self.realm {
                self.kdc_rpc(router, &req)?
            } else {
                // The remote KDC endpoint must be routable; callers register
                // it under the remote realm name via `add_remote_kdc`.
                let ep = self
                    .remote_kdcs
                    .iter()
                    .find(|(r, _)| r == &service.realm)
                    .map(|(_, e)| *e)
                    .ok_or(ToolError::Krb(ErrorCode::KdcUnknownRealm))?;
                router
                    .rpc_traced(self.endpoint, ep, &req, self.current_trace())
                    .map_err(ToolError::Net)?
            };
            match read_tgs_reply_with(&reply, &tgt_sched, ts) {
                Ok(cred) => {
                    self.cache.store(cred.clone());
                    return Ok(cred);
                }
                Err(ErrorCode::RdApRepeat) => {
                    last = ErrorCode::RdApRepeat;
                    continue;
                }
                Err(e) => return Err(ToolError::Krb(e)),
            }
        }
        Err(ToolError::Krb(last))
    }

    /// Build an `AP_REQ` for `service`, fetching the ticket if needed —
    /// the workstation-side half of "Kerberizing" an application client.
    pub fn mk_request(
        &mut self,
        router: &mut Router,
        service: &Principal,
        cksum: u32,
        mutual: bool,
    ) -> Result<(ApReq, Credential), ToolError> {
        let cred = self.get_service_ticket(router, service)?;
        let client = self.cache.owner.clone().ok_or(ToolError::Krb(ErrorCode::IntkErr))?;
        let ts = self.auth_ts();
        let ap = krb_mk_req(
            &cred.ticket,
            &cred.issuing_realm,
            &cred.key(),
            &client,
            self.addr,
            ts,
            cksum,
            mutual,
        );
        if let Some(ctx) = self.trace_ctx() {
            ctx.record(
                Component::Ws,
                EventKind::ApSent,
                vec![("service", Field::from(service.to_string())), ("mutual", Field::from(u8::from(mutual)))],
            );
        }
        Ok((ap, cred))
    }

    /// `klist` (§6.1): one line per ticket, as the user would see.
    pub fn klist(&self) -> Vec<String> {
        let now = self.now();
        self.cache
            .list()
            .iter()
            .map(|c| {
                let state = if c.expired(now) { "EXPIRED" } else { "valid" };
                format!(
                    "{}  issued={} expires={} [{}]",
                    c.service, c.issued, c.expires(), state
                )
            })
            .collect()
    }

    /// `kdestroy` (§6.1): destroy all tickets (logout).
    pub fn kdestroy(&mut self) {
        self.cache.destroy();
    }

    /// Register the KDC endpoint of a remote realm for cross-realm use.
    pub fn add_remote_kdc(&mut self, realm: &str, ep: Endpoint) {
        self.remote_kdcs.push((realm.to_string(), ep));
    }
}

/// Re-align a trace id onto `shard` modulo `nshards`, preserving the id's
/// high bits (so aligned ids from different seeds stay distinct). This is
/// the workstation half of the sharded-journal contract: a KDC with a
/// sharded sink routes each event to `trace % nshards`.
pub fn align_trace(trace: u64, shard: u64, nshards: u64) -> u64 {
    if nshards <= 1 {
        return trace;
    }
    let base = trace - (trace % nshards);
    if base > u64::MAX - shard {
        base - nshards + shard
    } else {
        base + shard
    }
}

#[cfg(test)]
mod trace_align_tests {
    use super::align_trace;

    #[test]
    fn aligned_ids_land_on_their_shard() {
        for nshards in [1u64, 2, 3, 4, 7, 16] {
            for shard in 0..nshards {
                for trace in [0u64, 1, 5, 1 << 40, u64::MAX - 3, u64::MAX] {
                    let aligned = align_trace(trace, shard, nshards);
                    if nshards > 1 {
                        assert_eq!(aligned % nshards, shard, "trace={trace} nshards={nshards}");
                    } else {
                        assert_eq!(aligned, trace);
                    }
                }
            }
        }
    }

    #[test]
    fn alignment_preserves_distinctness_within_a_shard() {
        // Two traces that differ above the shard bits stay distinct.
        let a = align_trace(0x1234_5678_9abc_0000, 3, 4);
        let b = align_trace(0x1234_5678_9abd_0000, 3, 4);
        assert_ne!(a, b);
    }
}
