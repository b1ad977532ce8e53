//! Kerberized `rlogin`/`rsh` (paper §7.1).
//!
//! "The rlogin and rsh commands first try to authenticate using Kerberos.
//! A user with valid Kerberos tickets can rlogin to another Athena machine
//! without having to set up .rhosts files. If the Kerberos authentication
//! fails, the programs fall back on their usual methods of authorization,
//! in this case, the .rhosts files."

use crate::netproto::payload_bound;
use crate::{AppError, AppMetrics};
use kerberos::{krb_mk_rep, krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache};
use krb_crypto::{DesKey, Scheduled};
use krb_telemetry::{Registry, TraceCtx};
use std::collections::HashSet;
use std::sync::Arc;

/// How a connection was authorized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthMethod {
    /// Kerberos ticket verified.
    Kerberos,
    /// Fell back to the `.rhosts` file.
    Rhosts,
}

/// An accepted remote session.
#[derive(Clone, Debug)]
pub struct RemoteSession {
    /// The authorized username on the server.
    pub user: String,
    /// How it was authorized.
    pub method: AuthMethod,
    /// Mutual-authentication reply to send back, if requested.
    pub ap_rep: Option<kerberos::ApRep>,
}

/// The server side of `rlogin`/`rsh` on one host.
pub struct RloginServer {
    service: Principal,
    /// The srvtab key's schedule, built once at startup.
    sched: Scheduled,
    replay: ReplayCache,
    /// `.rhosts` entries: (username, trusted client host).
    rhosts: HashSet<(String, HostAddr)>,
    /// Connection log: (user, method).
    pub connections: Vec<(String, AuthMethod)>,
    metrics: AppMetrics,
}

impl RloginServer {
    /// A server for `rcmd.<host>` with its srvtab key.
    pub fn new(service: Principal, key: DesKey) -> Self {
        let replay = ReplayCache::new();
        let metrics = AppMetrics::new("rlogin");
        replay.publish(&metrics.registry(), "rlogin");
        RloginServer {
            service,
            sched: Scheduled::new(&key),
            replay,
            rhosts: HashSet::new(),
            connections: Vec::new(),
            metrics,
        }
    }

    /// The registry holding this server's `rlogin_requests_*` and
    /// replay-cache counters.
    pub fn telemetry(&self) -> Arc<Registry> {
        self.metrics.registry()
    }

    /// Publish this server's counters into `registry` instead of its
    /// private one (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.metrics.rebind(registry, &self.replay);
    }

    /// Add a `.rhosts` entry (the old, address-trusting world).
    pub fn add_rhosts(&mut self, user: &str, host: HostAddr) {
        self.rhosts.insert((user.to_string(), host));
    }

    /// Handle a connection attempt. `ap` is the Kerberos credential if the
    /// client had one; `claimed_user` is the username asserted (all the
    /// old protocol ever had).
    pub fn connect(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
    ) -> Result<RemoteSession, AppError> {
        self.connect_bound(ap, claimed_user, from, now, None)
    }

    /// As [`RloginServer::connect`], but additionally requires the
    /// verified authenticator's checksum to bind `(op, payload)` under the
    /// session key. The binding is checked *between* ticket verification
    /// and the connection-log side effect: a tampered request is rejected
    /// before it leaves any trace, and it does not fall back to `.rhosts`
    /// (that would let an attacker downgrade a Kerberos login by
    /// corrupting the payload).
    pub fn connect_bound(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
    ) -> Result<RemoteSession, AppError> {
        self.connect_bound_ctx(ap, claimed_user, from, now, binding, None)
    }

    /// As [`RloginServer::connect_bound`], with an optional trace context:
    /// the ticket-verification verdict is journaled at this hop (including
    /// the failure that triggers the `.rhosts` fallback).
    pub fn connect_bound_ctx(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<RemoteSession, AppError> {
        let r = self.connect_bound_inner(ap, claimed_user, from, now, binding, ctx);
        self.metrics.observe(&r);
        r
    }

    fn connect_bound_inner(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<RemoteSession, AppError> {
        // First, try Kerberos.
        if let Some(ap) = ap {
            match krb_rd_req(ap, &self.service, &self.sched, from, now, &self.replay, ctx) {
                Ok(v) => {
                    if let Some((op, payload)) = binding {
                        if !payload_bound(v.cksum, &v.session_key, op, payload) {
                            return Err(AppError::Krb(ErrorCode::RdApModified));
                        }
                    }
                    let user = v.client.name.clone();
                    let ap_rep = v.mutual_requested.then(|| krb_mk_rep(&v));
                    self.connections.push((user.clone(), AuthMethod::Kerberos));
                    return Ok(RemoteSession {
                        user,
                        method: AuthMethod::Kerberos,
                        ap_rep,
                    });
                }
                Err(_) => {
                    // Fall through to .rhosts, as the paper specifies.
                }
            }
        }
        if self.rhosts.contains(&(claimed_user.to_string(), from)) {
            self.connections.push((claimed_user.to_string(), AuthMethod::Rhosts));
            return Ok(RemoteSession {
                user: claimed_user.to_string(),
                method: AuthMethod::Rhosts,
                ap_rep: None,
            });
        }
        Err(AppError::Denied(format!("rlogin denied for {claimed_user}")))
    }

    /// `rsh`: authorize, then run a command under the authorized identity.
    pub fn rsh(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        command: &str,
    ) -> Result<String, AppError> {
        self.rsh_session(ap, claimed_user, from, now, command)
            .map(|(_, output)| output)
    }

    /// As [`RloginServer::rsh`], but also hands the session back to the
    /// transport adapter.
    pub fn rsh_session(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        command: &str,
    ) -> Result<(RemoteSession, String), AppError> {
        self.rsh_session_bound(ap, claimed_user, from, now, command, None)
    }

    /// As [`RloginServer::rsh_session`], with the payload binding of
    /// [`RloginServer::connect_bound`]: the bound checksum is verified
    /// before the command "runs" or the connection is logged.
    pub fn rsh_session_bound(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        command: &str,
        binding: Option<(&str, &[u8])>,
    ) -> Result<(RemoteSession, String), AppError> {
        self.rsh_session_bound_ctx(ap, claimed_user, from, now, command, binding, None)
    }

    /// As [`RloginServer::rsh_session_bound`], with an optional trace
    /// context for journaling the verification verdict.
    #[allow(clippy::too_many_arguments)]
    pub fn rsh_session_bound_ctx(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        command: &str,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(RemoteSession, String), AppError> {
        let session = self.connect_bound_ctx(ap, claimed_user, from, now, binding, ctx)?;
        // The "shell": echo identity and command, as a real test harness.
        let output = format!("{}@{}: {}", session.user, self.service.instance, command);
        Ok((session, output))
    }
}
