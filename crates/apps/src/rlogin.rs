//! Kerberized `rlogin`/`rsh` (paper §7.1).
//!
//! "The rlogin and rsh commands first try to authenticate using Kerberos.
//! A user with valid Kerberos tickets can rlogin to another Athena machine
//! without having to set up .rhosts files. If the Kerberos authentication
//! fails, the programs fall back on their usual methods of authorization,
//! in this case, the .rhosts files."

use crate::{AppError, AppService, Refused, ServerCore};
use kerberos::{krb_mk_rep, ApReq, HostAddr, Principal};
use krb_crypto::DesKey;
use krb_netsim::Packet;
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
    core: ServerCore,
    /// `.rhosts` entries: (username, trusted client host).
    rhosts: HashSet<(String, HostAddr)>,
    /// Connection log: (user, method).
    pub connections: Vec<(String, AuthMethod)>,
}

impl RloginServer {
    /// A server for `rcmd.<host>` with its srvtab key.
    pub fn new(service: Principal, key: DesKey) -> Self {
        RloginServer {
            core: ServerCore::new("rlogin", service, key),
            rhosts: HashSet::new(),
            connections: Vec::new(),
        }
    }

    /// Publish this server's `rlogin_requests_*` and replay-cache counters
    /// into `registry` (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.core.set_telemetry(&registry);
    }

    /// Add a `.rhosts` entry (the old, address-trusting world).
    pub fn add_rhosts(&mut self, user: &str, host: HostAddr) {
        self.rhosts.insert((user.to_string(), host));
    }

    /// Handle a connection attempt. `ap` is the Kerberos credential if the
    /// client had one; `claimed_user` is the username asserted (all the
    /// old protocol ever had). With `binding`, the verified authenticator's
    /// checksum must also bind `(op, payload)` under the session key; with
    /// `ctx`, the ticket-verification verdict is journaled at this hop
    /// (including the failure that triggers the `.rhosts` fallback).
    pub fn connect(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<RemoteSession, AppError> {
        let r = match ap.map(|ap| self.core.verify(ap, from, now, binding, ctx)) {
            Some(Ok(v)) => {
                let ap_rep = v.mutual_requested.then(|| krb_mk_rep(&v));
                Ok(RemoteSession { user: v.client.name, method: AuthMethod::Kerberos, ap_rep })
            }
            // A rewritten payload is refused, not retried under `.rhosts`:
            // that would let an attacker downgrade a Kerberos login by
            // corrupting the payload.
            Some(Err(Refused::Rebound)) => Err(Refused::Rebound.into()),
            // No ticket, or a refused one: fall back to `.rhosts`, as the
            // paper specifies.
            _ if self.rhosts.contains(&(claimed_user.to_string(), from)) => Ok(RemoteSession {
                user: claimed_user.to_string(),
                method: AuthMethod::Rhosts,
                ap_rep: None,
            }),
            _ => Err(AppError::Denied(format!("rlogin denied for {claimed_user}"))),
        };
        if let Ok(session) = &r {
            self.connections.push((session.user.clone(), session.method));
        }
        self.core.count(r)
    }

    /// `rsh`: authorize as [`RloginServer::connect`] does, then run a
    /// command under the authorized identity.
    #[allow(clippy::too_many_arguments)]
    pub fn rsh(
        &mut self,
        ap: Option<&ApReq>,
        claimed_user: &str,
        from: HostAddr,
        now: u32,
        command: &str,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(RemoteSession, String), AppError> {
        let session = self.connect(ap, claimed_user, from, now, binding, ctx)?;
        // The "shell": echo identity and command, as a real test harness.
        let output = format!("{}@{}: {}", session.user, self.core.service.instance, command);
        Ok((session, output))
    }
}

/// Ops: `login` (payload: claimed username; the reply carries the
/// mutual-authentication reply, if asked for) and `rsh` (payload:
/// `user\0command`).
impl AppService for RloginServer {
    fn serve(
        &mut self,
        req: &Packet,
        ap: &ApReq,
        op: &str,
        payload: &[u8],
        now: u32,
        ctx: Option<&TraceCtx>,
    ) -> Option<Result<Vec<u8>, AppError>> {
        let (from, binding) = (req.src.addr.0, Some((op, payload)));
        let text = String::from_utf8_lossy(payload);
        match op {
            "login" => Some(
                self.connect(Some(ap), &text, from, now, binding, ctx)
                    .map(|s| s.ap_rep.map(|r| r.enc_part).unwrap_or_default()),
            ),
            "rsh" => {
                let (user, command) = text.split_once('\0')?;
                Some(
                    self.rsh(Some(ap), user, from, now, command, binding, ctx)
                        .map(|(_, output)| output.into_bytes()),
                )
            }
            _ => None,
        }
    }
}
