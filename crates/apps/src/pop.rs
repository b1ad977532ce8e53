//! The Kerberized Post Office Protocol (paper §7.1).
//!
//! "We have modified the Post Office Protocol to use Kerberos for
//! authenticating users who wish to retrieve their electronic mail from
//! the 'post office'." Mail is delivered unauthenticated (as SMTP-era mail
//! was); *retrieval* requires a verified ticket, and you can only retrieve
//! your own mailbox.

use crate::netproto::payload_bound;
use crate::{AppError, AppMetrics};
use kerberos::{krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache};
use krb_crypto::{DesKey, Scheduled};
use krb_telemetry::{Registry, TraceCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// One stored message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mail {
    /// Envelope sender (unauthenticated, as in 1988 mail).
    pub from: String,
    /// Body text.
    pub body: String,
}

/// The post office server.
pub struct PopServer {
    service: Principal,
    /// The srvtab key's schedule, built once at startup — every retrieval
    /// verifies tickets under it without redoing the key schedule.
    sched: Scheduled,
    replay: ReplayCache,
    mailboxes: HashMap<String, Vec<Mail>>,
    metrics: AppMetrics,
}

impl PopServer {
    /// A post office authenticating as `service` (e.g. `pop.paris`).
    pub fn new(service: Principal, key: DesKey) -> Self {
        let replay = ReplayCache::new();
        let metrics = AppMetrics::new("pop");
        replay.publish(&metrics.registry(), "pop");
        PopServer {
            service,
            sched: Scheduled::new(&key),
            replay,
            mailboxes: HashMap::new(),
            metrics,
        }
    }

    /// The registry holding this server's `pop_requests_*` and replay-cache
    /// counters.
    pub fn telemetry(&self) -> Arc<Registry> {
        self.metrics.registry()
    }

    /// Publish this server's counters into `registry` instead of its
    /// private one (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.metrics.rebind(registry, &self.replay);
    }

    /// Deliver mail into a user's box (no authentication — delivery is the
    /// MTA's business, retrieval is POP's).
    pub fn deliver(&mut self, to: &str, mail: Mail) {
        self.mailboxes.entry(to.to_string()).or_default().push(mail);
    }

    /// Messages waiting for `user` (server-side view).
    pub fn pending(&self, user: &str) -> usize {
        self.mailboxes.get(user).map_or(0, Vec::len)
    }

    /// Retrieve and drain the authenticated user's mailbox. The mailbox
    /// name comes from the *verified* principal, never from a request
    /// parameter — that is the entire point of Kerberizing POP.
    pub fn retrieve(&mut self, ap: &ApReq, from: HostAddr, now: u32) -> Result<Vec<Mail>, AppError> {
        self.retrieve_bound(ap, from, now, None).map(|(mail, _)| mail)
    }

    /// As [`PopServer::retrieve`], but also hands back the session-key
    /// schedule (so the network adapter can seal the reply as a private
    /// message, §2.1, without rebuilding it) and, when `binding` is given,
    /// verifies that the authenticator's checksum binds `(op, payload)`
    /// under the session key. The binding check runs *before* the mailbox
    /// is drained: retrieval is destructive, and a request whose payload
    /// was rewritten in flight must leave the user's mail untouched.
    pub fn retrieve_bound(
        &mut self,
        ap: &ApReq,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
    ) -> Result<(Vec<Mail>, Scheduled), AppError> {
        self.retrieve_bound_ctx(ap, from, now, binding, None)
    }

    /// As [`PopServer::retrieve_bound`], with an optional trace context:
    /// the ticket-verification verdict is journaled at this hop.
    pub fn retrieve_bound_ctx(
        &mut self,
        ap: &ApReq,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(Vec<Mail>, Scheduled), AppError> {
        let r = self.retrieve_bound_inner(ap, from, now, binding, ctx);
        self.metrics.observe(&r);
        r
    }

    fn retrieve_bound_inner(
        &mut self,
        ap: &ApReq,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(Vec<Mail>, Scheduled), AppError> {
        let v = krb_rd_req(ap, &self.service, &self.sched, from, now, &self.replay, ctx)?;
        if let Some((op, payload)) = binding {
            if !payload_bound(v.cksum, &v.session_key, op, payload) {
                return Err(AppError::Krb(ErrorCode::RdApModified));
            }
        }
        let mail = self.mailboxes.remove(&v.client.name).unwrap_or_default();
        Ok((mail, v.session_sched))
    }
}
