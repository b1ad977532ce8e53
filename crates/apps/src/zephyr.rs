//! The Zephyr notification service (paper §7.1).
//!
//! "A message delivery program, called Zephyr, has been recently developed
//! at Athena, and it uses Kerberos for authentication as well." Notices
//! carry an authenticated sender: subscribers can trust the `from` field
//! because the server verified a ticket before accepting the notice.

use crate::netproto::payload_bound;
use crate::{AppError, AppMetrics};
use kerberos::{krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache};
use krb_crypto::{DesKey, Scheduled};
use krb_telemetry::{Registry, TraceCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// A delivered notice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Notice {
    /// Authenticated sender (`name@realm`).
    pub from: String,
    /// Recipient username.
    pub to: String,
    /// Notice class (e.g. "MESSAGE").
    pub class: String,
    /// Body.
    pub body: String,
}

/// The Zephyr server (`zhm`/`zserver` collapsed into one).
pub struct ZephyrServer {
    service: Principal,
    /// The srvtab key's schedule, built once at startup.
    sched: Scheduled,
    replay: ReplayCache,
    /// Subscriptions: username → queue of undelivered notices.
    queues: HashMap<String, Vec<Notice>>,
    metrics: AppMetrics,
}

impl ZephyrServer {
    /// A Zephyr server authenticating as `service` (e.g. `zephyr.zion`).
    pub fn new(service: Principal, key: DesKey) -> Self {
        let replay = ReplayCache::new();
        let metrics = AppMetrics::new("zephyr");
        replay.publish(&metrics.registry(), "zephyr");
        ZephyrServer { service, sched: Scheduled::new(&key), replay, queues: HashMap::new(), metrics }
    }

    /// The registry holding this server's `zephyr_requests_*` and
    /// replay-cache counters.
    pub fn telemetry(&self) -> Arc<Registry> {
        self.metrics.registry()
    }

    /// Publish this server's counters into `registry` instead of its
    /// private one (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.metrics.rebind(registry, &self.replay);
    }

    /// Subscribe a user (creates their queue).
    pub fn subscribe(&mut self, user: &str) {
        self.queues.entry(user.to_string()).or_default();
    }

    /// Send a notice. The sender's identity is taken from the verified
    /// ticket, not from the notice — a forged `from` is impossible.
    pub fn send(
        &mut self,
        ap: &ApReq,
        sender_addr: HostAddr,
        now: u32,
        to: &str,
        class: &str,
        body: &str,
    ) -> Result<(), AppError> {
        self.send_bound(ap, sender_addr, now, to, class, body, None)
    }

    /// As [`ZephyrServer::send`], but additionally requires the verified
    /// authenticator's checksum to bind `(op, payload)` under the session
    /// key — checked before the notice is queued, so a notice rewritten in
    /// flight is never delivered under the authenticated sender's name.
    #[allow(clippy::too_many_arguments)]
    pub fn send_bound(
        &mut self,
        ap: &ApReq,
        sender_addr: HostAddr,
        now: u32,
        to: &str,
        class: &str,
        body: &str,
        binding: Option<(&str, &[u8])>,
    ) -> Result<(), AppError> {
        self.send_bound_ctx(ap, sender_addr, now, to, class, body, binding, None)
    }

    /// As [`ZephyrServer::send_bound`], with an optional trace context: the
    /// ticket-verification verdict is journaled at this hop.
    #[allow(clippy::too_many_arguments)]
    pub fn send_bound_ctx(
        &mut self,
        ap: &ApReq,
        sender_addr: HostAddr,
        now: u32,
        to: &str,
        class: &str,
        body: &str,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(), AppError> {
        let r = self.send_bound_inner(ap, sender_addr, now, to, class, body, binding, ctx);
        self.metrics.observe(&r);
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn send_bound_inner(
        &mut self,
        ap: &ApReq,
        sender_addr: HostAddr,
        now: u32,
        to: &str,
        class: &str,
        body: &str,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(), AppError> {
        let v =
            krb_rd_req(ap, &self.service, &self.sched, sender_addr, now, &self.replay, ctx)?;
        if let Some((op, payload)) = binding {
            if !payload_bound(v.cksum, &v.session_key, op, payload) {
                return Err(AppError::Krb(ErrorCode::RdApModified));
            }
        }
        let queue = self
            .queues
            .get_mut(to)
            .ok_or_else(|| AppError::Denied(format!("no subscription for {to}")))?;
        queue.push(Notice {
            from: format!("{}@{}", v.client.name, v.client.realm),
            to: to.to_string(),
            class: class.to_string(),
            body: body.to_string(),
        });
        Ok(())
    }

    /// Drain a user's pending notices (the windowgram client polling).
    pub fn receive(&mut self, user: &str) -> Vec<Notice> {
        self.queues.get_mut(user).map(std::mem::take).unwrap_or_default()
    }
}
