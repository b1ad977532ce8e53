//! The Zephyr notification service (paper §7.1).
//!
//! "A message delivery program, called Zephyr, has been recently developed
//! at Athena, and it uses Kerberos for authentication as well." Notices
//! carry an authenticated sender: subscribers can trust the `from` field
//! because the server verified a ticket before accepting the notice.

use crate::{AppError, AppService, ServerCore};
use kerberos::{ApReq, HostAddr, Principal};
use krb_crypto::DesKey;
use krb_netsim::Packet;
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
    core: ServerCore,
    /// Subscriptions: username → queue of undelivered notices.
    queues: HashMap<String, Vec<Notice>>,
}

impl ZephyrServer {
    /// A Zephyr server authenticating as `service` (e.g. `zephyr.zion`).
    pub fn new(service: Principal, key: DesKey) -> Self {
        ZephyrServer { core: ServerCore::new("zephyr", service, key), queues: HashMap::new() }
    }

    /// Publish this server's `zephyr_requests_*` and replay-cache counters
    /// into `registry` (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.core.set_telemetry(&registry);
    }

    /// Subscribe a user (creates their queue).
    pub fn subscribe(&mut self, user: &str) {
        self.queues.entry(user.to_string()).or_default();
    }

    /// Send a notice. The sender's identity is taken from the verified
    /// ticket, not from the notice — a forged `from` is impossible. With
    /// `binding`, the payload binding is checked before the notice is
    /// queued, so a notice rewritten in flight is never delivered under
    /// the authenticated sender's name.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
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
        let r = self.core.verify(ap, sender_addr, now, binding, ctx).map_err(AppError::from);
        let r = r.and_then(|v| {
            let queue = self.queues.get_mut(to);
            let queue = queue.ok_or_else(|| AppError::Denied(format!("no subscription for {to}")))?;
            queue.push(Notice {
                from: format!("{}@{}", v.client.name, v.client.realm),
                to: to.to_string(),
                class: class.to_string(),
                body: body.to_string(),
            });
            Ok(())
        });
        self.core.count(r)
    }

    /// Drain a user's pending notices (the windowgram client polling).
    pub fn receive(&mut self, user: &str) -> Vec<Notice> {
        self.queues.get_mut(user).map(std::mem::take).unwrap_or_default()
    }
}

/// Op `send`: payload `to\0class\0body`.
impl AppService for ZephyrServer {
    fn serve(
        &mut self,
        req: &Packet,
        ap: &ApReq,
        op: &str,
        payload: &[u8],
        now: u32,
        ctx: Option<&TraceCtx>,
    ) -> Option<Result<Vec<u8>, AppError>> {
        if op != "send" {
            return None;
        }
        let text = String::from_utf8_lossy(payload);
        let mut parts = text.splitn(3, '\0');
        let (to, class, body) = (parts.next()?, parts.next()?, parts.next()?);
        let binding = Some((op, payload));
        Some(self.send(ap, req.src.addr.0, now, to, class, body, binding, ctx).map(|()| Vec::new()))
    }
}
