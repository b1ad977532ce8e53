//! The Kerberized Post Office Protocol (paper §7.1).
//!
//! "We have modified the Post Office Protocol to use Kerberos for
//! authenticating users who wish to retrieve their electronic mail from
//! the 'post office'." Mail is delivered unauthenticated (as SMTP-era mail
//! was); *retrieval* requires a verified ticket, and you can only retrieve
//! your own mailbox.

use crate::netproto::parse_reply;
use crate::{AppError, AppService, ServerCore};
use kerberos::wire::{Reader, Writer};
use kerberos::{krb_mk_priv, krb_rd_priv, ApReq, ErrorCode, HostAddr, Principal, PrivMsg};
use krb_crypto::{DesKey, Scheduled};
use krb_netsim::Packet;
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

/// The most a `retrieve` reply can carry: `krb_mk_priv` frames its data
/// with a 2-byte length.
const REPLY_MAX: usize = u16::MAX as usize;

/// Bytes one mail takes in a `retrieve` reply: its sender as a
/// `Writer::str`, its body as a `Writer::bytes`.
fn wire_len(m: &Mail) -> usize {
    1 + m.from.len() + 2 + m.body.len()
}

/// The post office server.
pub struct PopServer {
    core: ServerCore,
    mailboxes: HashMap<String, Vec<Mail>>,
}

impl PopServer {
    /// A post office authenticating as `service` (e.g. `pop.paris`).
    pub fn new(service: Principal, key: DesKey) -> Self {
        PopServer { core: ServerCore::new("pop", service, key), mailboxes: HashMap::new() }
    }

    /// Publish this server's `pop_requests_*` and replay-cache counters
    /// into `registry` (so a deployment exports every service in one place).
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.core.set_telemetry(&registry);
    }

    /// Deliver mail into a user's box (no authentication — delivery is the
    /// MTA's business, retrieval is POP's). A mail that would not fit a
    /// `retrieve` reply on its own (a sender over 255 bytes, or a body
    /// near 64 KiB) is refused: no retrieve could ever hand it over.
    pub fn deliver(&mut self, to: &str, mail: Mail) -> Result<(), AppError> {
        if mail.from.len() > usize::from(u8::MAX) || 2 + wire_len(&mail) > REPLY_MAX {
            return Err(AppError::Denied(format!("mail for {to} does not fit one reply")));
        }
        self.mailboxes.entry(to.to_string()).or_default().push(mail);
        Ok(())
    }

    /// Messages waiting for `user` (server-side view).
    pub fn pending(&self, user: &str) -> usize {
        self.mailboxes.get(user).map_or(0, Vec::len)
    }

    /// Retrieve the authenticated user's mail: the longest run from the
    /// front of the mailbox, in delivery order, that fits one reply; the
    /// rest waits for the next retrieve. The mailbox name comes from the
    /// *verified* principal, never from a request parameter — that is the
    /// entire point of Kerberizing POP. Also hands back the session-key
    /// schedule, so the reply can be sealed as a private message (§2.1)
    /// without rebuilding it. With `binding`, the payload binding is
    /// checked *before* the mailbox is drained: retrieval is destructive,
    /// and a request rewritten in flight must leave the mail untouched.
    pub fn retrieve(
        &mut self,
        ap: &ApReq,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<(Vec<Mail>, Scheduled), AppError> {
        let r = self.core.verify(ap, from, now, binding, ctx).map_err(AppError::from).map(|v| {
            let mailbox = self.mailboxes.entry(v.client.name).or_default();
            let mut used = 2;
            let n = mailbox.iter().take_while(|m| {
                used += wire_len(m);
                used <= REPLY_MAX
            }).count();
            (mailbox.drain(..n).collect(), v.session_sched)
        });
        self.core.count(r)
    }
}

/// The `retrieve` reply body: a count, then each mail's sender and body.
fn encode(mail: &[Mail]) -> Vec<u8> {
    let mut w = Writer::new();
    // `retrieve` drains at most one reply's worth, at least 3 bytes a
    // mail, so the count never saturates.
    w.u16(u16::try_from(mail.len()).unwrap_or(u16::MAX));
    for m in mail {
        w.str(&m.from);
        w.bytes(m.body.as_bytes());
    }
    w.finish()
}

/// Op `retrieve`: the mail comes back as a **private message** sealed in
/// the session key (mail is confidential).
impl AppService for PopServer {
    fn serve(
        &mut self,
        req: &Packet,
        ap: &ApReq,
        op: &str,
        payload: &[u8],
        now: u32,
        ctx: Option<&TraceCtx>,
    ) -> Option<Result<Vec<u8>, AppError>> {
        if op != "retrieve" {
            return None;
        }
        let r = self.retrieve(ap, req.src.addr.0, now, Some((op, payload)), ctx);
        let server_addr = req.dst.addr.0;
        Some(r.map(|(mail, sched)| krb_mk_priv(&encode(&mail), &sched, server_addr, now).enc_part))
    }
}

/// Client side: open a POP `retrieve` reply.
pub fn open_pop_reply(
    reply: &[u8],
    session_key: &DesKey,
    server_addr: HostAddr,
    now: u32,
) -> Result<Vec<Mail>, ErrorCode> {
    let msg = PrivMsg { enc_part: parse_reply(reply)? };
    let plain = krb_rd_priv(&msg, &Scheduled::new(session_key), Some(server_addr), now)?;
    let mut r = Reader::new(&plain);
    let n = r.u16()? as usize;
    let mut mail = Vec::with_capacity(n);
    for _ in 0..n {
        let from = r.str()?;
        let body = String::from_utf8_lossy(&r.bytes()?).to_string();
        mail.push(Mail { from, body });
    }
    r.expect_end()?;
    Ok(mail)
}
