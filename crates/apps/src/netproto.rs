//! The applications over the wire (paper §6.2).
//!
//! > "The client then sends the message returned by the krb_mk_req call
//! > over the network to the server side of the application. When the
//! > server receives this message, it makes a call to the library routine
//! > krb_rd_req."
//!
//! This module gives the §7.1 applications real datagram framing and
//! [`krb_netsim::Service`] adapters, so they run over the simulated
//! network (or UDP) instead of in-process calls. POP replies ride in
//! *private* messages sealed in the session key — mail content never
//! crosses the wire in the clear — demonstrating §2.1's highest
//! protection level in an application.

use crate::pop::PopServer;
use crate::rlogin::RloginServer;
use crate::zephyr::ZephyrServer;
use crate::AppError;
use kerberos::wire::{Reader, Writer};
use kerberos::{
    krb_mk_priv, krb_rd_priv, ApReq, EncryptedTicket, ErrorCode, HostAddr, KrbResult, PrivMsg,
};
use krb_crypto::{ct_eq, quad_cksum, DesKey, Scheduled};
use krb_netsim::{Packet, Service};
use krb_telemetry::{ClockUs, Component, EventKind, Field, Journal, TraceCtx, TraceId};
use std::sync::Arc;

/// Journal sink shared by the network adapters: the journal plus the
/// deterministic clock that stamps events at this hop.
type Tracing = Option<(Arc<Journal>, ClockUs)>;

/// Build a per-request trace context: only when this service has a journal
/// attached *and* the packet carried a trace id (simulator metadata — the
/// V4 wire bytes never carry it).
fn trace_ctx(tracing: &Tracing, trace: Option<TraceId>) -> Option<TraceCtx> {
    let (journal, clock) = tracing.as_ref()?;
    let trace = trace?;
    Some(TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace))
}

/// Journal the application-level verdict (after ticket verification and
/// payload-binding checks) for one request.
fn record_outcome<T>(ctx: Option<&TraceCtx>, op: &str, result: &Result<T, AppError>) {
    let Some(ctx) = ctx else { return };
    match result {
        Ok(_) => ctx.record(Component::App, EventKind::AppOk, vec![("op", Field::from(op))]),
        Err(e) => ctx.record(
            Component::App,
            EventKind::AppErr,
            vec![("op", Field::from(op)), ("code", Field::from(app_err(e) as u8))],
        ),
    }
}

/// Checksum binding an operation and payload into the authenticator's
/// `cksum` field (paper §4.3: the checksum field ties "application data"
/// to the authenticator). The checksum is *keyed* with the session key
/// (`quad_cksum`): an on-path attacker who rewrites the plaintext
/// `op`/`payload` cannot compute the matching checksum for the substitute,
/// and second-preimage attacks on an unkeyed hash buy nothing without the
/// key. Sealing the bound value inside the encrypted authenticator then
/// stops the attacker from swapping the checksum itself.
pub fn request_cksum(session_key: &DesKey, op: &str, payload: &[u8]) -> u32 {
    let mut data = Vec::with_capacity(op.len() + 1 + payload.len());
    data.extend_from_slice(op.as_bytes());
    data.push(0);
    data.extend_from_slice(payload);
    let h = quad_cksum(session_key.as_bytes(), &data);
    // Reserve 0 to mean "unbound".
    if h == 0 {
        1
    } else {
        h
    }
}

/// Does the verified authenticator checksum `bound` match `op`/`payload`
/// under `session_key`? Unbound requests (`bound == 0`) are refused:
/// every operation the network services expose has side effects, so
/// accepting them would be a silent downgrade of the binding guarantee.
pub fn payload_bound(bound: u32, session_key: &DesKey, op: &str, payload: &[u8]) -> bool {
    bound != 0
        && ct_eq(
            &bound.to_be_bytes(),
            &request_cksum(session_key, op, payload).to_be_bytes(),
        )
}

/// Map an application error to the wire error code, distinguishing a
/// tampered payload (the binding check failed after a valid ticket) from
/// plain authorization failure.
fn app_err(e: &AppError) -> ErrorCode {
    match e {
        AppError::Krb(ErrorCode::RdApModified) => ErrorCode::RdApModified,
        _ => ErrorCode::KadmUnauth,
    }
}

/// Frame an authenticated application request: the `AP_REQ` plus an
/// operation string and payload bytes.
pub fn frame_request(ap: &ApReq, op: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&ap.realm);
    w.bytes(&ap.ticket.0);
    w.bytes(&ap.authenticator);
    w.u8(u8::from(ap.mutual));
    w.str(op);
    w.bytes(payload);
    w.finish()
}

/// Parse a framed request back into its parts.
pub fn parse_request(buf: &[u8]) -> KrbResult<(ApReq, String, Vec<u8>)> {
    let mut r = Reader::new(buf);
    let ap = ApReq {
        realm: r.str()?,
        ticket: EncryptedTicket(r.bytes()?),
        authenticator: r.bytes()?,
        mutual: r.u8()? != 0,
    };
    let op = r.str()?;
    let payload = r.bytes()?;
    r.expect_end()?;
    Ok((ap, op, payload))
}

/// Server reply: either `+` followed by payload, or `-` and an error code.
pub fn frame_ok(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + payload.len());
    out.push(b'+');
    out.extend_from_slice(payload);
    out
}

/// An error reply.
pub fn frame_err(code: ErrorCode) -> Vec<u8> {
    vec![b'-', code as u8]
}

/// Parse a reply.
pub fn parse_reply(buf: &[u8]) -> Result<Vec<u8>, ErrorCode> {
    match buf.first() {
        Some(b'+') => Ok(buf[1..].to_vec()),
        Some(b'-') if buf.len() >= 2 => Err(ErrorCode::from_u8(buf[1])),
        _ => Err(ErrorCode::RdApUndec),
    }
}

/// `rlogin`/`rsh` served on the network. Ops: `login` (payload: claimed
/// username) and `rsh` (payload: `user\0command`).
pub struct RloginNetService {
    /// The wrapped server logic (replay cache, `.rhosts`, connection log).
    pub server: RloginServer,
    clock: krb_kdc::Clock,
    tracing: Tracing,
}

impl RloginNetService {
    /// Wrap an [`RloginServer`].
    pub fn new(server: RloginServer, clock: krb_kdc::Clock) -> Self {
        RloginNetService { server, clock, tracing: None }
    }

    /// Attach an event journal; requests carrying a trace id are journaled.
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }
}

impl Service for RloginNetService {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        let from: HostAddr = req.src.addr.0;
        let now = (self.clock)();
        let ctx = trace_ctx(&self.tracing, req.trace);
        let Ok((ap, op, payload)) = parse_request(&req.payload) else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        match op.as_str() {
            "login" => {
                let claimed = String::from_utf8_lossy(&payload).to_string();
                // The server checks the payload binding between ticket
                // verification and the connection-log side effect.
                let r = self.server.connect_bound_ctx(
                    Some(&ap),
                    &claimed,
                    from,
                    now,
                    Some((op.as_str(), payload.as_slice())),
                    ctx.as_ref(),
                );
                record_outcome(ctx.as_ref(), &op, &r);
                match r {
                    Ok(session) => {
                        // Mutual auth reply rides back in the payload.
                        let rep = session.ap_rep.map(|r| r.enc_part).unwrap_or_default();
                        Some(frame_ok(&rep))
                    }
                    Err(e) => Some(frame_err(app_err(&e))),
                }
            }
            "rsh" => {
                let text = String::from_utf8_lossy(&payload);
                let (user, command) = text.split_once('\0')?;
                // An attacker must not be able to rewrite the command
                // while the AP_REQ is in flight; the binding is checked
                // before the command runs or the connection is logged.
                let r = self.server.rsh_session_bound_ctx(
                    Some(&ap),
                    user,
                    from,
                    now,
                    command,
                    Some((op.as_str(), payload.as_slice())),
                    ctx.as_ref(),
                );
                record_outcome(ctx.as_ref(), &op, &r);
                match r {
                    Ok((_, output)) => Some(frame_ok(output.as_bytes())),
                    Err(e) => Some(frame_err(app_err(&e))),
                }
            }
            _ => Some(frame_err(ErrorCode::RdApUndec)),
        }
    }
}

/// POP served on the network. Op `retrieve`: the mailbox comes back as a
/// **private message** sealed in the session key (mail is confidential).
pub struct PopNetService {
    /// The wrapped post office.
    pub server: PopServer,
    clock: krb_kdc::Clock,
    tracing: Tracing,
}

impl PopNetService {
    /// Wrap a [`PopServer`].
    pub fn new(server: PopServer, clock: krb_kdc::Clock) -> Self {
        PopNetService { server, clock, tracing: None }
    }

    /// Attach an event journal; requests carrying a trace id are journaled.
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }
}

impl Service for PopNetService {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        let from: HostAddr = req.src.addr.0;
        let now = (self.clock)();
        let ctx = trace_ctx(&self.tracing, req.trace);
        let Ok((ap, op, payload)) = parse_request(&req.payload) else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        if op != "retrieve" {
            return Some(frame_err(ErrorCode::RdApUndec));
        }
        // The server hands back the session-key schedule (built once to
        // open the authenticator) so the reply can be sealed without
        // redoing the key schedule, and checks the payload binding
        // *before* draining the mailbox — retrieval is destructive, and a
        // tampered request must not cost the user their mail.
        let r = self.server.retrieve_bound_ctx(
            &ap,
            from,
            now,
            Some((op.as_str(), payload.as_slice())),
            ctx.as_ref(),
        );
        record_outcome(ctx.as_ref(), &op, &r);
        match r {
            Ok((mail, session_sched)) => {
                let mut w = Writer::new();
                w.u16(mail.len() as u16);
                for m in &mail {
                    w.str(&m.from);
                    w.bytes(m.body.as_bytes());
                }
                let sealed = krb_mk_priv(&w.finish(), &session_sched, server_addr(req), now);
                Some(frame_ok(&sealed.enc_part))
            }
            Err(e) => Some(frame_err(app_err(&e))),
        }
    }
}

fn server_addr(req: &Packet) -> HostAddr {
    req.dst.addr.0
}

/// Client side: open a POP `retrieve` reply.
pub fn open_pop_reply(
    reply: &[u8],
    session_key: &DesKey,
    server_addr: HostAddr,
    now: u32,
) -> Result<Vec<crate::pop::Mail>, ErrorCode> {
    let sealed = parse_reply(reply)?;
    let plain = krb_rd_priv(&PrivMsg { enc_part: sealed }, &Scheduled::new(session_key), Some(server_addr), now)?;
    let mut r = Reader::new(&plain);
    let n = r.u16()? as usize;
    let mut mail = Vec::with_capacity(n);
    for _ in 0..n {
        let from = r.str()?;
        let body = String::from_utf8_lossy(&r.bytes()?).to_string();
        mail.push(crate::pop::Mail { from, body });
    }
    r.expect_end()?;
    Ok(mail)
}

/// Zephyr served on the network. Op `send`: payload `to\0class\0body`.
pub struct ZephyrNetService {
    /// The wrapped notification server.
    pub server: ZephyrServer,
    clock: krb_kdc::Clock,
    tracing: Tracing,
}

impl ZephyrNetService {
    /// Wrap a [`ZephyrServer`].
    pub fn new(server: ZephyrServer, clock: krb_kdc::Clock) -> Self {
        ZephyrNetService { server, clock, tracing: None }
    }

    /// Attach an event journal; requests carrying a trace id are journaled.
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }
}

impl Service for ZephyrNetService {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        let from: HostAddr = req.src.addr.0;
        let now = (self.clock)();
        let ctx = trace_ctx(&self.tracing, req.trace);
        let Ok((ap, op, payload)) = parse_request(&req.payload) else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        if op != "send" {
            return Some(frame_err(ErrorCode::RdApUndec));
        }
        let text = String::from_utf8_lossy(&payload);
        let mut parts = text.splitn(3, '\0');
        let (Some(to), Some(class), Some(body)) = (parts.next(), parts.next(), parts.next())
        else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        let r = self.server.send_bound_ctx(
            &ap,
            from,
            now,
            to,
            class,
            body,
            Some((op.as_str(), payload.as_slice())),
            ctx.as_ref(),
        );
        record_outcome(ctx.as_ref(), &op, &r);
        match r {
            Ok(()) => Some(frame_ok(b"")),
            Err(e) => Some(frame_err(app_err(&e))),
        }
    }
}
