//! The applications over the wire (paper §6.2).
//!
//! > "The client then sends the message returned by the krb_mk_req call
//! > over the network to the server side of the application. When the
//! > server receives this message, it makes a call to the library routine
//! > krb_rd_req."
//!
//! This module gives the §7.1 applications real datagram framing and one
//! [`krb_netsim::Service`] front, [`NetService`], so they run over the
//! simulated network (or UDP) instead of in-process calls. POP replies
//! ride in *private* messages sealed in the session key — mail content
//! never crosses the wire in the clear — demonstrating §2.1's highest
//! protection level in an application.

use crate::AppError;
use kerberos::wire::{Reader, Writer};
use kerberos::{ApReq, EncryptedTicket, ErrorCode, KrbResult};
use krb_crypto::{ct_eq, quad_cksum, DesKey};
use krb_netsim::{Packet, Service};
use krb_telemetry::{ClockUs, Component, EventKind, Field, Journal, TraceCtx};
use std::sync::Arc;

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

/// A Kerberized server as [`NetService`] serves it: the one operation
/// dispatch each server supplies.
pub trait AppService: Send {
    /// Serve one framed request: call the entry point that `op` names
    /// with the binding `(op, payload)` and `ctx`, and return the reply
    /// body or the refusal. `None` means `op` is not one of this server's
    /// or `payload` is malformed; the front answers that `-RdApUndec`,
    /// without verifying the ticket or counting the request.
    fn serve(
        &mut self,
        req: &Packet,
        ap: &ApReq,
        op: &str,
        payload: &[u8],
        now: u32,
        ctx: Option<&TraceCtx>,
    ) -> Option<Result<Vec<u8>, AppError>>;
}

/// Any of the §7.1 servers on the network: parses the request frame,
/// builds the trace context, hands the request to the server, journals the
/// application-level verdict and frames the reply.
pub struct NetService<S> {
    /// The wrapped server logic (replay cache, mailboxes, queues...).
    pub server: S,
    clock: krb_kdc::Clock,
    /// The journal plus the deterministic clock that stamps events at
    /// this hop.
    tracing: Option<(Arc<Journal>, ClockUs)>,
}

impl<S: AppService> NetService<S> {
    /// Serve `server` with `clock` as its time of day.
    pub fn new(server: S, clock: krb_kdc::Clock) -> Self {
        NetService { server, clock, tracing: None }
    }

    /// Attach an event journal; requests carrying a trace id are journaled.
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }
}

impl<S: AppService> Service for NetService<S> {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        let now = (self.clock)();
        // A per-request trace context: only when a journal is attached
        // *and* the packet carried a trace id (simulator metadata — the V4
        // wire bytes never carry it).
        let ctx = self.tracing.as_ref().zip(req.trace).map(|((journal, clock), trace)| {
            TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace)
        });
        let Ok((ap, op, payload)) = parse_request(&req.payload) else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        let Some(r) = self.server.serve(req, &ap, &op, &payload, now, ctx.as_ref()) else {
            return Some(frame_err(ErrorCode::RdApUndec));
        };
        record_outcome(ctx.as_ref(), &op, &r);
        Some(match r {
            Ok(body) => frame_ok(&body),
            Err(e) => frame_err(app_err(&e)),
        })
    }
}
