//! # krb-apps — the Kerberized applications
//!
//! The "applications" of Figure 1 and §7.1 of Steiner, Neuman & Schiller
//! (USENIX 1988): the appendix's [`mod@login`] program (Kerberos + Hesiod +
//! NFS mount), [`rlogin`]/`rsh` with `.rhosts` fallback, the Kerberized
//! Post Office Protocol ([`pop`]), the [`zephyr`] notification service,
//! and the [`mod@register`] signup program (SMS + Kerberos uniqueness).
//!
//! Each application follows §6.2's recipe for "Kerberizing" a program: a
//! `krb_mk_req` on the client side at connection setup, a `krb_rd_req` on
//! the server side, and the session key for anything needing privacy. The
//! three servers write the server half once: each embeds one crate-private
//! core whose `verify` is the only caller of `krb_rd_req` and of
//! [`payload_bound`] here, so one function refuses a replayed or rewritten
//! request for all of them. Each has one entry point per operation
//! ([`RloginServer::connect`], [`RloginServer::rsh`],
//! [`PopServer::retrieve`], [`ZephyrServer::send`]), taking the payload
//! binding and an optional trace context. One [`NetService`] serves any of
//! them on the network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod login;
pub mod netproto;
pub mod pop;
pub mod register;
pub mod rlogin;
pub mod zephyr;

pub use login::{login, logout, LoginSession};

use kerberos::{krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache, VerifiedRequest};
use krb_crypto::{DesKey, Scheduled};
use krb_telemetry::{Counter, Registry, TraceCtx};

/// The server half of §6.2's recipe, which [`RloginServer`], [`PopServer`]
/// and [`ZephyrServer`] each embed: the service principal, the srvtab
/// key's schedule (built once at startup), the replay cache and the
/// request-outcome counters (`<prefix>_requests_ok_total` /
/// `<prefix>_requests_err_total`).
pub(crate) struct ServerCore {
    pub(crate) service: Principal,
    sched: Scheduled,
    replay: ReplayCache,
    prefix: &'static str,
    ok: Counter,
    err: Counter,
}

/// Why [`ServerCore::verify`] refused a request: `krb_rd_req` refused the
/// ticket or the authenticator, or the ticket is good but its checksum does
/// not bind the payload (the request was rewritten in flight).
pub(crate) enum Refused {
    Ticket(ErrorCode),
    Rebound,
}

impl From<Refused> for AppError {
    fn from(r: Refused) -> Self {
        match r {
            Refused::Ticket(code) => AppError::Krb(code),
            Refused::Rebound => AppError::Krb(ErrorCode::RdApModified),
        }
    }
}

impl ServerCore {
    pub(crate) fn new(prefix: &'static str, service: Principal, key: DesKey) -> Self {
        let (sched, replay) = (Scheduled::new(&key), ReplayCache::new());
        ServerCore { service, sched, replay, prefix, ok: Counter::new(), err: Counter::new() }
    }

    /// Count into `registry` from now on, with the replay-cache counters
    /// next to the request counters. Get-or-create, so two servers of one
    /// kind in one registry count into the same counters instead of the
    /// second hiding the first. Counts recorded before the move are lost.
    pub(crate) fn set_telemetry(&mut self, registry: &Registry) {
        self.ok = registry.counter(&format!("{}_requests_ok_total", self.prefix));
        self.err = registry.counter(&format!("{}_requests_err_total", self.prefix));
        self.replay.publish(registry, self.prefix);
    }

    /// `krb_rd_req`, then, when `binding` is given, the check that the
    /// authenticator's checksum binds `(op, payload)` under the session key
    /// ([`payload_bound`]). Every operation calls this before its side
    /// effect, so a replayed or rewritten request changes nothing.
    pub(crate) fn verify(
        &self,
        ap: &ApReq,
        from: HostAddr,
        now: u32,
        binding: Option<(&str, &[u8])>,
        ctx: Option<&TraceCtx>,
    ) -> Result<VerifiedRequest, Refused> {
        let v = krb_rd_req(ap, &self.service, &self.sched, from, now, &self.replay, ctx)
            .map_err(Refused::Ticket)?;
        match binding {
            Some((op, payload)) if !payload_bound(v.cksum, &v.session_key, op, payload) => {
                Err(Refused::Rebound)
            }
            _ => Ok(v),
        }
    }

    /// Count one operation's outcome and hand it back.
    pub(crate) fn count<T>(&self, r: Result<T, AppError>) -> Result<T, AppError> {
        if r.is_ok() { self.ok.inc() } else { self.err.inc() }
        r
    }
}

pub use netproto::{
    frame_err, frame_ok, frame_request, parse_reply, parse_request, payload_bound,
    request_cksum, AppService, NetService,
};
pub use pop::{open_pop_reply, Mail, PopServer};
pub use register::{register, Sms};
pub use rlogin::{AuthMethod, RemoteSession, RloginServer};
pub use zephyr::{Notice, ZephyrServer};

/// Application-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppError {
    /// Kerberos protocol failure.
    Krb(kerberos::ErrorCode),
    /// Workstation/user-program failure (network, no TGT...).
    Tool(krb_tools::ToolError),
    /// NFS failure.
    Nfs(krb_nfs::NfsError),
    /// Hesiod lookup failure.
    Hesiod(krb_hesiod::HesiodError),
    /// Authorization denied.
    Denied(String),
    /// Username already taken (register).
    NotUnique(String),
}

impl From<kerberos::ErrorCode> for AppError {
    fn from(e: kerberos::ErrorCode) -> Self {
        AppError::Krb(e)
    }
}
impl From<krb_tools::ToolError> for AppError {
    fn from(e: krb_tools::ToolError) -> Self {
        AppError::Tool(e)
    }
}
impl From<krb_nfs::NfsError> for AppError {
    fn from(e: krb_nfs::NfsError) -> Self {
        AppError::Nfs(e)
    }
}
impl From<krb_hesiod::HesiodError> for AppError {
    fn from(e: krb_hesiod::HesiodError) -> Self {
        AppError::Hesiod(e)
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Krb(e) => write!(f, "kerberos: {e}"),
            AppError::Tool(e) => write!(f, "{e}"),
            AppError::Nfs(e) => write!(f, "{e}"),
            AppError::Hesiod(e) => write!(f, "{e}"),
            AppError::Denied(w) => write!(f, "denied: {w}"),
            AppError::NotUnique(u) => write!(f, "username not unique: {u}"),
        }
    }
}

impl std::error::Error for AppError {}
