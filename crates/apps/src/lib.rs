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
//! the server side, and the session key for anything needing privacy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod login;
pub mod netproto;
pub mod pop;
pub mod register;
pub mod rlogin;
pub mod zephyr;

pub use login::{login, logout, LoginSession};

/// Per-service request-outcome telemetry shared by the Kerberized network
/// servers ([`PopServer`], [`RloginServer`], [`ZephyrServer`]). The
/// counters live in a [`krb_telemetry::Registry`] under one namespace
/// (`<prefix>_requests_ok_total` / `<prefix>_requests_err_total`, plus the
/// server's replay-cache counters via
/// [`ReplayCache::publish`](kerberos::ReplayCache::publish)). Both are
/// get-or-create, so two servers of one kind in one registry count into
/// the same counters instead of the second hiding the first.
pub(crate) struct AppMetrics {
    registry: std::sync::Arc<krb_telemetry::Registry>,
    prefix: &'static str,
    pub(crate) ok: krb_telemetry::Counter,
    pub(crate) err: krb_telemetry::Counter,
}

impl AppMetrics {
    pub(crate) fn new(prefix: &'static str) -> Self {
        let mut m = AppMetrics {
            registry: krb_telemetry::Registry::shared(),
            prefix,
            ok: krb_telemetry::Counter::new(),
            err: krb_telemetry::Counter::new(),
        };
        m.bind();
        m
    }

    fn bind(&mut self) {
        self.ok = self.registry.counter(&format!("{}_requests_ok_total", self.prefix));
        self.err = self.registry.counter(&format!("{}_requests_err_total", self.prefix));
    }

    pub(crate) fn registry(&self) -> std::sync::Arc<krb_telemetry::Registry> {
        std::sync::Arc::clone(&self.registry)
    }

    /// Re-home the counters into a shared registry (e.g. a deployment-wide
    /// one) and republish the server's replay-cache counters next to them.
    /// Counts recorded before the move stay behind in the old registry.
    pub(crate) fn rebind(
        &mut self,
        registry: std::sync::Arc<krb_telemetry::Registry>,
        replay: &kerberos::ReplayCache,
    ) {
        self.registry = registry;
        self.bind();
        replay.publish(&self.registry, self.prefix);
    }

    /// Count one request outcome.
    pub(crate) fn observe<T, E>(&self, r: &Result<T, E>) {
        match r {
            Ok(_) => self.ok.inc(),
            Err(_) => self.err.inc(),
        }
    }
}
pub use netproto::{
    frame_err, frame_ok, frame_request, open_pop_reply, parse_reply, parse_request,
    payload_bound, request_cksum, PopNetService, RloginNetService, ZephyrNetService,
};
pub use pop::{Mail, PopServer};
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
