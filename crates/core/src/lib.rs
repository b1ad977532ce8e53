//! # kerberos — the Kerberos applications library
//!
//! The core of the reproduction of Steiner, Neuman & Schiller, *Kerberos:
//! An Authentication Service for Open Network Systems* (USENIX 1988): the
//! building blocks of §4 — [tickets](ticket::Ticket) and
//! [authenticators](authent::Authenticator) — the wire
//! [messages](msg::Message) of Figures 5–9, the application library
//! routines of §6.2 ([`krb_mk_req`]/[`krb_rd_req`] and friends), the
//! [replay cache](replay::ReplayCache) of §4.3, and the
//! [credential cache](cred::CredentialCache) behind `kinit`/`klist`/
//! `kdestroy`.
//!
//! This crate performs **no I/O**: everything is bytes in, bytes out. The
//! servers live in `krb-kdc`/`krb-kadm`, transports in `krb-netsim`, and
//! the user programs in `krb-tools`.
//!
//! ```
//! use kerberos::{Principal, Ticket, ReplayCache, krb_mk_req, krb_rd_req};
//! use krb_crypto::{string_to_key, Scheduled};
//!
//! let realm = "ATHENA.MIT.EDU";
//! let client = Principal::parse("bcn", realm).unwrap();
//! let service = Principal::parse("rlogin.priam", realm).unwrap();
//! // A server builds its srvtab key's schedule once and keeps it.
//! let service_key = Scheduled::new(&string_to_key("srvtab-secret"));
//! let session_key = string_to_key("session");
//! let addr = [18, 72, 0, 5];
//!
//! // Kerberos would seal this ticket; here we play the KDC.
//! let ticket = Ticket::new(&service, &client, addr, 1000, 96, *session_key.as_bytes())
//!     .seal_with(&service_key);
//!
//! // Client side: krb_mk_req; server side: krb_rd_req (no trace context).
//! let req = krb_mk_req(&ticket, realm, &session_key, &client, addr, 1005, 0, false);
//! let replays = ReplayCache::new();
//! let verified = krb_rd_req(&req, &service, &service_key, addr, 1006, &replays, None).unwrap();
//! assert_eq!(verified.client.to_string(), "bcn@ATHENA.MIT.EDU");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ap;
pub mod authent;
pub mod client;
pub mod cred;
pub mod error;
pub mod msg;
pub mod name;
pub mod replay;
pub mod scratch;
pub mod ticket;
pub mod time;
pub mod wire;

pub use ap::{
    krb_mk_priv, krb_mk_rep, krb_mk_req, krb_mk_safe, krb_rd_priv, krb_rd_rep, krb_rd_req,
    krb_rd_req_in, krb_rd_req_sched, krb_rd_safe, ApScratch, VerifiedRequest, VerifiedView,
};
pub use authent::{Authenticator, AuthenticatorView, SealedAuthenticator};
pub use client::{
    build_as_req, build_tgs_req_with, read_as_reply_with_key, read_as_reply_with_password,
    read_tgs_reply_with,
};
pub use cred::{Credential, CredentialCache};
pub use error::{ErrorCode, ERROR_KINDS};
pub use msg::{
    ApRep, ApReq, AsReq, EncKdcReplyPart, ErrMsg, KdcRep, Message, MessageView, PrivMsg, SafeMsg,
    TgsReq,
};
pub use name::Principal;
pub use replay::{
    ReplayCache, ReplayFingerprint, ReplayKey, StripedReplayCache, REPLAY_STRIPES,
};
pub use scratch::Scratch;
pub use ticket::{EncryptedTicket, Ticket, TicketView};
pub use time::{
    expiry, is_expired, life_to_secs, remaining_life, secs_to_life, within_skew,
    DEFAULT_SERVICE_LIFE, DEFAULT_TGT_LIFE, LIFE_UNIT_SECS, MAX_SKEW_SECS,
};

/// A host network address as carried in tickets and authenticators
/// (Figures 3 and 4: `addr`).
pub type HostAddr = [u8; 4];

/// Result alias: protocol routines fail with an [`ErrorCode`].
pub type KrbResult<T> = Result<T, ErrorCode>;
