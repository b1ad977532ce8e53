//! The application-authentication library routines (paper §4.3, §6.2).
//!
//! "The most commonly used library functions are `krb_mk_req` on the client
//! side, and `krb_rd_req` on the server side." This module provides those,
//! the mutual-authentication pair (Fig. 7), and the safe/private message
//! routines `krb_mk_safe`/`krb_rd_safe` and `krb_mk_priv`/`krb_rd_priv`
//! (§2.1's three protection levels).

use crate::authent::AuthenticatorView;
use crate::msg::{ApRep, ApReq, ApReqView, MessageView, PrivMsg, SafeMsg};
use crate::replay::{ReplayFingerprint, ReplayGuard};
use crate::scratch::Scratch;
use crate::ticket::{EncryptedTicket, Ticket, TicketView};
use crate::time::{is_expired, within_skew};
use crate::wire::{sealed_len, Reader, Writer};
use crate::{ErrorCode, HostAddr, KrbResult, Principal};
use krb_crypto::{ct_eq, quad_cksum, DesKey, Scheduled, BLOCK};
use krb_telemetry::{Component, EventKind, Field, TraceCtx};

/// What `krb_rd_req` returns on success: the verified identity and the
/// session key for further traffic.
#[derive(Clone, Debug)]
pub struct VerifiedRequest {
    /// The authenticated client (name, instance, *original* realm).
    pub client: Principal,
    /// The session key from the ticket.
    pub session_key: DesKey,
    /// The precomputed session-key schedule — `krb_rd_req` had to build it
    /// to open the authenticator, so every follow-up operation under this
    /// session (mutual-auth reply, private messages) reuses it for free.
    pub session_sched: Scheduled,
    /// The authenticator timestamp (needed for the mutual-auth reply).
    pub timestamp: u32,
    /// Application checksum carried in the authenticator.
    pub cksum: u32,
    /// The decrypted ticket (lifetime inspection, TGS re-issue).
    pub ticket: Ticket,
    /// Whether the client asked for mutual authentication.
    pub mutual_requested: bool,
}

/// Where [`krb_rd_req_in`] opens a request's two sealed parts. Both are
/// wiped when this is dropped.
#[derive(Default)]
pub struct ApScratch {
    ticket: Scratch,
    authenticator: Scratch,
}

/// What [`krb_rd_req_in`] verified, read where it was decrypted: the ticket
/// and the authenticator are views into the caller's [`ApScratch`].
pub struct VerifiedView<'a> {
    /// The decrypted ticket.
    pub ticket: TicketView<'a>,
    /// The decrypted authenticator.
    pub authenticator: AuthenticatorView<'a>,
    /// The session-key schedule built to open the authenticator.
    pub session_sched: Scheduled,
    /// Whether the client asked for mutual authentication.
    pub mutual_requested: bool,
}

impl VerifiedView<'_> {
    /// The owned result `krb_rd_req` hands to applications.
    pub fn into_owned(self) -> VerifiedRequest {
        let (name, instance, realm) = self.ticket.client();
        VerifiedRequest {
            client: Principal { name: name.into(), instance: instance.into(), realm: realm.into() },
            session_key: *self.session_sched.key(),
            session_sched: self.session_sched,
            timestamp: self.authenticator.timestamp,
            cksum: self.authenticator.cksum,
            ticket: self.ticket.to_owned(),
            mutual_requested: self.mutual_requested,
        }
    }
}

/// Client side: build an `AP_REQ` for `service` from a ticket and session
/// key (paper §4.3; `krb_mk_req` of §6.2). `cksum` binds application data.
#[allow(clippy::too_many_arguments)]
pub fn krb_mk_req(
    ticket: &EncryptedTicket,
    ticket_realm: &str,
    session_key: &DesKey,
    client: &Principal,
    addr: HostAddr,
    now: u32,
    cksum: u32,
    mutual: bool,
) -> ApReq {
    krb_mk_req_sched(ticket, ticket_realm, &Scheduled::new(session_key), client, addr, now, cksum, mutual)
}

/// [`krb_mk_req`] under a precomputed session-key schedule — a client that
/// sends several requests under one ticket builds the schedule once.
#[allow(clippy::too_many_arguments)]
pub fn krb_mk_req_sched(
    ticket: &EncryptedTicket,
    ticket_realm: &str,
    session: &Scheduled,
    client: &Principal,
    addr: HostAddr,
    now: u32,
    cksum: u32,
    mutual: bool,
) -> ApReq {
    ApReq {
        realm: ticket_realm.to_string(),
        ticket: ticket.clone(),
        authenticator: AuthenticatorView::new(client, addr, now, cksum).seal_with(session).0,
        mutual,
    }
}

/// Server side: verify an `AP_REQ` (paper §4.3; `krb_rd_req` of §6.2).
///
/// The checks, in the paper's order: decrypt the ticket with the server's
/// key; use the session key inside to decrypt the authenticator; compare
/// ticket against authenticator; compare the source address of the packet;
/// check freshness against the server clock; consult the replay cache; and
/// check ticket expiry.
pub fn krb_rd_req<R: ReplayGuard>(
    req: &ApReq,
    service: &Principal,
    service_key: &DesKey,
    sender_addr: HostAddr,
    now: u32,
    replay: &mut R,
) -> KrbResult<VerifiedRequest> {
    krb_rd_req_sched(req, service, &Scheduled::new(service_key), sender_addr, now, replay)
}

/// [`krb_rd_req`] with the service key's schedule precomputed — long-lived
/// servers verify every request under the same srvtab key, so they build
/// that schedule once per process, not per packet. This is
/// [`krb_rd_req_in`] on a scratch of its own, plus the owned copy.
pub fn krb_rd_req_sched<R: ReplayGuard>(
    req: &ApReq,
    service: &Principal,
    service_sched: &Scheduled,
    sender_addr: HostAddr,
    now: u32,
    replay: &mut R,
) -> KrbResult<VerifiedRequest> {
    let mut scratch = ApScratch::default();
    let service = (service.name.as_str(), service.instance.as_str());
    krb_rd_req_in(&mut scratch, &req.view(), service, service_sched, sender_addr, now, replay)
        .map(VerifiedView::into_owned)
}

/// The `krb_rd_req` checks themselves, on borrowed input: the request as it
/// lies in its datagram, the service as `(name, instance)`, the ticket and
/// the authenticator decrypted in `scratch` and read there. Nothing is
/// copied to the heap unless a sealed part is longer than any legal one
/// (then `scratch` spills, and the verdict is the same). The KDC's TGS path
/// calls this directly; [`krb_rd_req_sched`] is the owned wrapper.
pub fn krb_rd_req_in<'a, R: ReplayGuard>(
    scratch: &'a mut ApScratch,
    req: &ApReqView<'_>,
    service: (&str, &str),
    service_sched: &Scheduled,
    sender_addr: HostAddr,
    now: u32,
    replay: &mut R,
) -> KrbResult<VerifiedView<'a>> {
    let ticket = TicketView::open_in(&mut scratch.ticket, req.ticket, service_sched)?;
    if (ticket.sname, ticket.sinstance) != service {
        return Err(ErrorCode::RdApNotUs);
    }
    let session_sched = Scheduled::new(&DesKey::from_bytes(*ticket.session_key));
    let auth =
        AuthenticatorView::open_in(&mut scratch.authenticator, req.authenticator, &session_sched)?;
    if !auth.matches_ticket(&ticket) {
        return Err(ErrorCode::RdApIncon);
    }
    if ticket.addr != sender_addr {
        // "the IP address from which the request was received" must match.
        return Err(ErrorCode::RdApBadAddr);
    }
    if !within_skew(auth.timestamp, now) {
        // "If the time in the request is too far in the future or the past,
        // the server treats the request as an attempt to replay".
        return Err(ErrorCode::RdApTime);
    }
    if is_expired(ticket.timestamp, ticket.life, now) {
        return Err(ErrorCode::RdApExp);
    }
    // Issue time sanity: a ticket from the far future is not yet valid.
    if ticket.timestamp > now && !within_skew(ticket.timestamp, now) {
        return Err(ErrorCode::RdApTime);
    }
    let fingerprint = ReplayFingerprint::new(ticket.client(), auth.timestamp, req.authenticator);
    if !replay.check_fingerprint(fingerprint, now) {
        return Err(ErrorCode::RdApRepeat);
    }
    Ok(VerifiedView { ticket, authenticator: auth, session_sched, mutual_requested: req.mutual })
}

/// [`krb_rd_req_sched`] with an optional trace context: the verification
/// verdict — accepted, replayed, or rejected with its taxonomy kind — is
/// recorded into the journal at the *server* hop, correlated with the
/// login that produced the request. Journal fields name the client and the
/// error kind only; key material never leaves the [`VerifiedRequest`].
pub fn krb_rd_req_sched_ctx<R: ReplayGuard>(
    req: &ApReq,
    service: &Principal,
    service_sched: &Scheduled,
    sender_addr: HostAddr,
    now: u32,
    replay: &mut R,
    ctx: Option<&TraceCtx>,
) -> KrbResult<VerifiedRequest> {
    let result = krb_rd_req_sched(req, service, service_sched, sender_addr, now, replay);
    if let Some(ctx) = ctx {
        match &result {
            Ok(verified) => ctx.record(
                Component::App,
                EventKind::ApVerified,
                vec![("client", Field::from(verified.client.to_string()))],
            ),
            Err(ErrorCode::RdApRepeat) => ctx.record(
                Component::App,
                EventKind::ReplayHit,
                vec![("code", Field::from(ErrorCode::RdApRepeat as u8))],
            ),
            Err(code) => ctx.record(
                Component::App,
                EventKind::ApErr,
                vec![
                    ("err_kind", Field::from(code.kind())),
                    ("code", Field::from(*code as u8)),
                ],
            ),
        }
    }
    result
}

/// Server side of mutual authentication (Fig. 7): "the server adds one to
/// the time stamp the client sent in the authenticator, encrypts the result
/// in the session key, and sends the result back to the client."
pub fn krb_mk_rep(verified: &VerifiedRequest) -> ApRep {
    let enc_part = Writer::sealed(BLOCK, &verified.session_sched, |w| {
        w.u32(verified.timestamp.wrapping_add(1));
    });
    ApRep { enc_part }
}

/// Client side of mutual authentication: check the reply is `ts + 1`
/// sealed in the session key. Success convinces the client "that the
/// server is authentic".
pub fn krb_rd_rep(rep: &ApRep, session_key: &DesKey, sent_timestamp: u32) -> KrbResult<()> {
    let mut scratch = Scratch::new();
    let plain = scratch
        .unseal(&Scheduled::new(session_key), &rep.enc_part)
        .map_err(|_| ErrorCode::RdApModified)?;
    let mut r = Reader::new(plain);
    let got = r.u32()?;
    r.expect_end()?;
    if !ct_eq(
        &got.to_be_bytes(),
        &sent_timestamp.wrapping_add(1).to_be_bytes(),
    ) {
        return Err(ErrorCode::RdApModified);
    }
    Ok(())
}

/// `krb_mk_safe` (§2.1): authenticated but unencrypted message. The keyed
/// quadratic checksum covers data, sender address and timestamp.
pub fn krb_mk_safe(data: &[u8], session_key: &DesKey, addr: HostAddr, now: u32) -> SafeMsg {
    let cksum = safe_cksum(data, session_key, addr, now);
    SafeMsg { data: data.to_vec(), addr, timestamp: now, cksum }
}

/// `krb_rd_safe`: verify the checksum and freshness of a safe message.
pub fn krb_rd_safe(msg: &SafeMsg, session_key: &DesKey, now: u32) -> KrbResult<Vec<u8>> {
    let expect = safe_cksum(&msg.data, session_key, msg.addr, msg.timestamp);
    // Constant-time compare: a byte-at-a-time == would let an attacker
    // grind out the keyed checksum one prefix byte at a time.
    if !ct_eq(&expect.to_be_bytes(), &msg.cksum.to_be_bytes()) {
        return Err(ErrorCode::RdApModified);
    }
    if !within_skew(msg.timestamp, now) {
        return Err(ErrorCode::RdApTime);
    }
    Ok(msg.data.clone())
}

fn safe_cksum(data: &[u8], session_key: &DesKey, addr: HostAddr, ts: u32) -> u32 {
    let mut covered = Vec::with_capacity(data.len() + 8);
    covered.extend_from_slice(data);
    covered.extend_from_slice(&addr);
    covered.extend_from_slice(&ts.to_be_bytes());
    quad_cksum(session_key.as_bytes(), &covered)
}

/// `krb_mk_priv` (§2.1): "each message is not only authenticated, but also
/// encrypted" — data, sender address and timestamp sealed in the session key.
pub fn krb_mk_priv(data: &[u8], session_key: &DesKey, addr: HostAddr, now: u32) -> PrivMsg {
    krb_mk_priv_with(data, &Scheduled::new(session_key), addr, now)
}

/// [`krb_mk_priv`] under a precomputed session schedule (servers answering
/// on an authenticated connection already hold one in `VerifiedRequest`).
pub fn krb_mk_priv_with(data: &[u8], session: &Scheduled, addr: HostAddr, now: u32) -> PrivMsg {
    let enc_part = Writer::sealed(sealed_len(2 + data.len() + 8), session, |w| {
        w.bytes(data);
        w.addr(&addr);
        w.u32(now);
    });
    PrivMsg { enc_part }
}

/// `krb_rd_priv`: decrypt and check freshness and (optionally) the
/// expected sender address.
pub fn krb_rd_priv(
    msg: &PrivMsg,
    session_key: &DesKey,
    expected_addr: Option<HostAddr>,
    now: u32,
) -> KrbResult<Vec<u8>> {
    let mut scratch = Scratch::new();
    let plain = scratch
        .unseal(&Scheduled::new(session_key), &msg.enc_part)
        .map_err(|_| ErrorCode::RdApModified)?;
    let mut r = Reader::new(plain);
    let data = r.bytes_ref()?;
    let addr = r.addr()?;
    let ts = r.u32()?;
    r.expect_end()?;
    if let Some(expect) = expected_addr {
        if addr != expect {
            return Err(ErrorCode::RdApBadAddr);
        }
    }
    if !within_skew(ts, now) {
        return Err(ErrorCode::RdApTime);
    }
    Ok(data.to_vec())
}

/// Helper: wrap an `AP_REQ` in a [`Message`](crate::Message) and encode for
/// the wire.
pub fn encode_ap_req(req: &ApReq) -> Vec<u8> {
    MessageView::ApReq(req.view()).encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayCache;
    use crate::time::MAX_SKEW_SECS;
    use krb_crypto::{seal, string_to_key, Mode};

    const REALM: &str = "ATHENA.MIT.EDU";
    const ADDR: HostAddr = [18, 72, 0, 5];
    const NOW: u32 = 1_000_000;

    fn setup() -> (Principal, Principal, DesKey, DesKey, EncryptedTicket) {
        let client = Principal::parse("bcn", REALM).unwrap();
        let service = Principal::parse("rlogin.priam", REALM).unwrap();
        let service_key = string_to_key("srvtab-rlogin-priam");
        let session_key = string_to_key("session");
        let ticket = Ticket::new(&service, &client, ADDR, NOW, 96, *session_key.as_bytes())
            .seal(&service_key);
        (client, service, service_key, session_key, ticket)
    }

    #[test]
    fn full_ap_exchange_succeeds() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW + 5, 42, false);
        let mut rc = ReplayCache::new();
        let v = krb_rd_req(&req, &service, &service_key, ADDR, NOW + 6, &mut rc).unwrap();
        assert_eq!(v.client, client);
        assert_eq!(v.cksum, 42);
        assert_eq!(v.session_key.as_bytes(), session_key.as_bytes());
    }

    #[test]
    fn replayed_request_rejected() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        assert!(krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).is_ok());
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, NOW + 1, &mut rc).unwrap_err(),
            ErrorCode::RdApRepeat
        );
    }

    #[test]
    fn duplicate_authenticator_at_skew_boundary_is_a_replay() {
        // An authenticator aged exactly MAX_SKEW_SECS is still fresh; its
        // byte-identical duplicate at that same boundary instant must be
        // caught by the replay cache (RdApRepeat), not waved through or
        // misclassified as merely stale (RdApTime).
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        let boundary = NOW + MAX_SKEW_SECS;
        assert!(krb_rd_req(&req, &service, &service_key, ADDR, boundary, &mut rc).is_ok());
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, boundary, &mut rc).unwrap_err(),
            ErrorCode::RdApRepeat
        );
    }

    #[test]
    fn verified_request_debug_reveals_no_key_bytes() {
        // VerifiedRequest carries the session key (DesKey) and the decrypted
        // ticket (SecretKey); operators log these structs, so neither Debug
        // impl may leak key material.
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        let v = krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap();
        let dump = format!("{v:?}");
        assert!(dump.contains("redacted"), "keys must print as redacted: {dump}");
        let hex: String = session_key.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert!(!dump.contains(&hex), "session key bytes leaked via Debug");
    }

    #[test]
    fn stolen_ticket_from_wrong_address_rejected() {
        let (client, service, service_key, session_key, ticket) = setup();
        // Attacker captured ticket+authenticator, resends from their host.
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        let attacker_addr = [10, 0, 0, 66];
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, attacker_addr, NOW, &mut rc).unwrap_err(),
            ErrorCode::RdApBadAddr
        );
    }

    #[test]
    fn stale_authenticator_rejected() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        let late = NOW + MAX_SKEW_SECS + 1;
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, late, &mut rc).unwrap_err(),
            ErrorCode::RdApTime
        );
    }

    #[test]
    fn future_authenticator_rejected() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req =
            krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW + MAX_SKEW_SECS + 10, 0, false);
        let mut rc = ReplayCache::new();
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap_err(),
            ErrorCode::RdApTime
        );
    }

    #[test]
    fn expired_ticket_rejected() {
        let (client, service, service_key, session_key, _) = setup();
        let old = NOW - 10 * 3600;
        let ticket = Ticket::new(&service, &client, ADDR, old, 12, *session_key.as_bytes())
            .seal(&service_key);
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap_err(),
            ErrorCode::RdApExp
        );
    }

    #[test]
    fn ticket_for_other_service_rejected() {
        let (client, _, _, session_key, ticket) = setup();
        let other = Principal::parse("pop.paris", REALM).unwrap();
        let other_key = string_to_key("srvtab-pop");
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        assert_eq!(
            krb_rd_req(&req, &other, &other_key, ADDR, NOW, &mut rc).unwrap_err(),
            ErrorCode::RdApNotUs
        );
    }

    #[test]
    fn attacker_without_session_key_cannot_authenticate() {
        // Eavesdropper got the (encrypted) ticket but not the session key:
        // their authenticator is sealed in a guessed key.
        let (client, service, service_key, _, ticket) = setup();
        let guessed = string_to_key("guess");
        let req = krb_mk_req(&ticket, REALM, &guessed, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        assert_eq!(
            krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap_err(),
            ErrorCode::RdApIncon
        );
    }

    #[test]
    fn mutual_authentication_round_trip() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, true);
        let mut rc = ReplayCache::new();
        let v = krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap();
        assert!(v.mutual_requested);
        let rep = krb_mk_rep(&v);
        assert!(krb_rd_rep(&rep, &session_key, NOW).is_ok());
    }

    #[test]
    fn mutual_auth_detects_fake_server() {
        // A masquerading server cannot produce {ts+1}K without the session
        // key (it cannot decrypt the ticket to extract it).
        let (_, _, _, session_key, _) = setup();
        let fake_key = string_to_key("fake-server");
        let mut w = Writer::new();
        w.u32(NOW + 1);
        let forged = ApRep {
            enc_part: seal(Mode::Pcbc, &fake_key, &[0u8; 8], &w.finish()).unwrap(),
        };
        assert_eq!(
            krb_rd_rep(&forged, &session_key, NOW).unwrap_err(),
            ErrorCode::RdApModified
        );
    }

    #[test]
    fn mutual_auth_rejects_wrong_timestamp() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, true);
        let mut rc = ReplayCache::new();
        let v = krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap();
        let rep = krb_mk_rep(&v);
        // Client checks against a different timestamp than it sent.
        assert!(krb_rd_rep(&rep, &session_key, NOW + 7).is_err());
    }

    #[test]
    fn safe_messages_detect_tampering() {
        let key = string_to_key("session");
        let msg = krb_mk_safe(b"transfer $100 to bcn", &key, ADDR, NOW);
        assert_eq!(krb_rd_safe(&msg, &key, NOW).unwrap(), b"transfer $100 to bcn");

        let mut tampered = msg.clone();
        tampered.data = b"transfer $999 to eve".to_vec();
        assert_eq!(krb_rd_safe(&tampered, &key, NOW).unwrap_err(), ErrorCode::RdApModified);

        let mut retimed = msg.clone();
        retimed.timestamp += 1; // covered by the checksum too
        assert_eq!(krb_rd_safe(&retimed, &key, NOW).unwrap_err(), ErrorCode::RdApModified);
    }

    #[test]
    fn safe_messages_are_readable_on_the_wire() {
        // §2.1: safe messages authenticate but "do not care whether the
        // content of the message is disclosed" — data rides in the clear.
        let key = string_to_key("session");
        let msg = krb_mk_safe(b"public content", &key, ADDR, NOW);
        assert_eq!(msg.data, b"public content");
    }

    #[test]
    fn safe_message_freshness() {
        let key = string_to_key("session");
        let msg = krb_mk_safe(b"x", &key, ADDR, NOW);
        assert_eq!(
            krb_rd_safe(&msg, &key, NOW + MAX_SKEW_SECS + 1).unwrap_err(),
            ErrorCode::RdApTime
        );
    }

    #[test]
    fn private_messages_hide_and_authenticate() {
        let key = string_to_key("session");
        let msg = krb_mk_priv(b"new password: hunter2", &key, ADDR, NOW);
        // Content is not visible in the ciphertext.
        assert!(!msg
            .enc_part
            .windows(8)
            .any(|w| w == b"password"));
        let data = krb_rd_priv(&msg, &key, Some(ADDR), NOW).unwrap();
        assert_eq!(data, b"new password: hunter2");

        // Wrong key fails.
        let wrong = string_to_key("other");
        assert!(krb_rd_priv(&msg, &wrong, Some(ADDR), NOW).is_err());
        // Wrong claimed source fails.
        assert_eq!(
            krb_rd_priv(&msg, &key, Some([9, 9, 9, 9]), NOW).unwrap_err(),
            ErrorCode::RdApBadAddr
        );
        // Stale fails.
        assert_eq!(
            krb_rd_priv(&msg, &key, Some(ADDR), NOW + MAX_SKEW_SECS + 1).unwrap_err(),
            ErrorCode::RdApTime
        );
    }

    #[test]
    fn verified_request_exposes_remaining_ticket() {
        let (client, service, service_key, session_key, ticket) = setup();
        let req = krb_mk_req(&ticket, REALM, &session_key, &client, ADDR, NOW, 0, false);
        let mut rc = ReplayCache::new();
        let v = krb_rd_req(&req, &service, &service_key, ADDR, NOW, &mut rc).unwrap();
        assert_eq!(v.ticket.life, 96);
        assert_eq!(v.ticket.timestamp, NOW);
    }
}
