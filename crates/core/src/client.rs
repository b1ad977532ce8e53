//! Client-side protocol logic: building requests and interpreting replies
//! for the initial (AS) exchange (§4.2, Fig. 5) and the ticket-granting
//! (TGS) exchange (§4.4, Fig. 8).
//!
//! These functions are pure — bytes in, bytes out — so the same code backs
//! the simulated-network workstation, the real-UDP client, and the tests.

use crate::authent::AuthenticatorView;
use crate::cred::Credential;
use crate::msg::{ApReqView, AsReqView, EncKdcReplyPartView, MessageView, TgsReqView};
use crate::scratch::Scratch;
use crate::ticket::EncryptedTicket;
use crate::{ErrorCode, HostAddr, KrbResult, Principal};
use krb_crypto::{string_to_key, DesKey, Scheduled, SecretKey};

/// Build the initial request: "the user's name and the name of ... the
/// ticket-granting service", in the clear. `service` is normally the TGS
/// but may be the KDBM service (`changepw.kerberos`), which is AS-only.
pub fn build_as_req(client: &Principal, service: &Principal, life: u8, now: u32) -> Vec<u8> {
    MessageView::AsReq(AsReqView {
        cname: &client.name,
        cinstance: &client.instance,
        crealm: &client.realm,
        sname: &service.name,
        sinstance: &service.instance,
        life,
        ctime: now,
    })
    .encode()
}

/// Interpret the AS reply using the user's password.
///
/// "The password is converted to a DES key and used to decrypt the response
/// ... the user's password and DES key are erased from memory" (§4.2) — the
/// key is dropped when this function returns.
pub fn read_as_reply_with_password(
    reply: &[u8],
    password: &str,
    request_time: u32,
) -> KrbResult<Credential> {
    let key = string_to_key(password);
    read_as_reply_with_key(reply, &key, request_time)
}

/// Interpret the AS reply with an already-derived key (servers reading
/// their key from `/etc/srvtab` use this path). Takes the bare key, not a
/// `Scheduled`, because kbench imports it.
pub fn read_as_reply_with_key(
    reply: &[u8],
    key: &DesKey,
    request_time: u32,
) -> KrbResult<Credential> {
    // A wrong password means the decryption fails, or leaves something
    // that is no reply part: the defining V4 "password incorrect"
    // experience.
    let wrong = ErrorCode::IntkBadPw;
    read_kdc_reply(reply, &Scheduled::new(key), request_time, wrong, wrong)
}

/// Build a TGS request: an `AP_REQ` for the ticket-granting server plus the
/// target service name (Fig. 8), under the TGT session key's schedule. The
/// same schedule also reads the reply ([`read_tgs_reply_with`]), so one
/// build covers the whole TGS exchange.
#[allow(clippy::too_many_arguments)]
pub fn build_tgs_req_with(
    tgt: &Credential,
    tgt_sched: &Scheduled,
    client: &Principal,
    addr: HostAddr,
    now: u32,
    service: &Principal,
    life: u8,
) -> Vec<u8> {
    let authenticator = AuthenticatorView::new(client, addr, now, 0).seal_with(tgt_sched);
    MessageView::TgsReq(TgsReqView {
        ap: ApReqView {
            realm: &tgt.issuing_realm,
            ticket: &tgt.ticket.0,
            authenticator: &authenticator.0,
            mutual: false,
        },
        sname: &service.name,
        sinstance: &service.instance,
        life,
    })
    .encode()
}

/// Interpret a TGS reply: "the reply is encrypted in the session key that
/// was part of the ticket-granting ticket. This way, there is no need for
/// the user to enter her/his password again" (§4.4). Read under the TGT
/// session-key schedule built for [`build_tgs_req_with`].
pub fn read_tgs_reply_with(
    reply: &[u8],
    tgt_sched: &Scheduled,
    request_time: u32,
) -> KrbResult<Credential> {
    read_kdc_reply(reply, tgt_sched, request_time, ErrorCode::IntkErr, ErrorCode::RdApUndec)
}

/// Both reply readers: pick the `KDC_REP` out of the datagram, open its
/// reply part in a scratch (`unopened` if the key does not fit), read it
/// there (`unread` if it is no reply part), match it to the request.
fn read_kdc_reply(
    reply: &[u8],
    sched: &Scheduled,
    request_time: u32,
    unopened: ErrorCode,
    unread: ErrorCode,
) -> KrbResult<Credential> {
    let enc_part = match MessageView::decode(reply)? {
        MessageView::KdcRep(enc_part) => enc_part,
        MessageView::Err { code, .. } => return Err(code),
        _ => return Err(ErrorCode::IntkErr),
    };
    let mut scratch = Scratch::new();
    let plain = scratch.unseal(sched, enc_part).map_err(|_| unopened)?;
    let part = EncKdcReplyPartView::decode(plain).map_err(|_| unread)?;
    if part.nonce != request_time {
        // Reply does not match our request (replayed or crossed reply).
        return Err(ErrorCode::IntkErr);
    }
    Ok(Credential {
        service: Principal {
            name: part.sname.to_owned(),
            instance: part.sinstance.to_owned(),
            realm: part.srealm.to_owned(),
        },
        issuing_realm: part.srealm.to_owned(),
        session_key: SecretKey::new(*part.session_key),
        ticket: EncryptedTicket(part.ticket.to_vec()),
        life: part.life,
        issued: part.kdc_time,
        kvno: part.kvno,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{EncKdcReplyPart, KdcRep, Message};
    use crate::ticket::Ticket;
    use krb_crypto::{seal_with, Mode, Scheduled};

    const REALM: &str = "ATHENA.MIT.EDU";

    fn fake_kdc_reply(user_key: &DesKey, nonce: u32) -> Vec<u8> {
        // Hand-rolled KDC reply, standing in for the server crate (which is
        // tested end-to-end in krb-kdc).
        let client = Principal::parse("bcn", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        let tgs_key = string_to_key("tgs-key");
        let session = [7u8; 8];
        let ticket = Ticket::new(&tgs, &client, [1, 2, 3, 4], 1000, 96, session)
            .seal_with(&Scheduled::new(&tgs_key));
        let part = EncKdcReplyPart {
            session_key: session.into(),
            sname: tgs.name.clone(),
            sinstance: tgs.instance.clone(),
            srealm: REALM.into(),
            life: 96,
            kvno: 1,
            kdc_time: 1000,
            nonce,
            ticket,
        };
        let enc = seal_with(Mode::Pcbc, &Scheduled::new(user_key), &[0u8; 8], &part.encode()).unwrap();
        Message::KdcRep(KdcRep { enc_part: enc }).encode()
    }

    #[test]
    fn as_request_contains_no_secrets() {
        let client = Principal::parse("bcn", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        let req = build_as_req(&client, &tgs, 96, 42);
        // The request is decodable by anyone and carries only names/times.
        match Message::decode(&req).unwrap() {
            Message::AsReq(r) => {
                assert_eq!(r.cname, "bcn");
                assert_eq!(r.sname, "krbtgt");
                assert_eq!(r.ctime, 42);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn correct_password_yields_credential() {
        let key = string_to_key("hunter2");
        let reply = fake_kdc_reply(&key, 42);
        let cred = read_as_reply_with_password(&reply, "hunter2", 42).unwrap();
        assert_eq!(cred.service.name, "krbtgt");
        assert_eq!(cred.life, 96);
        assert_eq!(cred.session_key, [7u8; 8].into());
    }

    #[test]
    fn wrong_password_is_intk_badpw() {
        let key = string_to_key("hunter2");
        let reply = fake_kdc_reply(&key, 42);
        assert_eq!(
            read_as_reply_with_password(&reply, "wrong", 42).unwrap_err(),
            ErrorCode::IntkBadPw
        );
    }

    #[test]
    fn nonce_mismatch_rejected() {
        let key = string_to_key("hunter2");
        let reply = fake_kdc_reply(&key, 42);
        assert_eq!(
            read_as_reply_with_password(&reply, "hunter2", 43).unwrap_err(),
            ErrorCode::IntkErr
        );
    }

    #[test]
    fn error_reply_surfaces_kdc_code() {
        let reply = Message::error(ErrorCode::KdcPrUnknown, "no such principal");
        assert_eq!(
            read_as_reply_with_password(&reply, "pw", 0).unwrap_err(),
            ErrorCode::KdcPrUnknown
        );
    }

    #[test]
    fn tgs_request_wraps_an_ap_req_for_the_tgs() {
        let key = string_to_key("hunter2");
        let reply = fake_kdc_reply(&key, 42);
        let tgt = read_as_reply_with_password(&reply, "hunter2", 42).unwrap();
        let client = Principal::parse("bcn", REALM).unwrap();
        let rlogin = Principal::parse("rlogin.priam", REALM).unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, [1, 2, 3, 4], 1010, &rlogin, 96);
        match Message::decode(&req).unwrap() {
            Message::TgsReq(t) => {
                assert_eq!(t.sname, "rlogin");
                assert_eq!(t.sinstance, "priam");
                assert_eq!(t.ap.realm, REALM);
                assert!(!t.ap.ticket.0.is_empty());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn malformed_replies_do_not_panic() {
        for junk in [&b""[..], &[4u8][..], &[4u8, 2, 0, 4, 1, 2][..]] {
            let _ = read_as_reply_with_password(junk, "pw", 0);
        }
        let tgt = Credential {
            service: Principal::tgs(REALM, REALM),
            issuing_realm: REALM.into(),
            session_key: [1; 8].into(),
            ticket: EncryptedTicket(vec![0; 16]),
            life: 96,
            issued: 0,
            kvno: 1,
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        assert!(read_tgs_reply_with(&[4u8, 2, 0, 2, 9, 9], &tgt_sched, 0).is_err());
    }
}
