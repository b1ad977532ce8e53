//! The wire messages of the Kerberos protocol (paper §4, Figures 5–9).
//!
//! Every message starts with a protocol version byte and a message type
//! byte. The message set:
//!
//! | type | message | figure |
//! |------|---------|--------|
//! | 1 | `AS_REQ` — initial ticket request, in the clear | Fig. 5 |
//! | 2 | `KDC_REP` — AS or TGS reply; payload encrypted in the user's key (AS) or the TGT session key (TGS) | Fig. 5, 8 |
//! | 3 | `TGS_REQ` — service-ticket request: AP_REQ for the TGS + target | Fig. 8 |
//! | 5 | `AP_REQ` — ticket + authenticator presented to a server | Fig. 6 |
//! | 6 | `AP_REP` — mutual-authentication reply `{ts+1}Ks,c` | Fig. 7 |
//! | 7 | `KRB_SAFE` — authenticated plaintext (§2.1 "safe messages") |
//! | 8 | `KRB_PRIV` — authenticated and encrypted (§2.1 "private messages") |
//! | 9 | `KRB_ERROR` — error code + text |

use crate::ticket::{EncryptedTicket, TicketView};
use crate::wire::{sealed_len, Reader, Writer};
use crate::{ErrorCode, HostAddr, KrbResult};
use krb_crypto::{CryptoError, Scheduled, SecretKey};

/// Protocol version carried in every message (we are a V4-shaped protocol).
pub const PROTO_VERSION: u8 = 4;

/// Initial (AS) request: "a request is sent to the authentication server
/// containing the user's name and the name of ... the ticket-granting
/// service" (§4.2). Sent in the clear; contains no secrets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsReq {
    /// Client primary name.
    pub cname: String,
    /// Client instance.
    pub cinstance: String,
    /// Client realm (the realm being asked).
    pub crealm: String,
    /// Requested service primary name (normally `krbtgt`, but the KDBM
    /// flow requests `changepw` directly from the AS; §5.1).
    pub sname: String,
    /// Requested service instance.
    pub sinstance: String,
    /// Requested ticket lifetime, 5-minute units.
    pub life: u8,
    /// Client's current time; echoed in the reply to bind request/response.
    pub ctime: u32,
}

/// The encrypted payload of a [`KdcRep`]: "the ticket, along with a copy of
/// the random session key and some additional information" (§4.2),
/// encrypted in the client's private key (AS) or TGT session key (TGS).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EncKdcReplyPart {
    /// The new session key, redacted under `{:?}`.
    pub session_key: SecretKey,
    /// Service primary name the ticket is for.
    pub sname: String,
    /// Service instance.
    pub sinstance: String,
    /// Realm of the KDC that issued the ticket.
    pub srealm: String,
    /// Granted lifetime (may be less than requested).
    pub life: u8,
    /// Key version number of the key this reply is encrypted in.
    pub kvno: u8,
    /// KDC's time of issue.
    pub kdc_time: u32,
    /// Echo of the request's `ctime` (binds reply to request).
    pub nonce: u32,
    /// The ticket, encrypted in the *server's* key — opaque to the client.
    pub ticket: EncryptedTicket,
}

/// AS/TGS reply wrapper; `enc_part` is an [`EncKdcReplyPart`] sealed in a
/// key the client knows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KdcRep {
    /// Sealed [`EncKdcReplyPart`].
    pub enc_part: Vec<u8>,
}

/// Application request (Fig. 6): the encrypted ticket plus an authenticator
/// sealed in the session key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApReq {
    /// Realm whose KDC issued the ticket (tells a TGS which key to try:
    /// its own, or an inter-realm key; §7.2).
    pub realm: String,
    /// The ticket, encrypted in the server's key.
    pub ticket: EncryptedTicket,
    /// The authenticator, encrypted in the session key.
    pub authenticator: Vec<u8>,
    /// Whether the client requests mutual authentication (Fig. 7).
    pub mutual: bool,
}

/// Ticket-granting request (Fig. 8): an [`ApReq`] for the TGS plus the name
/// of the target service and requested lifetime.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TgsReq {
    /// Authentication to the TGS itself (TGT + authenticator).
    pub ap: ApReq,
    /// Target service primary name.
    pub sname: String,
    /// Target service instance.
    pub sinstance: String,
    /// Requested lifetime.
    pub life: u8,
}

/// Mutual-authentication reply (Fig. 7): `{timestamp + 1}Ks,c`, sealed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ApRep {
    /// Sealed 4-byte big-endian `timestamp + 1`.
    pub enc_part: Vec<u8>,
}

/// Safe message (§2.1): plaintext data plus a keyed checksum; sender
/// address and timestamp are covered by the checksum.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SafeMsg {
    /// Application data, in the clear.
    pub data: Vec<u8>,
    /// Sender address.
    pub addr: HostAddr,
    /// Sender timestamp.
    pub timestamp: u32,
    /// `quad_cksum` over (data, addr, timestamp), keyed by the session key.
    pub cksum: u32,
}

/// Private message (§2.1): data, address and timestamp sealed in the
/// session key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrivMsg {
    /// Sealed (data, addr, timestamp).
    pub enc_part: Vec<u8>,
}

/// Error reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ErrMsg {
    /// Protocol error code.
    pub code: ErrorCode,
    /// Human-readable context.
    pub text: String,
}

/// Any Kerberos protocol message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// Initial ticket request.
    AsReq(AsReq),
    /// AS/TGS reply.
    KdcRep(KdcRep),
    /// Service ticket request.
    TgsReq(TgsReq),
    /// Application request.
    ApReq(ApReq),
    /// Mutual-authentication reply.
    ApRep(ApRep),
    /// Authenticated plaintext.
    Safe(SafeMsg),
    /// Authenticated ciphertext.
    Priv(PrivMsg),
    /// Error reply.
    Err(ErrMsg),
}

/// [`AsReq`] with its names borrowed from the datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AsReqView<'a> {
    /// Client primary name.
    pub cname: &'a str,
    /// Client instance.
    pub cinstance: &'a str,
    /// Client realm (the realm being asked).
    pub crealm: &'a str,
    /// Requested service primary name.
    pub sname: &'a str,
    /// Requested service instance.
    pub sinstance: &'a str,
    /// Requested ticket lifetime, 5-minute units.
    pub life: u8,
    /// Client's current time; echoed in the reply.
    pub ctime: u32,
}

/// [`ApReq`] with its realm and both ciphertexts borrowed from the datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ApReqView<'a> {
    /// Realm whose KDC issued the ticket.
    pub realm: &'a str,
    /// The ticket, encrypted in the server's key.
    pub ticket: &'a [u8],
    /// The authenticator, encrypted in the session key.
    pub authenticator: &'a [u8],
    /// Whether the client requests mutual authentication.
    pub mutual: bool,
}

/// [`TgsReq`] borrowed from the datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TgsReqView<'a> {
    /// Authentication to the TGS itself (TGT + authenticator).
    pub ap: ApReqView<'a>,
    /// Target service primary name.
    pub sname: &'a str,
    /// Target service instance.
    pub sinstance: &'a str,
    /// Requested lifetime.
    pub life: u8,
}

/// [`EncKdcReplyPart`] read where it was decrypted: names, session key and
/// the sealed ticket borrowed from that buffer.
#[derive(Clone, Copy)]
pub struct EncKdcReplyPartView<'a> {
    /// The new session key.
    pub session_key: &'a [u8; 8],
    /// Service primary name the ticket is for.
    pub sname: &'a str,
    /// Service instance.
    pub sinstance: &'a str,
    /// Realm of the KDC that issued the ticket.
    pub srealm: &'a str,
    /// Granted lifetime.
    pub life: u8,
    /// Key version number of the key this reply is encrypted in.
    pub kvno: u8,
    /// KDC's time of issue.
    pub kdc_time: u32,
    /// Echo of the request's `ctime`.
    pub nonce: u32,
    /// The ticket, encrypted in the server's key.
    pub ticket: &'a [u8],
}

/// Any protocol message, borrowed from the datagram it was parsed from.
/// This is the message parser and the message encoder; [`Message`] is its
/// owned copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MessageView<'a> {
    /// Initial ticket request.
    AsReq(AsReqView<'a>),
    /// AS/TGS reply: the sealed [`EncKdcReplyPart`].
    KdcRep(&'a [u8]),
    /// Service ticket request.
    TgsReq(TgsReqView<'a>),
    /// Application request.
    ApReq(ApReqView<'a>),
    /// Mutual-authentication reply: the sealed `timestamp + 1`.
    ApRep(&'a [u8]),
    /// Authenticated plaintext: the fields of [`SafeMsg`].
    Safe {
        /// Application data, in the clear.
        data: &'a [u8],
        /// Sender address.
        addr: HostAddr,
        /// Sender timestamp.
        timestamp: u32,
        /// Keyed checksum over the three.
        cksum: u32,
    },
    /// Authenticated ciphertext: the sealed (data, addr, timestamp).
    Priv(&'a [u8]),
    /// Error reply: the fields of [`ErrMsg`].
    Err {
        /// Protocol error code.
        code: ErrorCode,
        /// Human-readable context.
        text: &'a str,
    },
}

impl<'a> ApReqView<'a> {
    fn decode(r: &mut Reader<'a>) -> KrbResult<Self> {
        Ok(ApReqView {
            realm: r.str_ref()?,
            ticket: r.bytes_ref()?,
            authenticator: r.bytes_ref()?,
            mutual: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ErrorCode::RdApUndec),
            },
        })
    }

    fn write(&self, w: &mut Writer) {
        w.str(self.realm);
        w.bytes(self.ticket);
        w.bytes(self.authenticator);
        w.u8(u8::from(self.mutual));
    }

    /// An owned copy.
    pub fn to_owned(&self) -> ApReq {
        ApReq {
            realm: self.realm.to_owned(),
            ticket: EncryptedTicket(self.ticket.to_vec()),
            authenticator: self.authenticator.to_vec(),
            mutual: self.mutual,
        }
    }
}

impl ApReq {
    /// This request as a view of its own fields.
    pub fn view(&self) -> ApReqView<'_> {
        ApReqView {
            realm: &self.realm,
            ticket: &self.ticket.0,
            authenticator: &self.authenticator,
            mutual: self.mutual,
        }
    }
}

impl<'a> MessageView<'a> {
    /// Parse a message; checks version and consumes the whole buffer.
    pub fn decode(buf: &'a [u8]) -> KrbResult<Self> {
        let mut r = Reader::new(buf);
        let version = r.u8()?;
        if version != PROTO_VERSION {
            return Err(ErrorCode::RdApVersion);
        }
        let msg = match r.u8()? {
            1 => MessageView::AsReq(AsReqView {
                cname: r.str_ref()?,
                cinstance: r.str_ref()?,
                crealm: r.str_ref()?,
                sname: r.str_ref()?,
                sinstance: r.str_ref()?,
                life: r.u8()?,
                ctime: r.u32()?,
            }),
            2 => MessageView::KdcRep(r.bytes_ref()?),
            3 => MessageView::TgsReq(TgsReqView {
                ap: ApReqView::decode(&mut r)?,
                sname: r.str_ref()?,
                sinstance: r.str_ref()?,
                life: r.u8()?,
            }),
            5 => MessageView::ApReq(ApReqView::decode(&mut r)?),
            6 => MessageView::ApRep(r.bytes_ref()?),
            7 => MessageView::Safe {
                data: r.bytes_ref()?,
                addr: r.addr()?,
                timestamp: r.u32()?,
                cksum: r.u32()?,
            },
            8 => MessageView::Priv(r.bytes_ref()?),
            9 => MessageView::Err { code: ErrorCode::from_u8(r.u8()?), text: r.str_ref()? },
            _ => return Err(ErrorCode::RdApUndec),
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Serialize with the version/type header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::over(Vec::with_capacity(self.encoded_len()));
        w.u8(PROTO_VERSION);
        match self {
            MessageView::AsReq(m) => {
                w.u8(1);
                w.str(m.cname);
                w.str(m.cinstance);
                w.str(m.crealm);
                w.str(m.sname);
                w.str(m.sinstance);
                w.u8(m.life);
                w.u32(m.ctime);
            }
            MessageView::KdcRep(enc_part) => {
                w.u8(2);
                w.bytes(enc_part);
            }
            MessageView::TgsReq(m) => {
                w.u8(3);
                m.ap.write(&mut w);
                w.str(m.sname);
                w.str(m.sinstance);
                w.u8(m.life);
            }
            MessageView::ApReq(m) => {
                w.u8(5);
                m.write(&mut w);
            }
            MessageView::ApRep(enc_part) => {
                w.u8(6);
                w.bytes(enc_part);
            }
            MessageView::Safe { data, addr, timestamp, cksum } => {
                w.u8(7);
                w.bytes(data);
                w.addr(addr);
                w.u32(*timestamp);
                w.u32(*cksum);
            }
            MessageView::Priv(enc_part) => {
                w.u8(8);
                w.bytes(enc_part);
            }
            MessageView::Err { code, text } => {
                w.u8(9);
                w.u8(*code as u8);
                w.str(text);
            }
        }
        w.finish()
    }

    /// An upper bound on what [`MessageView::encode`] writes: every byte of
    /// every variable-length field plus the fixed ones, so the one buffer
    /// is sized once.
    fn encoded_len(&self) -> usize {
        let ap = |m: &ApReqView<'_>| m.realm.len() + m.ticket.len() + m.authenticator.len();
        16 + match self {
            MessageView::AsReq(m) => {
                m.cname.len() + m.cinstance.len() + m.crealm.len() + m.sname.len() + m.sinstance.len()
            }
            MessageView::TgsReq(m) => ap(&m.ap) + m.sname.len() + m.sinstance.len(),
            MessageView::ApReq(m) => ap(m),
            MessageView::KdcRep(b) | MessageView::ApRep(b) | MessageView::Priv(b) => b.len(),
            MessageView::Safe { data, .. } => data.len(),
            MessageView::Err { text, .. } => text.len(),
        }
    }

    /// An owned copy.
    pub fn to_owned(&self) -> Message {
        match *self {
            MessageView::AsReq(m) => Message::AsReq(AsReq {
                cname: m.cname.to_owned(),
                cinstance: m.cinstance.to_owned(),
                crealm: m.crealm.to_owned(),
                sname: m.sname.to_owned(),
                sinstance: m.sinstance.to_owned(),
                life: m.life,
                ctime: m.ctime,
            }),
            MessageView::KdcRep(enc_part) => Message::KdcRep(KdcRep { enc_part: enc_part.to_vec() }),
            MessageView::TgsReq(m) => Message::TgsReq(TgsReq {
                ap: m.ap.to_owned(),
                sname: m.sname.to_owned(),
                sinstance: m.sinstance.to_owned(),
                life: m.life,
            }),
            MessageView::ApReq(m) => Message::ApReq(m.to_owned()),
            MessageView::ApRep(enc_part) => Message::ApRep(ApRep { enc_part: enc_part.to_vec() }),
            MessageView::Safe { data, addr, timestamp, cksum } => {
                Message::Safe(SafeMsg { data: data.to_vec(), addr, timestamp, cksum })
            }
            MessageView::Priv(enc_part) => Message::Priv(PrivMsg { enc_part: enc_part.to_vec() }),
            MessageView::Err { code, text } => Message::Err(ErrMsg { code, text: text.to_owned() }),
        }
    }
}

impl Message {
    /// This message as a view of its own fields.
    pub fn view(&self) -> MessageView<'_> {
        match self {
            Message::AsReq(m) => MessageView::AsReq(AsReqView {
                cname: &m.cname,
                cinstance: &m.cinstance,
                crealm: &m.crealm,
                sname: &m.sname,
                sinstance: &m.sinstance,
                life: m.life,
                ctime: m.ctime,
            }),
            Message::KdcRep(m) => MessageView::KdcRep(&m.enc_part),
            Message::TgsReq(m) => MessageView::TgsReq(TgsReqView {
                ap: m.ap.view(),
                sname: &m.sname,
                sinstance: &m.sinstance,
                life: m.life,
            }),
            Message::ApReq(m) => MessageView::ApReq(m.view()),
            Message::ApRep(m) => MessageView::ApRep(&m.enc_part),
            Message::Safe(m) => MessageView::Safe {
                data: &m.data,
                addr: m.addr,
                timestamp: m.timestamp,
                cksum: m.cksum,
            },
            Message::Priv(m) => MessageView::Priv(&m.enc_part),
            Message::Err(m) => MessageView::Err { code: m.code, text: &m.text },
        }
    }

    /// Serialize with the version/type header.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Parse a message; checks version and consumes the whole buffer.
    pub fn decode(buf: &[u8]) -> KrbResult<Message> {
        MessageView::decode(buf).map(|m| m.to_owned())
    }

    /// Convenience: an error message, encoded.
    pub fn error(code: ErrorCode, text: impl Into<String>) -> Vec<u8> {
        MessageView::Err { code, text: &text.into() }.encode()
    }
}

/// Build a whole `KDC_REP` datagram around a new ticket — Figure 8's
/// `{ {T c,s}K s , K c,s }K c,tgs` — in the one `Vec` that is returned.
///
/// The header, the reply part's plaintext and, at its final offset inside
/// that, the ticket's plaintext are written first; then both are sealed
/// where they lie in one nested close, the ticket under `service` and the
/// reply part (ending in the ticket's ciphertext) under `client`. Every
/// length is patched first, so the reply-part blocks in front of the
/// ticket are encrypted two-wide with the ticket's first blocks rather
/// than after its last. The session key's plaintext exists only in that
/// buffer and is encrypted over. Every byte equals what
/// [`Ticket::seal_with`](crate::Ticket::seal_with) →
/// [`EncKdcReplyPart::encode`] → `seal_with` → [`Message::encode`] produce.
///
/// The reply part repeats the ticket's service name, lifetime, issue time
/// and session key, so they are taken from `ticket`; `srealm` is the
/// issuing realm, `kvno` the version of the key the client will open the
/// reply with, `nonce` the request time being echoed.
pub fn seal_kdc_rep(
    ticket: &TicketView<'_>,
    srealm: &str,
    kvno: u8,
    nonce: u32,
    service: &Scheduled,
    client: &Scheduled,
) -> Result<Vec<u8>, CryptoError> {
    let head = EncKdcReplyPartView {
        session_key: ticket.session_key,
        sname: ticket.sname,
        sinstance: ticket.sinstance,
        srealm,
        life: ticket.life,
        kvno,
        kdc_time: ticket.timestamp,
        nonce,
        ticket: &[],
    };
    let part_len = head.head_len() + 2 + sealed_len(ticket.encoded_len());
    let mut w = Writer::over(Vec::with_capacity(4 + sealed_len(part_len)));
    w.u8(PROTO_VERSION);
    w.u8(2);
    let part = w.begin_sealed_bytes();
    head.write_head(&mut w);
    let inner = w.begin_sealed_bytes();
    ticket.write(&mut w);
    w.end_sealed_nested(part, client, inner, service)?;
    Ok(w.finish())
}

impl<'a> EncKdcReplyPartView<'a> {
    /// Parse (after opening).
    pub fn decode(buf: &'a [u8]) -> KrbResult<Self> {
        let mut r = Reader::new(buf);
        let p = EncKdcReplyPartView {
            session_key: r.block_ref()?,
            sname: r.str_ref()?,
            sinstance: r.str_ref()?,
            srealm: r.str_ref()?,
            life: r.u8()?,
            kvno: r.u8()?,
            kdc_time: r.u32()?,
            nonce: r.u32()?,
            ticket: r.bytes_ref()?,
        };
        r.expect_end()?;
        Ok(p)
    }

    /// Append every field in front of the ticket.
    fn write_head(&self, w: &mut Writer) {
        w.block(self.session_key);
        w.str(self.sname);
        w.str(self.sinstance);
        w.str(self.srealm);
        w.u8(self.life);
        w.u8(self.kvno);
        w.u32(self.kdc_time);
        w.u32(self.nonce);
    }

    /// Bytes [`EncKdcReplyPartView::write_head`] appends.
    fn head_len(&self) -> usize {
        8 + 3 + self.sname.len() + self.sinstance.len() + self.srealm.len() + 10
    }

    /// Serialize (before sealing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::over(Vec::with_capacity(self.head_len() + 2 + self.ticket.len()));
        self.write_head(&mut w);
        w.bytes(self.ticket);
        w.finish()
    }

    /// An owned copy.
    pub fn to_owned(&self) -> EncKdcReplyPart {
        EncKdcReplyPart {
            session_key: SecretKey::new(*self.session_key),
            sname: self.sname.to_owned(),
            sinstance: self.sinstance.to_owned(),
            srealm: self.srealm.to_owned(),
            life: self.life,
            kvno: self.kvno,
            kdc_time: self.kdc_time,
            nonce: self.nonce,
            ticket: EncryptedTicket(self.ticket.to_vec()),
        }
    }
}

impl EncKdcReplyPart {
    /// This reply part as a view of its own fields.
    pub fn view(&self) -> EncKdcReplyPartView<'_> {
        EncKdcReplyPartView {
            session_key: self.session_key.as_bytes(),
            sname: &self.sname,
            sinstance: &self.sinstance,
            srealm: &self.srealm,
            life: self.life,
            kvno: self.kvno,
            kdc_time: self.kdc_time,
            nonce: self.nonce,
            ticket: &self.ticket.0,
        }
    }

    /// Serialize (before sealing).
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Parse (after opening).
    pub fn decode(buf: &[u8]) -> KrbResult<Self> {
        EncKdcReplyPartView::decode(buf).map(|p| p.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::AsReq(AsReq {
                cname: "bcn".into(),
                cinstance: "".into(),
                crealm: "ATHENA.MIT.EDU".into(),
                sname: "krbtgt".into(),
                sinstance: "ATHENA.MIT.EDU".into(),
                life: 96,
                ctime: 123_456,
            }),
            Message::KdcRep(KdcRep { enc_part: vec![1, 2, 3, 4, 5, 6, 7, 8] }),
            Message::TgsReq(TgsReq {
                ap: ApReq {
                    realm: "ATHENA.MIT.EDU".into(),
                    ticket: EncryptedTicket(vec![0xAA; 72]),
                    authenticator: vec![0xBB; 40],
                    mutual: false,
                },
                sname: "rlogin".into(),
                sinstance: "priam".into(),
                life: 96,
            }),
            Message::ApReq(ApReq {
                realm: "LCS.MIT.EDU".into(),
                ticket: EncryptedTicket(vec![0xCC; 64]),
                authenticator: vec![0xDD; 48],
                mutual: true,
            }),
            Message::ApRep(ApRep { enc_part: vec![5; 16] }),
            Message::Safe(SafeMsg {
                data: b"meeting at 8".to_vec(),
                addr: [18, 72, 0, 5],
                timestamp: 99,
                cksum: 0xFEEDFACE,
            }),
            Message::Priv(PrivMsg { enc_part: vec![7; 24] }),
            Message::Err(ErrMsg { code: ErrorCode::KdcPrUnknown, text: "principal unknown".into() }),
        ]
    }

    #[test]
    fn all_messages_round_trip() {
        for m in samples() {
            let buf = m.encode();
            assert_eq!(Message::decode(&buf).unwrap(), m);
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = samples()[0].encode();
        buf[0] = 5;
        assert_eq!(Message::decode(&buf).unwrap_err(), ErrorCode::RdApVersion);
    }

    #[test]
    fn unknown_type_rejected() {
        let buf = vec![PROTO_VERSION, 99];
        assert_eq!(Message::decode(&buf).unwrap_err(), ErrorCode::RdApUndec);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = samples()[1].encode();
        buf.push(0);
        assert_eq!(Message::decode(&buf).unwrap_err(), ErrorCode::RdApUndec);
    }

    #[test]
    fn truncations_never_panic() {
        for m in samples() {
            let buf = m.encode();
            for cut in 0..buf.len() {
                let _ = Message::decode(&buf[..cut]); // must not panic
            }
        }
    }

    #[test]
    fn enc_kdc_reply_part_round_trip() {
        let p = EncKdcReplyPart {
            session_key: [1; 8].into(),
            sname: "krbtgt".into(),
            sinstance: "ATHENA.MIT.EDU".into(),
            srealm: "ATHENA.MIT.EDU".into(),
            life: 96,
            kvno: 3,
            kdc_time: 1_000,
            nonce: 999,
            ticket: EncryptedTicket(vec![9; 80]),
        };
        assert_eq!(EncKdcReplyPart::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn bad_mutual_flag_rejected() {
        let m = Message::ApReq(ApReq {
            realm: "R".into(),
            ticket: EncryptedTicket(vec![1; 8]),
            authenticator: vec![2; 8],
            mutual: true,
        });
        let mut buf = m.encode();
        let n = buf.len();
        buf[n - 1] = 7; // mutual flag is the last byte
        assert_eq!(Message::decode(&buf).unwrap_err(), ErrorCode::RdApUndec);
    }
}
