//! Property-based tests: every protocol structure must round-trip through
//! the wire codec, and decoders must never panic on arbitrary bytes.

use kerberos::{
    ApRep, ApReq, AsReq, EncKdcReplyPart, EncryptedTicket, ErrMsg, ErrorCode, KdcRep, Message,
    Principal, PrivMsg, ReplayCache, ReplayKey, SafeMsg, TgsReq, Ticket, MAX_SKEW_SECS,
    REPLAY_STRIPES,
};
use krb_crypto::{DesKey, Scheduled};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_component() -> impl Strategy<Value = String> {
    "[a-z0-9_-]{1,12}"
}

fn arb_realm() -> impl Strategy<Value = String> {
    "[A-Z]{1,8}(\\.[A-Z]{1,8}){0,2}"
}

/// A name component anywhere in the wire's 0–40-character range.
fn arb_wide_component() -> impl Strategy<Value = String> {
    "[a-z0-9]{0,40}"
}

/// A realm anywhere in the wire's 1–40-character range.
fn arb_wide_realm() -> impl Strategy<Value = String> {
    "[A-Z.]{1,40}"
}

prop_compose! {
    fn arb_principal()(name in arb_component(), inst in prop_oneof![Just(String::new()), arb_component()], realm in arb_realm()) -> Principal {
        Principal { name, instance: inst, realm }
    }
}

prop_compose! {
    fn arb_ticket()(
        s in arb_principal(),
        c in arb_principal(),
        addr in any::<[u8; 4]>(),
        ts in any::<u32>(),
        life in any::<u8>(),
        key in any::<[u8; 8]>(),
    ) -> Ticket {
        Ticket::new(&s, &c, addr, ts, life, key)
    }
}

/// The replay cache as it was first written, kept as the definition the
/// generation store is checked against: one `HashMap` of full keys, swept
/// whole with `retain` at most once per skew window.
#[derive(Default)]
struct ModelReplayCache {
    seen: HashMap<ReplayKey, u32>,
    last_purge: u32,
    hits: u64,
    evictions: u64,
}

impl ModelReplayCache {
    fn check_and_insert(&mut self, key: ReplayKey, now: u32) -> bool {
        if now.saturating_sub(self.last_purge) >= MAX_SKEW_SECS {
            self.last_purge = now;
            let before = self.seen.len();
            self.seen.retain(|k, _| now.saturating_sub(k.timestamp) <= 2 * MAX_SKEW_SECS);
            self.evictions += (before - self.seen.len()) as u64;
        }
        if self.seen.contains_key(&key) {
            self.hits += 1;
            return false;
        }
        self.seen.insert(key, now);
        true
    }
}

/// How the server clock moves before a request.
#[derive(Clone, Debug)]
enum Tick {
    Stay,
    Forward(u32),
    /// Past every entry's `2 × MAX_SKEW_SECS` horizon in one step.
    Jump(u32),
    Back(u32),
}

fn arb_tick() -> impl Strategy<Value = Tick> {
    prop_oneof![
        2 => Just(Tick::Stay),
        6 => (1u32..=150).prop_map(Tick::Forward),
        1 => (2 * MAX_SKEW_SECS + 1..5_000).prop_map(Tick::Jump),
        2 => (1u32..=2 * MAX_SKEW_SECS).prop_map(Tick::Back),
    ]
}

/// Where a request's timestamp lies. A cache must not care whether the
/// freshness check would have let it through.
#[derive(Clone, Debug)]
enum Stamp {
    Fixed(u32),
    Behind(u32),
    Ahead(u32),
    /// The first second of a 16-, 64- or 256-second block at or before
    /// `now − behind`, or the second before it.
    BlockEdge { bits: u32, behind: u32, before: bool },
}

fn arb_stamp() -> impl Strategy<Value = Stamp> {
    prop_oneof![
        1 => prop_oneof![Just(0), Just(1), Just(u32::MAX), Just(u32::MAX - 1), any::<u32>()]
            .prop_map(Stamp::Fixed),
        4 => prop_oneof![
            Just(0),
            Just(MAX_SKEW_SECS),
            Just(MAX_SKEW_SECS + 1),
            Just(2 * MAX_SKEW_SECS - 1),
            Just(2 * MAX_SKEW_SECS),
            Just(2 * MAX_SKEW_SECS + 1),
            0u32..=3 * MAX_SKEW_SECS,
        ]
        .prop_map(Stamp::Behind),
        2 => prop_oneof![Just(MAX_SKEW_SECS), Just(MAX_SKEW_SECS + 1), 1u32..=MAX_SKEW_SECS]
            .prop_map(Stamp::Ahead),
        3 => (prop_oneof![Just(4u32), Just(6), Just(8)], 0u32..=3 * MAX_SKEW_SECS, any::<bool>())
            .prop_map(|(bits, behind, before)| Stamp::BlockEdge { bits, behind, before }),
    ]
}

impl Stamp {
    fn at(&self, now: u32) -> u32 {
        match *self {
            Stamp::Fixed(ts) => ts,
            Stamp::Behind(d) => now.saturating_sub(d),
            Stamp::Ahead(d) => now.saturating_add(d),
            Stamp::BlockEdge { bits, behind, before } => {
                let edge = now.saturating_sub(behind) >> bits << bits;
                edge.saturating_sub(u32::from(before))
            }
        }
    }
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_principal(), arb_principal(), any::<u8>(), any::<u32>()).prop_map(|(c, s, life, t)| {
            Message::AsReq(AsReq {
                cname: c.name, cinstance: c.instance, crealm: c.realm,
                sname: s.name, sinstance: s.instance, life, ctime: t,
            })
        }),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(|b| Message::KdcRep(KdcRep { enc_part: b })),
        (arb_realm(), proptest::collection::vec(any::<u8>(), 0..100), proptest::collection::vec(any::<u8>(), 0..100), any::<bool>(), arb_component(), arb_component(), any::<u8>())
            .prop_map(|(realm, t, a, m, sn, si, life)| Message::TgsReq(TgsReq {
                ap: ApReq { realm, ticket: EncryptedTicket(t), authenticator: a, mutual: m },
                sname: sn, sinstance: si, life,
            })),
        (arb_realm(), proptest::collection::vec(any::<u8>(), 0..100), proptest::collection::vec(any::<u8>(), 0..100), any::<bool>())
            .prop_map(|(realm, t, a, m)| Message::ApReq(ApReq { realm, ticket: EncryptedTicket(t), authenticator: a, mutual: m })),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|b| Message::ApRep(ApRep { enc_part: b })),
        (proptest::collection::vec(any::<u8>(), 0..300), any::<[u8; 4]>(), any::<u32>(), any::<u32>())
            .prop_map(|(d, a, t, ck)| Message::Safe(SafeMsg { data: d, addr: a, timestamp: t, cksum: ck })),
        proptest::collection::vec(any::<u8>(), 0..300).prop_map(|b| Message::Priv(PrivMsg { enc_part: b })),
        (any::<u8>(), "[ -~]{0,40}").prop_map(|(c, t)| Message::Err(ErrMsg { code: ErrorCode::from_u8(ErrorCode::from_u8(c) as u8), text: t })),
    ]
}

proptest! {
    #[test]
    fn message_codec_round_trip(m in arb_message()) {
        let buf = m.encode();
        prop_assert_eq!(Message::decode(&buf).unwrap(), m);
    }

    #[test]
    fn message_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn ticket_seal_open_round_trip(t in arb_ticket(), key in any::<[u8; 8]>()) {
        let k = Scheduled::new(&DesKey::from_bytes(key));
        let sealed = t.seal_with(&k);
        prop_assert_eq!(sealed.open_with(&k).unwrap(), t);
    }

    #[test]
    fn tampered_ticket_never_opens_identically(t in arb_ticket(), key in any::<[u8; 8]>(), flip in any::<(u16, u8)>()) {
        let k = Scheduled::new(&DesKey::from_bytes(key));
        let mut sealed = t.seal_with(&k);
        let idx = (flip.0 as usize) % sealed.0.len();
        sealed.0[idx] ^= 1 << (flip.1 % 8);
        match sealed.open_with(&k) {
            Err(_) => {}
            Ok(opened) => prop_assert_ne!(opened, t),
        }
    }

    #[test]
    fn enc_kdc_part_round_trip(
        key in any::<[u8; 8]>(),
        s in arb_principal(),
        life in any::<u8>(),
        kvno in any::<u8>(),
        t in any::<u32>(),
        nonce in any::<u32>(),
        ticket in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let p = EncKdcReplyPart {
            session_key: key.into(),
            sname: s.name, sinstance: s.instance, srealm: s.realm,
            life, kvno, kdc_time: t, nonce,
            ticket: EncryptedTicket(ticket),
        };
        prop_assert_eq!(EncKdcReplyPart::decode(&p.encode()).unwrap(), p);
    }

    /// `seal_kdc_rep` — one buffer, one nested close — against the chain of
    /// owned steps it replaced: `Ticket::seal_with` → `EncKdcReplyPart::encode`
    /// → `seal_with` → `Message::encode`. Components of 0–40 characters and
    /// realms of 1–40 put 3–18 reply-part blocks in front of a 4–29-block
    /// ticket, fewer or more than the ticket has; both reply readers open
    /// the result to the ticket's fields and the ticket that was sealed.
    #[test]
    fn seal_kdc_rep_equals_the_owned_steps(
        (sname, sinstance) in (arb_wide_component(), arb_wide_component()),
        (cname, cinstance) in (arb_wide_component(), arb_wide_component()),
        (crealm, srealm) in (arb_wide_realm(), arb_wide_realm()),
        (addr, timestamp, life, kvno, nonce) in any::<([u8; 4], u32, u8, u8, u32)>(),
        (session, service_key, client_key) in any::<([u8; 8], [u8; 8], [u8; 8])>(),
    ) {
        use krb_crypto::{seal_with, Mode, Scheduled};
        let ticket = Ticket {
            sname, sinstance, cname, cinstance, crealm, addr, timestamp, life,
            session_key: session.into(),
        };
        let (service_key, client_key) = (DesKey::from_bytes(service_key), DesKey::from_bytes(client_key));
        let (service, client) = (Scheduled::new(&service_key), Scheduled::new(&client_key));

        let reply = kerberos::msg::seal_kdc_rep(&ticket.view(), &srealm, kvno, nonce, &service, &client).unwrap();
        let sealed_ticket = ticket.seal_with(&service);
        let part = EncKdcReplyPart {
            session_key: session.into(),
            sname: ticket.sname.clone(), sinstance: ticket.sinstance.clone(), srealm: srealm.clone(),
            life, kvno, kdc_time: timestamp, nonce,
            ticket: sealed_ticket.clone(),
        };
        let enc_part = seal_with(Mode::Pcbc, &client, &[0u8; 8], &part.encode()).unwrap();
        prop_assert_eq!(&reply, &Message::KdcRep(KdcRep { enc_part }).encode());

        for cred in [
            kerberos::read_tgs_reply_with(&reply, &client, nonce).unwrap(),
            kerberos::read_as_reply_with_key(&reply, &client_key, nonce).unwrap(),
        ] {
            let named = (cred.service.name.as_str(), cred.service.instance.as_str(), cred.service.realm.as_str());
            prop_assert_eq!(named, (ticket.sname.as_str(), ticket.sinstance.as_str(), srealm.as_str()));
            prop_assert_eq!(cred.session_key.as_bytes(), &session);
            prop_assert_eq!((cred.life, cred.issued, cred.kvno), (life, timestamp, kvno));
            prop_assert_eq!(&cred.ticket, &sealed_ticket);
            prop_assert_eq!(cred.ticket.open_with(&service).unwrap(), ticket.clone());
        }
    }

    #[test]
    fn principal_display_parse_round_trip(p in arb_principal()) {
        let text = p.to_string();
        let q = Principal::parse(&text, "FALLBACK").unwrap();
        prop_assert_eq!(p, q);
    }

    // The replay cache must accept/reject exactly the same request
    // sequences as one set of fingerprints behind one lock and one purge
    // clock (the reference model). The equivalence domain is the set
    // of keys that can actually reach the cache: krb_rd_req checks
    // |now - timestamp| <= MAX_SKEW_SECS *before* consulting it, and purges
    // only drop entries older than 2x the skew window, so in-window entries
    // are never evicted and per-stripe purge clocks cannot cause divergence.
    // Generated timestamps span the full reachable window including the
    // ts = now - MAX_SKEW boundary (the attacks.rs edge: a replay at exactly
    // timestamp+MAX_SKEW must still draw a cache hit, not a clock rejection).
    #[test]
    fn replay_cache_matches_one_set_model_in_window(
        ops in proptest::collection::vec(
            (
                0u32..=120,                                    // clock advance
                0usize..4,                                     // client pick
                0usize..6,                                     // auth-hash pick
                prop_oneof![Just(0u32), Just(MAX_SKEW_SECS), 0u32..=MAX_SKEW_SECS],
            ),
            1..200,
        ),
    ) {
        let clients = ["bcn@ATHENA.MIT.EDU", "jis@ATHENA.MIT.EDU", "raeburn@MIT.EDU", "don@LCS.MIT.EDU"];
        // Sparse hashes spread across stripes; adjacent values collide into
        // the same stripe modulo 16 only when equal, exercising both shared
        // and distinct stripes for repeated keys.
        let hashes: [u64; 6] = [0, 1, 15, 16, 0xdead_beef, u64::MAX];
        let mut model = ModelReplayCache::default();
        let cache = ReplayCache::new();
        let mut now = 1_000_000u32;
        for (delta, ci, hi, back) in ops {
            now += delta;
            let key = ReplayKey {
                client: clients[ci].to_string(),
                timestamp: now - back,
                auth_hash: hashes[hi],
            };
            let a = model.check_and_insert(key.clone(), now);
            let b = cache.check_and_insert(key, now);
            prop_assert_eq!(a, b, "verdicts diverged at now={}", now);
        }
        prop_assert_eq!(model.hits, cache.replay_hits());
    }

    // The generation store against the definition it replaced, and not
    // only on the sequences krb_rd_req can produce: any timestamp, and a
    // clock that stands still, leaps past the purge horizon or runs
    // backwards. Decision, size, hits and evictions agree after every step
    // with sixteen models, each with its own purge clock like a stripe.
    #[test]
    fn replay_cache_equals_reference_model(
        start in prop_oneof![Just(0u32), Just(1_000_000), Just(u32::MAX - 20_000)],
        ops in proptest::collection::vec(
            (arb_tick(), 0usize..3, 0usize..8, arb_stamp()),
            1..300,
        ),
    ) {
        let clients = ["bcn@ATHENA.MIT.EDU", "bcn.root@ATHENA.MIT.EDU", "jis@LCS.MIT.EDU"];
        let mut stripe_models: Vec<ModelReplayCache> =
            (0..REPLAY_STRIPES).map(|_| ModelReplayCache::default()).collect();
        let striped = ReplayCache::new();
        let mut now = start;
        for (tick, ci, ai, stamp) in ops {
            now = match tick {
                Tick::Stay => now,
                Tick::Forward(d) | Tick::Jump(d) => now.saturating_add(d),
                Tick::Back(d) => now.saturating_sub(d),
            };
            let key = ReplayKey {
                client: clients[ci].to_string(),
                timestamp: stamp.at(now),
                auth_hash: kerberos::replay::hash_bytes(&[ai as u8; 24]),
            };
            let stripe = &mut stripe_models[(key.auth_hash % REPLAY_STRIPES as u64) as usize];

            prop_assert_eq!(
                striped.check_and_insert(key.clone(), now),
                stripe.check_and_insert(key.clone(), now),
                "striped cache, now={} ts={}", now, key.timestamp
            );
            prop_assert_eq!(
                (striped.len(), striped.replay_hits(), striped.evictions()),
                (
                    stripe_models.iter().map(|m| m.seen.len()).sum::<usize>(),
                    stripe_models.iter().map(|m| m.hits).sum::<u64>(),
                    stripe_models.iter().map(|m| m.evictions).sum::<u64>(),
                )
            );
        }
    }
}

/// The owned decoders as they were before the views became the parsers: a
/// position-and-copy `Reader` and one decode function per structure, kept
/// here — and nowhere else — as the model the view decoders are held to.
mod owned_model {
    use kerberos::authent::Authenticator;
    use kerberos::{
        ApRep, ApReq, AsReq, EncKdcReplyPart, EncryptedTicket, ErrMsg, ErrorCode, KdcRep, KrbResult,
        Message, PrivMsg, SafeMsg, TgsReq, Ticket,
    };
    use krb_crypto::SecretKey;

    struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }
        fn expect_end(&self) -> KrbResult<()> {
            if self.pos == self.buf.len() {
                Ok(())
            } else {
                Err(ErrorCode::RdApUndec)
            }
        }
        fn take(&mut self, n: usize) -> KrbResult<&'a [u8]> {
            if self.pos + n > self.buf.len() {
                return Err(ErrorCode::RdApUndec);
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        fn u8(&mut self) -> KrbResult<u8> {
            Ok(self.take(1)?[0])
        }
        fn u16(&mut self) -> KrbResult<u16> {
            Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
        }
        fn u32(&mut self) -> KrbResult<u32> {
            Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
        }
        fn str(&mut self) -> KrbResult<String> {
            let len = self.u8()? as usize;
            let raw = self.take(len)?;
            String::from_utf8(raw.to_vec()).map_err(|_| ErrorCode::RdApUndec)
        }
        fn bytes(&mut self) -> KrbResult<Vec<u8>> {
            let len = self.u16()? as usize;
            Ok(self.take(len)?.to_vec())
        }
        fn addr(&mut self) -> KrbResult<[u8; 4]> {
            Ok(self.take(4)?.try_into().unwrap())
        }
        fn block(&mut self) -> KrbResult<[u8; 8]> {
            Ok(self.take(8)?.try_into().unwrap())
        }
    }

    fn ap(r: &mut Reader<'_>) -> KrbResult<ApReq> {
        Ok(ApReq {
            realm: r.str()?,
            ticket: EncryptedTicket(r.bytes()?),
            authenticator: r.bytes()?,
            mutual: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ErrorCode::RdApUndec),
            },
        })
    }

    pub fn message(buf: &[u8]) -> KrbResult<Message> {
        let mut r = Reader::new(buf);
        if r.u8()? != kerberos::msg::PROTO_VERSION {
            return Err(ErrorCode::RdApVersion);
        }
        let msg = match r.u8()? {
            1 => Message::AsReq(AsReq {
                cname: r.str()?,
                cinstance: r.str()?,
                crealm: r.str()?,
                sname: r.str()?,
                sinstance: r.str()?,
                life: r.u8()?,
                ctime: r.u32()?,
            }),
            2 => Message::KdcRep(KdcRep { enc_part: r.bytes()? }),
            3 => Message::TgsReq(TgsReq {
                ap: ap(&mut r)?,
                sname: r.str()?,
                sinstance: r.str()?,
                life: r.u8()?,
            }),
            5 => Message::ApReq(ap(&mut r)?),
            6 => Message::ApRep(ApRep { enc_part: r.bytes()? }),
            7 => Message::Safe(SafeMsg {
                data: r.bytes()?,
                addr: r.addr()?,
                timestamp: r.u32()?,
                cksum: r.u32()?,
            }),
            8 => Message::Priv(PrivMsg { enc_part: r.bytes()? }),
            9 => Message::Err(ErrMsg { code: ErrorCode::from_u8(r.u8()?), text: r.str()? }),
            _ => return Err(ErrorCode::RdApUndec),
        };
        r.expect_end()?;
        Ok(msg)
    }

    pub fn ticket(buf: &[u8]) -> KrbResult<Ticket> {
        let mut r = Reader::new(buf);
        let t = Ticket {
            sname: r.str()?,
            sinstance: r.str()?,
            cname: r.str()?,
            cinstance: r.str()?,
            crealm: r.str()?,
            addr: r.addr()?,
            timestamp: r.u32()?,
            life: r.u8()?,
            session_key: SecretKey::new(r.block()?),
        };
        r.expect_end()?;
        Ok(t)
    }

    pub fn authenticator(buf: &[u8]) -> KrbResult<Authenticator> {
        let mut r = Reader::new(buf);
        let a = Authenticator {
            cname: r.str()?,
            cinstance: r.str()?,
            crealm: r.str()?,
            addr: r.addr()?,
            timestamp: r.u32()?,
            cksum: r.u32()?,
        };
        r.expect_end()?;
        Ok(a)
    }

    pub fn reply_part(buf: &[u8]) -> KrbResult<EncKdcReplyPart> {
        let mut r = Reader::new(buf);
        let p = EncKdcReplyPart {
            session_key: SecretKey::new(r.block()?),
            sname: r.str()?,
            sinstance: r.str()?,
            srealm: r.str()?,
            life: r.u8()?,
            kvno: r.u8()?,
            kdc_time: r.u32()?,
            nonce: r.u32()?,
            ticket: EncryptedTicket(r.bytes()?),
        };
        r.expect_end()?;
        Ok(p)
    }
}

/// How a valid encoding is damaged before both decoders see it.
#[derive(Clone, Debug)]
struct Damage {
    at: usize,
    flip: u8,
    set: u8,
    cut: usize,
    extra: Vec<u8>,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    (
        any::<usize>(),
        1u8..=255,
        prop_oneof![Just(0u8), Just(1), Just(2), Just(0x7f), Just(0x80), Just(0xff), any::<u8>()],
        any::<usize>(),
        proptest::collection::vec(any::<u8>(), 1..4),
    )
        .prop_map(|(at, flip, set, cut, extra)| Damage { at, flip, set, cut, extra })
}

impl Damage {
    /// The valid encoding itself, then one byte flipped, one byte set (to a
    /// length, a flag or a non-UTF-8 value), a truncation, an extension.
    fn inputs(&self, valid: &[u8]) -> Vec<Vec<u8>> {
        let mut all = vec![valid.to_vec()];
        if !valid.is_empty() {
            let at = self.at % valid.len();
            let mut flipped = valid.to_vec();
            flipped[at] ^= self.flip;
            let mut set = valid.to_vec();
            set[at] = self.set;
            all.extend([flipped, set, valid[..self.cut % valid.len()].to_vec()]);
        }
        all.push([valid, &self.extra[..]].concat());
        all
    }
}

/// `view` and `model` must give one verdict on `input`; on accept, the
/// view's owned copy is the model's value.
fn same_verdict<V, T: PartialEq + std::fmt::Debug>(
    input: &[u8],
    view: KrbResultOf<V>,
    to_owned: impl Fn(&V) -> T,
    model: KrbResultOf<T>,
) -> Option<V> {
    match (view, model) {
        (Ok(v), Ok(m)) => {
            assert_eq!(to_owned(&v), m, "input {input:02x?}");
            Some(v)
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "input {input:02x?}");
            None
        }
        (v, m) => panic!("view {:?} but model {:?} on {input:02x?}", v.map(|_| ()), m.map(|_| ())),
    }
}

type KrbResultOf<T> = Result<T, ErrorCode>;

fn arb_authenticator() -> impl Strategy<Value = kerberos::Authenticator> {
    (arb_principal(), any::<[u8; 4]>(), any::<u32>(), any::<u32>())
        .prop_map(|(c, addr, ts, ck)| kerberos::Authenticator::new(&c, addr, ts, ck))
}

fn arb_reply_part() -> impl Strategy<Value = EncKdcReplyPart> {
    (
        any::<[u8; 8]>(),
        arb_principal(),
        any::<(u8, u8, u32, u32)>(),
        proptest::collection::vec(any::<u8>(), 0..120),
    )
        .prop_map(|(key, s, (life, kvno, kdc_time, nonce), ticket)| EncKdcReplyPart {
            session_key: key.into(),
            sname: s.name,
            sinstance: s.instance,
            srealm: s.realm,
            life,
            kvno,
            kdc_time,
            nonce,
            ticket: EncryptedTicket(ticket),
        })
}

proptest! {
    /// The view decoders against the owned decoders they replaced: on valid
    /// encodings, on each damaged in five ways, and on arbitrary bytes, the
    /// two accept and refuse identically with the same `ErrorCode`; on
    /// accept `view.to_owned()` is the owned value, the owned entry point
    /// (now view + `to_owned`) agrees, and writing the view back gives the
    /// input — except for the one byte of an `Err` message whose code this
    /// library does not know, which decodes to `Unknown` by design.
    #[test]
    fn view_decoders_equal_the_owned_decoders(
        message in arb_message(),
        ticket in arb_ticket(),
        authenticator in arb_authenticator(),
        part in arb_reply_part(),
        damage in arb_damage(),
        junk in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        use kerberos::msg::EncKdcReplyPartView;
        use kerberos::wire::Writer;
        use kerberos::{AuthenticatorView, MessageView, TicketView};

        let written = |write: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            write(&mut w);
            w.finish()
        };
        let with_junk = |valid: Vec<u8>| {
            let mut inputs = damage.inputs(&valid);
            inputs.push(junk.clone());
            inputs
        };

        for input in with_junk(message.encode()) {
            let model = owned_model::message(&input);
            prop_assert_eq!(Message::decode(&input), model.clone());
            if let Some(view) = same_verdict(&input, MessageView::decode(&input), |v| v.to_owned(), model) {
                let mut rewritten = view.encode();
                if let MessageView::Err { code: ErrorCode::Unknown, .. } = view {
                    rewritten[2] = input[2];
                }
                prop_assert_eq!(rewritten, input);
            }
        }
        for input in with_junk(written(&|w| ticket.view().write(w))) {
            let model = owned_model::ticket(&input);
            if let Some(view) = same_verdict(&input, TicketView::decode(&input), |v| v.to_owned(), model) {
                prop_assert_eq!(written(&|w| view.write(w)), input);
            }
        }
        for input in with_junk(written(&|w| authenticator.view().write(w))) {
            let model = owned_model::authenticator(&input);
            if let Some(view) = same_verdict(&input, AuthenticatorView::decode(&input), |v| v.to_owned(), model) {
                prop_assert_eq!(written(&|w| view.write(w)), input);
            }
        }
        for input in with_junk(part.encode()) {
            let model = owned_model::reply_part(&input);
            prop_assert_eq!(EncKdcReplyPart::decode(&input), model.clone());
            if let Some(view) = same_verdict(&input, EncKdcReplyPartView::decode(&input), |v| v.to_owned(), model) {
                prop_assert_eq!(view.encode(), input);
            }
        }
    }

    /// A component longer than its length byte can say — reachable, since
    /// `Principal`'s fields are public and a struct literal walks past
    /// `Principal::new`'s cap — is cut to 255 bytes at a character
    /// boundary, so the request still parses, field for field, instead of
    /// carrying a length that disagrees with what follows it.
    #[test]
    fn an_over_long_component_leaves_the_frame_in_step(
        extra in 1usize..200,
        wide in any::<bool>(),
        service in arb_principal(),
        ctime in any::<u32>(),
    ) {
        let unit = if wide { "é" } else { "x" };
        let long = unit.repeat((255 + extra).div_ceil(unit.len()));
        let client = Principal { name: long.clone(), instance: String::new(), realm: "R".into() };
        let req = kerberos::build_as_req(&client, &service, 7, ctime);
        match Message::decode(&req).unwrap() {
            Message::AsReq(r) => {
                prop_assert_eq!(&r.cname, &long[..unit.len() * (255 / unit.len())]);
                prop_assert_eq!((r.crealm.as_str(), r.sname, r.sinstance), ("R", service.name, service.instance));
                prop_assert_eq!((r.life, r.ctime), (7, ctime));
            }
            other => prop_assert!(false, "decoded as {other:?}"),
        }
    }
}
