//! Golden replies: one seeded script through `Kdc::handle_traced`, every
//! reply byte, the request counters, the registry, the heavy-hitter tables
//! and the journal folded into one digest.
//!
//! The digest below was generated at the commit *before* the request path
//! was rebuilt on borrowed views and in-place sealing (PR 21), so it pins
//! that rewrite to the old behaviour byte for byte: same ciphertext, same
//! error code for every refusal, same check order (a refusal that came
//! after the replay cache was written must still come after it), same
//! schedule-cache traffic, same journal. It uses only API both commits
//! have. When it fails, `GOLDEN` is not the thing to edit unless a reply
//! is *meant* to change.

use kerberos::msg::{ApRep, ApReq, ErrMsg, KdcRep, PrivMsg, SafeMsg, TgsReq};
use kerberos::{
    build_as_req, build_tgs_req_with, krb_mk_req, read_as_reply_with_password, read_tgs_reply_with,
    Credential, EncryptedTicket, ErrorCode, HostAddr, Message, Principal, Ticket, MAX_SKEW_SECS,
};
use krb_crypto::{string_to_key, DesKey, Scheduled};
use krb_kdb::{MemStore, PrincipalDb, ATTR_DISABLED, ATTR_NO_TGS};
use krb_kdc::{pair_realms, shared_clock, Kdc, KdcRole, RealmConfig};
use krb_telemetry::{Journal, TraceId};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const ATHENA: &str = "ATHENA.MIT.EDU";
const LCS: &str = "LCS.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS: HostAddr = [18, 72, 0, 5];
const OTHER_WS: HostAddr = [18, 72, 0, 99];

/// FNV-1a 64 of the transcript, and its length.
const GOLDEN: (u64, usize) = (7_088_357_998_678_902_285, 63_065);

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn athena_db() -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("athena-master"), NOW).unwrap();
    let far = NOW + 3 * 365 * 24 * 3600;
    let mut add = |name: &str, instance: &str, pw: &str, expiration: u32, max_life: u8| {
        db.add_principal(name, instance, &string_to_key(pw), expiration, max_life, NOW, "init.")
            .unwrap();
    };
    add("krbtgt", ATHENA, "tgs-athena", far, 96);
    add("bcn", "", "bcn-pw", far, 96);
    add("jis", "", "jis-pw", far, 48);
    add("steiner", "admin", "steiner-pw", far, 30);
    add("mallory", "", "mallory-pw", far, 96);
    add("oldtimer", "", "oldtimer-pw", NOW - 1, 96);
    add("rlogin", "priam", "rlogin-srvtab", far, 96);
    add("pop", "paris", "pop-srvtab", far, 12);
    // No limit of its own: the realm default applies.
    add("discuss", "lib", "discuss-srvtab", far, 0);
    add("zephyr", "off", "zephyr-srvtab", far, 96);
    add("nfs", "old", "nfs-srvtab", NOW - 1, 96);
    add("changepw", "kerberos", "kdbm-srvtab", far, 3);
    for (name, instance, attr) in [
        ("mallory", "", ATTR_DISABLED),
        ("zephyr", "off", ATTR_DISABLED),
        ("changepw", "kerberos", ATTR_NO_TGS),
    ] {
        let mut e = db.get(name, instance).unwrap().unwrap();
        e.attributes |= attr;
        db.update_entry(&e).unwrap();
    }
    db
}

fn lcs_db() -> PrincipalDb<MemStore> {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("lcs-master"), NOW).unwrap();
    let far = NOW + 3 * 365 * 24 * 3600;
    db.add_principal("krbtgt", LCS, &string_to_key("tgs-lcs"), far, 96, NOW, "init.").unwrap();
    db.add_principal("saltzer", "", &string_to_key("saltzer-pw"), far, 96, NOW, "init.").unwrap();
    db.add_principal("supdup", "zeus", &string_to_key("supdup-srvtab"), far, 96, NOW, "init.").unwrap();
    db
}

/// The script's state: two paired realms on one movable clock, and the
/// transcript every reply is appended to.
struct Script {
    athena: Kdc<MemStore>,
    lcs: Kdc<MemStore>,
    clock: Arc<AtomicU32>,
    journal: Arc<Journal>,
    shared_key: DesKey,
    transcript: String,
    step: u64,
}

impl Script {
    fn new() -> Self {
        let clock = Arc::new(AtomicU32::new(NOW));
        let mut athena_cfg = RealmConfig::new(ATHENA);
        let mut lcs_cfg = RealmConfig::new(LCS);
        let shared_key = string_to_key("athena-lcs-shared");
        pair_realms(&mut athena_cfg, &mut lcs_cfg, shared_key).unwrap();
        let athena =
            Kdc::new(athena_db(), athena_cfg, shared_clock(Arc::clone(&clock)), KdcRole::Master, 21);
        let lcs = Kdc::new(lcs_db(), lcs_cfg, shared_clock(Arc::clone(&clock)), KdcRole::Master, 22);
        let journal = Arc::new(Journal::new(1 << 16));
        athena.set_journal(Arc::clone(&journal));
        lcs.set_journal(Arc::clone(&journal));
        athena.enable_top_stats(8);
        Script { athena, lcs, clock, journal, shared_key, transcript: String::new(), step: 0 }
    }

    fn now(&self) -> u32 {
        self.clock.load(Ordering::SeqCst)
    }

    fn set_now(&self, t: u32) {
        self.clock.store(t, Ordering::SeqCst);
    }

    fn record(&mut self, label: &str, realm: &str, reply: &[u8]) {
        let _ = write!(self.transcript, "{:03} {label} @{realm}: ", self.step);
        for b in reply {
            let _ = write!(self.transcript, "{b:02x}");
        }
        self.transcript.push('\n');
    }

    fn send_to(&mut self, lcs: bool, label: &str, request: &[u8], sender: HostAddr) -> Vec<u8> {
        self.step += 1;
        // Every third step goes untraced, so both journal shapes are pinned.
        let trace = (!self.step.is_multiple_of(3)).then_some(TraceId(self.step));
        let (kdc, realm) = if lcs { (&self.lcs, LCS) } else { (&self.athena, ATHENA) };
        let reply = kdc.handle_traced(request, sender, trace);
        self.record(label, realm, &reply);
        reply
    }

    fn send(&mut self, label: &str, request: &[u8]) -> Vec<u8> {
        self.send_to(false, label, request, WS)
    }

    /// AS exchange at ATHENA for a TGT.
    fn login(&mut self, label: &str, user: &Principal, pw: &str, life: u8) -> Result<Credential, ErrorCode> {
        let now = self.now();
        let req = build_as_req(user, &Principal::tgs(ATHENA, ATHENA), life, now);
        let reply = self.send(label, &req);
        read_as_reply_with_password(&reply, pw, now)
    }

    fn tgs(&mut self, label: &str, tgt: &Credential, user: &Principal, target: &Principal, life: u8) -> Result<Credential, ErrorCode> {
        let now = self.now();
        let req = build_tgs_req_with(tgt, &Scheduled::new(&tgt.key()), user, WS, now, target, life);
        let reply = self.send(label, &req);
        read_tgs_reply_with(&reply, &Scheduled::new(&tgt.key()), now)
    }

    /// A TGS_REQ around a hand-sealed ticket.
    #[allow(clippy::too_many_arguments)]
    fn crafted(
        &mut self,
        label: &str,
        ticket: &Ticket,
        sealing_key: &DesKey,
        ap_realm: &str,
        auth_client: &Principal,
        target: &Principal,
        want: Result<(), ErrorCode>,
    ) {
        let now = self.now();
        let sealed = ticket.seal_with(&Scheduled::new(sealing_key));
        let session = ticket.session_key.as_des_key();
        let ap = krb_mk_req(&sealed, ap_realm, &session, auth_client, WS, now, 0, false);
        let req = Message::TgsReq(TgsReq {
            ap,
            sname: target.name.clone(),
            sinstance: target.instance.clone(),
            life: 96,
        })
        .encode();
        let reply = self.send(label, &req);
        let got = match Message::decode(&reply).unwrap() {
            Message::KdcRep(_) => Ok(()),
            Message::Err(e) => Err(e.code),
            other => panic!("{label}: unexpected reply {other:?}"),
        };
        assert_eq!(got, want, "{label}");
    }
}

fn p(text: &str) -> Principal {
    Principal::parse(text, ATHENA).unwrap()
}

fn tgt_for(client: &Principal, session: [u8; 8], timestamp: u32) -> Ticket {
    Ticket::new(&Principal::tgs(ATHENA, ATHENA), client, WS, timestamp, 96, session)
}

#[test]
fn every_reply_stat_and_journal_line_matches_the_parent_commit() {
    let mut s = Script::new();
    let tgs_key = string_to_key("tgs-athena");
    let (bcn, jis, steiner) = (p("bcn"), p("jis"), p("steiner.admin"));
    let (rlogin, pop) = (p("rlogin.priam"), p("pop.paris"));
    let kdbm = Principal::kdbm(ATHENA);

    // Honest AS exchanges: three users, three requested lifetimes, and one
    // AS-only service asked for directly.
    let bcn_tgt = s.login("as bcn", &bcn, "bcn-pw", 96).unwrap();
    let bcn_tgt_sched = Scheduled::new(&bcn_tgt.key());
    let jis_tgt = s.login("as jis life 255", &jis, "jis-pw", 255).unwrap();
    let jis_tgt_sched = Scheduled::new(&jis_tgt.key());
    assert_eq!(jis_tgt.life, 48);
    let steiner_tgt = s.login("as steiner.admin life 10", &steiner, "steiner-pw", 10).unwrap();
    assert_eq!(steiner_tgt.life, 10);
    assert_eq!(s.login("as bcn life 0", &bcn, "bcn-pw", 0).unwrap().life, 0);
    let now = s.now();
    let reply = s.send("as bcn for changepw", &build_as_req(&bcn, &kdbm, 96, now));
    assert_eq!(read_as_reply_with_password(&reply, "bcn-pw", now).unwrap().life, 3);

    // AS refusals.
    for (label, user, want) in [
        ("as unknown client", p("nobody"), ErrorCode::KdcPrUnknown),
        ("as disabled client", p("mallory"), ErrorCode::KdcNullKey),
        ("as expired client", p("oldtimer"), ErrorCode::KdcNameExp),
        ("as 255-byte client", Principal { name: "n".repeat(255), ..bcn.clone() }, ErrorCode::KdcPrUnknown),
        ("as wrong realm", Principal::parse("bcn@EVIL.ORG", ATHENA).unwrap(), ErrorCode::KdcUnknownRealm),
    ] {
        assert_eq!(s.login(label, &user, "x", 96).unwrap_err(), want, "{label}");
    }
    for (label, service, want) in [
        ("as unknown service", p("ghost.host"), ErrorCode::KdcPrUnknown),
        ("as disabled service", p("zephyr.off"), ErrorCode::KdcNullKey),
        ("as expired service", p("nfs.old"), ErrorCode::KdcServiceExp),
        ("as cross-realm tgt", Principal::tgs(LCS, ATHENA), ErrorCode::KdcPrUnknown),
    ] {
        let reply = s.send(label, &build_as_req(&bcn, &service, 96, now));
        assert_eq!(read_as_reply_with_password(&reply, "bcn-pw", now).unwrap_err(), want, "{label}");
    }

    // Honest TGS exchanges, one second apart so no two authenticators of
    // one client share a timestamp.
    s.set_now(NOW + 1);
    let rlogin_cred = s.tgs("tgs bcn rlogin", &bcn_tgt, &bcn, &rlogin, 96).unwrap();
    assert_eq!(s.tgs("tgs bcn pop", &bcn_tgt, &bcn, &pop, 96).unwrap_err(), ErrorCode::RdApRepeat);
    s.set_now(NOW + 2);
    assert_eq!(s.tgs("tgs bcn pop", &bcn_tgt, &bcn, &pop, 96).unwrap().life, 12);
    assert_eq!(s.tgs("tgs jis rlogin life 200", &jis_tgt, &jis, &rlogin, 200).unwrap().life, 47);
    assert_eq!(s.tgs("tgs steiner pop life 5", &steiner_tgt, &steiner, &pop, 5).unwrap().life, 5);
    s.set_now(NOW + 3);
    let tgt_again = s.tgs("tgs bcn krbtgt", &bcn_tgt, &bcn, &Principal::tgs(ATHENA, ATHENA), 96);
    assert_eq!(tgt_again.unwrap().service.name, "krbtgt");
    let discuss = s.tgs("tgs jis discuss", &jis_tgt, &jis, &p("discuss.lib"), 96);
    assert_eq!(discuss.unwrap().life, 47);

    // TGS refusals on the target.
    for (i, (label, target, want)) in [
        ("tgs unknown service", p("ghost.host"), ErrorCode::KdcPrUnknown),
        ("tgs disabled service", p("zephyr.off"), ErrorCode::KdcNullKey),
        ("tgs expired service", p("nfs.old"), ErrorCode::KdcServiceExp),
        ("tgs no-tgs service", kdbm.clone(), ErrorCode::KdcNoTgsForService),
        ("tgs unpaired realm", Principal::tgs("EVIL.ORG", ATHENA), ErrorCode::KdcUnknownRealm),
    ]
    .into_iter()
    .enumerate()
    {
        s.set_now(NOW + 4 + i as u32);
        assert_eq!(s.tgs(label, &bcn_tgt, &bcn, &target, 96).unwrap_err(), want, "{label}");
    }

    // Verbatim replay, then the same request from another address.
    s.set_now(NOW + 10);
    let req = build_tgs_req_with(&bcn_tgt, &bcn_tgt_sched, &bcn, WS, NOW + 10, &rlogin, 96);
    assert!(read_tgs_reply_with(&s.send("tgs first", &req), &bcn_tgt_sched, NOW + 10).is_ok());
    let replayed = s.send("tgs replayed", &req);
    assert_eq!(read_tgs_reply_with(&replayed, &bcn_tgt_sched, NOW + 10).unwrap_err(), ErrorCode::RdApRepeat);
    let req = build_tgs_req_with(&bcn_tgt, &bcn_tgt_sched, &bcn, WS, NOW + 11, &rlogin, 96);
    let moved = s.send_to(false, "tgs wrong sender", &req, OTHER_WS);
    assert_eq!(read_tgs_reply_with(&moved, &bcn_tgt_sched, NOW + 11).unwrap_err(), ErrorCode::RdApBadAddr);

    // Skew: both edges, one second inside and one outside.
    for (label, ts, ok) in [
        ("skew -300", NOW + 10 - MAX_SKEW_SECS, true),
        ("skew -301", NOW + 10 - MAX_SKEW_SECS - 1, false),
        ("skew +300", NOW + 10 + MAX_SKEW_SECS, true),
        ("skew +301", NOW + 10 + MAX_SKEW_SECS + 1, false),
    ] {
        let req = build_tgs_req_with(&jis_tgt, &jis_tgt_sched, &jis, WS, ts, &rlogin, 96);
        let got = read_tgs_reply_with(&s.send(label, &req), &jis_tgt_sched, ts);
        assert_eq!(got.as_ref().err().copied(), (!ok).then_some(ErrorCode::RdApTime), "{label}");
    }

    // A service ticket is not a TGT; neither is a krbtgt-keyed ticket that
    // names another service; an unknown issuing realm has no key at all.
    s.set_now(NOW + 20);
    let as_tgt = Credential { issuing_realm: ATHENA.into(), ..rlogin_cred.clone() };
    assert_eq!(s.tgs("tgs with a service ticket", &as_tgt, &bcn, &pop, 96).unwrap_err(), ErrorCode::RdApNotUs);
    let mut misnamed = tgt_for(&bcn, [3; 8], NOW);
    misnamed.sname = "rlogin".into();
    s.crafted("tgt names another service", &misnamed, &tgs_key, ATHENA, &bcn, &pop, Err(ErrorCode::RdApNotUs));
    let mut wrong_instance = tgt_for(&bcn, [3; 8], NOW);
    wrong_instance.sinstance = LCS.into();
    s.crafted("tgt names another realm's tgs", &wrong_instance, &tgs_key, ATHENA, &bcn, &pop, Err(ErrorCode::RdApNotUs));
    s.crafted("tgt from an unpaired realm", &tgt_for(&bcn, [3; 8], NOW), &tgs_key, "EVIL.ORG", &bcn, &pop, Err(ErrorCode::KdcUnknownRealm));
    // Authenticator and ticket disagree; authenticator sealed in another key.
    s.crafted("authenticator names jis", &tgt_for(&bcn, [4; 8], NOW), &tgs_key, ATHENA, &jis, &pop, Err(ErrorCode::RdApIncon));
    {
        let now = s.now();
        let sealed = tgt_for(&bcn, [5; 8], NOW).seal_with(&Scheduled::new(&tgs_key));
        let ap = krb_mk_req(&sealed, ATHENA, &string_to_key("guess"), &bcn, WS, now, 0, false);
        let req = Message::TgsReq(TgsReq { ap, sname: "pop".into(), sinstance: "paris".into(), life: 96 });
        let reply = s.send("authenticator in a guessed key", &req.encode());
        assert_eq!(read_tgs_reply_with(&reply, &bcn_tgt_sched, now).unwrap_err(), ErrorCode::RdApIncon);
    }
    // A ticket issued in the far future is not yet valid.
    s.crafted("tgt from the future", &tgt_for(&bcn, [6; 8], NOW + 20 + MAX_SKEW_SECS + 1), &tgs_key, ATHENA, &bcn, &pop, Err(ErrorCode::RdApTime));

    // Tickets longer than any legal one (components past 40 bytes): sealed
    // for us they are served, sealed in another key they are not ours.
    let long_client = Principal { name: "c".repeat(100), instance: "i".repeat(90), realm: ATHENA.into() };
    let long = tgt_for(&long_client, [7; 8], NOW);
    assert!(long.seal_with(&Scheduled::new(&tgs_key)).len() > 232);
    s.crafted("long ticket, our key", &long, &tgs_key, ATHENA, &long_client, &rlogin, Ok(()));
    s.crafted("long ticket, replayed", &long, &tgs_key, ATHENA, &long_client, &rlogin, Err(ErrorCode::RdApRepeat));
    s.crafted("long ticket, another key", &long, &string_to_key("not-tgs"), ATHENA, &long_client, &rlogin, Err(ErrorCode::RdApNotUs));
    let huge_client = Principal { name: "h".repeat(255), instance: "j".repeat(255), realm: "R".repeat(255) };
    s.crafted("255-byte components", &tgt_for(&huge_client, [8; 8], NOW), &tgs_key, ATHENA, &huge_client, &pop, Ok(()));

    // Cross-realm out: bcn gets a TGT for LCS, uses it there.
    s.set_now(NOW + 30);
    let lcs_tgt = s.tgs("tgs bcn krbtgt.LCS", &bcn_tgt, &bcn, &Principal::tgs(LCS, ATHENA), 96).unwrap();
    let lcs_tgt_sched = Scheduled::new(&lcs_tgt.key());
    let supdup = Principal::parse("supdup.zeus", LCS).unwrap();
    let req = build_tgs_req_with(&lcs_tgt, &lcs_tgt_sched, &bcn, WS, NOW + 30, &supdup, 96);
    let reply = s.send_to(true, "lcs: bcn@ATHENA for supdup", &req, WS);
    assert_eq!(read_tgs_reply_with(&reply, &lcs_tgt_sched, NOW + 30).unwrap().service, supdup);
    // A foreign client may not hop onward.
    s.set_now(NOW + 31);
    let req = build_tgs_req_with(&lcs_tgt, &lcs_tgt_sched, &bcn, WS, NOW + 31, &Principal::tgs("EVIL.ORG", LCS), 96);
    let reply = s.send_to(true, "lcs: foreign client hops on", &req, WS);
    assert_eq!(read_tgs_reply_with(&reply, &lcs_tgt_sched, NOW + 31).unwrap_err(), ErrorCode::KdcUnknownRealm);

    // Cross-realm in: saltzer@LCS logs in at LCS, gets a TGT for ATHENA,
    // presents it at ATHENA.
    let saltzer = Principal::parse("saltzer", LCS).unwrap();
    let req = build_as_req(&saltzer, &Principal::tgs(LCS, LCS), 96, NOW + 31);
    let reply = s.send_to(true, "lcs: as saltzer", &req, WS);
    let saltzer_tgt = read_as_reply_with_password(&reply, "saltzer-pw", NOW + 31).unwrap();
    let saltzer_tgt_sched = Scheduled::new(&saltzer_tgt.key());
    let req = build_tgs_req_with(&saltzer_tgt, &saltzer_tgt_sched, &saltzer, WS, NOW + 31, &Principal::tgs(ATHENA, LCS), 96);
    let reply = s.send_to(true, "lcs: tgs saltzer krbtgt.ATHENA", &req, WS);
    let athena_tgt = read_tgs_reply_with(&reply, &saltzer_tgt_sched, NOW + 31).unwrap();
    let foreign = s.tgs("tgs saltzer@LCS rlogin", &athena_tgt, &saltzer, &rlogin, 96).unwrap();
    assert_eq!(foreign.service, rlogin);
    s.set_now(NOW + 32);
    let onward = s.tgs("tgs saltzer@LCS hops on", &athena_tgt, &saltzer, &Principal::tgs(LCS, ATHENA), 96);
    assert_eq!(onward.unwrap_err(), ErrorCode::KdcUnknownRealm);
    // A TGT in the inter-realm key that claims a local client is a forgery.
    let shared = s.shared_key;
    s.crafted("foreign tgt claims bcn@ATHENA", &tgt_for(&bcn, [9; 8], NOW), &shared, LCS, &bcn, &rlogin, Err(ErrorCode::RdApIncon));

    // What a key holder can seal but no encoder writes: plaintexts that do
    // not parse. (Sealed with the library's framing, so the key is right
    // and the refusal comes from the parser.)
    for (label, plain) in [
        ("ticket plaintext truncated", &b"\x06krbtgt\x0eATHENA"[..]),
        ("ticket plaintext not utf-8", &b"\x06krbtgt\x0eATHENA.MIT.EDU\x02\xff\xfe\x00\x01R\x01\x02\x03\x04\x00\x00\x00\x01\x60ABCDEFGH"[..]),
        ("ticket plaintext empty", &b""[..]),
    ] {
        let sealed = krb_crypto::seal_with(krb_crypto::Mode::Pcbc, &Scheduled::new(&tgs_key), &[0u8; 8], plain).unwrap();
        let ap = ApReq { realm: ATHENA.into(), ticket: EncryptedTicket(sealed), authenticator: vec![0; 16], mutual: false };
        let req = Message::TgsReq(TgsReq { ap, sname: "pop".into(), sinstance: "paris".into(), life: 96 });
        let reply = s.send(label, &req.encode());
        assert_eq!(read_tgs_reply_with(&reply, &bcn_tgt_sched, 0).unwrap_err(), ErrorCode::RdApNotUs, "{label}");
    }
    for (label, ticket, authenticator) in [
        ("empty ticket", vec![], vec![0; 8]),
        ("ticket not whole blocks", vec![1; 13], vec![0; 8]),
        ("empty authenticator", tgt_for(&bcn, [2; 8], NOW).seal_with(&Scheduled::new(&tgs_key)).0, vec![]),
        ("authenticator not whole blocks", tgt_for(&bcn, [2; 8], NOW).seal_with(&Scheduled::new(&tgs_key)).0, vec![7; 21]),
    ] {
        let ap = ApReq { realm: ATHENA.into(), ticket: EncryptedTicket(ticket), authenticator, mutual: true };
        let req = Message::TgsReq(TgsReq { ap, sname: "pop".into(), sinstance: "paris".into(), life: 96 });
        s.send(label, &req.encode());
    }

    // Every other well-formed message type, and framing the decoder refuses.
    let ap = krb_mk_req(&rlogin_cred.ticket, ATHENA, &rlogin_cred.key(), &bcn, WS, NOW + 32, 0, true);
    for (label, msg) in [
        ("a kdc_rep", Message::KdcRep(KdcRep { enc_part: vec![1; 24] })),
        ("an ap_req", Message::ApReq(ap)),
        ("an ap_rep", Message::ApRep(ApRep { enc_part: vec![2; 8] })),
        ("a safe message", Message::Safe(SafeMsg { data: b"hi".to_vec(), addr: WS, timestamp: NOW, cksum: 7 })),
        ("a priv message", Message::Priv(PrivMsg { enc_part: vec![3; 16] })),
        ("an error", Message::Err(ErrMsg { code: ErrorCode::KdcGenErr, text: "x".into() })),
    ] {
        s.send(label, &msg.encode());
    }
    let valid_as = build_as_req(&bcn, &Principal::tgs(ATHENA, ATHENA), 96, NOW + 32);
    let valid_tgs = build_tgs_req_with(&jis_tgt, &jis_tgt_sched, &jis, WS, NOW + 33, &pop, 96);
    let mut wrong_version = valid_as.clone();
    wrong_version[0] = 5;
    let mut unknown_type = valid_as.clone();
    unknown_type[1] = 42;
    let mut trailing = valid_tgs.clone();
    trailing.push(0);
    let mut bad_utf8 = valid_as.clone();
    bad_utf8[3] = 0xff;
    let mut bad_mutual = valid_tgs.clone();
    let flag = bad_mutual.len() - 1 - (1 + 3) - (1 + 5) - 1;
    assert_eq!(bad_mutual[flag], 0);
    bad_mutual[flag] = 2;
    for (label, datagram) in [
        ("empty datagram", &[][..]),
        ("wrong version", &wrong_version[..]),
        ("unknown type", &unknown_type[..]),
        ("trailing byte", &trailing[..]),
        ("name not utf-8", &bad_utf8[..]),
        ("mutual flag 2", &bad_mutual[..]),
    ] {
        s.send(label, datagram);
    }
    for cut in 0..valid_as.len() {
        s.send("as cut", &valid_as[..cut]);
    }
    for cut in 0..valid_tgs.len() {
        s.send("tgs cut", &valid_tgs[..cut]);
    }
    // Both are still good whole.
    s.set_now(NOW + 33);
    assert!(read_as_reply_with_password(&s.send("as whole", &valid_as), "bcn-pw", NOW + 32).is_ok());
    assert!(read_tgs_reply_with(&s.send("tgs whole", &valid_tgs), &jis_tgt_sched, NOW + 33).is_ok());

    // Nine hours on, the eight-hour TGT has expired.
    let late = NOW + 9 * 3600;
    s.set_now(late);
    assert_eq!(s.tgs("tgs expired tgt", &bcn_tgt, &bcn, &rlogin, 96).unwrap_err(), ErrorCode::RdApExp);

    let Script { athena, lcs, journal, mut transcript, .. } = s;
    for (realm, kdc) in [(ATHENA, &athena), (LCS, &lcs)] {
        let _ = writeln!(transcript, "stats @{realm}: {:?}", kdc.stats());
        let _ = writeln!(transcript, "registry @{realm}:\n{}", kdc.telemetry().render());
    }
    let top = athena.top_stats().unwrap();
    let _ = writeln!(transcript, "as_clients: {:?}", top.as_clients.top(8));
    let _ = writeln!(transcript, "tgs_services: {:?}", top.tgs_services.top(8));
    let _ = writeln!(transcript, "error_principals: {:?}", top.error_principals.top(8));
    assert_eq!(journal.events_dropped(), 0);
    let _ = writeln!(transcript, "journal:\n{}", journal.render());

    let got = (fnv1a(transcript.as_bytes()), transcript.len());
    assert_eq!(
        got, GOLDEN,
        "the transcript moved; its tail:\n{}",
        &transcript[transcript.len().saturating_sub(2000)..]
    );
}
