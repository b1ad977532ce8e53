//! Figure 9 end-to-end: the complete three-phase protocol over the
//! simulated network, plus the three protection levels of §2.1 riding the
//! established session key (experiments E4–E8, E12 functional halves).

use athena_kerberos::crypto::{KeyGenerator, Scheduled};
use athena_kerberos::kdc::{Deployment, RealmConfig};
use athena_kerberos::krb::{
    krb_mk_priv, krb_mk_rep, krb_mk_safe, krb_rd_priv, krb_rd_rep, krb_rd_req, krb_rd_safe,
    ErrorCode, Principal, ReplayCache,
};
use athena_kerberos::netsim::{NetConfig, Router, SimNet};
use athena_kerberos::tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REALM: &str = "ATHENA.MIT.EDU";
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];

struct Realm {
    router: Router,
    dep: Deployment,
    service: Principal,
    service_key: athena_kerberos::crypto::DesKey,
}

fn realm() -> Realm {
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master", start, 100).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(101));
    let service_key = register_service(&mut boot.db, "sample", "host", start, &mut keygen).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    ).unwrap();
    Realm {
        router,
        dep,
        service: Principal::parse("sample.host", REALM).unwrap(),
        service_key,
    }
}

fn workstation(r: &Realm) -> Workstation {
    Workstation::new(
        WS_ADDR,
        REALM,
        r.dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&r.dep.clock_cell)),
    )
}

#[test]
fn figure_9_three_phases_and_mutual_auth() {
    let mut r = realm();
    let mut ws = workstation(&r);

    // Phase 1: initial ticket (Fig. 5).
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    // Phase 2: service ticket (Fig. 8).
    let svc = r.service.clone();
    let (ap, cred) = ws.mk_request(&mut r.router, &svc, 7, true).unwrap();
    // Phase 3: request + mutual authentication (Fig. 6, 7).
    let rc = ReplayCache::new();
    let v = krb_rd_req(&ap, &svc, &Scheduled::new(&r.service_key), WS_ADDR, ws.now(), &rc, None).unwrap();
    assert_eq!(v.client.to_string(), format!("bcn@{REALM}"));
    assert_eq!(v.cksum, 7);
    let rep = krb_mk_rep(&v);
    krb_rd_rep(&rep, &cred.key(), v.timestamp).unwrap();
}

#[test]
fn session_key_supports_all_three_protection_levels() {
    // §2.1: authentication-only, safe, and private messages.
    let mut r = realm();
    let mut ws = workstation(&r);
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let (ap, cred) = ws.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let rc = ReplayCache::new();
    let v = krb_rd_req(&ap, &svc, &Scheduled::new(&r.service_key), WS_ADDR, ws.now(), &rc, None).unwrap();
    let key = cred.key();
    let now = ws.now();

    // Level 1 (authentication at connection setup only) is the AP exchange
    // itself. Level 2: safe messages — readable, tamper-evident.
    let safe = krb_mk_safe(b"authenticated but public", &key, WS_ADDR, now);
    assert_eq!(
        krb_rd_safe(&safe, &v.session_key, now).unwrap(),
        b"authenticated but public"
    );
    let mut tampered = safe.clone();
    tampered.data[0] ^= 1;
    assert_eq!(
        krb_rd_safe(&tampered, &v.session_key, now).unwrap_err(),
        ErrorCode::RdApModified
    );

    // Level 3: private messages — hidden and authenticated.
    let private = krb_mk_priv(b"the new password is swordfish", &Scheduled::new(&key), WS_ADDR, now);
    assert_eq!(
        krb_rd_priv(&private, &Scheduled::new(&v.session_key), Some(WS_ADDR), now).unwrap(),
        b"the new password is swordfish"
    );
}

#[test]
fn message_sizes_are_single_datagram() {
    // The protocol is designed for single-UDP-datagram exchanges; check
    // every message in the flow stays far under 1500 bytes (E2/E3 sizes).
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut r = realm();
    let captured = r.router.net().add_capture();
    let mut ws = workstation(&r);
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let _ = ws.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let sizes: Vec<usize> = captured.lock().iter().map(|p| p.payload.len()).collect();
    assert!(!sizes.is_empty());
    for s in &sizes {
        assert!(*s < 600, "oversized datagram: {s} bytes (all: {sizes:?})");
    }
    let _ = start;
}

#[test]
fn wrong_password_then_right_password() {
    let mut r = realm();
    let mut ws = workstation(&r);
    assert!(ws.kinit(&mut r.router, "bcn", "guess1").is_err());
    assert!(ws.kinit(&mut r.router, "bcn", "guess2").is_err());
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    assert!(ws.whoami().is_some());
}

#[test]
fn tickets_survive_cache_serialization() {
    // The workstation writes its ticket file; a new process reads it and
    // continues the session (the V4 /tmp/tkt<uid> behaviour).
    let mut r = realm();
    let mut ws = workstation(&r);
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let _ = ws.mk_request(&mut r.router, &svc, 0, false).unwrap();

    let bytes = ws.cache.to_bytes();
    let restored = athena_kerberos::krb::CredentialCache::from_bytes(&bytes).unwrap();
    assert_eq!(restored, ws.cache);
    // The restored cache still authenticates.
    let mut ws2 = workstation(&r);
    ws2.cache = restored;
    let (ap, _) = ws2.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let rc = ReplayCache::new();
    assert!(krb_rd_req(&ap, &svc, &Scheduled::new(&r.service_key), WS_ADDR, ws2.now(), &rc, None).is_ok());
}

#[test]
fn lossy_network_fails_cleanly_not_wrongly() {
    // Packet loss must surface as a timeout, never as a bogus credential.
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master", start, 102).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig { loss: 1.0, ..Default::default() }));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, start,
    ).unwrap();
    let mut ws = Workstation::new(
        WS_ADDR, REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    match ws.kinit(&mut router, "bcn", "bcn-pw") {
        Err(athena_kerberos::tools::ToolError::Net(_)) => {}
        other => panic!("expected network error, got {other:?}"),
    }
    assert!(ws.whoami().is_none());
}

#[test]
fn duplicated_network_packets_do_not_break_the_exchange() {
    // Network-level duplication (not an attack) is tolerated by clients:
    // the KDC answers twice, the client uses the first reply.
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master", start, 103).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig { dup: 1.0, ..Default::default() }));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, start,
    ).unwrap();
    let mut ws = Workstation::new(
        WS_ADDR, REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    assert!(ws.whoami().is_some());
}

#[test]
fn journal_reconstructs_a_full_login_as_one_trace() {
    // The tracing tentpole end-to-end: one login's AS → TGS → AP hops land
    // in the journal as a single trace with the eight events in protocol
    // order, reconstructable by the krb-trace parser. Propagation is
    // out-of-band (packet metadata), so the V4 wire bytes are untouched —
    // the flow itself is exactly figure_9_three_phases_and_mutual_auth.
    use athena_kerberos::crypto::Scheduled;
    use athena_kerberos::telemetry::{lcg_clock_us, ClockUs, Journal, TraceCtx};
    use athena_kerberos::tools::{group_traces, parse_dump};
    use std::sync::Arc;

    let mut r = realm();
    let journal = Journal::shared();
    let clock: ClockUs = lcg_clock_us(42, 40, 400);
    r.dep.master.set_journal(Arc::clone(&journal));
    let mut ws = workstation(&r);
    ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock), 42);

    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let (ap, _cred) = ws.mk_request(&mut r.router, &svc, 7, true).unwrap();
    let app_ctx = TraceCtx::new(
        Arc::clone(&journal),
        ClockUs::clone(&clock),
        ws.current_trace().unwrap(),
    );
    let sched = Scheduled::new(&r.service_key);
    let rc = ReplayCache::new();
    krb_rd_req(&ap, &svc, &sched, WS_ADDR, ws.now(), &rc, Some(&app_ctx)).unwrap();

    let timelines = group_traces(parse_dump(&journal.render()));
    assert_eq!(timelines.len(), 1, "one login, one trace");
    let t = &timelines[0];
    let kinds: Vec<&str> = t.events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(
        kinds,
        [
            "login_start", "as_req", "as_ok", "login_ok", "tgs_req", "tgs_ok", "ap_sent",
            "ap_verified"
        ],
        "full login must journal the AS → TGS → AP chain in order"
    );
    for w in t.events.windows(2) {
        assert!(w[0].seq < w[1].seq, "journal seq must be strictly increasing");
    }
    assert!(t.events.iter().all(|e| !e.is_error()));
}

#[test]
fn journal_dump_never_contains_key_material() {
    // Redaction check for the L7 invariant: a full traced login — tickets,
    // session keys, service keys all in flight — must leave no key bytes
    // in the journal render, in any encoding, and no password either.
    use athena_kerberos::crypto::Scheduled;
    use athena_kerberos::telemetry::{lcg_clock_us, ClockUs, Journal, TraceCtx};
    use std::sync::Arc;

    let mut r = realm();
    let journal = Journal::shared();
    let clock: ClockUs = lcg_clock_us(7, 40, 400);
    r.dep.master.set_journal(Arc::clone(&journal));
    let mut ws = workstation(&r);
    ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock), 7);

    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let (ap, cred) = ws.mk_request(&mut r.router, &svc, 7, true).unwrap();
    let app_ctx = TraceCtx::new(
        Arc::clone(&journal),
        ClockUs::clone(&clock),
        ws.current_trace().unwrap(),
    );
    let sched = Scheduled::new(&r.service_key);
    let rc = ReplayCache::new();
    krb_rd_req(&ap, &svc, &sched, WS_ADDR, ws.now(), &rc, Some(&app_ctx)).unwrap();

    let dump = journal.render();
    assert!(journal.events_recorded() >= 8);
    for key in [&r.service_key, &cred.key()] {
        let hex: String = key.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        let hex_upper = hex.to_uppercase();
        assert!(!dump.contains(&hex), "journal leaked a key as hex");
        assert!(!dump.contains(&hex_upper), "journal leaked a key as hex");
        assert!(
            !dump.contains(&key.to_u64().to_string()),
            "journal leaked a key as decimal"
        );
    }
    assert!(!dump.contains("bcn-pw"), "journal leaked the password");
}

#[test]
fn every_error_kind_is_constructible_and_journals_at_its_hop() {
    // The observability taxonomy (`ErrorCode::kind()` → ERROR_KINDS) is only
    // trustworthy if every kind can actually happen through the real
    // protocol. Drive each of the seven kinds end-to-end — workstation,
    // KDC, and application-server hops — and check that the hop that owns
    // the error journals it with the matching `err_kind` field.
    use athena_kerberos::crypto::Scheduled;
    use athena_kerberos::krb::{krb_mk_req, Message, ERROR_KINDS};
    use athena_kerberos::telemetry::{lcg_clock_us, ClockUs, Journal, TraceCtx};
    use std::collections::HashSet;
    use std::sync::Arc;

    let mut r = realm();
    let journal = Journal::shared();
    let clock: ClockUs = lcg_clock_us(11, 40, 400);
    r.dep.master.set_journal(Arc::clone(&journal));
    let mut ws = workstation(&r);
    ws.enable_tracing(Arc::clone(&journal), ClockUs::clone(&clock), 11);
    let mut seen: HashSet<&'static str> = HashSet::new();

    // bad_password — client hop: the AS reply will not decrypt.
    match ws.kinit(&mut r.router, "bcn", "wrong-pw") {
        Err(athena_kerberos::tools::ToolError::Krb(e)) => {
            assert_eq!(e.kind(), "bad_password");
            seen.insert(e.kind());
        }
        other => panic!("wrong password must fail with a Kerberos error, got {other:?}"),
    }

    // unknown_principal — KDC hop: no such entry in the database.
    match ws.kinit(&mut r.router, "mallory", "whatever") {
        Err(athena_kerberos::tools::ToolError::Krb(e)) => {
            assert_eq!(e.kind(), "unknown_principal");
            seen.insert(e.kind());
        }
        other => panic!("unknown principal must fail with a Kerberos error, got {other:?}"),
    }

    // decode — KDC hop: garbage on the wire gets a typed error reply.
    let kdc_ep = r.dep.kdc_endpoints()[0];
    let ws_ep = athena_kerberos::netsim::Endpoint::new(WS_ADDR, 1023);
    let reply = r.router.rpc(ws_ep, kdc_ep, b"not a kerberos message").unwrap();
    match Message::decode(&reply).unwrap() {
        Message::Err(err) => {
            assert_eq!(err.code.kind(), "decode");
            seen.insert(err.code.kind());
        }
        other => panic!("garbage must draw an error reply, got {other:?}"),
    }

    // The remaining kinds surface at the application-server hop, all from
    // one legitimate login's credentials.
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let (ap, cred) = ws.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let ctx = TraceCtx::new(
        Arc::clone(&journal),
        ClockUs::clone(&clock),
        ws.current_trace().unwrap(),
    );
    let sched = Scheduled::new(&r.service_key);
    let now = ws.now();

    // replay — the same authenticator presented twice.
    let rc = ReplayCache::new();
    krb_rd_req(&ap, &svc, &sched, WS_ADDR, now, &rc, Some(&ctx)).unwrap();
    let e = krb_rd_req(&ap, &svc, &sched, WS_ADDR, now, &rc, Some(&ctx)).unwrap_err();
    assert_eq!(e, ErrorCode::RdApRepeat);
    seen.insert(e.kind());

    // skew — a fresh cache, but the server's clock is an hour off.
    let rc = ReplayCache::new();
    let e = krb_rd_req(&ap, &svc, &sched, WS_ADDR, now + 3600, &rc, Some(&ctx))
        .unwrap_err();
    assert_eq!(e, ErrorCode::RdApTime);
    seen.insert(e.kind());

    // other — right ticket, wrong source address (§4.3's address check).
    let rc = ReplayCache::new();
    let e = krb_rd_req(&ap, &svc, &sched, [10, 0, 0, 66], now, &rc, Some(&ctx))
        .unwrap_err();
    assert_eq!(e, ErrorCode::RdApBadAddr);
    assert_eq!(e.kind(), "other");
    seen.insert(e.kind());

    // expired_ticket — the wire-obtained ticket, presented with a fresh
    // authenticator long after its lifetime (96 × 5 min) ran out.
    let late = now + u32::from(cred.life) * 300 + 600;
    let client = Principal::parse("bcn", REALM).unwrap();
    let old = krb_mk_req(&cred.ticket, REALM, &cred.key(), &client, WS_ADDR, late, 0, false);
    let rc = ReplayCache::new();
    let e = krb_rd_req(&old, &svc, &sched, WS_ADDR, late, &rc, Some(&ctx))
        .unwrap_err();
    assert_eq!(e, ErrorCode::RdApExp);
    seen.insert(e.kind());

    let all: HashSet<&'static str> = ERROR_KINDS.iter().copied().collect();
    assert_eq!(seen, all, "every taxonomy kind must be constructible");

    // Each owning hop journaled its error with the taxonomy slug.
    let dump = journal.render();
    for needle in [
        "kind=kdc_err err_kind=unknown_principal",
        "kind=kdc_err err_kind=decode",
        "kind=replay_hit",
        "kind=ap_err err_kind=skew",
        "kind=ap_err err_kind=other",
        "kind=ap_err err_kind=expired_ticket",
        "kind=login_err err_kind=bad_password",
    ] {
        assert!(dump.contains(needle), "journal missing `{needle}`:\n{dump}");
    }
}

#[test]
fn truncated_and_corrupt_wire_bytes_never_panic() {
    // Chaos runs corrupt packets in flight; every decoder on every hop must
    // answer with a typed error, never a panic. Exercise each parser with
    // every truncation of real wire bytes plus bit-flipped variants.
    use athena_kerberos::apps::parse_request;
    use athena_kerberos::krb::Message;

    let mut r = realm();
    let captured = r.router.net().add_capture();
    let mut ws = workstation(&r);
    ws.kinit(&mut r.router, "bcn", "bcn-pw").unwrap();
    let svc = r.service.clone();
    let (ap, _) = ws.mk_request(&mut r.router, &svc, 0, false).unwrap();

    // Every prefix of every real AS/TGS datagram must decode or error.
    let wire: Vec<Vec<u8>> = captured.lock().iter().map(|p| p.payload.clone()).collect();
    assert!(!wire.is_empty());
    for payload in &wire {
        for cut in 0..payload.len() {
            let _ = Message::decode(&payload[..cut]);
        }
        // And with a bit flipped at each byte position.
        for i in 0..payload.len() {
            let mut bent = payload.clone();
            bent[i] ^= 0x10;
            let _ = Message::decode(&bent);
        }
    }

    // The application framing: truncations and flips of a real request.
    let framed = athena_kerberos::apps::frame_request(&ap, "login", b"bcn");
    for cut in 0..framed.len() {
        assert!(parse_request(&framed[..cut]).is_err(), "truncation at {cut} must error");
    }
    for i in 0..framed.len() {
        let mut bent = framed.clone();
        bent[i] ^= 0x01;
        let _ = parse_request(&bent); // may or may not parse; must not panic
    }

    // A live KDC fed garbage answers every time (an error reply, not silence
    // or a crash).
    let kdc_ep = r.dep.kdc_endpoints()[0];
    let ws_ep = athena_kerberos::netsim::Endpoint::new([18, 72, 0, 99], 1023);
    for garbage in [&b""[..], &[0xFF; 3], &[0x00; 40], &[0x5A; 600]] {
        let reply = r.router.rpc(ws_ep, kdc_ep, garbage).unwrap();
        assert!(matches!(Message::decode(&reply), Ok(Message::Err(_))));
    }
}

#[test]
fn protocol_survives_packet_reordering() {
    // Campus networks reorder; single-datagram exchanges don't care, and
    // the workstation's per-request state (nonce binding) keeps crossed
    // replies from being misattributed.
    use athena_kerberos::tools::{kdb_init, register_user};
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master", start, 104).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig {
        jitter_ms: 40,
        seed: 105,
        ..Default::default()
    }));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    ).unwrap();
    for i in 0..5u8 {
        let mut ws = Workstation::new(
            [18, 72, 0, 100 + i], REALM, dep.kdc_endpoints(),
            athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
        );
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        assert!(ws.whoami().is_some());
    }
}
