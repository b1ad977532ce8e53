//! The adversary suite (paper §1's security requirement, §4.3's replay
//! handling, the appendix's honesty about NFS): every attack the paper
//! discusses, scripted against the real stack on the open simulated
//! network.

use athena_kerberos::crypto::Scheduled;
use athena_kerberos::krb::{ErrorCode, ReplayCache, MAX_SKEW_SECS, REPLAY_STRIPES};
use athena_kerberos::sim::{replay_captured_ap, rig, wire_contains, AttackOutcome};

#[test]
fn eavesdropper_learns_no_secrets_from_a_full_session() {
    // §1: "Someone watching the network should not be able to obtain the
    // information necessary to impersonate another user."
    let mut r = rig(1000);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let (_, cred) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

    assert!(!wire_contains(&r, b"victim-pw"));
    assert!(!wire_contains(&r, athena_kerberos::crypto::string_to_key("victim-pw").as_bytes()));
    assert!(!wire_contains(&r, cred.session_key.as_bytes()));
    assert!(!wire_contains(&r, r.service_key.as_bytes()));
    // The TGT session key too.
    let tgt = r.workstation.cache.tgt("ATHENA.MIT.EDU", r.workstation.now()).unwrap();
    assert!(!wire_contains(&r, tgt.session_key.as_bytes()));
}

#[test]
fn password_guessing_without_the_wire_is_the_only_option_left() {
    // The AS reply is the only thing a passive attacker can attack: it is
    // encrypted in the user's key. A guessed wrong password fails cleanly.
    let mut r = rig(1001);
    assert!(r.workstation.kinit(&mut r.router, "victim", "letmein").is_err());
    assert!(r.workstation.kinit(&mut r.router, "victim", "victim-pw").is_ok());
}

#[test]
fn replay_rejected_same_address() {
    let mut r = rig(1002);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let now = r.workstation.now();
    let rc = ReplayCache::new();
    assert_eq!(replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], now), AttackOutcome::Succeeded);
    assert_eq!(
        replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], now),
        AttackOutcome::Rejected(ErrorCode::RdApRepeat)
    );
}

#[test]
fn stolen_credentials_useless_from_attacker_host() {
    // The ticket names the victim's address; presenting it from another
    // address fails even if the replay cache were empty.
    let mut r = rig(1003);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let now = r.workstation.now();
    let fresh_cache = ReplayCache::new();
    assert_eq!(
        replay_captured_ap(&mut r, &fresh_cache, [10, 66, 6, 6], now),
        AttackOutcome::Rejected(ErrorCode::RdApBadAddr)
    );
}

#[test]
fn old_captures_die_at_the_skew_horizon() {
    // §4.3: "If the time in the request is too far in the future or the
    // past, the server treats the request as an attempt to replay."
    let mut r = rig(1004);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
    let later = r.workstation.now() + MAX_SKEW_SECS + 1;
    let rc = ReplayCache::new();
    assert_eq!(
        replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], later),
        AttackOutcome::Rejected(ErrorCode::RdApTime)
    );
}

#[test]
fn spoofed_source_cannot_harvest_usable_as_replies() {
    // An attacker asks the AS for the victim's TGT with a spoofed source.
    // The network delivers the reply to the *spoofed* (victim's) address —
    // and even if the attacker could see it, it is sealed in the victim's
    // password-derived key. The attacker with a wrong password gets
    // nothing usable.
    let mut r = rig(1005);
    let client = athena_kerberos::krb::Principal::parse("victim", "ATHENA.MIT.EDU").unwrap();
    let tgs = athena_kerberos::krb::Principal::tgs("ATHENA.MIT.EDU", "ATHENA.MIT.EDU");
    let now = r.workstation.now();
    let req = athena_kerberos::krb::build_as_req(&client, &tgs, 96, now);

    // The attacker sends from their own endpoint and DOES get a reply
    // (the AS answers anyone — that is by design).
    let attacker_ep = athena_kerberos::netsim::Endpoint::new([10, 66, 6, 6], 4242);
    let kdc_ep = r.dep.kdc_endpoints()[0];
    let reply = r.router.rpc(attacker_ep, kdc_ep, &req).unwrap();
    // But it is useless without the password:
    assert_eq!(
        athena_kerberos::krb::read_as_reply_with_password(&reply, "not-the-password", now)
            .unwrap_err(),
        ErrorCode::IntkBadPw
    );
    // ...and worse for the attacker, the ticket inside names THEIR address
    // (the AS binds the ticket to the request's source), so even the real
    // user key wouldn't let them impersonate from elsewhere.
}

#[test]
fn fast_and_slow_clocks_break_authentication() {
    // §4.3: "It is assumed that clocks are synchronized to within several
    // minutes." A workstation drifted past the window cannot authenticate.
    use athena_kerberos::krb::krb_rd_req;
    let mut r = rig(1006);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let sched = Scheduled::new(&r.service_key);
    let (ap, _) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

    // The server's clock is 10 minutes ahead of the workstation's.
    let server_now = r.workstation.now() + 600;
    let rc = ReplayCache::new();
    assert_eq!(
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], server_now, &rc, None).unwrap_err(),
        ErrorCode::RdApTime
    );
    // Within the window, fine.
    let server_now = r.workstation.now() + 250;
    assert!(krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], server_now, &rc, None).is_ok());
}

#[test]
fn expired_session_leaves_nothing_usable() {
    // §4.2: "no information exists that will allow someone else to
    // impersonate the user beyond the life of the ticket."
    use athena_kerberos::krb::krb_rd_req;
    let mut r = rig(1007);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let sched = Scheduled::new(&r.service_key);
    let (ap, _) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

    // 9 hours later the stolen ticket (8h life) is dead even with a
    // freshly forged time-stamp-free replay attempt.
    let later = r.workstation.now() + 9 * 3600;
    let rc = ReplayCache::new();
    let err = krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], later, &rc, None).unwrap_err();
    assert!(
        err == ErrorCode::RdApExp || err == ErrorCode::RdApTime,
        "stale credentials must fail: {err:?}"
    );
}

#[test]
fn replay_exactly_at_the_skew_edge_is_caught_by_the_cache_not_the_clock() {
    // §4.3's two replay defences meet at `timestamp + MAX_SKEW_SECS`: an
    // authenticator aged exactly the skew window is still *fresh* (the
    // clock check uses <=), so only the replay cache stands between the
    // attacker and the service. A time-shifting attacker who replays at
    // the precise edge must be rejected as a repeat, not misdiagnosed as
    // merely stale — the distinction matters because a cache that leaned
    // on the freshness check at the boundary would admit the replay.
    use athena_kerberos::krb::krb_rd_req;
    let mut r = rig(1008);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let sched = Scheduled::new(&r.service_key);
    let (ap, _) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

    let rc = ReplayCache::new();
    let first =
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], r.workstation.now(), &rc, None)
            .unwrap();
    // Derive the edge from the authenticator itself, not the wall clock.
    let edge = first.timestamp + MAX_SKEW_SECS;
    assert_eq!(
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], edge, &rc, None).unwrap_err(),
        ErrorCode::RdApRepeat,
        "at the exact skew edge the cache, not the clock, must reject"
    );
    assert_eq!(rc.replay_hits(), 1);
    // One second past the edge the freshness check takes over — even a
    // server that lost its cache (fresh `ReplayCache`) stays safe.
    let amnesiac = ReplayCache::new();
    assert_eq!(
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], edge + 1, &amnesiac, None)
            .unwrap_err(),
        ErrorCode::RdApTime
    );
}

#[test]
fn replay_after_cache_eviction_is_stopped_by_the_freshness_check() {
    // §4.2/§4.3: the cache only needs to remember "past requests with time
    // stamps that are still valid" — entries past the purge horizon are
    // evicted to keep the cache bounded, and that is *safe* because any
    // authenticator old enough to have been evicted is also old enough to
    // fail the clock-skew check. This test documents the §4.2 lifetime
    // window: eviction really happens, and the evicted replay is still
    // refused.
    use athena_kerberos::krb::replay::hash_bytes;
    use athena_kerberos::krb::{krb_rd_req, ReplayKey};
    let mut r = rig(1009);
    r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
    let svc = r.service.clone();
    let sched = Scheduled::new(&r.service_key);
    let (ap, _) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

    let rc = ReplayCache::new();
    let first =
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], r.workstation.now(), &rc, None)
            .unwrap();
    assert_eq!(rc.len(), 1);

    // Time passes beyond the 2×skew purge horizon; the next request (any
    // request — here an unrelated client) triggers the sweep. Each stripe
    // of the cache keeps its own purge clock, so it is one that lands in
    // the victim's stripe.
    let late = first.timestamp + 2 * MAX_SKEW_SECS + 1;
    let unrelated = ReplayKey {
        client: "other.@ATHENA.MIT.EDU".into(),
        timestamp: late,
        auth_hash: hash_bytes(&ap.authenticator).wrapping_add(REPLAY_STRIPES as u64),
    };
    assert!(rc.check_and_insert(unrelated, late));
    assert_eq!(rc.evictions(), 1, "the victim's entry must age out");
    assert_eq!(rc.len(), 1, "only the fresh entry survives the purge");

    // The attacker's held-back replay no longer matches anything in the
    // cache — and is rejected anyway, by the clock.
    assert_eq!(
        krb_rd_req(&ap, &svc, &sched, [18, 72, 3, 100], late, &rc, None).unwrap_err(),
        ErrorCode::RdApTime,
        "eviction is safe: freshness backstops the bounded cache"
    );
    assert_eq!(rc.replay_hits(), 0, "the cache never even sees the stale replay");
}
