//! Scripted attacker scenarios over the open network (paper §1, §4.3).
//!
//! "Someone watching the network should not be able to obtain the
//! information necessary to impersonate another user." These helpers stand
//! up a realm, capture real protocol traffic with a promiscuous tap, and
//! let tests/benches replay or dissect it — the reproducible version of a
//! wire-sniffing adversary.

use kerberos::{krb_rd_req, ErrorCode, Message, Principal, ReplayCache};
use krb_crypto::{DesKey, KeyGenerator, Scheduled};
use krb_kdc::{Deployment, RealmConfig};
use krb_netsim::{NetConfig, Packet, Router, SimNet};
use krb_telemetry::Registry;
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Bound on the rig's capture tap: enough for every scripted scenario's
/// full exchange history, finite so a soak reusing the rig cannot grow
/// memory without bound. Overflow is counted, not silently eaten — see
/// [`AttackRig::capture_dropped`].
pub const ATTACK_CAPTURE_CAP: usize = 4096;

/// A realm with one user, one service, and a wire tap — the standard
/// attack rig.
pub struct AttackRig {
    /// The router carrying all traffic.
    pub router: Router,
    /// The deployed realm.
    pub dep: Deployment,
    /// The victim's workstation.
    pub workstation: Workstation,
    /// The target service and its key.
    pub service: Principal,
    /// The service's srvtab key.
    pub service_key: DesKey,
    /// Everything that crossed the wire, bounded at
    /// [`ATTACK_CAPTURE_CAP`] packets (earliest kept).
    pub captured: Arc<Mutex<Vec<Packet>>>,
    /// The network's telemetry registry (capture-overflow accounting).
    pub registry: Arc<Registry>,
}

impl AttackRig {
    /// Packets the bounded capture tap refused because the buffer was
    /// full. A soak that overflows the tape knows its replay material is
    /// incomplete instead of finding out via OOM.
    pub fn capture_dropped(&self) -> u64 {
        self.registry.counter_value("net_capture_dropped_total")
    }
}

/// Stand up the rig: realm `ATHENA.MIT.EDU`, user `victim` (password
/// `victim-pw`), service `svc.host`.
pub fn rig(seed: u64) -> AttackRig {
    let start = krb_netsim::EPOCH_1987;
    let mut boot = kdb_init("ATHENA.MIT.EDU", "master", start, seed).unwrap();
    register_user(&mut boot.db, "victim", "", "victim-pw", start).unwrap();
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(seed + 9));
    let service_key = register_service(&mut boot.db, "svc", "host", start, &mut keygen).unwrap();

    let mut router = Router::new(SimNet::new(NetConfig { seed, ..Default::default() }));
    let captured = router.net().add_capture_bounded(ATTACK_CAPTURE_CAP);
    let registry = router.net().registry();
    let dep = Deployment::install(
        &mut router,
        "ATHENA.MIT.EDU",
        boot.db,
        RealmConfig::new("ATHENA.MIT.EDU"),
        [18, 72, 3, 1],
        0,
        start,
    ).expect("deployment installs");
    let workstation = Workstation::new(
        [18, 72, 3, 100],
        "ATHENA.MIT.EDU",
        dep.kdc_endpoints(),
        krb_kdc::shared_clock(Arc::clone(&dep.clock_cell)),
    );
    AttackRig {
        router,
        dep,
        workstation,
        service: Principal::new("svc", "host", "ATHENA.MIT.EDU").unwrap(),
        service_key,
        captured,
        registry,
    }
}

/// Outcome of an attack attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack was rejected with this error.
    Rejected(ErrorCode),
    /// The attack succeeded (a finding!).
    Succeeded,
}

/// Replay a captured `AP_REQ` against the service from a given address.
pub fn replay_captured_ap(
    rig: &mut AttackRig,
    replay_cache: &ReplayCache,
    from_addr: [u8; 4],
    now: u32,
) -> AttackOutcome {
    // Find the last AP_REQ-looking payload the victim sent. In this rig
    // application AP_REQs are delivered in-process, so we reconstruct the
    // attack from the captured TGS request, which carries a real AP_REQ
    // for the TGS — the canonical "stolen off the network" credential.
    let packets = rig.captured.lock().clone();
    for p in packets.iter().rev() {
        if let Ok(Message::TgsReq(tgs)) = Message::decode(&p.payload) {
            let tgs_principal = Principal::tgs("ATHENA.MIT.EDU", "ATHENA.MIT.EDU");
            // The attacker replays the embedded AP_REQ at the TGS... which
            // we model directly with krb_rd_req using the TGS key from the
            // master database.
            let tgt_key = {
                let snap = rig.dep.master.snapshot();
                let (_, k) = snap.db().get_with_key("krbtgt", "ATHENA.MIT.EDU").unwrap().unwrap();
                Scheduled::new(&k)
            };
            return match krb_rd_req(&tgs.ap, &tgs_principal, &tgt_key, from_addr, now, replay_cache, None) {
                Ok(_) => AttackOutcome::Succeeded,
                Err(e) => AttackOutcome::Rejected(e),
            };
        }
    }
    AttackOutcome::Rejected(ErrorCode::RdApUndec)
}

/// Scan captured traffic for any occurrence of the given secret bytes.
pub fn wire_contains(rig: &AttackRig, secret: &[u8]) -> bool {
    rig.captured
        .lock()
        .iter()
        .any(|p| p.payload.windows(secret.len()).any(|w| w == secret))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eavesdropper_never_sees_keys_or_passwords() {
        let mut r = rig(3);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let (_ap, cred) = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

        assert!(!wire_contains(&r, b"victim-pw"), "password crossed the wire");
        let user_key = krb_crypto::string_to_key("victim-pw");
        assert!(!wire_contains(&r, user_key.as_bytes()), "user key crossed the wire");
        assert!(!wire_contains(&r, cred.session_key.as_bytes()), "session key in the clear");
        assert!(!wire_contains(&r, r.service_key.as_bytes()), "service key in the clear");
    }

    #[test]
    fn captured_tgs_request_cannot_be_replayed() {
        let mut r = rig(4);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();

        let now = r.workstation.now();
        let rc = ReplayCache::new();
        // First "delivery" (as the TGS saw it) — mark it seen.
        let first = replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], now);
        assert_eq!(first, AttackOutcome::Succeeded, "sanity: original is valid");
        // The attacker's byte-identical replay from the same address.
        let again = replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], now);
        assert_eq!(again, AttackOutcome::Rejected(ErrorCode::RdApRepeat));
        // From the attacker's own machine.
        let elsewhere = replay_captured_ap(&mut r, &rc, [10, 66, 6, 6], now);
        assert_eq!(elsewhere, AttackOutcome::Rejected(ErrorCode::RdApBadAddr));
    }

    #[test]
    fn capture_tape_is_bounded_and_overflow_is_surfaced() {
        let mut r = rig(6);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
        assert!(r.captured.lock().len() <= ATTACK_CAPTURE_CAP);
        assert_eq!(r.capture_dropped(), 0, "normal scenarios fit the tape");

        // A deliberately tiny second tape overflows immediately; the rig
        // surfaces the shared overflow counter instead of growing memory.
        let tiny = r.router.net().add_capture_bounded(1);
        r.workstation.kdestroy();
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        assert_eq!(tiny.lock().len(), 1);
        assert!(r.capture_dropped() > 0, "overflow must be accounted");
    }

    #[test]
    fn stale_capture_is_rejected_after_the_skew_window() {
        let mut r = rig(5);
        r.workstation.kinit(&mut r.router, "victim", "victim-pw").unwrap();
        let svc = r.service.clone();
        let _ = r.workstation.mk_request(&mut r.router, &svc, 0, false).unwrap();
        let later = r.workstation.now() + kerberos::MAX_SKEW_SECS + 60;
        let rc = ReplayCache::new();
        let out = replay_captured_ap(&mut r, &rc, [18, 72, 3, 100], later);
        assert_eq!(out, AttackOutcome::Rejected(ErrorCode::RdApTime));
    }
}
