//! # krb-tools — the Kerberos user programs
//!
//! The "user programs" of Figure 1 in Steiner, Neuman & Schiller (USENIX
//! 1988): `kinit`, `klist`, `kdestroy` (§6.1) via [`Workstation`], the
//! `/etc/srvtab` handling of §6.3 via [`Srvtab`], and the administrator's
//! bootstrap programs (registration helpers) in [`mod@kdb_init`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod kdb_init;
pub mod krbstat;
pub mod krbtop;
pub mod krbtrace;
pub mod smartcard;
pub mod srvtab;
pub mod ticket_file;
pub mod workstation;

pub use kdb_init::{kdb_init, register_service, register_user, RealmBootstrap};
pub use krbstat::{run_load, StatConfig, StatReport, REQUIRED_JSON_KEYS};
pub use krbtop::{TopConfig, TopRun, TopSnapshot, TOP_JSON_KEYS};
pub use krbtrace::{
    group_traces, parse_dump, render_json as render_trace_json, render_timelines, Timeline,
    TraceEvent, TraceFilter,
};
pub use smartcard::Smartcard;
pub use srvtab::{Srvtab, SrvtabEntry};
pub use ticket_file::TicketFile;
pub use workstation::{align_trace, Workstation};

/// Errors from the user programs: protocol failures or transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolError {
    /// Kerberos protocol error.
    Krb(kerberos::ErrorCode),
    /// Network failure (all KDCs unreachable, etc.).
    Net(krb_netsim::NetError),
}

impl From<kerberos::ErrorCode> for ToolError {
    fn from(e: kerberos::ErrorCode) -> Self {
        ToolError::Krb(e)
    }
}

impl From<krb_netsim::NetError> for ToolError {
    fn from(e: krb_netsim::NetError) -> Self {
        ToolError::Net(e)
    }
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Krb(e) => write!(f, "kerberos error: {e}"),
            ToolError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for ToolError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kerberos::{ErrorCode, Principal};
    use krb_kdc::{Deployment, RealmConfig};
    use krb_netsim::{NetConfig, Router, SimNet};

    const REALM: &str = "ATHENA.MIT.EDU";
    const NOW: u32 = 600_000_000;

    fn rig(n_slaves: usize) -> (Router, Deployment) {
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let mut boot = crate::kdb_init::kdb_init(REALM, "master-pw", NOW, 42).unwrap();
        crate::kdb_init::register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
        let mut keygen = krb_crypto::KeyGenerator::new(
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43),
        );
        crate::kdb_init::register_service(&mut boot.db, "rlogin", "priam", NOW, &mut keygen).unwrap();
        let dep = Deployment::install(
            &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], n_slaves, NOW,
        ).unwrap();
        (router, dep)
    }

    fn ws(dep: &Deployment) -> Workstation {
        Workstation::new(
            [18, 72, 0, 5],
            REALM,
            dep.kdc_endpoints(),
            krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
        )
    }

    #[test]
    fn kinit_klist_kdestroy_cycle() {
        let (mut router, dep) = rig(0);
        let mut ws = ws(&dep);
        assert!(ws.whoami().is_none());
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        assert_eq!(ws.whoami().unwrap().to_string(), format!("bcn@{REALM}"));
        let listing = ws.klist();
        assert_eq!(listing.len(), 1);
        assert!(listing[0].contains("krbtgt"), "{listing:?}");
        ws.kdestroy();
        assert!(ws.whoami().is_none());
        assert!(ws.klist().is_empty());
    }

    #[test]
    fn kinit_with_wrong_password_fails() {
        let (mut router, dep) = rig(0);
        let mut ws = ws(&dep);
        assert_eq!(
            ws.kinit(&mut router, "bcn", "nope").unwrap_err(),
            ToolError::Krb(ErrorCode::IntkBadPw)
        );
        assert!(ws.whoami().is_none());
    }

    #[test]
    fn service_tickets_are_cached() {
        let (mut router, dep) = rig(0);
        let mut ws = ws(&dep);
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        let rlogin = Principal::parse("rlogin.priam", REALM).unwrap();
        let c1 = ws.get_service_ticket(&mut router, &rlogin).unwrap();
        let tgs_count = dep.master.stats().tgs_ok;
        let c2 = ws.get_service_ticket(&mut router, &rlogin).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(dep.master.stats().tgs_ok, tgs_count, "second hit came from cache");
        assert_eq!(ws.klist().len(), 2);
    }

    #[test]
    fn kdc_failover_when_master_is_down() {
        let (mut router, dep) = rig(2);
        let mut ws = ws(&dep);
        router.net().set_partitioned(krb_netsim::Ipv4(dep.master_addr), true);
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        assert!(ws.whoami().is_some(), "slaves carried the login");
    }

    #[test]
    fn expired_tgt_forces_reauthentication() {
        // §6.1: "If the user's log-in session lasts longer than the
        // lifetime of the ticket-granting ticket (currently 8 hours) ...
        // the next Kerberos-authenticated application ... will fail."
        let (mut router, dep) = rig(0);
        let mut ws = ws(&dep);
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        dep.advance_time(9 * 3600);
        let rlogin = Principal::parse("rlogin.priam", REALM).unwrap();
        let err = ws.get_service_ticket(&mut router, &rlogin).unwrap_err();
        assert_eq!(err, ToolError::Krb(ErrorCode::RdApExp));
        // The user runs kinit again and all is well.
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        assert!(ws.get_service_ticket(&mut router, &rlogin).is_ok());
    }

    #[test]
    fn srvtab_extract_and_lookup() {
        let (_, dep) = rig(0);
        let mut srvtab = Srvtab::new();
        {
            let snap = dep.master.snapshot();
            srvtab.extract(snap.db(), REALM, "rlogin", "priam").unwrap();
        }
        let svc = Principal::parse("rlogin.priam", REALM).unwrap();
        let e = srvtab.key_for(&svc).unwrap();
        assert_eq!(e.kvno, 1);
        // File round trip.
        let parsed = Srvtab::from_bytes(&srvtab.to_bytes()).unwrap();
        assert_eq!(parsed.key_for(&svc).unwrap().key.as_bytes(), e.key.as_bytes());
    }

    #[test]
    fn srvtab_key_actually_reads_requests() {
        // The extracted key verifies a ticket issued by the KDC — the full
        // §6.3 server-registration story.
        let (mut router, dep) = rig(0);
        let mut ws = ws(&dep);
        ws.kinit(&mut router, "bcn", "bcn-pw").unwrap();
        let svc = Principal::parse("rlogin.priam", REALM).unwrap();
        let (ap, _) = ws.mk_request(&mut router, &svc, 0, false).unwrap();

        let mut srvtab = Srvtab::new();
        srvtab.extract(dep.master.snapshot().db(), REALM, "rlogin", "priam").unwrap();
        let key = srvtab.key_for(&svc).unwrap().key;
        let mut rc = kerberos::ReplayCache::new();
        let v = kerberos::krb_rd_req(&ap, &svc, &key, ws.addr, ws.now(), &mut rc).unwrap();
        assert_eq!(v.client.name, "bcn");
    }
}

#[cfg(test)]
mod smartcard_integration {
    use super::*;
    use crate::smartcard::Smartcard;
    use kerberos::Principal;
    use krb_kdc::{Deployment, RealmConfig};
    use krb_netsim::{NetConfig, Router, SimNet};

    const REALM: &str = "ATHENA.MIT.EDU";
    const NOW: u32 = 600_000_000;

    #[test]
    fn smartcard_login_works_without_password_on_workstation() {
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let mut boot = crate::kdb_init::kdb_init(REALM, "mk", NOW, 60).unwrap();
        crate::kdb_init::register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
        let mut keygen = krb_crypto::KeyGenerator::new(
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(61),
        );
        crate::kdb_init::register_service(&mut boot.db, "svc", "host", NOW, &mut keygen).unwrap();
        let dep = Deployment::install(
            &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, NOW,
        ).unwrap();

        // The card was personalized once at a trusted terminal.
        let mut card = Smartcard::personalize("bcn", "bcn-pw");

        // The (possibly trojaned) public workstation performs the login:
        // it never handles "bcn-pw" or the derived key.
        let mut ws = Workstation::new(
            [18, 72, 0, 5], REALM, dep.kdc_endpoints(),
            krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
        );
        ws.kinit_with_card(&mut router, &mut card).unwrap();
        assert_eq!(ws.whoami().unwrap().name, "bcn");
        assert_eq!(card.uses(), 1);

        // The workstation can use services normally...
        let svc = Principal::parse("svc.host", REALM).unwrap();
        assert!(ws.get_service_ticket(&mut router, &svc).is_ok());

        // ...but everything a trojan could scrape from workstation state
        // is bounded-lifetime material: the ticket file contains session
        // keys and tickets, never the long-term key.
        let scraped = ws.cache.to_bytes();
        let long_term = krb_crypto::string_to_key("bcn-pw");
        assert!(
            !scraped.windows(8).any(|w| w == long_term.as_bytes()),
            "long-term key must not appear in workstation memory/state"
        );
    }

    #[test]
    fn smartcard_with_wrong_personalization_fails_login() {
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let mut boot = crate::kdb_init::kdb_init(REALM, "mk", NOW, 62).unwrap();
        crate::kdb_init::register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
        let dep = Deployment::install(
            &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, NOW,
        ).unwrap();
        let mut card = Smartcard::personalize("bcn", "stale-old-password");
        let mut ws = Workstation::new(
            [18, 72, 0, 5], REALM, dep.kdc_endpoints(),
            krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
        );
        assert!(ws.kinit_with_card(&mut router, &mut card).is_err());
    }
}

#[cfg(test)]
mod lossy_network {
    use super::*;
    use kerberos::Principal;
    use krb_kdc::{Deployment, RealmConfig};
    use krb_netsim::{NetConfig, Router, SimNet};

    const REALM: &str = "ATHENA.MIT.EDU";
    const NOW: u32 = 600_000_000;

    /// With 30% packet loss and client retransmission, logins and service
    /// tickets still succeed (the §1 reliability requirement under an
    /// imperfect network).
    #[test]
    fn retransmission_rides_out_packet_loss() {
        let mut boot = crate::kdb_init::kdb_init(REALM, "mk", NOW, 90).unwrap();
        crate::kdb_init::register_user(&mut boot.db, "bcn", "", "pw", NOW).unwrap();
        let mut keygen = krb_crypto::KeyGenerator::new(
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(91),
        );
        crate::kdb_init::register_service(&mut boot.db, "svc", "host", NOW, &mut keygen).unwrap();
        let mut router = Router::new(SimNet::new(NetConfig { loss: 0.3, seed: 92, ..Default::default() }));
        let dep = Deployment::install(
            &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, NOW,
        ).unwrap();
        let mut ok_logins = 0;
        let mut ok_tickets = 0;
        for i in 0..10 {
            let mut ws = Workstation::new(
                [18, 72, 0, 100 + i], REALM, dep.kdc_endpoints(),
                krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
            );
            if ws.kinit(&mut router, "bcn", "pw").is_ok() {
                ok_logins += 1;
                let svc = Principal::parse("svc.host", REALM).unwrap();
                if ws.get_service_ticket(&mut router, &svc).is_ok() {
                    ok_tickets += 1;
                }
            }
        }
        // 30% loss, 3 tries per KDC, 2 KDCs: per-exchange failure odds are
        // tiny; demand a strong majority to keep the test robust.
        assert!(ok_logins >= 9, "logins: {ok_logins}/10");
        assert!(ok_tickets >= 8, "tickets: {ok_tickets}/{ok_logins}");
    }
}
