//! End-to-end tests of the Kerberized applications (paper §7.1 and the
//! appendix; experiment E18): a realm with its KDC, Hesiod, a fileserver
//! with mount daemon, and the application servers, all on the simulated
//! network.

use kerberos::{ErrorCode, Principal};
use krb_apps::{login, logout, AppError, AuthMethod, Mail, PopServer, RloginServer, Sms, ZephyrServer};
use krb_crypto::KeyGenerator;
use krb_hesiod::{FilsysInfo, Hesiod, UserInfo};
use krb_kdc::{Deployment, RealmConfig};
use krb_netsim::{NetConfig, Router, SimNet};
use krb_nfs::{MountD, NfsServer, ServerPolicy, UserTable, Vfs};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];
const FILESERVER: [u8; 4] = [18, 72, 0, 30];

struct Athena {
    router: Router,
    dep: Deployment,
    hesiod: Hesiod,
    mountd: MountD,
    nfs: NfsServer,
    rlogin_priam: RloginServer,
    pop: PopServer,
    zephyr: ZephyrServer,
}

fn athena() -> Athena {
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let mut boot = kdb_init(REALM, "master-pw", NOW, 11).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
    register_user(&mut boot.db, "jis", "", "jis-pw", NOW).unwrap();
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(12));
    // The fileserver's NFS service instance encodes its host tag (the
    // login program derives it from the Hesiod filsys record).
    let nfs_key = register_service(&mut boot.db, "nfs", "fs30", NOW, &mut keygen).unwrap();
    let rcmd_key = register_service(&mut boot.db, "rcmd", "priam", NOW, &mut keygen).unwrap();
    let pop_key = register_service(&mut boot.db, "pop", "paris", NOW, &mut keygen).unwrap();
    let zephyr_key = register_service(&mut boot.db, "zephyr", "zion", NOW, &mut keygen).unwrap();

    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, NOW,
    ).unwrap();

    let hesiod = Hesiod::new();
    hesiod.add_user(UserInfo {
        username: "bcn".into(), uid: 8042, gids: vec![8042, 100],
        real_name: "Clifford Neuman".into(), phone: "x3-1234".into(), shell: "/bin/csh".into(),
    });
    hesiod.add_filsys("bcn", FilsysInfo { server_addr: FILESERVER, path: "/bcn".into() });
    hesiod.add_user(UserInfo {
        username: "jis".into(), uid: 1001, gids: vec![1001],
        real_name: "Jeffrey Schiller".into(), phone: "x3-0000".into(), shell: "/bin/sh".into(),
    });
    hesiod.add_filsys("jis", FilsysInfo { server_addr: FILESERVER, path: "/jis".into() });

    let mut vfs = Vfs::new();
    vfs.provision_home("bcn", 8042, 8042).unwrap();
    vfs.provision_home("jis", 1001, 1001).unwrap();
    let nfs = NfsServer::new(vfs, ServerPolicy::Friendly);
    let mut users = UserTable::new();
    users.add("bcn", 8042, vec![8042, 100]);
    users.add("jis", 1001, vec![1001]);
    let mountd = MountD::new(Principal::parse("nfs.fs30", REALM).unwrap(), nfs_key, users);

    let rlogin_priam =
        RloginServer::new(Principal::parse("rcmd.priam", REALM).unwrap(), rcmd_key);
    let pop = PopServer::new(Principal::parse("pop.paris", REALM).unwrap(), pop_key);
    let zephyr = ZephyrServer::new(Principal::parse("zephyr.zion", REALM).unwrap(), zephyr_key);

    Athena { router, dep, hesiod, mountd, nfs, rlogin_priam, pop, zephyr }
}

fn workstation(a: &Athena) -> Workstation {
    Workstation::new(
        WS_ADDR,
        REALM,
        a.dep.kdc_endpoints(),
        krb_kdc::shared_clock(std::sync::Arc::clone(&a.dep.clock_cell)),
    )
}

#[test]
fn appendix_login_mount_work_logout_cycle() {
    let mut a = athena();
    let mut ws = workstation(&a);
    let session = login(
        &mut ws, &mut a.router, &a.hesiod, &mut a.mountd, &mut a.nfs, "bcn", "bcn-pw", 500,
    )
    .unwrap();
    assert_eq!(session.uid, 8042);
    assert!(session.passwd_entry.starts_with("bcn:*:8042:"));

    // The user's NFS traffic flows under the mapping.
    let client_cred = krb_nfs::NfsCredential { uid: 500, gids: vec![500] };
    let reply = a.nfs.handle(
        WS_ADDR, &client_cred,
        &krb_nfs::NfsOp::Create(session.home_ino, "paper.tex".into(), 0o600),
    );
    assert!(reply.is_ok(), "{reply:?}");

    // Logout destroys tickets and mappings.
    logout(&mut ws, &mut a.mountd, &mut a.nfs, &session);
    assert!(ws.whoami().is_none());
    assert!(matches!(
        a.nfs.handle(WS_ADDR, &client_cred, &krb_nfs::NfsOp::Readdir(session.home_ino)),
        Err(krb_nfs::NfsError::Access)
    ));
}

#[test]
fn login_with_wrong_password_fails_before_any_mount() {
    let mut a = athena();
    let mut ws = workstation(&a);
    let err = login(
        &mut ws, &mut a.router, &a.hesiod, &mut a.mountd, &mut a.nfs, "bcn", "wrong", 500,
    )
    .unwrap_err();
    assert_eq!(
        err,
        AppError::Tool(krb_tools::ToolError::Krb(ErrorCode::IntkBadPw))
    );
    assert!(a.nfs.credmap.is_empty(), "no mapping must be installed");
}

#[test]
fn rlogin_uses_kerberos_first_then_rhosts_fallback() {
    let mut a = athena();
    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();

    // Kerberos path: no .rhosts needed.
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &rcmd, 0, true).unwrap();
    let session = a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).unwrap();
    assert_eq!(session.method, AuthMethod::Kerberos);
    assert_eq!(session.user, "bcn");
    assert!(session.ap_rep.is_some(), "mutual auth requested and served");

    // Fallback path: user with no tickets but an .rhosts entry.
    a.rlogin_priam.add_rhosts("jis", [18, 72, 0, 7]);
    let session =
        a.rlogin_priam.connect(None, "jis", [18, 72, 0, 7], ws.now(), None, None).unwrap();
    assert_eq!(session.method, AuthMethod::Rhosts);

    // No ticket, no .rhosts: denied.
    assert!(matches!(
        a.rlogin_priam.connect(None, "mallory", [10, 0, 0, 1], ws.now(), None, None),
        Err(AppError::Denied(_))
    ));
}

#[test]
fn rsh_runs_command_under_verified_identity() {
    let mut a = athena();
    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &rcmd, 0, false).unwrap();
    let (_, out) =
        a.rlogin_priam.rsh(Some(&ap), "bcn", WS_ADDR, ws.now(), "ls /tmp", None, None).unwrap();
    assert_eq!(out, "bcn@priam: ls /tmp");
}

#[test]
fn pop_only_returns_the_authenticated_users_mail() {
    let mut a = athena();
    a.pop.deliver("bcn", Mail { from: "jis".into(), body: "meeting at 8".into() }).unwrap();
    a.pop.deliver("jis", Mail { from: "bcn".into(), body: "private to jis".into() }).unwrap();

    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &pop_svc, 0, false).unwrap();
    let (mail, _) = a.pop.retrieve(&ap, WS_ADDR, ws.now(), None, None).unwrap();
    assert_eq!(mail.len(), 1);
    assert_eq!(mail[0].body, "meeting at 8");
    // jis's mail is untouched; bcn's box is drained.
    assert_eq!(a.pop.pending("jis"), 1);
    assert_eq!(a.pop.pending("bcn"), 0);
}

#[test]
fn zephyr_notices_carry_authenticated_sender() {
    let mut a = athena();
    a.zephyr.subscribe("jis");

    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let z = Principal::parse("zephyr.zion", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &z, 0, false).unwrap();
    a.zephyr.send(&ap, WS_ADDR, ws.now(), "jis", "MESSAGE", "lunch?", None, None).unwrap();

    let notices = a.zephyr.receive("jis");
    assert_eq!(notices.len(), 1);
    assert_eq!(notices[0].from, format!("bcn@{REALM}"));
    assert_eq!(notices[0].body, "lunch?");
    // Unsubscribed target refused.
    let (ap2, _) = ws.mk_request(&mut a.router, &z, 0, false).unwrap();
    assert!(a.zephyr.send(&ap2, WS_ADDR, ws.now(), "ghost", "MESSAGE", "x", None, None).is_err());
}

#[test]
fn register_checks_sms_then_uniqueness_then_adds() {
    let a = athena();
    let mut sms = Sms::new();
    sms.enroll("Window Treese", "912345678");

    // Unknown to SMS: refused.
    assert!(matches!(
        krb_apps::register(&sms, a.dep.master.as_ref(), "Nobody Real", "000", "treese", "pw", NOW),
        Err(AppError::Denied(_))
    ));
    // Taken username: refused.
    assert!(matches!(
        krb_apps::register(&sms, a.dep.master.as_ref(), "Window Treese", "912345678", "bcn", "pw", NOW),
        Err(AppError::NotUnique(_))
    ));
    // Valid: added, and the new user can log in.
    krb_apps::register(&sms, a.dep.master.as_ref(), "Window Treese", "912345678", "treese", "treese-pw", NOW)
        .unwrap();
    let mut a = a;
    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "treese", "treese-pw").unwrap();
    assert!(ws.whoami().is_some());
}

#[test]
fn stolen_ticket_replay_against_rlogin_fails() {
    // An eavesdropper resends bcn's AP_REQ from their own machine: address
    // check fails; from the same machine: replay cache catches it.
    let mut a = athena();
    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &rcmd, 0, false).unwrap();

    assert!(a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).is_ok());
    // Replay from the same address (and no .rhosts entry): denied.
    assert!(matches!(
        a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None),
        Err(AppError::Denied(_))
    ));
    // Replay from the attacker's address: denied too.
    assert!(matches!(
        a.rlogin_priam.connect(Some(&ap), "bcn", [10, 0, 0, 66], ws.now(), None, None),
        Err(AppError::Denied(_))
    ));
}

#[test]
fn app_servers_count_request_outcomes_in_one_registry() {
    let mut a = athena();
    a.pop.deliver("bcn", Mail { from: "jis".into(), body: "hi".into() }).unwrap();
    a.zephyr.subscribe("jis");

    // Export every service into one shared registry, as a deployment would.
    let registry = krb_telemetry::Registry::shared();
    a.pop.set_telemetry(std::sync::Arc::clone(&registry));
    a.rlogin_priam.set_telemetry(std::sync::Arc::clone(&registry));
    a.zephyr.set_telemetry(std::sync::Arc::clone(&registry));

    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let z = Principal::parse("zephyr.zion", REALM).unwrap();

    // One success per service.
    let (ap, _) = ws.mk_request(&mut a.router, &pop_svc, 0, false).unwrap();
    a.pop.retrieve(&ap, WS_ADDR, ws.now(), None, None).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &rcmd, 0, false).unwrap();
    a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).unwrap();
    let (ap_z, _) = ws.mk_request(&mut a.router, &z, 0, false).unwrap();
    a.zephyr.send(&ap_z, WS_ADDR, ws.now(), "jis", "MESSAGE", "lunch?", None, None).unwrap();

    // One failure each: a replayed POP ticket, an unknown rlogin user with
    // no credential, a notice to an unsubscribed target.
    let (ap, _) = ws.mk_request(&mut a.router, &pop_svc, 0, false).unwrap();
    a.pop.retrieve(&ap, WS_ADDR, ws.now(), None, None).unwrap();
    assert!(a.pop.retrieve(&ap, WS_ADDR, ws.now(), None, None).is_err());
    assert!(a.rlogin_priam.connect(None, "mallory", WS_ADDR, ws.now(), None, None).is_err());
    let (ap_z2, _) = ws.mk_request(&mut a.router, &z, 0, false).unwrap();
    assert!(a.zephyr.send(&ap_z2, WS_ADDR, ws.now(), "ghost", "MESSAGE", "x", None, None).is_err());

    assert_eq!(registry.counter_value("pop_requests_ok_total"), 2);
    assert_eq!(registry.counter_value("pop_requests_err_total"), 1);
    assert_eq!(registry.counter_value("rlogin_requests_ok_total"), 1);
    assert_eq!(registry.counter_value("rlogin_requests_err_total"), 1);
    assert_eq!(registry.counter_value("zephyr_requests_ok_total"), 1);
    assert_eq!(registry.counter_value("zephyr_requests_err_total"), 1);
    // The POP replay shows up in the replay-cache counters too.
    assert_eq!(registry.counter_value("pop_replay_hits_total"), 1);

    let rendered = registry.render();
    for name in ["pop_requests_ok_total", "rlogin_requests_ok_total", "zephyr_requests_ok_total"] {
        assert!(rendered.contains(name), "render() missing {name}");
    }
}

#[test]
fn two_rlogin_hosts_in_one_registry_both_count() {
    // A deployment exports every host's rlogin server into one registry.
    // The second server to join must not hide the first one's counters.
    let mut a = athena();
    let registry = krb_telemetry::Registry::shared();
    a.rlogin_priam.set_telemetry(std::sync::Arc::clone(&registry));
    let helen = Principal::parse("rcmd.helen", REALM).unwrap();
    let mut rlogin_helen = RloginServer::new(helen, krb_crypto::string_to_key("helen-srvtab"));
    rlogin_helen.set_telemetry(std::sync::Arc::clone(&registry));

    // One accepted connect and one replay, both on the first server.
    let mut ws = workstation(&a);
    ws.kinit(&mut a.router, "bcn", "bcn-pw").unwrap();
    let rcmd = Principal::parse("rcmd.priam", REALM).unwrap();
    let (ap, _) = ws.mk_request(&mut a.router, &rcmd, 0, false).unwrap();
    a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).unwrap();
    assert!(a.rlogin_priam.connect(Some(&ap), "bcn", WS_ADDR, ws.now(), None, None).is_err());

    assert_eq!(registry.counter_value("rlogin_requests_ok_total"), 1);
    assert_eq!(registry.counter_value("rlogin_requests_err_total"), 1);
    assert_eq!(registry.counter_value("rlogin_replay_hits_total"), 1);
}
