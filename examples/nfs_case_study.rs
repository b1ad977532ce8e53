//! The appendix case study: Kerberizing Sun NFS.
//!
//! Walks the full flow — login, Kerberos-moderated mount, credential
//! mapping, file traffic — then measures the design argument: full
//! Kerberos authentication per NFS operation vs. the kernel credential
//! map ("would have delivered unacceptable performance").
//!
//! Run with: `cargo run --release --example nfs_case_study`

use athena_kerberos::apps::{login, logout};
use athena_kerberos::hesiod::{FilsysInfo, Hesiod, UserInfo};
use athena_kerberos::kdc::{Deployment, RealmConfig};
use athena_kerberos::krb::Principal;
use athena_kerberos::netsim::{NetConfig, Router, SimNet};
use athena_kerberos::nfs::{
    FullAuthNfsServer, MountD, NfsCredential, NfsOp, NfsServer, ServerPolicy, UserTable, Vfs,
};
use athena_kerberos::tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const REALM: &str = "ATHENA.MIT.EDU";
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];

fn main() {
    let start = athena_kerberos::netsim::EPOCH_1987;

    // Realm with a user and the fileserver's NFS service.
    let mut boot = kdb_init(REALM, "master", start, 30).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut keygen = athena_kerberos::crypto::KeyGenerator::new(StdRng::seed_from_u64(31));
    let nfs_key = register_service(&mut boot.db, "nfs", "fs30", start, &mut keygen).unwrap();

    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 0, start,
    ).unwrap();

    // Hesiod knows where bcn's home directory lives.
    let hesiod = Hesiod::new();
    hesiod.add_user(UserInfo {
        username: "bcn".into(), uid: 8042, gids: vec![8042, 100],
        real_name: "Clifford Neuman".into(), phone: "x3-1234".into(), shell: "/bin/csh".into(),
    });
    hesiod.add_filsys("bcn", FilsysInfo { server_addr: [18, 72, 0, 30], path: "/bcn".into() });

    // The fileserver.
    let mut vfs = Vfs::new();
    vfs.provision_home("bcn", 8042, 8042).unwrap();
    let mut nfs = NfsServer::new(vfs, ServerPolicy::Friendly);
    let mut users = UserTable::new();
    users.add("bcn", 8042, vec![8042, 100]);
    let mut mountd = MountD::new(Principal::parse("nfs.fs30", REALM).unwrap(), nfs_key, users);

    // --- Login per the appendix.
    let mut ws = Workstation::new(
        WS_ADDR, REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    let session = login(&mut ws, &mut router, &hesiod, &mut mountd, &mut nfs, "bcn", "bcn-pw", 500)
        .expect("login");
    println!("login ok: {}", session.passwd_entry);
    println!("kernel credential map: {} entry(ies)", nfs.credmap.len());

    // --- File traffic under the mapping.
    let cred = NfsCredential { uid: 500, gids: vec![500] };
    let f = match nfs.handle(WS_ADDR, &cred, &NfsOp::Create(session.home_ino, "paper.tex".into(), 0o600)) {
        Ok(athena_kerberos::nfs::NfsReply::Handle(h)) => h,
        other => panic!("create failed: {other:?}"),
    };
    nfs.handle(WS_ADDR, &cred, &NfsOp::Write(f, 0, b"\\title{Kerberos}".to_vec())).unwrap();
    println!("wrote paper.tex in bcn's home over mapped NFS");

    // --- The performance argument (E13).
    const OPS: u32 = 5_000;
    let t0 = Instant::now();
    for i in 0..OPS {
        nfs.handle(WS_ADDR, &cred, &NfsOp::Read(f, (i % 8) as usize, 16)).unwrap();
    }
    let mapped = t0.elapsed();

    // Baseline: the rejected design — full Kerberos auth per operation.
    let mut vfs2 = Vfs::new();
    vfs2.provision_home("bcn", 8042, 8042).unwrap();
    let svc = Principal::parse("nfs.fs30", REALM).unwrap();
    let svc_key = athena_kerberos::crypto::string_to_key("fullauth-svc");
    let mut full = FullAuthNfsServer::new(vfs2, svc.clone(), svc_key);
    full.add_user("bcn", NfsCredential { uid: 8042, gids: vec![8042, 100] });
    let home = 1;
    let session_key = athena_kerberos::crypto::string_to_key("sess");
    let client = Principal::parse("bcn", REALM).unwrap();
    let ticket = athena_kerberos::krb::Ticket::new(
        &svc, &client, WS_ADDR, start, 96, *session_key.as_bytes(),
    )
    .seal_with(&athena_kerberos::crypto::Scheduled::new(&svc_key));

    let t0 = Instant::now();
    for i in 0..OPS {
        // A fresh authenticator per op — that is what "full blown Kerberos
        // authenticated data" on every transaction means.
        let ap = athena_kerberos::krb::krb_mk_req(
            &ticket, REALM, &session_key, &client, WS_ADDR, start + i, 0, false,
        );
        full.handle(WS_ADDR, &ap, start + i, &NfsOp::Readdir(home)).unwrap();
    }
    let fullauth = t0.elapsed();

    println!("\n== E13: per-operation authentication cost ({OPS} ops) ==");
    println!("kernel credential map : {mapped:?} ({:.2} µs/op)", mapped.as_secs_f64() * 1e6 / f64::from(OPS));
    println!("full Kerberos per op  : {fullauth:?} ({:.2} µs/op)", fullauth.as_secs_f64() * 1e6 / f64::from(OPS));
    println!(
        "slowdown factor       : {:.0}x  (the paper's 'unacceptable performance')",
        fullauth.as_secs_f64() / mapped.as_secs_f64()
    );

    // --- Logout closes the forgery window.
    logout(&mut ws, &mut mountd, &mut nfs, &session);
    let denied = nfs.handle(WS_ADDR, &cred, &NfsOp::Readdir(session.home_ino));
    println!("\nafter logout, forged <addr,uid> request -> {denied:?}");
}
