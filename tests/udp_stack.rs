//! Transport independence: the same KDC code that runs on the simulated
//! network serves real UDP datagrams (DESIGN.md substitution note — the
//! simulator is a stand-in, not a shortcut).

use athena_kerberos::kdc::{fixed_clock, Kdc, KdcRole, RealmConfig};
use athena_kerberos::crypto::Scheduled;
use athena_kerberos::krb::{
    build_as_req, build_tgs_req_with, krb_rd_req, read_as_reply_with_password,
    read_tgs_reply_with, Principal, ReplayCache,
};
use athena_kerberos::netsim::{udp_request, Packet, UdpServer};
use athena_kerberos::tools::{kdb_init, register_service, register_user};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const REALM: &str = "ATHENA.MIT.EDU";
const NOW: u32 = 600_000_000;
/// Loopback: what the ticket's address field will contain over real UDP.
const LOOPBACK: [u8; 4] = [127, 0, 0, 1];

#[test]
fn full_protocol_over_real_udp() {
    let mut boot = kdb_init(REALM, "master", NOW, 300).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
    let mut keygen = athena_kerberos::crypto::KeyGenerator::new(StdRng::seed_from_u64(301));
    let svc_key = register_service(&mut boot.db, "echo", "localhost", NOW, &mut keygen).unwrap();

    let kdc = Arc::new(Kdc::new(
        boot.db,
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        302,
    ));
    let kdc_for_service = Arc::clone(&kdc);
    let server = UdpServer::spawn("127.0.0.1:0", move |req: &Packet| {
        Some(kdc_for_service.handle(&req.payload, req.src.addr.0))
    })
    .unwrap();

    // AS exchange over the socket.
    let client = Principal::parse("bcn", REALM).unwrap();
    let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
    let reply = udp_request(server.local_addr, &req, Duration::from_millis(500), 3).unwrap();
    let tgt = read_as_reply_with_password(&reply, "bcn-pw", NOW).unwrap();
    let tgt_sched = Scheduled::new(&tgt.key());

    // TGS exchange over the socket.
    let svc = Principal::parse("echo.localhost", REALM).unwrap();
    let req = build_tgs_req_with(&tgt, &tgt_sched, &client, LOOPBACK, NOW + 1, &svc, 96);
    let reply = udp_request(server.local_addr, &req, Duration::from_millis(500), 3).unwrap();
    let cred = read_tgs_reply_with(&reply, &tgt_sched, NOW + 1).unwrap();

    // AP exchange verified with the srvtab key.
    let ap = athena_kerberos::krb::krb_mk_req(
        &cred.ticket, &cred.issuing_realm, &cred.key(), &client, LOOPBACK, NOW + 2, 0, false,
    );
    let rc = ReplayCache::new();
    let v = krb_rd_req(&ap, &svc, &Scheduled::new(&svc_key), LOOPBACK, NOW + 2, &rc, None).unwrap();
    assert_eq!(v.client.name, "bcn");
}

#[test]
fn udp_wrong_password_fails_the_same_way() {
    let mut boot = kdb_init(REALM, "master", NOW, 310).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", NOW).unwrap();
    let kdc = Arc::new(Kdc::new(
        boot.db,
        RealmConfig::new(REALM),
        fixed_clock(NOW),
        KdcRole::Master,
        311,
    ));
    let server = UdpServer::spawn("127.0.0.1:0", move |req: &Packet| {
        Some(kdc.handle(&req.payload, req.src.addr.0))
    })
    .unwrap();
    let client = Principal::parse("bcn", REALM).unwrap();
    let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
    let reply = udp_request(server.local_addr, &req, Duration::from_millis(500), 3).unwrap();
    assert_eq!(
        read_as_reply_with_password(&reply, "wrong", NOW).unwrap_err(),
        athena_kerberos::krb::ErrorCode::IntkBadPw
    );
}
