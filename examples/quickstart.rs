//! Quickstart: stand up a realm, log a user in, and authenticate to a
//! service — the three phases of Figure 9 in fifty lines.
//!
//! Run with: `cargo run --example quickstart`

use athena_kerberos::crypto::Scheduled;
use athena_kerberos::kdc::{Deployment, RealmConfig};
use athena_kerberos::krb::{krb_mk_rep, krb_rd_rep, krb_rd_req, Principal, ReplayCache};
use athena_kerberos::netsim::{NetConfig, Router, SimNet};
use athena_kerberos::tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const REALM: &str = "ATHENA.MIT.EDU";

fn main() {
    let start = athena_kerberos::netsim::EPOCH_1987;

    // --- The administrator's job (§6.3): initialize the database and
    // register principals.
    let mut boot = kdb_init(REALM, "master-password", start, 7).expect("kdb_init");
    register_user(&mut boot.db, "bcn", "", "bcn-password", start).expect("register user");
    let mut keygen =
        athena_kerberos::crypto::KeyGenerator::new(StdRng::seed_from_u64(8));
    let rlogin_key =
        register_service(&mut boot.db, "rlogin", "priam", start, &mut keygen).expect("register service");

    // --- Deploy the authentication service: a master and one slave.
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    ).unwrap();
    println!("realm {REALM}: master at {}, {} slave(s)", dep.kdc_endpoints()[0], dep.slaves.len());

    // --- Phase 1 (Fig. 5): the user logs in. Only the password proves
    // identity; it never crosses the network.
    let mut ws = Workstation::new(
        [18, 72, 0, 5],
        REALM,
        dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    );
    ws.kinit(&mut router, "bcn", "bcn-password").expect("kinit");
    println!("logged in as {}", ws.whoami().expect("owner"));

    // --- Phase 2 (Fig. 8): get a ticket for rlogin.priam from the TGS —
    // no password needed, the TGT session key carries the exchange.
    let service = Principal::parse("rlogin.priam", REALM).expect("name");
    let (ap_req, cred) = ws.mk_request(&mut router, &service, 0, true).expect("mk_request");
    println!("got service ticket: {} (life {} x 5min)", cred.service, cred.life);
    for line in ws.klist() {
        println!("  klist: {line}");
    }

    // --- Phase 3 (Fig. 6/7): present ticket + authenticator; the server
    // verifies and proves itself back (mutual authentication).
    let replays = ReplayCache::new();
    let verified = krb_rd_req(&ap_req, &service, &Scheduled::new(&rlogin_key), ws.addr, ws.now(), &replays, None)
        .expect("krb_rd_req");
    println!("server verified client: {}", verified.client);
    let reply = krb_mk_rep(&verified);
    krb_rd_rep(&reply, &cred.key(), verified.timestamp).expect("mutual auth");
    println!("client verified server: mutual authentication complete");

    // A replay of the same request is detected.
    let replayed = krb_rd_req(&ap_req, &service, &Scheduled::new(&rlogin_key), ws.addr, ws.now(), &replays, None);
    println!("replayed request -> {:?}", replayed.expect_err("rejected"));
}
