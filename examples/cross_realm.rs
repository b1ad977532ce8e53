//! Cross-realm authentication (§7.2): a Project Athena user reaches a
//! service at MIT's Laboratory for Computer Science — the exact pairing
//! the paper describes.
//!
//! Run with: `cargo run --example cross_realm`

use athena_kerberos::crypto::Scheduled;
use athena_kerberos::kdc::{pair_realms, Deployment, RealmConfig};
use athena_kerberos::krb::{krb_rd_req, Principal, ReplayCache};
use athena_kerberos::netsim::{ports, Endpoint, NetConfig, Router, SimNet};
use athena_kerberos::tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ATHENA: &str = "ATHENA.MIT.EDU";
const LCS: &str = "LCS.MIT.EDU";

fn main() {
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut router = Router::new(SimNet::new(NetConfig::default()));

    // Two administrative domains, each with its own master database...
    let mut athena_boot = kdb_init(ATHENA, "athena-master", start, 70).unwrap();
    register_user(&mut athena_boot.db, "steiner", "", "steiner-pw", start).unwrap();
    let mut lcs_boot = kdb_init(LCS, "lcs-master", start, 71).unwrap();
    let mut keygen = athena_kerberos::crypto::KeyGenerator::new(StdRng::seed_from_u64(72));
    let supdup_key = register_service(&mut lcs_boot.db, "supdup", "zeus", start, &mut keygen).unwrap();

    // ...whose administrators "select a key to be shared between their
    // realms" (§7.2).
    let mut athena_cfg = RealmConfig::new(ATHENA);
    let mut lcs_cfg = RealmConfig::new(LCS);
    let shared = keygen.generate();
    pair_realms(&mut athena_cfg, &mut lcs_cfg, shared).unwrap();

    let athena_dep = Deployment::install(
        &mut router, ATHENA, athena_boot.db, athena_cfg, [18, 72, 0, 10], 0, start,
    ).unwrap();
    let lcs_dep = Deployment::install(
        &mut router, LCS, lcs_boot.db, lcs_cfg, [18, 26, 0, 10], 0, start,
    ).unwrap();

    // The Athena user logs in locally...
    let mut ws = Workstation::new(
        [18, 72, 0, 5], ATHENA, athena_dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&athena_dep.clock_cell)),
    );
    ws.add_remote_kdc(LCS, Endpoint::new([18, 26, 0, 10], ports::KDC));
    ws.kinit(&mut router, "steiner", "steiner-pw").unwrap();
    println!("logged in at {ATHENA} as {}", ws.whoami().unwrap());

    // ...and asks for a service in the other realm. The workstation
    // transparently fetches a cross-realm TGT from the local TGS, then the
    // service ticket from the remote TGS.
    let supdup = Principal::parse(&format!("supdup.zeus@{LCS}"), ATHENA).unwrap();
    let (ap, cred) = ws.mk_request(&mut router, &supdup, 0, false).unwrap();
    println!("obtained ticket for {} issued by realm {}", cred.service, cred.issuing_realm);
    for line in ws.klist() {
        println!("  klist: {line}");
    }

    // The LCS service verifies — and sees the ORIGINAL realm, so it can
    // "choose whether to honor those credentials".
    let rc = ReplayCache::new();
    let v = krb_rd_req(&ap, &supdup, &Scheduled::new(&supdup_key), ws.addr, ws.now(), &rc, None).unwrap();
    println!(
        "supdup.zeus verified {} — originally authenticated by realm {}",
        v.client, v.client.realm
    );
    assert_eq!(v.client.realm, ATHENA);
    let _ = lcs_dep;
    println!("cross-realm authentication complete");
}
