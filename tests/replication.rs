//! Replication and propagation across crates (paper §5.3, Figures 10/13;
//! experiments E9/E11 functional halves).

use athena_kerberos::kadm::{
    build_admin_request, build_kdbm_ticket_request, kpasswd_op, read_admin_reply,
    read_kdbm_ticket_reply, Acl, KdbmServer,
};
use athena_kerberos::kdc::{Deployment, RealmConfig};
use athena_kerberos::kdb::{dump::dump, MemStore, PrincipalDb, Store};
use athena_kerberos::kprop::{build_full_seq, kpropd_install, verify_full_seq, PropError};
use athena_kerberos::krb::Principal;
use athena_kerberos::netsim::{NetConfig, Router, SimNet};
use athena_kerberos::tools::{kdb_init, register_user, Workstation};

const REALM: &str = "ATHENA.MIT.EDU";
const WS_ADDR: [u8; 4] = [18, 72, 0, 5];

fn deploy(slaves: usize) -> (Router, Deployment) {
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master-key-pw", start, 200).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], slaves, start,
    ).unwrap();
    (router, dep)
}

/// `kprop`'s full dump of `db` (Fig. 13); these realms keep no update
/// journal, so every dump is position 0.
fn full_dump<S: Store>(db: &PrincipalDb<S>) -> Vec<u8> {
    build_full_seq(db.master_sched(), 0, dump(db).unwrap().as_bytes())
}

/// `kpropd`'s half: verify under the master key, install in a fresh store.
fn receive(packet: &[u8], dep: &Deployment) -> Result<PrincipalDb<MemStore>, PropError> {
    let sched = athena_kerberos::crypto::Scheduled::new(&dep.master_key);
    let (_, entries) = verify_full_seq(&sched, packet)?;
    kpropd_install(MemStore::new(), &entries, dep.master_key)
}

fn ws(dep: &Deployment) -> Workstation {
    Workstation::new(
        WS_ADDR, REALM, dep.kdc_endpoints(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    )
}

#[test]
fn password_change_reaches_slaves_only_after_propagation() {
    // The full consistency story of §5.3: writes go to the master (via the
    // KDBM); slaves serve stale data until the next hourly propagation.
    let (mut router, dep) = deploy(1);
    KdbmServer::register_service(&dep.master, &athena_kerberos::crypto::string_to_key("kdbm"),
        athena_kerberos::netsim::EPOCH_1987).unwrap();
    let mut kdbm = KdbmServer::new(
        std::sync::Arc::clone(&dep.master),
        Acl::new(),
        athena_kerberos::kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
    )
    .unwrap();

    // Change bcn's password through the KDBM.
    let client = Principal::parse("bcn", REALM).unwrap();
    let workstation = ws(&dep);
    let now = workstation.now();
    let req = build_kdbm_ticket_request(&client, now);
    let reply = router.rpc(workstation.endpoint, dep.kdc_endpoints()[0], &req).unwrap();
    let cred = read_kdbm_ticket_reply(&reply, "bcn-pw", now).unwrap();
    let admin_req = build_admin_request(&cred, &client, WS_ADDR, now, &kpasswd_op("new-pw"));
    read_admin_reply(&kdbm.handle(&admin_req, WS_ADDR)).unwrap();

    // Master sees the new password immediately.
    let master_ep = dep.kdc_endpoints()[0];
    let slave_ep = dep.kdc_endpoints()[1];
    let mut probe = ws(&dep);
    probe.kdc_endpoints = vec![master_ep];
    assert!(probe.kinit(&mut router, "bcn", "new-pw").is_ok());

    // Slave still has the old database.
    let mut probe = ws(&dep);
    probe.kdc_endpoints = vec![slave_ep];
    assert!(probe.kinit(&mut router, "bcn", "new-pw").is_err(), "slave is stale pre-propagation");
    assert!(probe.kinit(&mut router, "bcn", "bcn-pw").is_ok(), "old password still valid on slave");

    // Propagate (Fig. 13) and the slave converges.
    let snap = dep.master.snapshot();
    dep.slaves[0].1.install_db(receive(&full_dump(snap.db()), &dep).unwrap());

    let mut probe = ws(&dep);
    probe.kdc_endpoints = vec![slave_ep];
    assert!(probe.kinit(&mut router, "bcn", "new-pw").is_ok(), "slave converged");
    assert!(probe.kinit(&mut router, "bcn", "bcn-pw").is_err(), "old password gone");
}

/// Whether `password` gets `bcn` a ticket from the KDC at endpoint `at`.
fn logs_in(router: &mut Router, dep: &Deployment, at: usize, password: &str) -> bool {
    let mut probe = ws(dep);
    probe.kdc_endpoints = vec![dep.kdc_endpoints()[at]];
    probe.kinit(router, "bcn", password).is_ok()
}

#[test]
fn slaves_share_the_masters_tree_without_aliasing_it() {
    // Each slave starts on a snapshot of the master's database, not on a
    // copy: same records, shared nodes, and a write on the master copies
    // the nodes it touches instead of reaching into a slave.
    let (mut router, dep) = deploy(2);
    let at_install = dep.master.dump_text().unwrap();
    for (_, slave) in &dep.slaves {
        assert_eq!(slave.dump_text().unwrap(), at_install);
    }
    let now = athena_kerberos::netsim::EPOCH_1987;
    let new_key = athena_kerberos::crypto::string_to_key("new-pw");
    dep.master.with_db_mut(|db| db.change_key("bcn", "", &new_key, now, "bcn.")).unwrap().unwrap();
    assert!(logs_in(&mut router, &dep, 0, "new-pw"), "the master has the new key");
    for (i, (_, slave)) in dep.slaves.iter().enumerate() {
        assert_eq!(slave.dump_text().unwrap(), at_install, "slave {i} is untouched");
        assert!(logs_in(&mut router, &dep, 1 + i, "bcn-pw"), "slave {i} keeps the old key");
        assert!(!logs_in(&mut router, &dep, 1 + i, "new-pw"), "slave {i} has not seen the new one");
    }

    // A full dump shipped to the first slave moves it, and only it.
    let snap = dep.master.snapshot();
    dep.slaves[0].1.install_db(receive(&full_dump(snap.db()), &dep).unwrap());
    assert_eq!(dep.slaves[0].1.dump_text().unwrap(), dep.master.dump_text().unwrap());
    assert!(logs_in(&mut router, &dep, 1, "new-pw") && !logs_in(&mut router, &dep, 1, "bcn-pw"));
    assert!(logs_in(&mut router, &dep, 2, "bcn-pw") && !logs_in(&mut router, &dep, 2, "new-pw"));
}

#[test]
fn master_down_blocks_admin_but_not_authentication() {
    // §5: "while authentication can still occur (on slaves),
    // administration requests cannot be serviced if the master machine is
    // down."
    let (mut router, dep) = deploy(2);
    router.net().set_partitioned(athena_kerberos::netsim::Ipv4(dep.master_addr), true);

    // Authentication still works via slaves.
    let mut workstation = ws(&dep);
    workstation.kinit(&mut router, "bcn", "bcn-pw").unwrap();

    // Admin (which must reach the master's KDBM endpoint) cannot proceed:
    // the AS request for a KDBM ticket to the master times out.
    let client = Principal::parse("bcn", REALM).unwrap();
    let req = build_kdbm_ticket_request(&client, workstation.now());
    assert!(router.rpc(workstation.endpoint, dep.kdc_endpoints()[0], &req).is_err());
}

#[test]
fn tampered_propagation_is_rejected_and_slave_keeps_serving() {
    let (mut router, dep) = deploy(1);
    let snap = dep.master.snapshot();
    let mut packet = full_dump(snap.db());
    let n = packet.len();
    packet[n - 1] ^= 0x01;
    assert_eq!(receive(&packet, &dep).map(|_| ()).unwrap_err(), PropError::ChecksumMismatch);
    // The slave keeps its previous database and keeps authenticating.
    let mut probe = ws(&dep);
    probe.kdc_endpoints = vec![dep.kdc_endpoints()[1]];
    assert!(probe.kinit(&mut router, "bcn", "bcn-pw").is_ok());
}

#[test]
fn krbtgt_rollover_via_propagation_invalidates_schedule_caches() {
    // The PR-3 cache-coherence contract: a KDC holds the krbtgt schedule
    // warm and an LRU of service-key schedules, and `install_db` (the
    // kpropd apply path) must drop both. A slave that kept serving from a
    // stale schedule after a krbtgt rollover would mint tickets no one can
    // use — or worse, honour TGTs sealed under the retired key.
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "mk", start, 200).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    register_user(&mut boot.db, "rcmd", "host", "svc-pw", start).unwrap();
    register_user(&mut boot.db, "pop", "po", "pop-pw", start).unwrap();
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    ).unwrap();
    let slave = std::sync::Arc::clone(&dep.slaves[0].1);
    let slave_ep = dep.kdc_endpoints()[1];
    let rcmd = Principal::parse("rcmd.host", REALM).unwrap();
    let pop = Principal::parse("pop.po", REALM).unwrap();

    // Warm the slave's caches with a full AS + TGS cycle.
    let mut probe = ws(&dep);
    probe.kdc_endpoints = vec![slave_ep];
    probe.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    probe.get_service_ticket(&mut router, &rcmd).unwrap();
    let warm_misses = slave.telemetry().counter_value("kdc_sched_cache_misses_total");
    assert!(warm_misses > 0, "first requests must populate the schedule cache");

    // Steady state: a second login/ticket cycle builds no new schedules.
    let mut probe2 = ws(&dep);
    probe2.kdc_endpoints = vec![slave_ep];
    probe2.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    probe2.get_service_ticket(&mut router, &rcmd).unwrap();
    {
        let t = slave.telemetry();
        assert_eq!(
            t.counter_value("kdc_sched_cache_misses_total"),
            warm_misses,
            "steady-state requests must be cache hits"
        );
        assert!(t.counter_value("kdc_sched_cache_hits_total") > 0);
    }

    // Re-key the realm: a fresh bootstrap from a different key-generator
    // seed gives krbtgt a new random key (users keep password-derived
    // keys), then the dump propagates to the slave exactly as kpropd
    // would apply it (Fig. 13).
    let mut rekeyed = kdb_init(REALM, "mk", start, 500).unwrap();
    register_user(&mut rekeyed.db, "bcn", "", "bcn-pw", start).unwrap();
    register_user(&mut rekeyed.db, "rcmd", "host", "svc-pw", start).unwrap();
    register_user(&mut rekeyed.db, "pop", "po", "pop-pw", start).unwrap();
    slave.install_db(receive(&full_dump(&rekeyed.db), &dep).unwrap());

    // The old TGT is sealed under the retired krbtgt key; asking the TGS
    // for a not-yet-cached service must fail, not be served from a stale
    // cached schedule.
    assert!(
        probe.get_service_ticket(&mut router, &pop).is_err(),
        "TGT under the retired krbtgt key must be rejected after rollover"
    );

    // A fresh login under the new key works end to end...
    let mut fresh = ws(&dep);
    fresh.kdc_endpoints = vec![slave_ep];
    fresh.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    fresh.get_service_ticket(&mut router, &pop).unwrap();

    // ...and the invalidation is observable: the cleared LRU re-misses.
    let after = slave.telemetry().counter_value("kdc_sched_cache_misses_total");
    assert!(after > warm_misses, "install_db must clear the schedule cache ({after} vs {warm_misses})");
}

#[test]
fn master_partitioned_slave_answers_within_retry_budget() {
    // §5.3 under the chaos fault model: a timed partition window isolates
    // the master, and the workstation's failover finds the slave after
    // spending exactly `RETRIES_PER_KDC` timeouts on the dead host.
    use athena_kerberos::netsim::{Fault, FaultPlan, FaultWindow, Ipv4, LinkMatch};

    let (mut router, dep) = deploy(1);
    let plan = FaultPlan::with_windows(
        7,
        vec![FaultWindow {
            from_ms: 0,
            until_ms: u64::MAX,
            link: LinkMatch::Host(Ipv4(dep.master_addr)),
            fault: Fault::Partition,
        }],
    );
    router.net().set_fault_plan(plan);

    let mut workstation = ws(&dep);
    workstation.kinit(&mut router, "bcn", "bcn-pw").unwrap();
    assert!(workstation.whoami().is_some());

    // Every packet aimed at the master was swallowed by the partition; one
    // AS exchange costs the full per-KDC retry budget before failover.
    let registry = router.net().registry();
    assert_eq!(
        registry.counter_value("net_fault_partitioned_total"),
        Workstation::RETRIES_PER_KDC as u64,
        "failover must spend exactly the retry budget on the dead master"
    );
}

#[test]
fn all_kdcs_partitioned_fails_with_typed_timeout() {
    // Both the master and every slave unreachable: the client reports a
    // typed network timeout — no panic, no bogus credential.
    use athena_kerberos::netsim::{Fault, FaultPlan, FaultWindow, LinkMatch, NetError};

    let (mut router, dep) = deploy(1);
    let plan = FaultPlan::with_windows(
        8,
        vec![FaultWindow {
            from_ms: 0,
            until_ms: u64::MAX,
            link: LinkMatch::Any,
            fault: Fault::Partition,
        }],
    );
    router.net().set_fault_plan(plan);

    let mut workstation = ws(&dep);
    match workstation.kinit(&mut router, "bcn", "bcn-pw") {
        Err(athena_kerberos::tools::ToolError::Net(NetError::Timeout)) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert!(workstation.whoami().is_none());
}

#[test]
fn heal_lets_the_pending_login_complete() {
    // The liveness half of the chaos oracle, in miniature: a login that
    // failed during a full partition completes once `heal_faults()` closes
    // the windows — same workstation, same credentials, no restart.
    use athena_kerberos::crypto::Scheduled;
    use athena_kerberos::krb::{krb_rd_req, ReplayCache};
    use athena_kerberos::netsim::{Fault, FaultPlan, FaultWindow, LinkMatch};

    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut boot = kdb_init(REALM, "master-key-pw", start, 200).unwrap();
    register_user(&mut boot.db, "bcn", "", "bcn-pw", start).unwrap();
    let mut keygen = athena_kerberos::crypto::KeyGenerator::new(
        <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(201),
    );
    let svc_key = athena_kerberos::tools::register_service(
        &mut boot.db, "sample", "host", start, &mut keygen,
    )
    .unwrap();
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 0, 10], 1, start,
    )
    .unwrap();

    let plan = FaultPlan::with_windows(
        9,
        vec![FaultWindow {
            from_ms: 0,
            until_ms: u64::MAX,
            link: LinkMatch::Any,
            fault: Fault::Partition,
        }],
    );
    router.net().set_fault_plan(plan);

    let mut workstation = ws(&dep);
    assert!(workstation.kinit(&mut router, "bcn", "bcn-pw").is_err(), "partitioned");

    router.net().heal_faults();
    workstation.kinit(&mut router, "bcn", "bcn-pw").unwrap();

    // The healed session is fully usable: a service ticket mints and the
    // AP_REQ verifies at the server.
    let svc = Principal::parse("sample.host", REALM).unwrap();
    let (ap, _) = workstation.mk_request(&mut router, &svc, 0, false).unwrap();
    let rc = ReplayCache::new();
    krb_rd_req(&ap, &svc, &Scheduled::new(&svc_key), WS_ADDR, workstation.now(), &rc, None).unwrap();
}

#[test]
fn propagation_scales_with_database_size() {
    // E11's shape: dump size grows linearly with principals.
    let start = athena_kerberos::netsim::EPOCH_1987;
    let mut sizes = Vec::new();
    for n in [100usize, 400, 1600] {
        let mut boot = kdb_init(REALM, "mk", start, n as u64).unwrap();
        for i in 0..n {
            register_user(&mut boot.db, &format!("u{i}"), "", &format!("p{i}"), start).unwrap();
        }
        sizes.push(full_dump(&boot.db).len());
    }
    assert!(sizes[1] > sizes[0] * 3 && sizes[1] < sizes[0] * 5, "{sizes:?}");
    assert!(sizes[2] > sizes[1] * 3 && sizes[2] < sizes[1] * 5, "{sizes:?}");
}

#[test]
fn concurrent_load_never_observes_a_half_installed_database() {
    // The concurrent extension of the rollover regression above: while
    // reader threads hammer the AS path lock-free, the kpropd apply path
    // (`install_db`) keeps swapping between two complete databases that
    // differ in bcn's password. Because the snapshot is built before the
    // swap and replaced atomically, every single reply must decode under
    // exactly one of the two passwords — a reply that decodes under
    // neither would mean a request saw a torn view (e.g. krbtgt present
    // but the user missing, or a key schedule from the retired database).
    use athena_kerberos::kdc::{fixed_clock, Kdc, KdcRole};
    use athena_kerberos::krb::{build_as_req, read_as_reply_with_password};
    use std::sync::atomic::{AtomicU32, Ordering};

    let start = athena_kerberos::netsim::EPOCH_1987;
    let make_db = |seed: u64, pw: &str| {
        let mut boot = kdb_init(REALM, "mk", start, seed).unwrap();
        register_user(&mut boot.db, "bcn", "", pw, start).unwrap();
        boot.db
    };
    let kdc = std::sync::Arc::new(Kdc::new(
        make_db(400, "pw-a"),
        RealmConfig::new(REALM),
        fixed_clock(start),
        KdcRole::Slave,
        401,
    ));
    let client = Principal::parse("bcn", REALM).unwrap();
    let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, start);

    const READERS: usize = 4;
    const PER_READER: u32 = 300;
    const INSTALLS: u64 = 20;
    let handled = AtomicU32::new(0);
    let (seen_a, seen_b, torn) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut a, mut b, mut bad) = (0u32, 0u32, 0u32);
                    for _ in 0..PER_READER {
                        let reply = kdc.handle(&req, WS_ADDR);
                        let ok_a = read_as_reply_with_password(&reply, "pw-a", start).is_ok();
                        let ok_b = read_as_reply_with_password(&reply, "pw-b", start).is_ok();
                        match (ok_a, ok_b) {
                            (true, false) => a += 1,
                            (false, true) => b += 1,
                            _ => bad += 1,
                        }
                        handled.fetch_add(1, Ordering::Relaxed);
                    }
                    (a, b, bad)
                })
            })
            .collect();

        // Alternate complete databases under the readers' feet, pacing so
        // at least 8 requests complete against each installed version.
        let total = READERS as u32 * PER_READER;
        for i in 0..INSTALLS {
            let pw = if i % 2 == 0 { "pw-b" } else { "pw-a" };
            kdc.install_db(make_db(402 + i, pw));
            let target = (handled.load(Ordering::Relaxed) + 8).min(total);
            while handled.load(Ordering::Relaxed) < target {
                std::thread::yield_now();
            }
        }

        workers.into_iter().map(|h| h.join().unwrap()).fold(
            (0u32, 0u32, 0u32),
            |(a, b, bad), (ra, rb, rbad)| (a + ra, b + rb, bad + rbad),
        )
    });

    assert_eq!(torn, 0, "{torn} replies decoded under neither database version");
    assert!(seen_a > 0 && seen_b > 0, "both versions must serve ({seen_a} / {seen_b})");
    assert_eq!(kdc.telemetry().counter_value("kdc_store_swaps_total"), INSTALLS);
}
