//! The experiment driver: regenerates every row/series in EXPERIMENTS.md.
//!
//! One run prints, for each experiment in DESIGN.md's index, the measured
//! quantities whose *shape* the paper claims (who wins, by what factor,
//! where the crossover sits). Criterion benches in `benches/` measure the
//! same paths with statistical rigour; this binary is the quick,
//! human-readable pass.
//!
//! Run with: `cargo run --release -p krb-bench --bin experiments`

use kerberos::{
    krb_mk_priv, krb_mk_rep, krb_mk_req, krb_mk_safe, krb_rd_priv, krb_rd_rep, krb_rd_req,
    krb_rd_safe, Authenticator, Principal, ReplayCache, Ticket,
};
use krb_crypto::{decrypt_raw, encrypt_raw, quad_cksum, string_to_key, Des, DesKey, Mode};
use krb_kdc::{Kdc, KdcRole, RealmConfig};
use krb_kdb::{MemStore, PrincipalDb};
use krb_netsim::EPOCH_1987;
use krb_nfs::{FullAuthNfsServer, NfsCredential, NfsOp, NfsServer, ServerPolicy, UserTable, Vfs};
use krb_sim::{tradeoff, LifetimeConfig, ScenarioConfig};
use std::time::Instant;

const REALM: &str = "ATHENA.MIT.EDU";
const WS: [u8; 4] = [18, 72, 0, 5];
const NOW: u32 = EPOCH_1987;

fn time_per<F: FnMut()>(n: u32, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

fn main() {
    println!("athena-kerberos experiment driver — all numbers from this machine\n");
    e01_names();
    e02_e03_credential_sizes();
    e04_to_e08_protocol_costs();
    e09_replication();
    e10_admin();
    e11_propagation();
    e12_protection_levels();
    e13_nfs();
    e14_des_modes();
    e15_lifetime();
    e16_cross_realm();
    e17_athena_day();
    println!("\ndone.");
}

fn e01_names() {
    println!("== E1 (Fig. 2): principal names ==");
    let per = time_per(100_000, || {
        let p = Principal::parse("rlogin.priam@ATHENA.MIT.EDU", REALM).unwrap();
        std::hint::black_box(p.to_string());
    });
    println!("parse+format round trip: {per:.3} µs\n");
}

fn e02_e03_credential_sizes() {
    println!("== E2/E3 (Fig. 3/4): ticket and authenticator ==");
    let server = Principal::parse("rlogin.priam", REALM).unwrap();
    let client = Principal::parse("bcn", REALM).unwrap();
    let skey = string_to_key("srv");
    let sess = string_to_key("sess");
    let ticket = Ticket::new(&server, &client, WS, NOW, 96, *sess.as_bytes());
    let sealed = ticket.seal(&skey);
    println!("sealed ticket: {} bytes of ciphertext", sealed.len());
    let auth = Authenticator::new(&client, WS, NOW, 0).seal(&sess);
    println!("sealed authenticator: {} bytes", auth.len());
    let per_seal = time_per(20_000, || {
        std::hint::black_box(ticket.seal(&skey));
    });
    let per_open = time_per(20_000, || {
        std::hint::black_box(sealed.open(&skey).unwrap());
    });
    println!("seal: {per_seal:.1} µs, open: {per_open:.1} µs\n");
}

fn kdc_with_users(n: usize) -> (Kdc<MemStore>, std::sync::Arc<std::sync::atomic::AtomicU32>) {
    let mut db = PrincipalDb::create(MemStore::new(), string_to_key("master"), NOW).unwrap();
    db.add_principal("krbtgt", REALM, &string_to_key("tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    db.add_principal("rlogin", "priam", &string_to_key("srv"), NOW * 2, 96, NOW, "i.").unwrap();
    for i in 0..n {
        db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
            .unwrap();
    }
    let cell = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(NOW));
    let kdc = Kdc::new(
        db,
        RealmConfig::new(REALM),
        krb_kdc::shared_clock(std::sync::Arc::clone(&cell)),
        KdcRole::Master,
        1,
    );
    (kdc, cell)
}

fn e04_to_e08_protocol_costs() {
    use std::sync::atomic::Ordering;
    println!("== E4–E8 (Fig. 5–9): exchange costs (1000-user database) ==");
    let (mut kdc, clock) = kdc_with_users(1000);
    let client = Principal::parse("u7", REALM).unwrap();
    let tgs = Principal::tgs(REALM, REALM);
    let rlogin = Principal::parse("rlogin.priam", REALM).unwrap();
    let srv_key = string_to_key("srv");
    let tick = |c: &std::sync::Arc<std::sync::atomic::AtomicU32>| c.fetch_add(1, Ordering::SeqCst) + 1;

    // E4: AS exchange (request build + KDC handle + reply decrypt).
    let as_us = time_per(2_000, || {
        let t = tick(&clock);
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let reply = kdc.handle(&req, WS);
        std::hint::black_box(
            kerberos::read_as_reply_with_password(&reply, "p7", t).unwrap(),
        );
    });
    println!("E4 AS exchange (login): {as_us:.1} µs");

    // E7: TGS exchange (fresh TGT each 2000 iters keeps it unexpired).
    let fresh_tgt = |kdc: &mut Kdc<MemStore>, t: u32| {
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let reply = kdc.handle(&req, WS);
        kerberos::read_as_reply_with_password(&reply, "p7", t).unwrap()
    };
    let tgt = fresh_tgt(&mut kdc, tick(&clock));
    let tgs_us = time_per(2_000, || {
        let t = tick(&clock);
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t, &rlogin, 96);
        let reply = kdc.handle(&req, WS);
        std::hint::black_box(kerberos::read_tgs_reply(&reply, &tgt, t).unwrap());
    });
    println!("E7 TGS exchange (service ticket): {tgs_us:.1} µs");

    // E5/E6: AP exchange + mutual auth.
    let cred = {
        let t = tick(&clock);
        let tgt = fresh_tgt(&mut kdc, t);
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t, &rlogin, 96);
        let reply = kdc.handle(&req, WS);
        kerberos::read_tgs_reply(&reply, &tgt, t).unwrap()
    };
    let mut rc = ReplayCache::new();
    let ap_us = time_per(2_000, || {
        let t = tick(&clock);
        let ap = krb_mk_req(&cred.ticket, REALM, &cred.key(), &client, WS, t, 0, true);
        let v = krb_rd_req(&ap, &rlogin, &srv_key, WS, t, &mut rc).unwrap();
        let rep = krb_mk_rep(&v);
        krb_rd_rep(&rep, &cred.key(), v.timestamp).unwrap();
    });
    println!("E5+E6 AP exchange with mutual auth: {ap_us:.1} µs");

    // E8: the full three phases.
    let full_us = time_per(500, || {
        let t = tick(&clock);
        let tgt = fresh_tgt(&mut kdc, t);
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t, &rlogin, 96);
        let cred = kerberos::read_tgs_reply(&kdc.handle(&req, WS), &tgt, t).unwrap();
        let ap = krb_mk_req(&cred.ticket, REALM, &cred.key(), &client, WS, t, 0, false);
        std::hint::black_box(krb_rd_req(&ap, &rlogin, &srv_key, WS, t, &mut rc).unwrap());
    });
    println!("E8 full login→ticket→verified request: {full_us:.1} µs\n");
}

fn e09_replication() {
    println!("== E9 (Fig. 10): read scaling across replicas ==");
    // Database lookups dominate in a real deployment; here the point is
    // that N KDCs serve N× the request stream with no coordination,
    // because the authentication path is read-only.
    for slaves in [0usize, 1, 3, 7] {
        let n = slaves + 1;
        let mut kdcs: Vec<Kdc<MemStore>> = (0..n).map(|_| kdc_with_users(500).0).collect();
        let client = Principal::parse("u1", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        const TOTAL: u32 = 2_000;
        let t0 = Instant::now();
        let mut t = NOW;
        for i in 0..TOTAL {
            t += 1;
            let req = kerberos::build_as_req(&client, &tgs, 96, t);
            let k = &mut kdcs[(i as usize) % n];
            std::hint::black_box(k.handle(&req, WS));
        }
        let wall = t0.elapsed().as_secs_f64();
        // Per-KDC load is TOTAL/n: the capacity headroom grows linearly.
        println!(
            "  {n} KDC(s): {TOTAL} AS requests, {:.0} req/s aggregate, {:.0} per-KDC",
            f64::from(TOTAL) / wall,
            f64::from(TOTAL) / wall / n as f64
        );
    }
    println!();
}

fn e10_admin() {
    use std::sync::atomic::Ordering;
    println!("== E10 (Fig. 11/12): administration protocol ==");
    let (kdc, clock) = kdc_with_users(100);
    let kdc = std::sync::Arc::new(kdc);
    krb_kadm::KdbmServer::register_service(&kdc, &string_to_key("kdbm"), NOW).unwrap();
    let mut kdbm = krb_kadm::KdbmServer::new(
        std::sync::Arc::clone(&kdc),
        krb_kadm::Acl::new(),
        krb_kdc::shared_clock(std::sync::Arc::clone(&clock)),
    )
    .unwrap();
    let client = Principal::parse("u3", REALM).unwrap();
    let mut i = 0u32;
    let us = time_per(1_000, || {
        i += 1;
        let t = clock.fetch_add(1, Ordering::SeqCst) + 1;
        let req = krb_kadm::build_kdbm_ticket_request(&client, t);
        let reply = kdc.handle(&req, WS);
        let pw = if i % 2 == 1 { "p3" } else { "p3x" };
        let newpw = if i % 2 == 1 { "p3x" } else { "p3" };
        let cred = krb_kadm::read_kdbm_ticket_reply(&reply, pw, t).unwrap();
        let admin = krb_kadm::build_admin_request(&cred, &client, WS, t, &krb_kadm::kpasswd_op(newpw));
        krb_kadm::read_admin_reply(&kdbm.handle(&admin, WS)).unwrap();
    });
    println!("full kpasswd (AS ticket + sealed op + DB write): {us:.1} µs");
    println!("audit log entries: {}\n", kdbm.audit_log().len());
}

fn e16_cross_realm() {
    use std::sync::atomic::Ordering;
    println!("== E16 (§7.2): cross-realm authentication ==");
    let mut athena_cfg = RealmConfig::new(REALM);
    let mut lcs_cfg = RealmConfig::new("LCS.MIT.EDU");
    krb_kdc::pair_realms(&mut athena_cfg, &mut lcs_cfg, string_to_key("inter")).unwrap();

    let (athena, clock) = kdc_with_users(100);
    // Rebuild with the paired config (kdc_with_users used a plain one).
    let db = {
        let dump = athena.dump_text().unwrap();
        let entries = krb_kdb::dump::parse(&dump).unwrap();
        let mut store = MemStore::new();
        krb_kdb::dump::install(&mut store, &entries).unwrap();
        PrincipalDb::open(store, string_to_key("master")).unwrap()
    };
    let athena = Kdc::new(db, athena_cfg, krb_kdc::shared_clock(std::sync::Arc::clone(&clock)), KdcRole::Master, 3);

    let mut lcs_db = PrincipalDb::create(MemStore::new(), string_to_key("lcs-mk"), NOW).unwrap();
    lcs_db.add_principal("krbtgt", "LCS.MIT.EDU", &string_to_key("lcs-tgs"), NOW * 2, 96, NOW, "i.").unwrap();
    lcs_db.add_principal("supdup", "zeus", &string_to_key("supdup"), NOW * 2, 96, NOW, "i.").unwrap();
    let lcs = Kdc::new(
        lcs_db, lcs_cfg, krb_kdc::shared_clock(std::sync::Arc::clone(&clock)), KdcRole::Master, 4,
    );

    let client = Principal::parse("u5", REALM).unwrap();
    let tgs = Principal::tgs(REALM, REALM);
    let remote_tgs = Principal::tgs("LCS.MIT.EDU", REALM);
    let supdup = Principal::parse("supdup.zeus@LCS.MIT.EDU", REALM).unwrap();
    let us = time_per(500, || {
        let t = clock.fetch_add(3, Ordering::SeqCst) + 1;
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let tgt = kerberos::read_as_reply_with_password(&athena.handle(&req, WS), "p5", t).unwrap();
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t + 1, &remote_tgs, 96);
        let xr_tgt = kerberos::read_tgs_reply(&athena.handle(&req, WS), &tgt, t + 1).unwrap();
        let req = kerberos::build_tgs_req(&xr_tgt, &client, WS, t + 2, &supdup, 96);
        std::hint::black_box(kerberos::read_tgs_reply(&lcs.handle(&req, WS), &xr_tgt, t + 2).unwrap());
    });
    println!("login + cross-realm TGT + remote service ticket: {us:.1} µs");
    println!("(vs. ~{:.0} µs for the same flow within one realm — one extra TGS leg)\n", us * 2.0 / 3.0);
}

fn e11_propagation() {
    println!("== E11 (Fig. 13): database propagation cost vs size ==");
    println!("{:>12} {:>12} {:>14} {:>14}", "principals", "dump bytes", "kprop (ms)", "kpropd (ms)");
    for n in [100usize, 1000, 5000, 20000] {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
        for i in 0..n {
            db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        let t0 = Instant::now();
        let dump = krb_kdb::dump::dump(&db).unwrap();
        let packet = krb_kprop::build_full_seq(db.master_sched(), 0, dump.as_bytes());
        let build = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let (_, entries) = krb_kprop::verify_full_seq(db.master_sched(), &packet).unwrap();
        let mut store = MemStore::new();
        krb_kdb::dump::install(&mut store, &entries).unwrap();
        let receive = t0.elapsed().as_secs_f64() * 1e3;
        println!("{n:>12} {:>12} {build:>14.2} {receive:>14.2}", packet.len());
    }
    println!("(hourly, per §5.3 — even 20k principals is comfortably sub-second)\n");
}

fn e12_protection_levels() {
    println!("== E12 (§2.1): protection levels (per message) ==");
    let key = string_to_key("session");
    println!("{:>8} {:>16} {:>16} {:>16}", "size", "auth-only (µs)", "safe (µs)", "private (µs)");
    for size in [64usize, 1024, 8192] {
        let data = vec![0xA5u8; size];
        // Auth-only: connection was authenticated once; per-message cost 0.
        let auth_only = 0.0;
        let safe_us = time_per(5_000, || {
            let m = krb_mk_safe(&data, &key, WS, NOW);
            std::hint::black_box(krb_rd_safe(&m, &key, NOW).unwrap());
        });
        let priv_us = time_per(2_000, || {
            let m = krb_mk_priv(&data, &key, WS, NOW);
            std::hint::black_box(krb_rd_priv(&m, &key, Some(WS), NOW).unwrap());
        });
        println!("{size:>8} {auth_only:>16.1} {safe_us:>16.1} {priv_us:>16.1}");
    }
    println!("(the application programmer picks the level; cost rises with protection)\n");
}

fn e13_nfs() {
    println!("== E13 (appendix): NFS credential mapping vs per-op Kerberos ==");
    let mut vfs = Vfs::new();
    vfs.provision_home("bcn", 8042, 8042).unwrap();
    let mut server = NfsServer::new(vfs, ServerPolicy::Friendly);
    server.credmap.add(WS, 500, NfsCredential { uid: 8042, gids: vec![8042] });
    let cred = NfsCredential { uid: 500, gids: vec![500] };
    let mapped_us = time_per(100_000, || {
        std::hint::black_box(server.handle(WS, &cred, &NfsOp::Getattr(1)).unwrap());
    });

    let mut vfs = Vfs::new();
    vfs.provision_home("bcn", 8042, 8042).unwrap();
    let svc = Principal::parse("nfs.charon", REALM).unwrap();
    let skey = string_to_key("nfs-srv");
    let mut full = FullAuthNfsServer::new(vfs, svc.clone(), skey);
    full.add_user("bcn", NfsCredential { uid: 8042, gids: vec![8042] });
    let client = Principal::parse("bcn", REALM).unwrap();
    let sess = string_to_key("sess");
    let ticket = Ticket::new(&svc, &client, WS, NOW, 96, *sess.as_bytes()).seal(&string_to_key("nfs-srv"));
    let mut t = NOW;
    let full_us = time_per(3_000, || {
        t += 1;
        let ap = krb_mk_req(&ticket, REALM, &sess, &client, WS, t, 0, false);
        std::hint::black_box(full.handle(WS, &ap, t, &NfsOp::Getattr(1)).unwrap());
    });
    println!("kernel map lookup per op : {mapped_us:.2} µs");
    println!("full krb_rd_req per op   : {full_us:.2} µs");
    println!("slowdown                 : {:.0}x — the paper's 'unacceptable performance'\n", full_us / mapped_us);

    let mut ut = UserTable::new();
    ut.add("bcn", 8042, vec![8042]);
    let _ = ut; // mount-time cost is in the criterion bench
}

fn e14_des_modes() {
    println!("== E14 (§2.2): DES modes — throughput and error propagation ==");
    let key = string_to_key("k");
    let iv = [0u8; 8];
    println!("{:>8} {:>12} {:>12} {:>12}", "size", "ECB MB/s", "CBC MB/s", "PCBC MB/s");
    for size in [64usize, 1024, 8192] {
        let data = vec![0x5Au8; size];
        let mut row = Vec::new();
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            let us = time_per(2_000, || {
                std::hint::black_box(encrypt_raw(mode, &key, &iv, &data).unwrap());
            });
            row.push(size as f64 / us); // bytes/µs == MB/s
        }
        println!("{size:>8} {:>12.2} {:>12.2} {:>12.2}", row[0], row[1], row[2]);
    }
    // Error propagation shape (the §2.2 claim, counted concretely).
    let data = vec![1u8; 40];
    for mode in [Mode::Cbc, Mode::Pcbc] {
        let mut ct = encrypt_raw(mode, &key, &iv, &data).unwrap();
        ct[2] ^= 0x10;
        let pt = decrypt_raw(mode, &key, &iv, &ct).unwrap();
        let garbled = pt
            .chunks(8)
            .zip(data.chunks(8))
            .filter(|(a, b)| a != b)
            .count();
        println!("{mode:?}: 1 flipped ciphertext bit garbles {garbled}/5 plaintext blocks");
    }
    let per_block = time_per(100_000, || {
        let des = std::hint::black_box(Des::new(&key));
        std::hint::black_box(des.encrypt_block_u64(0x0123456789ABCDEF));
    });
    println!("key schedule + 1 block: {per_block:.2} µs");
    let s2k = time_per(10_000, || {
        std::hint::black_box(string_to_key("some user password"));
    });
    println!("string_to_key: {s2k:.2} µs");
    let qck = time_per(50_000, || {
        std::hint::black_box(quad_cksum(DesKey::from_bytes([1; 8]).as_bytes(), &[7u8; 1024]));
    });
    println!("quad_cksum over 1 KiB: {qck:.2} µs\n");
}

fn e15_lifetime() {
    println!("== E15 (§8): ticket lifetime tradeoff ==");
    println!(
        "{:>6} {:>8} {:>18} {:>18} {:>16}",
        "life", "hours", "prompts/user/day", "mean exposure(h)", "P(alive @ +1h)"
    );
    for row in tradeoff(LifetimeConfig::default(), &[3, 6, 12, 24, 48, 96, 144, 255]) {
        println!(
            "{:>6} {:>8.2} {:>18.2} {:>18.2} {:>16.2}",
            row.life_units,
            f64::from(row.life_units) / 12.0,
            row.prompts_per_user,
            row.mean_exposure_secs / 3600.0,
            row.p_usable_after_1h
        );
    }
    println!();
}

fn e17_athena_day() {
    println!("== E17 (§9): Athena-scale day (scaled 1:10 for the driver) ==");
    let cfg = ScenarioConfig {
        users: 500,
        workstations: 65,
        services: 20,
        slaves: 2,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = krb_sim::run(cfg);
    println!(
        "  {} users / {} ws / {} services / {} slaves in {:.1}s wall",
        cfg.users, cfg.workstations, cfg.services, cfg.slaves,
        t0.elapsed().as_secs_f64()
    );
    println!(
        "  logins {}, reauths {}, service uses {}, propagations {}",
        report.logins, report.reauthentications, report.service_uses, report.propagations
    );
    println!("  KDC load {:?}, failures {:?}", report.kdc_load, report.failures);
    println!("  (full 5000/650/65 scale: cargo run --release --example athena_day)");
}
