//! The experiment driver: regenerates every row/series in EXPERIMENTS.md.
//!
//! One run prints, for each experiment in DESIGN.md's index, the measured
//! quantities whose *shape* the paper claims (who wins, by what factor,
//! where the crossover sits), then the named groups the write-ups cite
//! (`e10_with_db_mut_change_key`, `e14_*`, `e15_sched_cache`,
//! `e18_replay_check`, `ablation_*`). Every figure is a
//! [`krb_bench::time_median`] median; performance *claims* are made on
//! kbench (`benchmark/`), not here.
//!
//! Run with: `cargo run --release -p krb-bench --bin experiments`

use kerberos::{
    krb_mk_priv, krb_mk_rep, krb_mk_req, krb_mk_safe, krb_rd_priv, krb_rd_rep, krb_rd_req,
    krb_rd_safe, replay::hash_bytes, Authenticator, Principal, ReplayCache, ReplayKey, Ticket,
    MAX_SKEW_SECS,
};
use krb_bench::time_median;
use krb_crypto::{
    decrypt_raw, decrypt_raw_with, encrypt_raw, encrypt_raw_with, open, quad_cksum, seal,
    seal_in_place, seal_with, string_to_key, Des, DesKey, Mode, Scheduled,
};
use krb_kdc::{Kdc, KdcRole, RealmConfig};
use krb_kdb::{HashStore, MemStore, PrincipalDb, Store};
use krb_netsim::EPOCH_1987;
use krb_nfs::{FullAuthNfsServer, NfsCredential, NfsOp, NfsServer, ServerPolicy, Vfs};
use krb_sim::{tradeoff, LifetimeConfig, ScenarioConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const REALM: &str = "ATHENA.MIT.EDU";
const WS: [u8; 4] = [18, 72, 0, 5];
const NOW: u32 = EPOCH_1987;

/// Per-call time of a stateless `f`, `n` back-to-back calls per sample.
/// This only loops; the clock is read in `time_median`.
fn per_call(n: u32, mut f: impl FnMut()) -> Duration {
    time_median(n, || (), |()| (0..n).for_each(|_| f()))
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One line of a named group, in the format the write-ups quote.
fn row(name: &str, per_op: Duration) {
    println!("{name:<60} time: [{per_op:>12.2?}]");
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
    e15_sched_cache();
    e18_ablations();
    println!("\ndone.");
}

fn e01_names() {
    println!("== E1 (Fig. 2): principal names ==");
    let per = per_call(20_000, || {
        let p = Principal::parse("rlogin.priam@ATHENA.MIT.EDU", REALM).unwrap();
        black_box(p.to_string());
    });
    println!("parse+format round trip: {:.3} µs\n", micros(per));
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
    let per_seal = per_call(5_000, || {
        black_box(ticket.seal(&skey));
    });
    let per_open = per_call(5_000, || {
        black_box(sealed.open(&skey).unwrap());
    });
    println!("seal: {:.1} µs, open: {:.1} µs\n", micros(per_seal), micros(per_open));
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
    let as_us = micros(per_call(400, || {
        let t = tick(&clock);
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let reply = kdc.handle(&req, WS);
        black_box(kerberos::read_as_reply_with_password(&reply, "p7", t).unwrap());
    }));
    println!("E4 AS exchange (login): {as_us:.1} µs");

    // E7: TGS exchange (a phase ticks the clock 6000 s, well inside the
    // fresh TGT's 8 h).
    let fresh_tgt = |kdc: &mut Kdc<MemStore>, t: u32| {
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let reply = kdc.handle(&req, WS);
        kerberos::read_as_reply_with_password(&reply, "p7", t).unwrap()
    };
    let tgt = fresh_tgt(&mut kdc, tick(&clock));
    let tgs_us = micros(per_call(400, || {
        let t = tick(&clock);
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t, &rlogin, 96);
        let reply = kdc.handle(&req, WS);
        black_box(kerberos::read_tgs_reply(&reply, &tgt, t).unwrap());
    }));
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
    let ap_us = micros(per_call(400, || {
        let t = tick(&clock);
        let ap = krb_mk_req(&cred.ticket, REALM, &cred.key(), &client, WS, t, 0, true);
        let v = krb_rd_req(&ap, &rlogin, &srv_key, WS, t, &mut rc).unwrap();
        let rep = krb_mk_rep(&v);
        krb_rd_rep(&rep, &cred.key(), v.timestamp).unwrap();
    }));
    println!("E5+E6 AP exchange with mutual auth: {ap_us:.1} µs");

    // E8: the full three phases.
    let full_us = micros(per_call(200, || {
        let t = tick(&clock);
        let tgt = fresh_tgt(&mut kdc, t);
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t, &rlogin, 96);
        let cred = kerberos::read_tgs_reply(&kdc.handle(&req, WS), &tgt, t).unwrap();
        let ap = krb_mk_req(&cred.ticket, REALM, &cred.key(), &client, WS, t, 0, false);
        black_box(krb_rd_req(&ap, &rlogin, &srv_key, WS, t, &mut rc).unwrap());
    }));
    println!("E8 full login→ticket→verified request: {full_us:.1} µs\n");
}

fn e09_replication() {
    println!("== E9 (Fig. 10): read scaling across replicas ==");
    // Database lookups dominate in a real deployment; here the point is
    // that N KDCs serve N× the request stream with no coordination,
    // because the authentication path is read-only.
    for slaves in [0usize, 1, 3, 7] {
        let n = slaves + 1;
        let kdcs: Vec<Kdc<MemStore>> = (0..n).map(|_| kdc_with_users(500).0).collect();
        let client = Principal::parse("u1", REALM).unwrap();
        let tgs = Principal::tgs(REALM, REALM);
        const TOTAL: u32 = 2_000;
        let mut i = 0usize;
        let per_req = per_call(TOTAL, || {
            i += 1;
            let req = kerberos::build_as_req(&client, &tgs, 96, NOW + i as u32);
            black_box(kdcs[i % n].handle(&req, WS));
        });
        let rate = 1.0 / per_req.as_secs_f64();
        // Per-KDC load is TOTAL/n: the capacity headroom grows linearly.
        println!(
            "  {n} KDC(s): {TOTAL} AS requests, {rate:.0} req/s aggregate, {:.0} per-KDC",
            rate / n as f64
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
    let full = per_call(200, || {
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
    println!("full kpasswd (AS ticket + sealed op + DB write): {:.1} µs", micros(full));
    println!("audit log entries: {}", kdbm.audit_log().len());
    row("e10_kpasswd_full", full);

    // `with_db_mut(change_key)`: mutate the primary, snapshot it, swap the
    // snapshot in — what every admin write costs the master, by realm size.
    let key = string_to_key("rekeyed");
    for users in [1_000usize, 10_000, 100_000, 1_000_000] {
        let (kdc, _clock) = kdc_with_users(users);
        let mut next = 0usize;
        let per_write = per_call(200, || {
            next = (next + 7919) % users;
            kdc.with_db_mut(|db| db.change_key(&format!("u{next}"), "", &key, NOW, "bench."))
                .unwrap()
                .unwrap();
        });
        row(&format!("e10_with_db_mut_change_key/{users}"), per_write);
    }
    println!();
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
    let us = micros(per_call(200, || {
        let t = clock.fetch_add(3, Ordering::SeqCst) + 1;
        let req = kerberos::build_as_req(&client, &tgs, 96, t);
        let tgt = kerberos::read_as_reply_with_password(&athena.handle(&req, WS), "p5", t).unwrap();
        let req = kerberos::build_tgs_req(&tgt, &client, WS, t + 1, &remote_tgs, 96);
        let xr_tgt = kerberos::read_tgs_reply(&athena.handle(&req, WS), &tgt, t + 1).unwrap();
        let req = kerberos::build_tgs_req(&xr_tgt, &client, WS, t + 2, &supdup, 96);
        black_box(kerberos::read_tgs_reply(&lcs.handle(&req, WS), &xr_tgt, t + 2).unwrap());
    }));
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
        let build_packet = || {
            let dump = krb_kdb::dump::dump(&db).unwrap();
            krb_kprop::build_full_seq(db.master_sched(), 0, dump.as_bytes())
        };
        let build = per_call(1, || {
            black_box(build_packet());
        });
        let packet = build_packet();
        let receive = time_median(1, MemStore::new, |store| {
            let (_, entries) = krb_kprop::verify_full_seq(db.master_sched(), &packet).unwrap();
            krb_kdb::dump::install(store, &entries).unwrap();
        });
        println!(
            "{n:>12} {:>12} {:>14.2} {:>14.2}",
            packet.len(),
            micros(build) / 1e3,
            micros(receive) / 1e3
        );
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
        let safe_us = micros(per_call(500, || {
            let m = krb_mk_safe(&data, &key, WS, NOW);
            black_box(krb_rd_safe(&m, &key, NOW).unwrap());
        }));
        let priv_us = micros(per_call(200, || {
            let m = krb_mk_priv(&data, &key, WS, NOW);
            black_box(krb_rd_priv(&m, &key, Some(WS), NOW).unwrap());
        }));
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
    let mapped_us = micros(per_call(20_000, || {
        black_box(server.handle(WS, &cred, &NfsOp::Getattr(1)).unwrap());
    }));

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
    let full_us = micros(per_call(1_000, || {
        t += 1;
        let ap = krb_mk_req(&ticket, REALM, &sess, &client, WS, t, 0, false);
        black_box(full.handle(WS, &ap, t, &NfsOp::Getattr(1)).unwrap());
    }));
    println!("kernel map lookup per op : {mapped_us:.2} µs");
    println!("full krb_rd_req per op   : {full_us:.2} µs");
    println!("slowdown                 : {:.0}x — the paper's 'unacceptable performance'\n", full_us / mapped_us);
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
            let us = micros(per_call(400, || {
                black_box(encrypt_raw(mode, &key, &iv, &data).unwrap());
            }));
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
    let per_block = per_call(20_000, || {
        let des = black_box(Des::new(&key));
        black_box(des.encrypt_block_u64(0x0123456789ABCDEF));
    });
    println!("key schedule + 1 block: {:.2} µs", micros(per_block));
    let s2k = per_call(5_000, || {
        black_box(string_to_key("some user password"));
    });
    println!("string_to_key: {:.2} µs", micros(s2k));
    let qck = per_call(10_000, || {
        black_box(quad_cksum(DesKey::from_bytes([1; 8]).as_bytes(), &[7u8; 1024]));
    });
    println!("quad_cksum over 1 KiB: {:.2} µs", micros(qck));

    // The replaceable-implementation ablation (§2.2: the library "may be
    // replaced with other DES implementations"): one block on a prebuilt
    // schedule, reference engine against the fast one (`Scheduled` is the
    // `FastDes` handle every serving path holds).
    let des = Des::new(&key);
    let sched = Scheduled::new(&key);
    row(
        "e14_des_block",
        per_call(20_000, || {
            black_box(des.encrypt_block_u64(black_box(0x0123456789ABCDEF)));
        }),
    );
    row(
        "e14_fast_des_block",
        per_call(100_000, || {
            let mut block = black_box(0x0123456789ABCDEFu64.to_be_bytes());
            sched.encrypt_block(&mut block);
            black_box(block);
        }),
    );
    // Both directions at Kerberos message sizes (an authenticator is 5
    // blocks, a ticket 8, a TGS reply ~20), schedule prebuilt: encryption
    // chains through the cipher, decryption through XORs only, so the two
    // directions have different floors. The figure is per message.
    for blocks in [1usize, 5, 8, 20, 128] {
        let data = vec![0x5Au8; blocks * 8];
        for mode in [Mode::Cbc, Mode::Pcbc] {
            row(
                &format!("e14_mode_blocks/{mode:?}_encrypt/{blocks}"),
                per_call(2_000, || {
                    black_box(encrypt_raw_with(mode, &sched, &iv, black_box(&data)).unwrap());
                }),
            );
            row(
                &format!("e14_mode_blocks/{mode:?}_decrypt/{blocks}"),
                per_call(2_000, || {
                    black_box(decrypt_raw_with(mode, &sched, &iv, black_box(&data)).unwrap());
                }),
            );
        }
    }
    println!();
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
    println!("  (full 5000/650/65 scale: cargo run --release --example athena_day)\n");
}

/// E15b (§2.2 seam): what schedule caching buys on the sealing hot path.
///
/// The keyed `seal` entry point rebuilds the DES key schedule on every
/// call; `seal_with(&Scheduled, ..)` amortises it to zero. The gap between
/// the two *is* the schedule cost, so it shrinks (relatively) as messages
/// grow — 1-block authenticators feel it most, 64-block private messages
/// least. The schedule build is timed in isolation as the datum the cache
/// removes, and `seal_in_place` shows the remaining allocation stripped too.
fn e15_sched_cache() {
    println!("== E15b (§2.2 seam): schedule caching on the sealing path ==");
    let key = string_to_key("service srvtab key");
    let iv = [0u8; 8];

    // The cost being cached: one fast key-schedule build (and the wipe of
    // the dropped handle).
    row(
        "e15_sched_cache/fast_des_schedule",
        per_call(20_000, || {
            black_box(Scheduled::new(black_box(&key)));
        }),
    );

    // Message sizes chosen so the length-framed plaintext seals to 1, 8,
    // and 64 PCBC blocks (seal prepends a 4-byte length prefix).
    let sched = Scheduled::new(&key);
    for blocks in [1usize, 8, 64] {
        let plaintext = vec![0x5Au8; blocks * 8 - 4];
        // Keyed path: schedule rebuilt inside every call.
        row(
            &format!("e15_sched_cache/pcbc_seal/keyed/{blocks}"),
            per_call(2_000, || {
                black_box(seal(Mode::Pcbc, &key, &iv, &plaintext).unwrap());
            }),
        );
        // Cached path: schedule built once, reused per call.
        row(
            &format!("e15_sched_cache/pcbc_seal/scheduled/{blocks}"),
            per_call(2_000, || {
                black_box(seal_with(Mode::Pcbc, &sched, &iv, &plaintext).unwrap());
            }),
        );
        // Cached schedule, sealed where the plaintext lies in a buffer the
        // caller already owns: the shape of the KDC reply path.
        let mut out = Vec::new();
        row(
            &format!("e15_sched_cache/pcbc_seal/scheduled_in_place/{blocks}"),
            per_call(2_000, || {
                out.clear();
                out.extend_from_slice(&[0u8; 4]);
                out.extend_from_slice(&plaintext);
                seal_in_place(Mode::Pcbc, &sched, &iv, &mut out, 0).unwrap();
                black_box(out.len());
            }),
        );
    }
    println!();
}

/// The timestamp of the `i`-th remembered request.
type Stamp = fn(usize) -> u32;

/// `count` distinct requests of 200 clients, numbered from `first`, the
/// `i`-th stamped `ts(i)`.
fn replay_keys(first: usize, count: usize, ts: Stamp) -> Vec<ReplayKey> {
    (first..first + count)
        .map(|i| ReplayKey {
            client: format!("u{:05}@ATHENA.MIT.EDU", i % 200),
            timestamp: ts(i),
            auth_hash: hash_bytes(&i.to_be_bytes()),
        })
        .collect()
}

/// E18+ — ablations of the design choices DESIGN.md calls out: the replay
/// cache, the storage engine, the sealing mode.
fn e18_ablations() {
    println!("== A1: ablations (replay cache, storage engine, sealing mode) ==");

    // One `check_and_insert` of a fresh request stamped *now* against `live`
    // remembered ones — all stamped this second, or spread evenly over the
    // 900 seconds a steady-state cache spans — and the purge sweep a
    // steady-state cache of 3·10⁵ runs every `MAX_SKEW_SECS` (a third of it
    // has expired). The cache grows with every call, so each sample probes
    // a cache its setup rebuilt.
    const PROBES: usize = 256;
    for live in [1_000usize, 100_000, 300_000] {
        let layouts: [(&str, Stamp); 2] =
            [("same_second", |_| NOW), ("spread_900s", |i| NOW - (i % 900) as u32)];
        for (layout, ts) in layouts {
            let per_check = time_median(
                PROBES as u32,
                || {
                    let mut cache = ReplayCache::new();
                    for key in replay_keys(0, live, ts) {
                        cache.check_and_insert(key, NOW);
                    }
                    (cache, replay_keys(live, PROBES, |_| NOW))
                },
                |(cache, probes)| {
                    for key in probes.drain(..) {
                        black_box(cache.check_and_insert(key, NOW));
                    }
                },
            );
            row(&format!("e18_replay_check/check_insert/{layout}/{live}"), per_check);
        }
    }
    let live = 300_000;
    let sweep = time_median(
        1,
        || {
            // Filled under a clock one purge period back, so the timed call
            // is the one that sweeps: everything older than NOW − 600 goes.
            let mut cache = ReplayCache::new();
            for key in replay_keys(0, live, |i| NOW - (i % 900) as u32) {
                cache.check_and_insert(key, NOW - MAX_SKEW_SECS);
            }
            (cache, replay_keys(live, 1, |_| NOW))
        },
        |(cache, probe)| {
            let swept = probe.pop().map(|key| cache.check_and_insert(key, NOW));
            assert!(black_box(swept) == Some(true) && cache.evictions() > 0, "the timed call swept");
        },
    );
    row(&format!("e18_replay_check/purge_sweep/spread_900s/{live}"), sweep);

    // File-backed extendible hashing vs in-memory — the `ndbm`
    // substitution's overhead on a fetch — over 5000 principal-sized records.
    let mut mem = MemStore::new();
    let path = std::env::temp_dir().join(format!("krb-ablate-{}", std::process::id()));
    let remove_files = || {
        let _ = std::fs::remove_file(path.with_extension("pag"));
        let _ = std::fs::remove_file(path.with_extension("dir"));
    };
    remove_files();
    let mut file = HashStore::open(&path).unwrap();
    for i in 0..5000u32 {
        let key = format!("user{i}.");
        let val = vec![0u8; 60];
        mem.store(key.as_bytes(), &val).unwrap();
        file.store(key.as_bytes(), &val).unwrap();
    }
    let mut i = 0u32;
    row(
        "ablation_store_engine/memstore_fetch",
        per_call(5_000, || {
            i = (i + 1) % 5000;
            black_box(mem.fetch(format!("user{i}.").as_bytes()).unwrap());
        }),
    );
    row(
        "ablation_store_engine/hashstore_fetch",
        per_call(5_000, || {
            i = (i + 1) % 5000;
            black_box(file.fetch(format!("user{i}.").as_bytes()).unwrap());
        }),
    );
    drop(file);
    remove_files();

    // The §2.2 choice: PCBC's whole-message error propagation gives
    // integrity "for free" vs CBC plus a separate keyed checksum.
    let key = string_to_key("k");
    let iv = [0u8; 8];
    let data = vec![0x77u8; 1024];
    row(
        "ablation_sealing/pcbc_seal_open",
        per_call(500, || {
            let ct = seal(Mode::Pcbc, &key, &iv, &data).unwrap();
            black_box(open(Mode::Pcbc, &key, &iv, &ct).unwrap());
        }),
    );
    row(
        "ablation_sealing/cbc_plus_quad_cksum",
        per_call(500, || {
            // The alternative design: CBC seal + explicit checksum append.
            let ck = quad_cksum(key.as_bytes(), &data);
            let mut framed = data.clone();
            framed.extend_from_slice(&ck.to_be_bytes());
            let ct = seal(Mode::Cbc, &key, &iv, &framed).unwrap();
            let pt = open(Mode::Cbc, &key, &iv, &ct).unwrap();
            let (body, tail) = pt.split_at(pt.len() - 4);
            assert_eq!(quad_cksum(key.as_bytes(), body).to_be_bytes(), tail);
            black_box(body.len());
        }),
    );
}
