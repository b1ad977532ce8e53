//! The *full* Athena day: not just authentication traffic, but the
//! applications of §7.1 and the appendix riding on it — every session
//! logs in (AS), mounts its home directory through the Kerberized mount
//! daemon, reads and writes files under the kernel credential map,
//! retrieves mail from the post office, and sends Zephyr notices, all
//! with real tickets over the simulated network.

use kerberos::Principal;
use krb_apps::{Mail, PopServer, ZephyrServer};
use krb_crypto::KeyGenerator;
use krb_hesiod::{FilsysInfo, Hesiod, UserInfo};
use krb_kdc::{Deployment, RealmConfig};
use krb_netsim::{NetConfig, Router, SimNet};
use krb_nfs::{MountD, NfsCredential, NfsOp, NfsServer, ServerPolicy, UserTable, Vfs};
use krb_tools::{kdb_init, register_service, register_user, Workstation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

const REALM: &str = "ATHENA.MIT.EDU";
const FILESERVER: [u8; 4] = [18, 72, 0, 30];

/// Parameters for the full day.
#[derive(Clone, Copy, Debug)]
pub struct FullDayConfig {
    /// Users (each gets a home directory, mailbox and subscription).
    pub users: usize,
    /// Workstations.
    pub workstations: usize,
    /// Simulated seconds.
    pub duration: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FullDayConfig {
    fn default() -> Self {
        FullDayConfig { users: 20, workstations: 6, duration: 4 * 3600, seed: 7 }
    }
}

/// What happened, at the application level.
#[derive(Default, Debug, Clone)]
pub struct FullDayReport {
    /// Successful logins (AS + Hesiod + mount).
    pub logins: u64,
    /// Files written in home directories.
    pub files_written: u64,
    /// File operations served under the credential map.
    pub nfs_ops: u64,
    /// Mail messages retrieved (authenticated POP).
    pub mail_retrieved: u64,
    /// Zephyr notices delivered with authenticated senders.
    pub notices_sent: u64,
    /// Failures by description (should be empty).
    pub failures: HashMap<String, u64>,
    /// Live credential-map entries at end of day (should be 0: everyone
    /// logged out, the paper's cleanup property).
    pub mappings_leaked: usize,
}

/// Run the full day.
pub fn run_full_day(config: FullDayConfig) -> FullDayReport {
    let start = krb_netsim::EPOCH_1987;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- Realm and services.
    let mut boot = kdb_init(REALM, "master-pw", start, config.seed).unwrap();
    for u in 0..config.users {
        register_user(&mut boot.db, &format!("user{u}"), "", &format!("pw{u}"), start).unwrap();
    }
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(config.seed + 1));
    let nfs_key = register_service(&mut boot.db, "nfs", "fs30", start, &mut keygen).unwrap();
    let pop_key = register_service(&mut boot.db, "pop", "paris", start, &mut keygen).unwrap();
    let zephyr_key = register_service(&mut boot.db, "zephyr", "zion", start, &mut keygen).unwrap();

    let mut router = Router::new(SimNet::new(NetConfig { seed: config.seed, ..Default::default() }));
    let dep = Deployment::install(
        &mut router, REALM, boot.db, RealmConfig::new(REALM), [18, 72, 1, 1], 1, start,
    ).expect("deployment installs");

    // --- Hesiod, fileserver, applications.
    let hesiod = Hesiod::new();
    let mut vfs = Vfs::new();
    let mut user_table = UserTable::new();
    for u in 0..config.users {
        let name = format!("user{u}");
        let uid = 5000 + u as u32;
        hesiod.add_user(UserInfo {
            username: name.clone(),
            uid,
            gids: vec![uid, 100],
            real_name: format!("Athena User {u}"),
            phone: "x3-0000".into(),
            shell: "/bin/csh".into(),
        });
        hesiod.add_filsys(&name, FilsysInfo { server_addr: FILESERVER, path: format!("/{name}") });
        vfs.provision_home(&name, uid, uid).unwrap();
        user_table.add(&name, uid, vec![uid, 100]);
    }
    let mut nfs = NfsServer::new(vfs, ServerPolicy::Friendly);
    let mut mountd = MountD::new(Principal::parse("nfs.fs30", REALM).unwrap(), nfs_key, user_table);
    let mut pop = PopServer::new(Principal::parse("pop.paris", REALM).unwrap(), pop_key);
    let mut zephyr = ZephyrServer::new(Principal::parse("zephyr.zion", REALM).unwrap(), zephyr_key);
    for u in 0..config.users {
        zephyr.subscribe(&format!("user{u}"));
        pop.deliver(
            &format!("user{u}"),
            Mail { from: "postmaster".into(), body: format!("welcome user{u}") },
        )
        .unwrap();
    }

    // --- Event timeline: login (0), activity (1), logout (2).
    let mut heap: BinaryHeap<Reverse<(u32, usize, u8)>> = BinaryHeap::new();
    for u in 0..config.users {
        heap.push(Reverse((rng.random_range(0..config.duration / 2), u, 0)));
    }

    struct Session {
        ws: Workstation,
        session: krb_apps::LoginSession,
        file_counter: u32,
    }
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut report = FullDayReport::default();

    while let Some(Reverse((t, user, kind))) = heap.pop() {
        if t >= config.duration {
            continue;
        }
        dep.set_time(start + t);
        let username = format!("user{user}");
        match kind {
            0 => {
                let ws_idx = user % config.workstations;
                let addr = [18, 72, 2, (ws_idx % 250) as u8];
                let mut ws = Workstation::new(
                    addr,
                    REALM,
                    dep.kdc_endpoints(),
                    krb_kdc::shared_clock(std::sync::Arc::clone(&dep.clock_cell)),
                );
                // Distinct per user: two users may overlap on one workstation
                // in this compressed day, and the credential map is keyed by
                // (address, uid-on-client).
                let uid_on_ws = 500 + user as u32;
                match krb_apps::login(
                    &mut ws, &mut router, &hesiod, &mut mountd, &mut nfs,
                    &username, &format!("pw{user}"), uid_on_ws,
                ) {
                    Ok(session) => {
                        report.logins += 1;
                        sessions.insert(user, Session { ws, session, file_counter: 0 });
                        let logout_at = t + rng.random_range(1800..2 * 3600);
                        for _ in 0..4 {
                            heap.push(Reverse((t + rng.random_range(10..1800), user, 1)));
                        }
                        heap.push(Reverse((logout_at, user, 2)));
                    }
                    Err(e) => {
                        *report.failures.entry(format!("login: {e}")).or_default() += 1;
                    }
                }
            }
            1 => {
                let Some(s) = sessions.get_mut(&user) else { continue };
                let now = s.ws.now();
                match rng.random_range(0..3u8) {
                    0 => {
                        // Write a file in the home directory via mapped NFS.
                        s.file_counter += 1;
                        let cred = NfsCredential {
                            uid: s.session.uid_on_workstation,
                            gids: vec![s.session.uid_on_workstation],
                        };
                        let name = format!("notes-{}", s.file_counter);
                        let created = nfs.handle(
                            s.ws.addr,
                            &cred,
                            &NfsOp::Create(s.session.home_ino, name, 0o600),
                        );
                        match created {
                            Ok(krb_nfs::NfsReply::Handle(ino)) => {
                                report.nfs_ops += 1;
                                if nfs
                                    .handle(s.ws.addr, &cred, &NfsOp::Write(ino, 0, vec![7; 128]))
                                    .is_ok()
                                {
                                    report.files_written += 1;
                                    report.nfs_ops += 1;
                                }
                            }
                            other => {
                                *report
                                    .failures
                                    .entry(format!("nfs create: {other:?}"))
                                    .or_default() += 1;
                            }
                        }
                    }
                    1 => {
                        // Check mail (authenticated POP).
                        let pop_svc = Principal::parse("pop.paris", REALM).unwrap();
                        match s.ws.mk_request(&mut router, &pop_svc, 0, false) {
                            Ok((ap, _)) => match pop.retrieve(&ap, s.ws.addr, now, None, None) {
                                Ok((mail, _)) => report.mail_retrieved += mail.len() as u64,
                                Err(e) => {
                                    *report.failures.entry(format!("pop: {e}")).or_default() += 1;
                                }
                            },
                            Err(e) => {
                                *report.failures.entry(format!("pop tkt: {e}")).or_default() += 1;
                            }
                        }
                    }
                    _ => {
                        // Zephyr a random subscriber.
                        let to = format!("user{}", rng.random_range(0..config.users));
                        let z = Principal::parse("zephyr.zion", REALM).unwrap();
                        match s.ws.mk_request(&mut router, &z, 0, false) {
                            Ok((ap, _)) => {
                                let sent = zephyr
                                    .send(&ap, s.ws.addr, now, &to, "MESSAGE", "hi", None, None);
                                match sent {
                                    Ok(()) => report.notices_sent += 1,
                                    Err(e) => {
                                        *report
                                            .failures
                                            .entry(format!("zephyr: {e}"))
                                            .or_default() += 1;
                                    }
                                }
                            }
                            Err(e) => {
                                *report
                                    .failures
                                    .entry(format!("zephyr tkt: {e}"))
                                    .or_default() += 1;
                            }
                        }
                    }
                }
            }
            _ => {
                if let Some(mut s) = sessions.remove(&user) {
                    krb_apps::logout(&mut s.ws, &mut mountd, &mut nfs, &s.session);
                }
            }
        }
    }
    // Anyone still logged in at end of day logs out (lab closes).
    for (_, mut s) in sessions.drain() {
        krb_apps::logout(&mut s.ws, &mut mountd, &mut nfs, &s.session);
    }
    report.mappings_leaked = nfs.credmap.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_day_runs_clean() {
        let report = run_full_day(FullDayConfig::default());
        assert_eq!(report.logins, 20, "{report:?}");
        assert!(report.files_written > 0);
        assert!(report.mail_retrieved > 0);
        assert!(report.notices_sent > 0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
    }

    #[test]
    fn no_credential_mappings_leak_after_logout() {
        // The appendix's cleanup property: "cleaning up any remaining
        // mappings that exist ... before the workstation is made available
        // for the next user."
        let report = run_full_day(FullDayConfig::default());
        assert_eq!(report.mappings_leaked, 0, "{report:?}");
    }

    #[test]
    fn deterministic() {
        let a = run_full_day(FullDayConfig::default());
        let b = run_full_day(FullDayConfig::default());
        assert_eq!(a.files_written, b.files_written);
        assert_eq!(a.notices_sent, b.notices_sent);
    }
}
