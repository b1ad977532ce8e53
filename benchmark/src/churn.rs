//! `passwd_churn`: writes beside reads. One op is a cycle — logins served
//! by the slave, one full `kpasswd` on the master, one incremental
//! propagation round, then a verification login on the slave.
//!
//! It uses the same store/snapshot layer as the authentication workloads
//! the other way round: every write deep-copies the realm and flushes every
//! cached key schedule.

use crate::load::{probe_after, Checks, Expect, Load, Probe, Samples};
use crate::realm::{password, Outcome, Realm, RealmSpec, Refusal, Session, N_SERVICES};
use crate::schedule::{Schedule, Slot};
use crate::span::Tracer;
use kerberos::{ErrorCode, Principal, DEFAULT_TGT_LIFE};
use krb_crypto::Scheduled;
use krb_kadm::{build_admin_request, kpasswd_op, read_admin_reply, Acl, KdbmServer};
use krb_kdb::MemStore;
use krb_kdc::shared_clock;
use krb_kprop::{
    build_full_seq, build_incr_segment, parse_incr_reply, IncrKpropdService, IncrReply, UpdateLog,
    UpdateOp, DEFAULT_LOG_CAP,
};
use krb_netsim::{ports, Endpoint, Packet, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Logins the slave serves per cycle.
pub const LOGINS_PER_CYCLE: usize = 50;

/// `kpropd` behind a span, so the service's own work can be told from the
/// install hook's.
struct TracedKpropd {
    inner: IncrKpropdService,
    tracer: Tracer,
}

impl Service for TracedKpropd {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        self.tracer.span("kprop.apply", || self.inner.handle(req))
    }
}

/// The `passwd_churn` workload.
pub struct ChurnLoad {
    realm: Realm,
    tracer: Tracer,
    /// Per cycle: `LOGINS_PER_CYCLE` users who log in, then one who
    /// changes password.
    schedule: Schedule,
    kdbm: KdbmServer<MemStore>,
    master_sched: Scheduled,
    log: UpdateLog,
    /// Highest sequence number the slave acknowledged.
    acked: u64,
    /// How many times each user has changed password.
    versions: Vec<u32>,
    expect: Expect,
    done: u64,
    total: u64,
    segment_bytes: u64,
    full_dump_ns: u64,
}

impl ChurnLoad {
    /// Set up master, slave, KDBM and `kpropd`, and bootstrap the slave
    /// with a sequenced full dump (timed as `kprop.full_dump_ns`).
    pub fn setup(
        spec: RealmSpec,
        seed: u64,
        tracer: Tracer,
        total: u64,
    ) -> Result<ChurnLoad, String> {
        let mut realm = Realm::build(seed, spec, tracer.clone())?;
        let master = Arc::clone(&realm.dep.master);
        let (slave_addr, slave) = realm
            .dep
            .slaves
            .first()
            .cloned()
            .ok_or("passwd_churn needs a slave")?;

        let kdbm_key =
            krb_crypto::KeyGenerator::new(StdRng::seed_from_u64(seed ^ 0xADB)).generate();
        KdbmServer::register_service(&master, &kdbm_key, realm.now)
            .map_err(|e| format!("{e:?}"))?;
        let kdbm = KdbmServer::new(
            Arc::clone(&master),
            Acl::new(),
            shared_clock(Arc::clone(&realm.dep.clock_cell)),
        )
        .map_err(|e| format!("{e:?}"))?;

        let hook_tracer = tracer.clone();
        let mut kpropd = IncrKpropdService::new(realm.dep.master_key, move |db| {
            hook_tracer.span("kprop.install_hook", || {
                if let Ok(mirror) = db.snapshot_mem() {
                    hook_tracer.span("kdc.install_db", || slave.install_db(mirror));
                }
            });
        });
        kpropd.set_registry(Arc::clone(&realm.registry));
        let kprop_ep = Endpoint::new(slave_addr, ports::KPROP);
        realm.router.serve(
            kprop_ep,
            TracedKpropd {
                inner: kpropd,
                tracer: tracer.clone(),
            },
        );

        let master_sched = Scheduled::new(&realm.dep.master_key);
        let log = UpdateLog::new(DEFAULT_LOG_CAP);
        let t0 = Instant::now();
        let text = master.dump_text().map_err(|e| e.to_string())?;
        let packet = build_full_seq(&master_sched, log.head(), text.as_bytes());
        let reply = realm
            .router
            .rpc(
                Endpoint::new(crate::realm::KDC_ADDR, 1001),
                kprop_ep,
                &packet,
            )
            .map_err(|e| e.to_string())?;
        if parse_incr_reply(&reply) != IncrReply::Accepted(0) {
            return Err(format!(
                "bootstrap dump refused: {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        let full_dump_ns = t0.elapsed().as_nanos() as u64;

        let principals = spec.principals;
        Ok(ChurnLoad {
            realm,
            tracer,
            schedule: Schedule::new(seed, principals, LOGINS_PER_CYCLE + 1, N_SERVICES as u8),
            kdbm,
            master_sched,
            log,
            acked: 0,
            versions: vec![0; principals],
            expect: Expect::default(),
            done: 0,
            total,
            segment_bytes: 0,
            full_dump_ns,
        })
    }

    fn slave_ep(&self) -> Endpoint {
        Endpoint::new(self.realm.dep.slaves[0].0, ports::KDC)
    }

    fn current_password(&self, user: u32) -> String {
        password(self.realm.seed, user, self.versions[user as usize])
    }

    /// AS + TGS on the slave.
    fn login(&mut self, slot: Slot, samples: &mut Samples) -> Outcome<(Vec<u8>, Session)> {
        let kdc = self.slave_ep();
        let client = self.realm.user(slot.user);
        let pw = self.current_password(slot.user);
        let tgs = self.realm.tgs.clone();
        let t0 = Instant::now();
        self.expect.as_ok += 1;
        let tgt = self.tracer.span("client.as", || {
            self.realm
                .as_exchange(kdc, &client, &pw, &tgs, DEFAULT_TGT_LIFE)
        })?;
        samples.as_ns.push(t0.elapsed().as_nanos() as u64);

        let t1 = Instant::now();
        self.expect.tgs_ok += 1;
        let (session, request) = self.tracer.span("client.tgs", || {
            let session = Session::new(&self.tracer, client, tgt);
            let (_, request) = self
                .realm
                .tgs_exchange(kdc, &session, usize::from(slot.service))?;
            Outcome::Ok((session, request))
        })?;
        samples.tgs_ns.push(t1.elapsed().as_nanos() as u64);
        Ok((request, session))
    }

    /// The full `kpasswd` (Figure 12): a KDBM ticket from the AS by
    /// password, the sealed request, the KDBM's verdict.
    fn kpasswd(&mut self, user: u32, new_password: &str) -> Outcome<()> {
        let kdc = self.realm.master_ep();
        let client = self.realm.user(user);
        let old = self.current_password(user);
        let kdbm = Principal::kdbm(crate::realm::REALM);
        self.expect.as_ok += 1;
        let cred = self.realm.as_exchange(kdc, &client, &old, &kdbm, 12)?;
        let (addr, now) = (self.realm.client_addr, self.realm.now);
        let request = self.tracer.span("kadm.build_req", || {
            build_admin_request(&cred, &client, addr, now, &kpasswd_op(new_password))
        });
        let reply = self
            .tracer
            .span("kadm.handle", || self.kdbm.handle(&request, addr));
        Ok(read_admin_reply(&reply)?)
    }

    /// One incremental propagation round: journal the write, ship the
    /// segment, the slave applies it and installs the new snapshot, the
    /// master reads the ack.
    fn propagate(&mut self, user: u32) -> Outcome<()> {
        let entry = self
            .realm
            .dep
            .master
            .snapshot()
            .db()
            .get(&crate::realm::user_name(user), "")
            .ok()
            .flatten()
            .ok_or(Refusal::Wrong("changed principal missing on the master"))?;
        self.log.append(UpdateOp::Put(entry));
        let records = self
            .log
            .since(self.acked)
            .ok_or(Refusal::Wrong("update log evicted"))?;
        let segment = self
            .tracer
            .span("kprop.build_segment", || {
                build_incr_segment(&self.master_sched, self.acked, &records)
            })
            .map_err(|_| Refusal::Wrong("journal slice not consecutive"))?;
        self.segment_bytes += segment.len() as u64;
        let kprop_ep = Endpoint::new(self.realm.dep.slaves[0].0, ports::KPROP);
        let src = Endpoint::new(crate::realm::KDC_ADDR, 1001);
        let reply = self.tracer.span("netsim.rpc", || {
            self.realm.router.rpc(src, kprop_ep, &segment)
        })?;
        match parse_incr_reply(&reply) {
            IncrReply::Accepted(seq) if seq == self.log.head() => {
                self.acked = seq;
                Ok(())
            }
            IncrReply::Accepted(_) => {
                Err(Refusal::Wrong("slave acknowledged another sequence number"))
            }
            IncrReply::Rejected(_) => Err(Refusal::Wrong("slave refused the segment")),
        }
    }

    fn cycle(&mut self, slots: &[Slot], samples: &mut Samples) -> Outcome<(Vec<u8>, Session)> {
        let (logins, changer) = slots.split_at(LOGINS_PER_CYCLE.min(slots.len() - 1));
        let mut last = None;
        for slot in logins {
            last = Some(self.login(*slot, samples)?);
        }
        let user = changer[0].user;
        let old_password = self.current_password(user);
        let new_password = password(self.realm.seed, user, self.versions[user as usize] + 1);

        let tracer = self.tracer.clone();
        let t0 = Instant::now();
        tracer.span("client.kpasswd", || self.kpasswd(user, &new_password))?;
        samples.kpasswd_ns.push(t0.elapsed().as_nanos() as u64);
        self.versions[user as usize] += 1;

        let t1 = Instant::now();
        tracer.span("client.prop", || self.propagate(user))?;
        samples.prop_ns.push(t1.elapsed().as_nanos() as u64);

        // The slave must now serve the new key and only the new key.
        let (kdc, client, tgs) = (
            self.slave_ep(),
            self.realm.user(user),
            self.realm.tgs.clone(),
        );
        self.expect.as_ok += 2;
        self.realm
            .as_exchange(kdc, &client, &new_password, &tgs, DEFAULT_TGT_LIFE)?;
        match self
            .realm
            .as_exchange(kdc, &client, &old_password, &tgs, DEFAULT_TGT_LIFE)
        {
            Err(Refusal::Krb(ErrorCode::IntkBadPw)) => {}
            _ => return Err(Refusal::Wrong("slave still serves the old password")),
        }
        if self.realm.registry.gauge("kprop_applied_seq").get() != self.log.head() as i64 {
            return Err(Refusal::Wrong("slave's applied_seq is not the log head"));
        }
        last.ok_or(Refusal::Wrong("cycle without logins"))
    }
}

impl Load for ChurnLoad {
    fn op(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let i = self.done;
        self.done += 1;
        // One cycle per second of protocol time.
        self.realm.tick();
        let slots = self.schedule.next_tick().to_vec();
        self.tracer.set_op(i as u32);
        checks.attempted += 1;
        let last = match self.cycle(&slots, samples) {
            Ok(last) => Some(last),
            Err(e) => {
                checks.fail(format!("cycle {i}: {e:?}"));
                None
            }
        };
        let Some(probe) = probe_after(i, self.total) else {
            return;
        };
        let (kdc, tgs) = (self.slave_ep(), self.realm.tgs.clone());
        match probe {
            Probe::Replay => {
                if let Some((request, session)) = last {
                    self.expect.replay += 1;
                    let outcome = self.realm.replay_tgs(kdc, &session, &request);
                    checks.refusal("verbatim TGS replay", outcome, ErrorCode::RdApRepeat);
                }
            }
            Probe::WrongPassword => {
                self.expect.as_ok += 1;
                let client = self.realm.user(slots[0].user);
                let outcome = self.realm.as_exchange(
                    kdc,
                    &client,
                    "not-the-password",
                    &tgs,
                    DEFAULT_TGT_LIFE,
                );
                checks.refusal("wrong password", outcome, ErrorCode::IntkBadPw);
            }
            Probe::Unknown => {
                self.expect.unknown += 1;
                let nobody = Principal {
                    name: "nobody".into(),
                    ..self.realm.user(0)
                };
                let outcome = self
                    .realm
                    .as_exchange(kdc, &nobody, "x", &tgs, DEFAULT_TGT_LIFE);
                checks.refusal("unknown principal", outcome, ErrorCode::KdcPrUnknown);
            }
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        self.expect.verify(&self.realm, checks);
        let master = self.realm.dep.master.dump_text();
        let slave = self.realm.dep.slaves[0].1.dump_text();
        if master.is_err() || master != slave {
            checks.fail("master and slave dumps differ at the end of the run".to_string());
        }
        let changes = u64::from(self.versions.iter().sum::<u32>());
        checks.equal("audit records", self.kdbm.audit_log().len() as u64, changes);
        checks.equal("update log head", self.log.head(), changes);
    }

    fn realm(&self) -> &Realm {
        &self.realm
    }

    fn schedule_digest(&self) -> u64 {
        self.schedule.digest()
    }

    fn slice_ops(&self) -> u64 {
        1
    }

    fn own_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("kadm.audit_records", self.kdbm.audit_log().len() as u64),
            ("kprop.segment_bytes", self.segment_bytes),
        ]
    }

    fn own_timings(&self) -> Vec<(&'static str, Vec<u64>)> {
        vec![("kprop.full_dump_ns", vec![self.full_dump_ns])]
    }
}
