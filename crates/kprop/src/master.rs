//! The master's half of propagation, once: write → journal → ship.
//!
//! §5 of the paper has one writer — the KDBM, on the master — and one
//! `kprop` that ships what it wrote. [`KpropMaster`] is that pipeline as a
//! type. [`KpropMaster::write`] runs the caller's mutations and appends to
//! the [`UpdateLog`] what the database says happened, so no caller restates
//! a write as an [`UpdateOp`] and none can forget to; [`KpropMaster::ship`]
//! is one transfer to one slave, corroborated by its [`SlaveCursor`].

use crate::incr::{SlaveCursor, UpdateLog, UpdateOp};
use crate::PropError;
use krb_crypto::DesKey;
use krb_kdb::{DbError, PrincipalDb, PrincipalEntry, Store};
use krb_netsim::{ports, Endpoint, Router};
use krb_telemetry::{ClockUs, Component, EventKind, Field, Journal, TraceCtx, TraceId};
use std::sync::Arc;

/// Transfers [`KpropMaster::ship_to_head`] spends on one slave.
const CATCH_UP_ATTEMPTS: usize = 4;

/// The master's replication state: the update journal, one cursor per
/// slave, and the tally of transfers shipped.
pub struct KpropMaster {
    addr: [u8; 4],
    port_base: u16,
    trace_seed: u64,
    log: UpdateLog,
    slaves: Vec<(Endpoint, SlaveCursor)>,
    tally: Tally,
    tracing: Option<(Arc<Journal>, ClockUs)>,
}

/// What one [`KpropMaster::ship`] put on the wire and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shipped {
    /// The transfer's trace id: the slave journals the same packet under it.
    pub trace: TraceId,
    /// `"full"` or `"incr"`.
    pub mode: &'static str,
    /// Whether the slave's reply was the one ack that settles this transfer.
    pub acked: bool,
}

/// Every transfer a [`KpropMaster`] has shipped, by kind and by outcome:
/// `transfers` = `incr` + `full` = `accepted` + `rejected`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Transfers shipped (segments + dumps).
    pub transfers: u64,
    /// Incremental segments.
    pub incr: u64,
    /// Sequenced full dumps (bootstrap, fallback, anti-entropy).
    pub full: u64,
    /// Transfers the slave verified, installed and acknowledged.
    pub accepted: u64,
    /// Transfers refused (checksum, sequencing) or dead on the wire.
    pub rejected: u64,
    /// Bytes shipped over all transfers.
    pub bytes: u64,
}

/// The database as [`KpropMaster::write`] lends it: `PrincipalDb`'s
/// mutators, each noting the record it changed.
pub struct MasterTx<'a, S: Store> {
    db: &'a mut PrincipalDb<S>,
    touched: Vec<(String, String)>,
}

impl<S: Store> MasterTx<'_, S> {
    fn touch(&mut self, name: &str, instance: &str) {
        if !self.touched.iter().any(|(n, i)| n == name && i == instance) {
            self.touched.push((name.to_string(), instance.to_string()));
        }
    }

    /// [`PrincipalDb::add_principal`].
    #[allow(clippy::too_many_arguments)] // the mutator's own field list
    pub fn add_principal(
        &mut self,
        name: &str,
        instance: &str,
        key: &DesKey,
        expiration: u32,
        max_life: u8,
        now: u32,
        mod_by: &str,
    ) -> Result<(), DbError> {
        self.db.add_principal(name, instance, key, expiration, max_life, now, mod_by)?;
        self.touch(name, instance);
        Ok(())
    }

    /// [`PrincipalDb::change_key`].
    pub fn change_key(
        &mut self,
        name: &str,
        instance: &str,
        new_key: &DesKey,
        now: u32,
        mod_by: &str,
    ) -> Result<(), DbError> {
        self.db.change_key(name, instance, new_key, now, mod_by)?;
        self.touch(name, instance);
        Ok(())
    }

    /// [`PrincipalDb::update_entry`].
    pub fn update_entry(&mut self, entry: &PrincipalEntry) -> Result<(), DbError> {
        self.db.update_entry(entry)?;
        self.touch(&entry.name, &entry.instance);
        Ok(())
    }

    /// [`PrincipalDb::delete`]; removing what was not there changes
    /// nothing and journals nothing.
    pub fn delete(&mut self, name: &str, instance: &str) -> Result<bool, DbError> {
        let existed = self.db.delete(name, instance)?;
        if existed {
            self.touch(name, instance);
        }
        Ok(existed)
    }
}

impl KpropMaster {
    /// A master at `addr` propagating to the `kpropd` of each host in
    /// `slaves`, with an empty journal retaining `log_cap` records. Transfer
    /// *n* leaves from port `port_base + n mod 50 000` under trace id
    /// `TraceId::derive(trace_seed, n)`.
    pub fn new(
        addr: [u8; 4],
        port_base: u16,
        trace_seed: u64,
        log_cap: usize,
        slaves: &[[u8; 4]],
    ) -> Self {
        KpropMaster {
            addr,
            port_base,
            trace_seed,
            log: UpdateLog::new(log_cap),
            slaves: slaves
                .iter()
                .map(|a| (Endpoint::new(*a, ports::KPROP), SlaveCursor::new()))
                .collect(),
            tally: Tally::default(),
            tracing: None,
        }
    }

    /// Attach an event journal: every transfer is journaled as
    /// `kprop_dump`, and one that dies on the wire as `kprop_reject
    /// why=net` (a refusal the slave sent is the slave's to journal).
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }

    /// The update journal; its head is the number of mutations written.
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    /// What has been shipped so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Whether `slave` has acknowledged everything written so far.
    pub fn at_head(&self, slave: usize) -> bool {
        let head = self.log.head();
        self.slaves.get(slave).is_some_and(|(_, c)| c.synced() && c.acked() == head)
    }

    /// Run `f`'s mutations on `db`, then journal each record they changed
    /// as the database now holds it: present is a `Put` of the stored
    /// entry, absent a `Delete`. A mutation that failed changed nothing
    /// and journals nothing; `f`'s own result is handed back either way,
    /// so the journal follows the database even when `f` gives up halfway.
    /// If a changed record cannot be read back, that error is returned and
    /// every slave's next transfer is a full dump — what the journal
    /// missed still arrives.
    pub fn write<S: Store, T>(
        &mut self,
        db: &mut PrincipalDb<S>,
        f: impl FnOnce(&mut MasterTx<'_, S>) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let mut tx = MasterTx { db, touched: Vec::new() };
        let out = f(&mut tx);
        let MasterTx { db, touched } = tx;
        for (name, instance) in touched {
            let op = match db.get(&name, &instance) {
                Ok(Some(entry)) => UpdateOp::Put(entry),
                Ok(None) => UpdateOp::Delete { name, instance },
                Err(e) => {
                    for (_, cursor) in &mut self.slaves {
                        *cursor = SlaveCursor::new();
                    }
                    return Err(e);
                }
            };
            self.log.append(op);
        }
        out
    }

    /// One transfer to `slave`, or `None` when it is in sync with nothing
    /// new (or is not a slave of this master). The cursor decides segment
    /// or full dump (`force_full` is the caller's anti-entropy cadence) and
    /// advances only through [`SlaveCursor::settle`]; a refusal or a dead
    /// wire makes the next transfer a full dump. Every transfer leaves
    /// from a fresh source port, so a late duplicate of an earlier reply
    /// cannot be taken for this transfer's ack, and what is still queued
    /// for that port afterwards is discarded. `db` is a snapshot: no KDC
    /// lock is held while the packet is built or in flight.
    pub fn ship<S: Store>(
        &mut self,
        router: &mut Router,
        db: &PrincipalDb<S>,
        slave: usize,
        force_full: bool,
    ) -> Result<Option<Shipped>, PropError> {
        let Some((dst, cursor)) = self.slaves.get_mut(slave) else {
            return Ok(None);
        };
        let Some(sent) = cursor.next_transfer(db, &self.log, force_full)? else {
            return Ok(None);
        };
        self.tally.transfers += 1;
        self.tally.bytes += sent.packet.len() as u64;
        let trace = TraceId::derive(self.trace_seed, self.tally.transfers);
        let mode = sent.mode();
        *if mode == "incr" { &mut self.tally.incr } else { &mut self.tally.full } += 1;
        let ctx = self
            .tracing
            .as_ref()
            .map(|(journal, clock)| TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace));
        if let Some(ctx) = &ctx {
            ctx.record(
                Component::Kprop,
                EventKind::KpropDump,
                vec![
                    ("slave", Field::from(slave)),
                    ("bytes", Field::from(sent.packet.len())),
                    ("mode", Field::from(mode)),
                ],
            );
        }
        let port = self.port_base.wrapping_add((self.tally.transfers % 50_000) as u16);
        let src = Endpoint::new(self.addr, port);
        let reply = router.rpc_traced(src, *dst, &sent.packet, Some(trace)).ok();
        let acked = cursor.settle(&sent, reply.as_deref());
        *if acked { &mut self.tally.accepted } else { &mut self.tally.rejected } += 1;
        if let (None, Some(ctx)) = (&reply, &ctx) {
            // The trace's terminal event when no slave answered: the
            // metrics oracle excludes `why=net` (no slave counter moved).
            ctx.record(
                Component::Kprop,
                EventKind::KpropReject,
                vec![("why", Field::from("net")), ("mode", Field::from(mode))],
            );
        }
        while router.net().recv(src).is_some() {}
        Ok(Some(Shipped { trace, mode, acked }))
    }

    /// Ship to `slave` until it stands at the journal head — the catch-up
    /// once a partition heals — giving up after four transfers. Returns
    /// whether it got there.
    pub fn ship_to_head<S: Store>(
        &mut self,
        router: &mut Router,
        db: &PrincipalDb<S>,
        slave: usize,
    ) -> Result<bool, PropError> {
        for _ in 0..CATCH_UP_ATTEMPTS {
            if self.at_head(slave) || self.ship(router, db, slave, false)?.is_none() {
                break;
            }
        }
        Ok(self.at_head(slave))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::IncrKpropdService;
    use krb_crypto::string_to_key;
    use krb_kdb::dump as kdump;
    use krb_kdb::{MemStore, ATTR_DISABLED};
    use krb_netsim::{NetConfig, Packet, Service, SimNet};
    use parking_lot::Mutex;

    const NOW: u32 = 600_000_000;
    const MASTER: [u8; 4] = [18, 72, 0, 10];
    const SLAVE: [u8; 4] = [18, 72, 0, 11];
    const PORT_BASE: u16 = 3000;

    /// How the slave host answers: as `kpropd` does, not at all (the reply
    /// is lost after the transfer was applied), or with an ack for a
    /// sequence number nobody shipped.
    #[derive(Clone, Copy)]
    enum Answer {
        Honest,
        Lost,
        WrongSeq,
    }

    struct Rig {
        router: Router,
        master: KpropMaster,
        db: PrincipalDb<MemStore>,
        slave_dump: Arc<Mutex<Option<String>>>,
        answer: Arc<Mutex<Answer>>,
    }

    fn seeded<S: Store>(store: S) -> PrincipalDb<S> {
        let mut db = PrincipalDb::create(store, string_to_key("mk"), NOW).unwrap();
        for i in 0..4 {
            db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        db
    }

    fn rig() -> Rig {
        let slave_dump = Arc::new(Mutex::new(None));
        let answer = Arc::new(Mutex::new(Answer::Honest));
        let (slot, mood) = (Arc::clone(&slave_dump), Arc::clone(&answer));
        let mut kpropd = IncrKpropdService::new(string_to_key("mk"), move |db| {
            *slot.lock() = kdump::dump(db).ok();
        });
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        router.serve(Endpoint::new(SLAVE, ports::KPROP), move |req: &Packet| {
            let reply = kpropd.handle(req);
            match *mood.lock() {
                Answer::Honest => reply,
                Answer::Lost => None,
                Answer::WrongSeq => Some(b"OK 99".to_vec()),
            }
        });
        Rig {
            router,
            master: KpropMaster::new(MASTER, PORT_BASE, 7, 64, &[SLAVE]),
            db: seeded(MemStore::new()),
            slave_dump,
            answer,
        }
    }

    impl Rig {
        fn ship(&mut self, force_full: bool) -> Option<Shipped> {
            self.master.ship(&mut self.router, &self.db, 0, force_full).unwrap()
        }

        fn converged(&self) -> bool {
            self.slave_dump.lock().as_deref() == Some(kdump::dump(&self.db).unwrap().as_str())
        }
    }

    #[test]
    fn a_write_nobody_described_reaches_the_slave() {
        let mut r = rig();
        let boot = r.ship(false).unwrap();
        assert_eq!((boot.mode, boot.acked), ("full", true));
        assert!(r.ship(false).is_none(), "in sync, nothing new");

        let mut limited = r.db.get("u2", "").unwrap().unwrap();
        limited.attributes |= ATTR_DISABLED;
        limited.max_life = 12;
        r.master
            .write(&mut r.db, |tx| {
                tx.add_principal("newbie", "", &string_to_key("n"), NOW * 2, 96, NOW + 1, "kadmin.")?;
                tx.change_key("u1", "", &string_to_key("rotated"), NOW + 1, "kadmin.")?;
                tx.update_entry(&limited)?;
                tx.delete("u3", "")
            })
            .unwrap();
        assert_eq!(r.master.log().head(), 4);
        assert!(!r.master.at_head(0));
        let seg = r.ship(false).unwrap();
        assert_eq!((seg.mode, seg.acked), ("incr", true));
        assert!(r.master.at_head(0));
        assert!(r.converged(), "slave dump != master dump");

        // A write that fails changed nothing, so there is nothing to ship.
        let refused = r.master.write(&mut r.db, |tx| {
            tx.change_key("ghost", "", &string_to_key("x"), NOW + 2, "kadmin.")
        });
        assert!(matches!(refused, Err(DbError::NotFound(_))), "{refused:?}");
        assert_eq!(r.master.write(&mut r.db, |tx| tx.delete("ghost", "")), Ok(false));
        assert_eq!(r.master.log().head(), 4);
        assert!(r.master.at_head(0) && r.ship(false).is_none());

        // One that gives up halfway changed something: the journal says
        // what, and a record written twice is journaled once.
        let halfway = r.master.write(&mut r.db, |tx| {
            tx.add_principal("late", "", &string_to_key("l"), NOW * 2, 96, NOW + 3, "kadmin.")?;
            tx.change_key("late", "", &string_to_key("l2"), NOW + 3, "kadmin.")?;
            tx.change_key("ghost", "", &string_to_key("x"), NOW + 3, "kadmin.")
        });
        assert!(halfway.is_err());
        assert_eq!(r.master.log().head(), 5);
        assert!(r.ship(false).unwrap().acked && r.converged());
    }

    fn master_events(journal: &Journal, kind: EventKind) -> Vec<String> {
        journal
            .dump()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.fields.iter().map(|(k, v)| format!("{k}={v:?}")).collect::<Vec<_>>().join(" "))
            .collect()
    }

    #[test]
    fn a_lost_reply_unsyncs_the_cursor_and_journals_one_net_reject() {
        let mut r = rig();
        let journal = Journal::shared();
        let reads = Arc::new(Mutex::new(0u64));
        let ticks = Arc::clone(&reads);
        r.master.set_journal(
            Arc::clone(&journal),
            Arc::new(move || {
                *ticks.lock() += 1;
                *ticks.lock()
            }),
        );
        assert!(r.ship(false).unwrap().acked);
        assert_eq!(*reads.lock(), 1, "a clean transfer is one event");

        r.master
            .write(&mut r.db, |tx| tx.change_key("u0", "", &string_to_key("k"), NOW + 1, "kadmin."))
            .unwrap();
        *r.answer.lock() = Answer::Lost;
        let lost = r.ship(false).unwrap();
        assert_eq!((lost.mode, lost.acked), ("incr", false));
        assert!(!r.master.at_head(0));
        assert_eq!(master_events(&journal, EventKind::KpropDump).len(), 2);
        let rejects = master_events(&journal, EventKind::KpropReject);
        assert_eq!(rejects.len(), 1, "{rejects:?}");
        assert!(rejects[0].contains("net") && rejects[0].contains("incr"), "{rejects:?}");
        assert_eq!(*reads.lock(), 3);

        // While the slave stays silent, catching up spends its attempts.
        assert!(!r.master.ship_to_head(&mut r.router, &r.db, 0).unwrap());
        assert_eq!(r.master.tally().transfers, 2 + CATCH_UP_ATTEMPTS as u64);
        assert_eq!(master_events(&journal, EventKind::KpropReject).len(), 5);

        // The slave did apply the segment; the master cannot know, and
        // recovers with one full dump.
        *r.answer.lock() = Answer::Honest;
        assert!(r.master.ship_to_head(&mut r.router, &r.db, 0).unwrap() && r.converged());
        let bytes = r.master.tally().bytes;
        assert_eq!(
            r.master.tally(),
            Tally { transfers: 7, incr: 1, full: 6, accepted: 2, rejected: 5, bytes }
        );
        assert!(r.master.ship_to_head(&mut r.router, &r.db, 0).unwrap(), "already there");
        assert_eq!(r.master.tally().transfers, 7);
        assert_eq!(master_events(&journal, EventKind::KpropReject).len(), 5);
    }

    #[test]
    fn only_the_exact_ack_on_this_transfers_port_settles_it() {
        let mut r = rig();
        let journal = Journal::shared();
        r.router.net().set_journal(Arc::clone(&journal));
        let first = r.ship(false).unwrap();
        assert!(first.acked);

        // The network duplicates the slave's `OK 0` to transfer 1 and
        // delivers the copy late — while transfer 2, an anti-entropy dump
        // that also expects `OK 0`, is in flight and its own reply is lost.
        let slave = Endpoint::new(SLAVE, ports::KPROP);
        r.router.net().send(slave, Endpoint::new(MASTER, PORT_BASE + 1), b"OK 0".to_vec());
        *r.answer.lock() = Answer::Lost;
        let second = r.ship(true).unwrap();
        assert_ne!(second.trace, first.trace);
        assert!(!second.acked, "a stale duplicate was taken for this transfer's ack");
        assert!(!r.master.at_head(0));

        // An ack for some other sequence number is not an ack either.
        *r.answer.lock() = Answer::WrongSeq;
        assert!(!r.ship(false).unwrap().acked);
        assert!(!r.master.at_head(0));
        *r.answer.lock() = Answer::Honest;
        assert!(r.ship(false).unwrap().acked && r.master.at_head(0));

        // No journal was attached to the master: it recorded nothing (the
        // events here are the network's), so it had no clock to read.
        assert!(journal.dump().iter().all(|e| e.component != Component::Kprop));
    }

    /// A store that can still be written but, once `armed` and written to,
    /// no longer read.
    struct FlakyStore {
        inner: MemStore,
        armed: bool,
        broken: bool,
    }

    impl Store for FlakyStore {
        fn fetch(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
            if self.broken {
                return Err(DbError::Io("injected read failure".into()));
            }
            self.inner.fetch(key)
        }
        fn store(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
            self.broken = self.armed;
            self.inner.store(key, value)
        }
        fn delete(&mut self, key: &[u8]) -> Result<bool, DbError> {
            self.inner.delete(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn for_each(&self, f: &mut dyn FnMut(&[u8], &[u8])) -> Result<(), DbError> {
            self.inner.for_each(f)
        }
        fn sync(&mut self) -> Result<(), DbError> {
            Ok(())
        }
    }

    #[test]
    fn a_record_that_cannot_be_read_back_costs_every_slave_a_full_dump() {
        let mut r = rig();
        let mut db = seeded(FlakyStore { inner: MemStore::new(), armed: false, broken: false });
        assert!(r.master.ship(&mut r.router, &db, 0, false).unwrap().unwrap().acked);
        assert!(r.master.at_head(0));

        db.store_mut().armed = true;
        let wrote = r
            .master
            .write(&mut db, |tx| tx.change_key("u1", "", &string_to_key("new"), NOW + 1, "kadmin."));
        assert!(matches!(wrote, Err(DbError::Io(_))), "{wrote:?}");
        assert_eq!(r.master.log().head(), 0, "the journal could not say what changed");
        assert!(!r.master.at_head(0));

        *db.store_mut() = FlakyStore { inner: db.store().inner.clone(), armed: false, broken: false };
        let recovery = r.master.ship(&mut r.router, &db, 0, false).unwrap().unwrap();
        assert_eq!((recovery.mode, recovery.acked), ("full", true));
        assert_eq!(r.slave_dump.lock().as_deref(), Some(kdump::dump(&db).unwrap().as_str()));
    }
}
