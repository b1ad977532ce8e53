//! Model-based convergence suite for the incremental journal (ISSUE 10).
//!
//! Random interleavings of kadm writes, incremental ships, faulted ships
//! (dropped acks, duplicated packets, corrupted bytes), journal eviction
//! (gap-induced full-dump fallbacks), and slave restarts — after which the
//! master's recovery policy must always converge the slave to the master
//! state, checked three ways: replica dump == master dump == a BTreeMap
//! reference model maintained alongside every write. Divergence is never
//! installed: at every quiescent point (`applied_seq == log.head()`), the
//! replica dump equals the master dump.

use krb_crypto::string_to_key;
use krb_kdb::dump as kdump;
use krb_kdb::{MemStore, PrincipalDb, PrincipalEntry};
use krb_kprop::{IncrKpropdService, KpropMaster, SlaveCursor, Transfer};
use krb_netsim::{Endpoint, Packet, Service};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NOW: u32 = 600_000_000;
const POOL: [&str; 6] = ["amy", "bcn", "jis", "raeburn", "treese", "zephyr"];

#[derive(Debug, Clone)]
enum Action {
    /// Register (or, if present, rotate) a principal from the pool.
    Write(u8),
    /// Remove a principal from the pool if present.
    Remove(u8),
    /// Ship the planned transfer and process the ack.
    Ship,
    /// Ship but lose the ack: the master must mark the slave unsynced.
    ShipDropAck,
    /// Ship, then deliver the identical packet a second time (duplicate).
    ShipDuplicate,
    /// Ship with one byte corrupted in flight.
    ShipCorrupt(u16),
    /// The slave restarts from scratch, losing its mirror.
    SlaveRestart,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u8..POOL.len() as u8).prop_map(Action::Write),
        2 => (0u8..POOL.len() as u8).prop_map(Action::Remove),
        4 => Just(Action::Ship),
        1 => Just(Action::ShipDropAck),
        1 => Just(Action::ShipDuplicate),
        1 => any::<u16>().prop_map(Action::ShipCorrupt),
        1 => Just(Action::SlaveRestart),
    ]
}

struct Harness {
    master: PrincipalDb<MemStore>,
    /// Reference model: (name, instance) -> entry, maintained independently
    /// of the database code under test.
    model: BTreeMap<(String, String), PrincipalEntry>,
    /// The product write path and its journal. It has no slave of its
    /// own: the harness decides each packet's fate by hand, so it keeps
    /// the cursor.
    kprop: KpropMaster,
    cursor: SlaveCursor,
    kpropd: IncrKpropdService,
    writes: u32,
}

fn fresh_kpropd() -> IncrKpropdService {
    IncrKpropdService::new(string_to_key("mk"), |_db| {})
}

impl Harness {
    fn new(log_cap: usize) -> Self {
        let master = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
        let mut model = BTreeMap::new();
        let km = master.get("K", "M").unwrap().unwrap();
        model.insert(("K".to_string(), "M".to_string()), km);
        Harness {
            master,
            model,
            kprop: KpropMaster::new([18, 72, 0, 10], 1000, 0, log_cap, &[]),
            cursor: SlaveCursor::new(),
            kpropd: fresh_kpropd(),
            writes: 0,
        }
    }

    fn write(&mut self, who: usize) {
        let name = POOL[who];
        self.writes += 1;
        let now = NOW + self.writes;
        let exists = self.master.exists(name, "").unwrap();
        let pw = if exists { format!("pw-{name}-{}", self.writes) } else { format!("pw-{name}") };
        let key = string_to_key(&pw);
        self.kprop
            .write(&mut self.master, |tx| {
                if exists {
                    tx.change_key(name, "", &key, now, "kadmin.")
                } else {
                    tx.add_principal(name, "", &key, u32::MAX, 96, now, "kadmin.")
                }
            })
            .unwrap();
        let entry = self.master.get(name, "").unwrap().unwrap();
        self.model.insert((name.to_string(), String::new()), entry);
    }

    fn remove(&mut self, who: usize) {
        let name = POOL[who];
        if !self.master.exists(name, "").unwrap() {
            return;
        }
        self.kprop.write(&mut self.master, |tx| tx.delete(name, "")).unwrap();
        self.model.remove(&(name.to_string(), String::new()));
    }

    fn next_transfer(&self, force_full: bool) -> Option<Transfer> {
        self.cursor.next_transfer(&self.master, self.kprop.log(), force_full).unwrap()
    }

    /// Deliver a packet to the slave and return the reply it sends.
    fn deliver(&mut self, packet: &[u8]) -> Vec<u8> {
        let ep = Endpoint::new([18, 72, 0, 10], 1000);
        let req = Packet { src: ep, dst: ep, payload: packet.to_vec(), id: 0, trace: None, spoofed: false };
        self.kpropd.handle(&req).expect("kpropd always replies")
    }

    fn ship(&mut self, fate: ShipFate) {
        let Some(sent) = self.next_transfer(false) else { return };
        match fate {
            ShipFate::Clean => {
                let reply = self.deliver(&sent.packet);
                self.cursor.settle(&sent, Some(&reply));
            }
            ShipFate::DropAck => {
                // The slave may or may not have applied it; the master only
                // knows the ack never came.
                let _ = self.deliver(&sent.packet);
                self.cursor.settle(&sent, None);
            }
            ShipFate::Duplicate => {
                let first = self.deliver(&sent.packet);
                let second = self.deliver(&sent.packet);
                // A duplicated *segment* that landed must be refused on
                // redelivery as a replayed update; duplicated full dumps
                // are idempotent. (If the first copy was itself refused —
                // say the slave restarted — the duplicate draws the same
                // refusal, which is fine.)
                if sent.mode() == "incr" && first.starts_with(b"OK") {
                    let second = String::from_utf8_lossy(&second);
                    assert!(
                        second.starts_with("ERR") && second.contains("replayed update"),
                        "duplicate segment not refused: {second:?}"
                    );
                }
                self.cursor.settle(&sent, Some(&first));
            }
            ShipFate::Corrupt(pos) => {
                let mut bad = sent.packet.clone();
                let idx = pos as usize % bad.len();
                bad[idx] ^= 0x5a;
                let reply = self.deliver(&bad);
                // Corruption must never be applied silently; if the flip
                // survived verification it must still be an exact,
                // well-formed packet — which a single xor never is, so
                // acceptance here is a hard failure.
                assert!(reply.starts_with(b"ERR"), "corrupted packet accepted (byte {idx})");
                self.cursor.settle(&sent, Some(&reply));
            }
        }
        self.check_quiescent();
    }

    /// The conservation oracle: whenever the replica claims the master's
    /// journal head, its database must equal the master's exactly.
    fn check_quiescent(&self) {
        if self.cursor.synced() && self.replica().applied_seq() == self.kprop.log().head() {
            // A freshly restarted replica has no mirror yet; until the next
            // transfer lands there is nothing to compare (and nothing being
            // served divergently).
            if let Some(replica_dump) = self.replica().dump_text() {
                assert_eq!(
                    replica_dump,
                    kdump::dump(&self.master).unwrap(),
                    "divergent replica at quiescent seq {}",
                    self.kprop.log().head()
                );
            }
        }
    }

    fn model_dump(&self) -> String {
        let mut lines: Vec<String> =
            self.model.values().map(kdump::entry_to_line).collect();
        lines.sort_unstable();
        let mut out = format!("KDB_DUMP_V1 {}\n", lines.len());
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Final convergence: keep shipping until the cursor holds the head,
    /// then run one scheduled anti-entropy full dump — the mechanism that
    /// catches a slave restart the master never observed (its cursor still
    /// claims sync, but the slave's mirror is gone or stale).
    fn converge(&mut self) {
        for _ in 0..8 {
            if self.cursor.synced() && self.cursor.acked() == self.kprop.log().head() {
                break;
            }
            self.ship(ShipFate::Clean);
        }
        assert!(self.cursor.synced(), "recovery policy failed to resync");
        assert_eq!(self.cursor.acked(), self.kprop.log().head());
        if self.replica().db().is_none() || self.replica().applied_seq() != self.kprop.log().head() {
            let sent = self.next_transfer(true).expect("a forced transfer is never skipped");
            let reply = self.deliver(&sent.packet);
            assert!(self.cursor.settle(&sent, Some(&reply)), "anti-entropy full dump refused");
        }
    }

    fn replica(&self) -> &krb_kprop::IncrReplica {
        self.kpropd.replica()
    }
}

#[derive(Clone, Copy)]
enum ShipFate {
    Clean,
    DropAck,
    Duplicate,
    Corrupt(u16),
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn faulted_interleavings_always_converge(
        actions in proptest::collection::vec(arb_action(), 1..80),
        log_cap in 1usize..12,
    ) {
        let mut h = Harness::new(log_cap);
        for a in &actions {
            match a {
                Action::Write(i) => h.write(*i as usize),
                Action::Remove(i) => h.remove(*i as usize),
                Action::Ship => h.ship(ShipFate::Clean),
                Action::ShipDropAck => h.ship(ShipFate::DropAck),
                Action::ShipDuplicate => h.ship(ShipFate::Duplicate),
                Action::ShipCorrupt(p) => h.ship(ShipFate::Corrupt(*p)),
                Action::SlaveRestart => {
                    h.kpropd = fresh_kpropd();
                    // The master does not know: its next segment gets a
                    // sequence-gap refusal, driving the full-dump fallback.
                }
            }
        }
        h.converge();
        let master_dump = kdump::dump(&h.master).unwrap();
        prop_assert_eq!(h.replica().dump_text().unwrap(), master_dump.clone(), "replica != master");
        prop_assert_eq!(master_dump, h.model_dump(), "master != reference model");
    }

    /// The no-fault special case: a purely incremental stream (small writes,
    /// generous journal) must never need a full dump after bootstrap.
    #[test]
    fn clean_incremental_stream_never_falls_back(
        writes in proptest::collection::vec((0u8..POOL.len() as u8, any::<bool>()), 1..40),
    ) {
        let mut h = Harness::new(4096);
        h.ship(ShipFate::Clean); // bootstrap full dump
        prop_assert!(h.cursor.synced());
        for (i, del) in writes {
            if del { h.remove(i as usize) } else { h.write(i as usize) }
            prop_assert!(
                h.next_transfer(false).is_none_or(|t| t.mode() == "incr"),
                "clean stream planned a full dump"
            );
            h.ship(ShipFate::Clean);
            prop_assert_eq!(h.replica().applied_seq(), h.kprop.log().head());
        }
        prop_assert_eq!(h.replica().dump_text().unwrap(), kdump::dump(&h.master).unwrap());
    }
}
