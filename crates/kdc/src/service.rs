//! Adapters binding a [`Kdc`] to the network substrate, plus a deployment
//! helper that stands up a realm (master + slaves) on a [`Router`] the way
//! Figure 10 draws it.
//!
//! Since the concurrent-KDC refactor (DESIGN.md §15) the KDC handles
//! requests through `&self`, so the service adapter and the deployment
//! share plain `Arc<Kdc>` handles — there is no realm-wide lock left to
//! serialize behind.

use crate::realm::RealmConfig;
use crate::server::{shared_clock, Kdc, KdcRole};
use kerberos::HostAddr;
use krb_kdb::{DbError, MemStore, PrincipalDb, Store};
use krb_netsim::{ports, Endpoint, Packet, Router, Service};
use krb_crypto::DesKey;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// Wrap a KDC as a datagram [`Service`]: the sender address the protocol
/// checks is the packet's (spoofable) source — exactly the property the
/// authenticator/ticket address comparison exists to harden.
pub struct KdcService<S: Store + Send + Sync>(pub Arc<Kdc<S>>);

impl<S: Store + Send + Sync> Service for KdcService<S> {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        let sender: HostAddr = req.src.addr.0;
        // The packet's out-of-band trace metadata flows into the KDC's
        // journal events; the wire payload is untouched.
        Some(self.0.handle_traced(&req.payload, sender, req.trace))
    }
}

/// A realm deployed on a simulated network: the master KDC and any number
/// of slave replicas, all answering on [`ports::KDC`].
pub struct Deployment {
    /// Shared handle to the master KDC (the KDBM needs `with_db_mut`).
    pub master: Arc<Kdc<MemStore>>,
    /// Master host address.
    pub master_addr: HostAddr,
    /// Slave KDC handles with their host addresses.
    pub slaves: Vec<(HostAddr, Arc<Kdc<MemStore>>)>,
    /// The realm name.
    pub realm: String,
    /// The clock cell every KDC host reads (advance to move realm time).
    pub clock_cell: Arc<AtomicU32>,
    /// Master database key (needed by kprop).
    pub master_key: DesKey,
}

impl Deployment {
    /// Stand up `1 + n_slaves` KDCs for `realm` on `router`. The master
    /// gets `base_addr`; slaves get consecutive addresses. Each slave
    /// starts on a snapshot of the master's database: it shares the
    /// master's tree, and a write on either side copies only the path it
    /// touches, so a master write reaches a slave only through `kprop`.
    /// Over the in-memory store a snapshot cannot fail; the [`DbError`]
    /// is a snapshot's, should that change.
    pub fn install(
        router: &mut Router,
        realm: &str,
        master_db: PrincipalDb<MemStore>,
        config: RealmConfig,
        base_addr: HostAddr,
        n_slaves: usize,
        start_time: u32,
    ) -> Result<Self, DbError> {
        let clock_cell = Arc::new(AtomicU32::new(start_time));
        let master_key = *master_db.master_key();
        let slave_dbs = (0..n_slaves).map(|_| master_db.snapshot_mem()).collect::<Result<Vec<_>, _>>()?;
        let master = Arc::new(Kdc::new(
            master_db,
            config.clone(),
            shared_clock(Arc::clone(&clock_cell)),
            KdcRole::Master,
            0xA11CE,
        ));
        let master_ep = Endpoint::new(base_addr, ports::KDC);
        router.serve(master_ep, KdcService(Arc::clone(&master)));

        let mut slaves = Vec::new();
        for (i, db) in slave_dbs.into_iter().enumerate() {
            let slave = Arc::new(Kdc::new(
                db,
                config.clone(),
                shared_clock(Arc::clone(&clock_cell)),
                KdcRole::Slave,
                0xB0B + i as u64,
            ));
            let mut addr = base_addr;
            addr[3] = addr[3].wrapping_add(1 + i as u8);
            router.serve(Endpoint::new(addr, ports::KDC), KdcService(Arc::clone(&slave)));
            slaves.push((addr, slave));
        }
        Ok(Deployment {
            master,
            master_addr: base_addr,
            slaves,
            realm: realm.to_string(),
            clock_cell,
            master_key,
        })
    }

    /// Every KDC endpoint, master first — clients try these in order.
    pub fn kdc_endpoints(&self) -> Vec<Endpoint> {
        let mut eps = vec![Endpoint::new(self.master_addr, ports::KDC)];
        eps.extend(self.slaves.iter().map(|(a, _)| Endpoint::new(*a, ports::KDC)));
        eps
    }

    /// Point every KDC in the realm (master *and* slaves) at one shared
    /// registry and span clock. `krbstat` wires only the master; the chaos
    /// soak needs slave counters too, since failover sends load there.
    pub fn set_telemetry_all(
        &self,
        registry: Arc<krb_telemetry::Registry>,
        clock_us: krb_telemetry::ClockUs,
    ) {
        self.master
            .set_telemetry(Arc::clone(&registry), Arc::clone(&clock_us));
        for (_, slave) in &self.slaves {
            slave.set_telemetry(Arc::clone(&registry), Arc::clone(&clock_us));
        }
    }

    /// Attach one journal to every KDC in the realm, so traces that fail
    /// over to a slave still journal their `as_ok`/`kdc_err` hop.
    pub fn set_journal_all(&self, journal: Arc<krb_telemetry::Journal>) {
        self.master.set_journal(Arc::clone(&journal));
        for (_, slave) in &self.slaves {
            slave.set_journal(Arc::clone(&journal));
        }
    }

    /// Advance the realm's shared clock (seconds).
    pub fn advance_time(&self, secs: u32) {
        self.clock_cell
            .fetch_add(secs, std::sync::atomic::Ordering::SeqCst);
    }

    /// Set the realm clock to an absolute time.
    pub fn set_time(&self, t: u32) {
        self.clock_cell.store(t, std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kerberos::{build_as_req, read_as_reply_with_password, Principal};
    use krb_crypto::string_to_key;
    use krb_netsim::{NetConfig, SimNet};

    const REALM: &str = "ATHENA.MIT.EDU";
    const NOW: u32 = 600_000_000;

    fn master_db() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("master"), NOW).unwrap();
        let far = NOW * 2;
        db.add_principal("krbtgt", REALM, &string_to_key("tgs"), far, 96, NOW, "i.").unwrap();
        db.add_principal("bcn", "", &string_to_key("pw"), far, 96, NOW, "i.").unwrap();
        db
    }

    #[test]
    fn deployment_answers_on_master_and_slaves() {
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let dep = Deployment::install(
            &mut router,
            REALM,
            master_db(),
            RealmConfig::new(REALM),
            [18, 72, 0, 10],
            2,
            NOW,
        ).unwrap();
        let ws = Endpoint::new([18, 72, 0, 5], 1023);
        let client = Principal::parse("bcn", REALM).unwrap();
        let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
        for ep in dep.kdc_endpoints() {
            let reply = router.rpc(ws, ep, &req).unwrap();
            assert!(
                read_as_reply_with_password(&reply, "pw", NOW).is_ok(),
                "KDC at {ep} must authenticate"
            );
        }
    }

    #[test]
    fn master_down_slaves_still_authenticate() {
        // Figure 10 / §5.3: "If the master machine is down, authentication
        // can still be achieved on one of the slave machines."
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let dep = Deployment::install(
            &mut router,
            REALM,
            master_db(),
            RealmConfig::new(REALM),
            [18, 72, 0, 10],
            1,
            NOW,
        ).unwrap();
        router.net().set_partitioned(krb_netsim::Ipv4(dep.master_addr), true);
        let ws = Endpoint::new([18, 72, 0, 5], 1023);
        let client = Principal::parse("bcn", REALM).unwrap();
        let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);

        let eps = dep.kdc_endpoints();
        assert!(router.rpc(ws, eps[0], &req).is_err(), "master unreachable");
        let reply = router.rpc(ws, eps[1], &req).unwrap();
        assert!(read_as_reply_with_password(&reply, "pw", NOW).is_ok());
    }
}
