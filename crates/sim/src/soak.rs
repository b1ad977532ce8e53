//! What `krb-chaos`, `krb-repl` and `krb-adversary` have in common.
//!
//! Each harness owns its schedule (what runs in which round, from which
//! RNG draw) and its oracles (what must hold afterwards). What they share
//! is here, once: the failure a tripped oracle returns ([`SoakFailure`]),
//! the slaves' `kpropd`s with the ship-then-compare step of the
//! replication conservation oracle ([`SlaveSet`]), one honest client round
//! ([`client_round`]), the metrics ≡ journal check ([`metrics_journal`]),
//! and the plumbing around a run ([`network`], [`drain`],
//! [`smoke_document`], [`or_exit`]). Nothing here draws from an RNG or picks an address, a
//! seed salt or a trace id: those stay with the harness that pinned them.

use kerberos::{ApReq, HostAddr, Principal};
use krb_apps::{frame_request, parse_reply, request_cksum};
use krb_crypto::DesKey;
use krb_kdb::{dump as kdump, MemStore, PrincipalDb};
use krb_kprop::{IncrKpropdService, KpropMaster};
use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};
use krb_telemetry::{lcg_clock_us, ClockUs, Journal, Registry, TraceId};
use krb_tools::Workstation;
use parking_lot::Mutex;
use std::sync::Arc;

/// A tripped oracle, carrying everything needed to replay the run.
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What was observed.
    pub detail: String,
    /// The replay command line.
    pub replay_cmd: String,
    /// What else the harness knows about the moment: `krb-chaos`'s fault
    /// plan, `krb-adversary`'s step; empty for `krb-repl`.
    pub context: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "oracle failure [{}]: {}", self.oracle, self.detail)?;
        write!(f, "replay: {}", self.replay_cmd)?;
        if !self.context.is_empty() {
            write!(f, "\n{}", self.context)?;
        }
        Ok(())
    }
}

impl std::error::Error for SoakFailure {}

/// For a binary: the run's result, or the failure on stderr and exit 1.
pub fn or_exit<T>(tool: &str, outcome: Result<T, SoakFailure>) -> T {
    outcome.unwrap_or_else(|failure| {
        eprintln!("{tool}: {failure}");
        std::process::exit(1)
    })
}

/// The `--smoke` document: `{"tool":..,"seed":..,"<list>":[run,..]}` over
/// the rendered runs, stopping at the first that failed.
pub fn smoke_document(
    tool: &str,
    seed: u64,
    list: &str,
    runs: impl Iterator<Item = Result<String, SoakFailure>>,
) -> Result<String, SoakFailure> {
    let runs = runs.collect::<Result<Vec<_>, _>>()?;
    Ok(format!("{{\"tool\":\"{tool}\",\"seed\":{seed},\"{list}\":[{}]}}", runs.join(",")))
}

/// The wire a harness runs on: a [`Router`] over a `seed`ed [`SimNet`],
/// the network's registry, a journal of `journal_cap` events published
/// into it (the network journals its faults there too), and the seeded
/// span clock.
pub fn network(seed: u64, journal_cap: usize) -> (Router, Arc<Registry>, Arc<Journal>, ClockUs) {
    let mut net = SimNet::new(NetConfig { seed, ..Default::default() });
    let registry = net.registry();
    let journal = Arc::new(Journal::new(journal_cap));
    journal.publish(&registry);
    net.set_journal(Arc::clone(&journal));
    (Router::new(net), registry, journal, lcg_clock_us(seed, 40, 400))
}

/// Discard whatever is queued for `ep` (late duplicates, unread replies).
pub fn drain(router: &mut Router, ep: Endpoint) {
    while router.net().recv(ep).is_some() {}
}

/// The metrics ≡ journal oracle (`krb-mon`): every outcome counter must be
/// exactly recomputable from the event journal. A mismatch in either
/// direction is an instrumentation bug — a counter bumped without its
/// event, or an event without its counter. `Err` is the failure detail.
pub fn metrics_journal(registry: &Registry, journal: &Journal) -> Result<(), String> {
    match krb_mon::consistency_check(registry, journal) {
        Ok(consistency) if consistency.is_consistent() => Ok(()),
        Ok(consistency) => Err(consistency.describe_mismatches()),
        Err(e) => Err(e.to_string()),
    }
}

/// The slaves of one master: an [`IncrKpropdService`] per address, each
/// publishing the canonical dump of the mirror it last installed, which
/// is what the replication conservation oracle compares with the master.
pub struct SlaveSet {
    installed: Vec<Arc<Mutex<Option<String>>>>,
}

impl SlaveSet {
    /// Serve a `kpropd` on the KPROP port of every address, reporting into
    /// the network's registry and into `journal`. `on_install(k, mirror)`
    /// runs on slave `k`'s every accepted transfer, before the dump is
    /// published.
    pub fn serve(
        router: &mut Router,
        master_key: DesKey,
        addrs: &[HostAddr],
        journal: &Arc<Journal>,
        clock_us: &ClockUs,
        on_install: impl Fn(usize, &PrincipalDb<MemStore>) + Send + Sync + 'static,
    ) -> SlaveSet {
        let on_install = Arc::new(on_install);
        let mut installed = Vec::new();
        for (k, addr) in addrs.iter().enumerate() {
            let slot: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
            let (publish, hook) = (Arc::clone(&slot), Arc::clone(&on_install));
            let mut kpropd = IncrKpropdService::new(master_key, move |db| {
                hook(k, db);
                *publish.lock() = kdump::dump(db).ok();
            });
            kpropd.set_registry(router.net().registry());
            kpropd.set_journal(Arc::clone(journal), ClockUs::clone(clock_us));
            router.serve(Endpoint::new(*addr, ports::KPROP), kpropd);
            installed.push(slot);
        }
        SlaveSet { installed }
    }

    /// Does the mirror slave `k` last installed dump differently from `db`?
    fn diverges(&self, k: usize, db: &PrincipalDb<MemStore>) -> bool {
        let master_dump = kdump::dump(db).expect("master dumps");
        self.installed[k].lock().as_deref() != Some(master_dump.as_str())
    }

    /// One propagation round: a transfer to every slave that is due one,
    /// every `anti_entropy_every`-th transfer forced to a full dump (the
    /// scheduled repair of a slave restart the master never observed).
    /// A slave that acknowledges the journal head is at a quiescent point,
    /// where its mirror must dump byte-identically to the master's `db`;
    /// `Err` is the `repl_conservation` detail.
    pub fn ship_round(
        &self,
        master: &mut KpropMaster,
        router: &mut Router,
        db: &PrincipalDb<MemStore>,
        anti_entropy_every: u64,
    ) -> Result<(), String> {
        for k in 0..self.installed.len() {
            let force_full = (master.tally().transfers + 1).is_multiple_of(anti_entropy_every);
            let Some(shipped) = master
                .ship(router, db, k, force_full)
                .expect("master dumps; journal slice is consecutive")
            else {
                continue; // in sync with nothing new: no transfer due
            };
            if shipped.acked && master.at_head(k) && self.diverges(k, db) {
                return Err(format!(
                    "slave {k} acked head seq {} but its mirror diverges from the master dump",
                    master.log().head()
                ));
            }
        }
        Ok(())
    }

    /// After heal: with the network clean every slave must reach the
    /// journal head — one the fault windows starved all run, through the
    /// full-dump fallback — and then hold a byte-identical mirror. `Err`
    /// is the `repl_conservation` detail.
    pub fn catch_up(
        &self,
        master: &mut KpropMaster,
        router: &mut Router,
        db: &PrincipalDb<MemStore>,
    ) -> Result<(), String> {
        for k in 0..self.installed.len() {
            let why = if !master
                .ship_to_head(router, db, k)
                .expect("master dumps; journal slice is consecutive")
            {
                "cannot reach the journal head"
            } else if self.diverges(k, db) {
                "mirror diverges from the master"
            } else {
                continue;
            };
            return Err(format!(
                "slave {k} {why} after heal (journal head {})",
                master.log().head()
            ));
        }
        Ok(())
    }
}

/// What one [`client_round`] did.
pub enum ClientRound {
    /// The workstation held no login: `kinit` ran, and this is whether it
    /// got a ticket-granting ticket.
    Login(bool),
    /// No service ticket: an expired TGT, a corrupted TGS reply, or no
    /// KDC in reach.
    NoTicket,
    /// The service ticket (this is its session key) was there but no
    /// `AP_REQ` could be built.
    NoRequest(DesKey),
    /// The framed `login` request went to the application server.
    Sent {
        /// The service ticket's session key.
        session_key: DesKey,
        /// The request as built, before the wire had it.
        ap: ApReq,
        /// The login trace the exchange ran under.
        trace: Option<TraceId>,
        /// Whether the server's reply came back and parsed as an accept.
        ok: bool,
    },
}

/// One honest client round from `ws`: `kinit` when not `logged_in`, else a
/// service ticket for `svc` (from the TGS if uncached), an `AP_REQ` bound
/// to the payload (the user's name) by the keyed request checksum, and
/// the framed `login` RPC to `app_ep`. The workstation's inbox is drained
/// afterwards; counting, logging out and probing are the caller's.
pub fn client_round(
    ws: &mut Workstation,
    router: &mut Router,
    logged_in: bool,
    user: &str,
    password: &str,
    svc: &Principal,
    app_ep: Endpoint,
) -> ClientRound {
    let ws_ep = ws.endpoint;
    let round = if !logged_in {
        ClientRound::Login(ws.kinit(router, user, password).is_ok())
    } else if let Ok(cred) = ws.get_service_ticket(router, svc) {
        let session_key = cred.key();
        let payload = user.as_bytes();
        let cksum = request_cksum(&session_key, "login", payload);
        match ws.mk_request(router, svc, cksum, false) {
            Ok((ap, _)) => {
                let wire = frame_request(&ap, "login", payload);
                let trace = ws.current_trace();
                let outcome = router.rpc_traced(ws_ep, app_ep, &wire, trace);
                let ok = matches!(&outcome, Ok(r) if parse_reply(r).is_ok());
                ClientRound::Sent { session_key, ap, trace, ok }
            }
            Err(_) => ClientRound::NoRequest(session_key),
        }
    } else {
        ClientRound::NoTicket
    };
    drain(router, ws_ep);
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::string_to_key;
    use krb_netsim::Ipv4;

    const NOW: u32 = 600_000_000;
    const MASTER: HostAddr = [18, 72, 0, 10];
    const SLAVE: HostAddr = [18, 72, 0, 11];

    /// A three-user master database, its `KpropMaster`, one served slave,
    /// and the slave indices the install hook was called with.
    struct Rig {
        router: Router,
        db: PrincipalDb<MemStore>,
        master: KpropMaster,
        slaves: SlaveSet,
        installs: Arc<Mutex<Vec<usize>>>,
    }

    fn rig() -> Rig {
        let (mut router, _, journal, clock_us) = network(1, 1 << 10);
        let master_key = string_to_key("master");
        let mut db = PrincipalDb::create(MemStore::new(), master_key, NOW).unwrap();
        for user in ["ann", "bob", "cy"] {
            db.add_principal(user, "", &string_to_key(user), u32::MAX, 96, NOW, "test.").unwrap();
        }
        let installs = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&installs);
        let slaves = SlaveSet::serve(
            &mut router,
            master_key,
            &[SLAVE],
            &journal,
            &clock_us,
            move |k, _| seen.lock().push(k),
        );
        let master = KpropMaster::new(MASTER, 3000, 7, 64, &[SLAVE]);
        Rig { router, db, master, slaves, installs }
    }

    #[test]
    fn a_write_the_journal_missed_trips_the_conservation_compare() {
        let Rig { mut router, mut db, mut master, slaves, installs } = rig();
        // Bootstrap: the full dump carries everything, so the compare holds.
        assert_eq!(slaves.ship_round(&mut master, &mut router, &db, 5), Ok(()));
        assert_eq!(*installs.lock(), [0]);

        // One write through the master and one nobody journaled: the slave
        // applies the segment and acknowledges the head while its mirror
        // differs from the master's database in exactly one record.
        let rekey = string_to_key("ann-2");
        master.write(&mut db, |tx| tx.change_key("ann", "", &rekey, NOW + 1, "kadmin.")).unwrap();
        db.change_key("bob", "", &string_to_key("bob-2"), NOW + 1, "nobody.").unwrap();
        let detail = slaves.ship_round(&mut master, &mut router, &db, 5).unwrap_err();
        assert_eq!(detail, "slave 0 acked head seq 1 but its mirror diverges from the master dump");
        assert_eq!(master.tally().incr, 1, "the transfer that tripped it was a segment");

        // The slave stands at the head, so the catch-up ships nothing and
        // compares at once.
        let detail = slaves.catch_up(&mut master, &mut router, &db).unwrap_err();
        assert_eq!(detail, "slave 0 mirror diverges from the master after heal (journal head 1)");
    }

    #[test]
    fn a_slave_out_of_reach_fails_the_catch_up_by_name() {
        let Rig { mut router, mut db, mut master, slaves, .. } = rig();
        assert_eq!(slaves.catch_up(&mut master, &mut router, &db), Ok(()));
        router.net().set_partitioned(Ipv4(SLAVE), true);
        master.write(&mut db, |tx| tx.delete("cy", "")).unwrap();
        let detail = slaves.catch_up(&mut master, &mut router, &db).unwrap_err();
        assert_eq!(detail, "slave 0 cannot reach the journal head after heal (journal head 1)");
    }

    #[test]
    fn a_failure_prints_its_oracle_replay_command_and_context() {
        // chaos: the context is the fault plan's window list.
        let mut failure = SoakFailure {
            oracle: "safety",
            detail: "example".to_string(),
            replay_cmd: "krb-chaos --seed 42 --ops 10 --profile stormy".to_string(),
            context: "fault_plan seed=42\n".to_string(),
        };
        let text = failure.to_string();
        assert!(text.starts_with("oracle failure [safety]: example\n"), "{text}");
        assert!(text.contains("replay: krb-chaos --seed 42"), "{text}");
        assert!(text.ends_with("\nfault_plan seed=42\n"), "{text}");
        // The adversary: the step.
        failure.context = "at step 3".to_string();
        assert!(failure.to_string().ends_with("--profile stormy\nat step 3"));
        // repl: none, and no empty line for it.
        failure.context.clear();
        assert!(failure.to_string().ends_with("--profile stormy"));
    }
}
