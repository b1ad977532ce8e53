//! `krb-repl`: the million-principal replication scenario.
//!
//! The paper propagates the database "in its entirety, to the slave
//! machines" every hour (§5.3) — workable at Athena's 5,000 principals,
//! hopeless at 10^5–10^6. This scenario builds a realm at that scale
//! through the kdb bulk-load path ([`krb_kdb::PrincipalDb::bulk_register`]),
//! then runs journaled incremental propagation rounds against one or more
//! slaves while a [`Profile`] fault plan batters the replication links.
//!
//! Two oracle families are machine-checked:
//!
//! * **replication conservation** — at every quiescent point (a slave
//!   acknowledging the master's journal head) the slave's mirror dumps
//!   byte-identically to the master database, and after heal every slave
//!   must reach the head and match; a faulted stream converges or is
//!   rejected, never installs divergence;
//! * **metrics ≡ journal** — the kprop counters recompute exactly from
//!   the event journal ([`soak::metrics_journal`]).
//!
//! Determinism contract: a run is a pure function of [`ReplConfig`]; the
//! rendered JSON report is byte-identical across same-config runs (the
//! `scripts/check.sh` gate runs the smoke twice and diffs).

use crate::chaos::{Profile, MASTER_ADDR};
use crate::soak::{self, SlaveSet, SoakFailure};
use kerberos::HostAddr;
use krb_crypto::KeyGenerator;
use krb_kdb::{MemStore, PrincipalDb};
use krb_kprop::{KpropMaster, Tally};
use krb_netsim::{FaultPlan, EPOCH_1987};
use krb_telemetry::ClockUs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

/// Domain-separation constant for the scenario's RNG and trace streams.
const REPL_SEED: u64 = 0x5EB1;
/// Extra principals the admin stream may add and delete (exercises the
/// journal's `Delete` records without shrinking the bulk-loaded realm).
const N_CHURN: usize = 16;
/// Every n-th transfer per slave is forced to a full dump (anti-entropy).
const ANTI_ENTROPY_EVERY: u64 = 7;

/// Scenario parameters. A run is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct ReplConfig {
    /// Principals bulk-loaded into the master realm.
    pub principals: usize,
    /// Propagation rounds (each: a burst of admin writes, then one
    /// transfer attempt per slave).
    pub rounds: usize,
    /// Admin mutations per round (key rotations plus churn adds/deletes).
    pub writes_per_round: usize,
    /// Seed for the realm keys, the network RNG, and the fault plan.
    pub seed: u64,
    /// Fault profile battering the replication links.
    pub profile: Profile,
    /// Slave replicas.
    pub slaves: usize,
    /// Master update-journal retention (records); small caps force
    /// gap-induced full-dump fallbacks.
    pub log_cap: usize,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            principals: 100_000,
            rounds: 12,
            writes_per_round: 24,
            seed: REPL_SEED,
            profile: Profile::Mild,
            slaves: 2,
            log_cap: 256,
        }
    }
}

impl ReplConfig {
    /// The CI gate shape: 10^5 principals, a mild fault plan, both oracle
    /// families exercised. Run in release — see `scripts/check.sh`.
    pub fn smoke(seed: u64) -> Self {
        ReplConfig { seed, ..Default::default() }
    }
}

/// What a completed (oracles-green) run observed.
#[derive(Debug, Clone, Default)]
pub struct ReplReport {
    /// Principals in the realm (bulk-loaded, excluding `K.M` and churn).
    pub principals: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Seed used.
    pub seed: u64,
    /// Profile used.
    pub profile: Profile,
    /// Admin mutations journaled.
    pub admin_writes: u64,
    /// Transfers shipped (including post-heal), by kind and by outcome.
    pub shipped: Tally,
    /// Master journal head at the end of the run.
    pub final_seq: u64,
}

/// JSON keys the report must carry — the smoke test below pins them.
pub const REPL_JSON_KEYS: &[&str] = &[
    "tool",
    "principals",
    "rounds",
    "seed",
    "profile",
    "admin_writes",
    "transfers",
    "accepted",
    "rejected",
    "incr",
    "full",
    "final_seq",
    "bytes_shipped",
    "oracles",
    "repl_conservation",
    "metrics_journal",
];

impl ReplReport {
    /// Render as one JSON object (no trailing newline), hand-rolled like
    /// the other sim tools — the workspace takes no serialization
    /// dependency. Oracles are `pass` by construction: a violation aborts
    /// the run before a report exists.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"tool\":\"krb-repl\",\"principals\":{},\"rounds\":{},\"seed\":{},\"profile\":\"{}\"",
            self.principals,
            self.rounds,
            self.seed,
            self.profile.as_str()
        );
        let _ = write!(
            s,
            ",\"admin_writes\":{},\"transfers\":{},\"accepted\":{},\"rejected\":{}",
            self.admin_writes, self.shipped.transfers, self.shipped.accepted, self.shipped.rejected
        );
        let _ = write!(
            s,
            ",\"incr\":{},\"full\":{},\"final_seq\":{},\"bytes_shipped\":{}",
            self.shipped.incr, self.shipped.full, self.final_seq, self.shipped.bytes
        );
        s.push_str(
            ",\"oracles\":{\"repl_conservation\":\"pass\",\"metrics_journal\":\"pass\"}}",
        );
        s
    }
}

/// Run the scenario. Returns the report if both oracle families hold
/// (`repl_conservation` and `metrics_journal`).
pub fn run_repl(config: ReplConfig) -> Result<ReplReport, SoakFailure> {
    let start = EPOCH_1987;
    let n = config.principals.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed ^ REPL_SEED);
    let replay_cmd = format!(
        "krb-repl --principals {} --rounds {} --writes {} --seed {} --profile {} --slaves {}",
        config.principals,
        config.rounds,
        config.writes_per_round,
        config.seed,
        config.profile.as_str(),
        config.slaves
    );
    let fail = |oracle: &'static str, detail: String| SoakFailure {
        oracle,
        detail,
        replay_cmd: replay_cmd.clone(),
        context: String::new(),
    };

    // --- The realm, bulk-loaded at depth.
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(config.seed.wrapping_add(3)));
    let master_key = keygen.generate();
    let mut db = PrincipalDb::create(MemStore::new(), master_key, start).expect("create");
    let batch: Vec<(String, String, krb_crypto::DesKey)> = (0..n)
        .map(|i| (format!("u{i:07}"), String::new(), keygen.generate()))
        .collect();
    db.bulk_register(&batch, u32::MAX, 96, start, "kdb_init.")
        .expect("bulk_register");
    drop(batch);

    // --- Network, fault plan, telemetry.
    let (mut router, registry, journal, clock_us) = soak::network(config.seed, 1 << 15);
    let slave_addrs: Vec<HostAddr> = (0..config.slaves)
        .map(|k| [18, 72, 5, 2 + (k % 200) as u8])
        .collect();
    let plan = FaultPlan::with_windows(config.seed, config.profile.windows(&slave_addrs));
    router.net().set_fault_plan(plan);

    // --- Slaves: replicas serving no KDC, only publishing their mirror dumps.
    let slaves = SlaveSet::serve(
        &mut router,
        master_key,
        &slave_addrs,
        &journal,
        &clock_us,
        |_, _| {},
    );

    let mut master =
        KpropMaster::new(MASTER_ADDR, 2001, config.seed ^ 0x72EB7, config.log_cap, &slave_addrs);
    master.set_journal(Arc::clone(&journal), ClockUs::clone(&clock_us));
    let mut churn_exists = vec![false; N_CHURN];
    let mut report = ReplReport {
        principals: n as u64,
        rounds: config.rounds as u64,
        seed: config.seed,
        profile: config.profile,
        ..Default::default()
    };

    // --- Propagation rounds under fire.
    for round in 0..config.rounds {
        let now = start + round as u32 + 1;
        for w in 0..config.writes_per_round {
            let churn = rng.random_range(0..10u8) < 3;
            if churn {
                let c = rng.random_range(0..N_CHURN);
                let name = format!("x{c}");
                if churn_exists[c] {
                    master.write(&mut db, |tx| tx.delete(&name, "")).expect("churn delete");
                } else {
                    let key = keygen.generate();
                    master
                        .write(&mut db, |tx| {
                            tx.add_principal(&name, "", &key, u32::MAX, 96, now, "kadmin.")
                        })
                        .expect("churn add");
                }
                churn_exists[c] = !churn_exists[c];
            } else {
                let i = rng.random_range(0..n);
                let name = format!("u{i:07}");
                let key = keygen.generate();
                master
                    .write(&mut db, |tx| tx.change_key(&name, "", &key, now + w as u32, "kadmin."))
                    .expect("rotate");
            }
            report.admin_writes += 1;
        }

        slaves
            .ship_round(&mut master, &mut router, &db, ANTI_ENTROPY_EVERY)
            .map_err(|detail| fail("repl_conservation", detail))?;
        router.pump();
    }

    // --- Heal, then force every slave to the journal head.
    router.net().heal_faults();
    router.pump();
    report.final_seq = master.log().head();
    slaves
        .catch_up(&mut master, &mut router, &db)
        .map_err(|detail| fail("repl_conservation", detail))?;
    report.shipped = master.tally();

    // --- Metrics ≡ journal: the kprop counters must recompute exactly.
    soak::metrics_journal(&registry, &journal).map_err(|detail| fail("metrics_journal", detail))?;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, profile: Profile) -> ReplConfig {
        ReplConfig {
            principals: 2_000,
            rounds: 8,
            writes_per_round: 12,
            seed,
            profile,
            slaves: 2,
            log_cap: 20,
        }
    }

    #[test]
    fn mild_profile_converges_and_replays_byte_identically() {
        let a = run_repl(small(7, Profile::Mild)).expect("oracles hold");
        let b = run_repl(small(7, Profile::Mild)).expect("oracles hold");
        assert_eq!(a.render_json(), b.render_json(), "same seed must replay byte-identically");
        assert!(a.admin_writes > 0);
        assert!(a.shipped.incr > 0, "steady state never went incremental: {a:?}");
        for key in REPL_JSON_KEYS {
            assert!(
                a.render_json().contains(&format!("\"{key}\"")),
                "missing JSON key {key}: {}",
                a.render_json()
            );
        }
    }

    #[test]
    fn stormy_profile_still_never_installs_divergence() {
        let report = run_repl(small(11, Profile::Stormy)).expect("oracles hold");
        // The stormy plan must actually reject something, and the
        // fallback machinery must ship full dumps beyond the bootstrap.
        assert!(report.shipped.rejected > 0, "{report:?}");
        assert!(report.shipped.full > report.shipped.accepted.min(1), "{report:?}");
    }

    #[test]
    fn partition_forces_gap_fallback_through_tiny_journal() {
        let mut cfg = small(13, Profile::Partition);
        cfg.log_cap = 4; // retention evicts during the partition
        let report = run_repl(cfg).expect("oracles hold");
        assert!(report.shipped.full > 1, "expected eviction-driven full dumps: {report:?}");
    }

    #[test]
    #[ignore = "10^5-principal gate shape; run with --release -- --ignored (check.sh runs the bin)"]
    fn smoke_hundred_thousand_principals() {
        let report = run_repl(ReplConfig::smoke(REPL_SEED)).expect("oracles hold");
        assert!(report.principals >= 100_000);
        assert!(report.shipped.incr > 0);
    }
}
