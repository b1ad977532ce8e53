//! `krb-stat`: the deterministic shared-realm concurrency smoke.
//!
//! [`run_load`] drives a configurable number of login cycles — each one a
//! fresh workstation doing `kinit` (AS exchange) followed by a service
//! ticket request (TGS exchange) — with every worker thread hammering *one*
//! KDC in one realm, the configuration the concurrent-KDC refactor
//! (DESIGN.md §15) exists for. Workers share the snapshot store, the
//! striped replay cache, and the schedule cache; only the simulated network
//! stack is per-worker. A 1-thread run is the same path with one worker.
//!
//! It measures nothing: the only clocks are simulated, so the whole report
//! — JSON snapshot, registry export and merged journal, bytes included — is
//! a deterministic function of the config. `scripts/check.sh` runs it at 1
//! and 4 threads, asserts every cycle was served, and requires two runs to
//! be byte-identical; the journal dump feeds `krb-trace --input`.
//! Performance figures come from `benchmark/` (kbench).
//!
//! ## Why runs stay byte-identical
//!
//! Real threads race, so the run earns determinism structurally rather
//! than by scheduling:
//!
//! - Realm time is frozen at `START`; every protocol timestamp is a
//!   constant. Authenticators stay unique because each login's session
//!   key (and therefore its authenticator ciphertext hash) is distinct.
//! - The KDC's span clock is pinned to frozen realm time: one LCG shared by
//!   racing handlers would assign run-dependent timestamps, so its
//!   histograms and journal stamps depend only on deterministic counts.
//!   Worker-side journals use per-worker seeded LCG clocks instead.
//! - Every key schedule is pre-warmed through a scratch registry before
//!   the counted run, so the sched-cache counters can't depend on which
//!   thread loses a first-touch race: the counted run is all hits.
//! - Each worker journals into its own shard ring, and the KDC routes its
//!   events by trace id onto the same shard
//!   ([`Workstation::enable_tracing_sharded`]); the combined dump is the
//!   deterministic `(clock, shard, seq)` merge of
//!   [`krb_telemetry::merge_render`].

use crate::{kdb_init, register_service, register_user, ToolError, Workstation};
use kerberos::Principal;
use krb_kdb::MemStore;
use krb_kdc::{shared_clock, Kdc, KdcRole, KdcService, RealmConfig};
use krb_netsim::{ports, Endpoint, NetConfig, Router, SimNet};
use krb_telemetry::{fixed_clock_us, lcg_clock_us, merge_render, ClockUs, Journal, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

const REALM: &str = "BENCH.MIT.EDU";
const START: u32 = 600_000_000;
const KDC_ADDR: [u8; 4] = [18, 72, 0, 10];
/// Worker seeds diverge by this odd multiplier (golden-ratio mix).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// The run caps users so every schedule the loop can touch (users +
/// krbtgt + the bench service) fits the KDC's 64-entry LRU at once —
/// otherwise eviction races would make hit/miss totals run-dependent.
const SHARED_MAX_USERS: usize = 62;

/// Load-loop parameters.
#[derive(Clone, Copy, Debug)]
pub struct StatConfig {
    /// Login cycles to run *per thread* (each is one AS + one TGS
    /// exchange).
    pub iters: usize,
    /// Distinct principals the cycles draw from.
    pub users: usize,
    /// Seeds the database, the user pick sequence, and the workers'
    /// journal clocks.
    pub seed: u64,
    /// Worker threads, all driving the one KDC, each with a seed derived
    /// from `seed`.
    pub threads: usize,
}

impl Default for StatConfig {
    fn default() -> Self {
        StatConfig { iters: 200, users: 8, seed: 42, threads: 1 }
    }
}

impl StatConfig {
    /// The fast configuration `scripts/check.sh` runs.
    pub fn smoke() -> Self {
        StatConfig { iters: 25, users: 4, seed: 42, threads: 1 }
    }
}

/// What one load run produced.
#[derive(Clone, Debug)]
pub struct StatReport {
    /// The JSON snapshot.
    pub json: String,
    /// The KDC registry's full Prometheus-style text export.
    pub render: String,
    /// AS exchanges served.
    pub as_ok: u64,
    /// TGS exchanges served.
    pub tgs_ok: u64,
    /// Error replies (should be 0 under this well-formed load).
    pub errors: u64,
    /// The run's event journals as one text dump: the per-shard rings
    /// merged by `(clock, shard, seq)` with a `shard=NN` prefix per line,
    /// byte-identical across same-seed runs.
    pub journal_dump: String,
    /// Journal events recorded across all workers.
    pub journal_events: u64,
    /// Journal events evicted by the ring buffer across all workers.
    pub journal_dropped: u64,
}

/// Run the AS+TGS load loop: one KDC, one realm, every worker thread
/// hammering it through its own simulated network stack. This is the
/// configuration the snapshot-swapped store and striped replay cache
/// exist for — requests run concurrently through `&self` with no
/// realm-wide lock.
pub fn run_load(cfg: &StatConfig) -> Result<StatReport, ToolError> {
    let intk = |_| ToolError::Krb(kerberos::ErrorCode::IntkErr);
    let iters = cfg.iters.max(1);
    let users = cfg.users.clamp(1, SHARED_MAX_USERS);
    let threads = cfg.threads.clamp(1, 64);

    let seed = cfg.seed;
    let mut boot = kdb_init(REALM, "bench-master-pw", START, seed).map_err(intk)?;
    for u in 0..users {
        register_user(&mut boot.db, &format!("user{u}"), "", &format!("pw-{u}"), START)
            .map_err(intk)?;
    }
    let mut keygen = krb_crypto::KeyGenerator::new(StdRng::seed_from_u64(seed ^ 0x5EED));
    register_service(&mut boot.db, "rcmd", "bench", START, &mut keygen).map_err(intk)?;

    // Realm time stays frozen at START: workers advancing a shared clock
    // would hand each cycle a race-dependent timestamp. Authenticators
    // stay unique anyway — every login has a fresh session key, so every
    // authenticator hashes differently in the replay cache.
    let clock_cell = Arc::new(AtomicU32::new(START));
    let kdc = Arc::new(Kdc::new(
        boot.db,
        RealmConfig::new(REALM),
        shared_clock(Arc::clone(&clock_cell)),
        KdcRole::Master,
        0xA11CE,
    ));

    warmup_shared(&kdc, &clock_cell, users)?;

    let registry = Registry::shared();
    let journals: Vec<Arc<Journal>> = (0..threads).map(|_| Journal::shared()).collect();
    kdc.set_telemetry(Arc::clone(&registry), fixed_clock_us(u64::from(START) * 1_000_000));
    kdc.set_journal_shards(journals.clone());

    if threads == 1 {
        run_shared_worker(cfg, 0, iters, users, threads, &kdc, &clock_cell, &journals[0])?;
    } else {
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let kdc = &kdc;
                    let clock_cell = &clock_cell;
                    let journal = &journals[t];
                    scope.spawn(move || {
                        run_shared_worker(cfg, t, iters, users, threads, kdc, clock_cell, journal)
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(threads);
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(_) => results.push(Err(ToolError::Krb(kerberos::ErrorCode::KdcGenErr))),
                }
            }
            results
        });
        for r in joined {
            r?;
        }
    }

    let journal_dump = merge_render(&journals);
    let journal_events = journals.iter().map(|j| j.events_recorded()).sum();
    let journal_dropped = journals.iter().map(|j| j.events_dropped()).sum();

    let as_ok = registry.counter_value("kdc_as_ok_total");
    let tgs_ok = registry.counter_value("kdc_tgs_ok_total");
    let errors = registry.counter_value("kdc_error_total");
    let sched_hits = registry.counter_value("kdc_sched_cache_hits_total");
    let sched_misses = registry.counter_value("kdc_sched_cache_misses_total");
    let json = format!(
        "{{\n  \"bench\": \"kdc_load\",\n  \"iters\": {iters},\n  \"users\": {users},\n  \
         \"seed\": {seed},\n  \"threads\": {threads},\n  \"as_ok\": {as_ok},\n  \
         \"tgs_ok\": {tgs_ok},\n  \"errors\": {errors},\n  \
         \"sched_cache\": {{\"hits\": {sched_hits}, \"misses\": {sched_misses}}},\n  \
         \"journal\": {{\"events\": {journal_events}, \"dropped\": {journal_dropped}}}\n}}\n"
    );
    Ok(StatReport {
        json,
        render: registry.render(),
        as_ok,
        tgs_ok,
        errors,
        journal_dump,
        journal_events,
        journal_dropped,
    })
}

/// Pre-warm every key schedule the load loop can touch (each
/// user's key, the krbtgt key, the bench service key) through a scratch
/// registry. The counted run then serves schedule lookups entirely from
/// cache: its hit/miss counters are a pure function of the config instead
/// of depending on which thread loses the first-touch race.
fn warmup_shared(
    kdc: &Arc<Kdc<MemStore>>,
    clock_cell: &Arc<AtomicU32>,
    users: usize,
) -> Result<(), ToolError> {
    kdc.set_telemetry(Registry::shared(), fixed_clock_us(u64::from(START) * 1_000_000));
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    router.serve(Endpoint::new(KDC_ADDR, ports::KDC), KdcService(Arc::clone(kdc)));
    let service = Principal::parse("rcmd.bench", REALM)?;
    for u in 0..users {
        let mut ws = Workstation::new(
            [18, 72, 99, 77],
            REALM,
            vec![Endpoint::new(KDC_ADDR, ports::KDC)],
            shared_clock(Arc::clone(clock_cell)),
        );
        ws.kinit(&mut router, &format!("user{u}"), &format!("pw-{u}"))?;
        if u == 0 {
            ws.mk_request(&mut router, &service, 0, false)?;
        }
    }
    Ok(())
}

/// One worker: its own simulated network serving the *shared*
/// KDC, `iters` login cycles from per-worker seeds, journal events pinned
/// to this worker's shard ring.
#[allow(clippy::too_many_arguments)]
fn run_shared_worker(
    cfg: &StatConfig,
    thread_idx: usize,
    iters: usize,
    users: usize,
    threads: usize,
    kdc: &Arc<Kdc<MemStore>>,
    clock_cell: &Arc<AtomicU32>,
    journal: &Arc<Journal>,
) -> Result<(), ToolError> {
    let seed = cfg.seed ^ (thread_idx as u64).wrapping_mul(SEED_MIX);
    let mut router = Router::new(SimNet::new(NetConfig::default()));
    router.serve(Endpoint::new(KDC_ADDR, ports::KDC), KdcService(Arc::clone(kdc)));
    let clock_us = lcg_clock_us(seed, 40, 400);
    let service = Principal::parse("rcmd.bench", REALM)?;
    let mut rng = StdRng::seed_from_u64(seed);
    // Distinct workstation address per worker, so ticket address checks
    // exercise distinct hosts concurrently.
    let ws_addr = [18, 72, thread_idx as u8, 77];
    for i in 0..iters {
        let u: usize = rng.random_range(0..users);
        let mut ws = Workstation::new(
            ws_addr,
            REALM,
            vec![Endpoint::new(KDC_ADDR, ports::KDC)],
            shared_clock(Arc::clone(clock_cell)),
        );
        // Trace ids aligned onto this worker's shard: the KDC's sharded
        // sink routes by `trace % threads`, so this worker's KDC hops
        // land in this worker's own journal ring.
        ws.enable_tracing_sharded(
            Arc::clone(journal),
            ClockUs::clone(&clock_us),
            seed.wrapping_add(i as u64),
            thread_idx as u64,
            threads as u64,
        );
        ws.kinit(&mut router, &format!("user{u}"), &format!("pw-{u}"))?;
        ws.mk_request(&mut router, &service, 0, false)?;
    }
    Ok(())
}

/// Keys the JSON snapshot must contain; the schema test below asserts them.
pub const REQUIRED_JSON_KEYS: &[&str] = &[
    "\"bench\"",
    "\"iters\"",
    "\"users\"",
    "\"seed\"",
    "\"threads\"",
    "\"as_ok\"",
    "\"tgs_ok\"",
    "\"errors\"",
    "\"sched_cache\"",
    "\"hits\"",
    "\"misses\"",
    "\"journal\"",
    "\"events\"",
    "\"dropped\"",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal structural JSON check: balanced braces outside strings,
    /// even quote count — enough to catch a mangled emitter without a
    /// JSON dependency.
    fn looks_like_json(s: &str) -> bool {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev_escape = false;
        let mut quotes = 0usize;
        for c in s.chars() {
            if in_str {
                if prev_escape {
                    prev_escape = false;
                } else if c == '\\' {
                    prev_escape = true;
                } else if c == '"' {
                    in_str = false;
                    quotes += 1;
                }
                continue;
            }
            match c {
                '"' => {
                    in_str = true;
                    quotes += 1;
                }
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0 && !in_str && quotes % 2 == 0
    }

    #[test]
    fn smoke_run_serves_every_cycle_and_emits_the_schema() {
        let report = run_load(&StatConfig::smoke()).unwrap();
        assert_eq!(report.as_ok, 25);
        assert_eq!(report.tgs_ok, 25);
        assert_eq!(report.errors, 0);
        for key in REQUIRED_JSON_KEYS {
            assert!(report.json.contains(key), "missing {key} in:\n{}", report.json);
        }
        assert!(looks_like_json(&report.json), "malformed JSON:\n{}", report.json);
    }

    #[test]
    fn same_seed_sim_runs_are_byte_identical() {
        // The determinism contract, end to end: the JSON snapshot *and* the
        // full registry export are a pure function of the config.
        let cfg = StatConfig {
            iters: 40, users: 3, seed: 7, threads: 1,
        };
        let a = run_load(&cfg).unwrap();
        let b = run_load(&cfg).unwrap();
        assert_eq!(a.json, b.json);
        assert_eq!(a.render, b.render);
        assert_eq!(a.journal_dump, b.journal_dump);
        // And the latency histograms actually saw samples.
        assert!(a.render.contains("kdc_as_latency_us_count 40"), "{}", a.render);
    }

    #[test]
    fn different_seeds_change_the_simulated_snapshot() {
        let run = |seed| {
            run_load(&StatConfig { iters: 30, users: 3, seed, threads: 1 }).unwrap()
        };
        let (a, b) = (run(1), run(2));
        // The KDC's span clock is pinned, so the seed shows in what the
        // worker's seeded clock stamps (its journal) and in the user picks.
        assert_ne!(a.journal_dump, b.journal_dump, "journal ignored the seed");
    }

    #[test]
    fn multi_thread_sim_runs_are_deterministic_and_serve_every_cycle() {
        // Four workers race one KDC,
        // yet the snapshot stays a pure function of the config (frozen
        // realm clock, pinned KDC span clock, pre-warmed sched cache).
        let cfg = StatConfig {
            iters: 20, users: 3, seed: 9, threads: 4,
        };
        let a = run_load(&cfg).unwrap();
        let b = run_load(&cfg).unwrap();
        assert_eq!(a.json, b.json);
        assert_eq!(a.render, b.render);
        // iters is per thread: 4 workers x 20 cycles.
        assert_eq!(a.as_ok, 80);
        assert_eq!(a.tgs_ok, 80);
        assert_eq!(a.errors, 0);
        assert!(a.json.contains("\"threads\": 4"), "{}", a.json);
    }

    #[test]
    fn shared_mode_merged_journal_is_byte_identical() {
        // The §15 determinism claim under real concurrency: four workers
        // hammer one KDC, each journaling into its own shard ring (KDC
        // hops route there by aligned trace id), and the merged dump is
        // byte-identical across same-seed runs.
        let cfg = StatConfig {
            iters: 15, users: 3, seed: 11, threads: 4,
        };
        let a = run_load(&cfg).unwrap();
        let b = run_load(&cfg).unwrap();
        assert_eq!(a.journal_dump, b.journal_dump);
        assert_eq!(a.json, b.json);
        assert_eq!(a.render, b.render);
        assert!(a.journal_events > 0);
        for shard in 0..4 {
            assert!(
                a.journal_dump.contains(&format!("shard={shard:02} ")),
                "missing shard {shard} in:\n{}",
                a.journal_dump
            );
        }
        // Worker and KDC hops both made it into the merged timeline.
        assert!(a.journal_dump.contains("kind=login_start"));
        assert!(a.journal_dump.contains("comp=kdc kind=as_ok"));
    }

    #[test]
    fn shared_mode_sched_cache_is_all_hits_and_stripes_render() {
        // The warmup contract: by the time counting starts every key
        // schedule is resident, so the counted run records zero misses
        // and exactly three hits per cycle (client + krbtgt on the AS
        // path, the service on the TGS path).
        let cfg = StatConfig {
            iters: 10, users: 3, seed: 5, threads: 2,
        };
        let report = run_load(&cfg).unwrap();
        assert_eq!(report.errors, 0);
        assert!(report.json.contains("\"misses\": 0"), "{}", report.json);
        assert!(report.json.contains(&format!("\"hits\": {}", 3 * 2 * 10)), "{}", report.json);
        // The striped replay cache publishes its per-stripe counters in
        // deterministic (zero-padded) label order.
        assert!(report.render.contains("kdc_replay_stripe_hits_total{stripe=\"00\"}"));
        assert!(report.render.contains("kdc_replay_stripe_hits_total{stripe=\"15\"}"));
        assert!(report.render.contains("kdc_store_swaps_total"));
        // Render-ordering determinism: all sixteen stripe counters appear,
        // in ascending label order (the zero-padding is what makes the
        // registry's name sort line up with the numeric stripe index)...
        let positions: Vec<usize> = (0..16)
            .map(|i| {
                let name = format!("kdc_replay_stripe_hits_total{{stripe=\"{i:02}\"}}");
                report.render.find(&name).unwrap_or_else(|| panic!("{name} not rendered"))
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "stripe counters render out of label order"
        );
        // ...and the whole text export is byte-identical run-over-run.
        let again = run_load(&cfg).unwrap();
        assert_eq!(report.render, again.render, "registry render must be deterministic");
    }

    #[test]
    fn sched_cache_counters_reach_the_snapshot() {
        // Every TGS exchange hits the krbtgt warm cache (not the LRU); the
        // per-service LRU sees one miss per distinct service key and hits
        // afterwards. With 25 cycles against a single service principal the
        // hit counter must dominate.
        let report = run_load(&StatConfig::smoke()).unwrap();
        let hits: u64 = report
            .json
            .lines()
            .find(|l| l.contains("\"sched_cache\""))
            .and_then(|l| l.split("\"hits\": ").nth(1))
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse().ok())
            .expect("sched_cache.hits in snapshot");
        assert!(hits > 0, "expected schedule-cache hits in:\n{}", report.json);
    }
}
