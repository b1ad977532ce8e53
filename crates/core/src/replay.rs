//! The replay cache (paper §4.3).
//!
//! > "The server is also allowed to keep track of all past requests with
//! > time stamps that are still valid. In order to further foil replay
//! > attacks, a request received with the same ticket and time stamp as one
//! > already received can be discarded."
//!
//! A request is identified by its [`ReplayFingerprint`] (authenticator
//! timestamp, a hash of the client's `name.instance@realm`, a hash of the
//! authenticator ciphertext) — no string, no per-entry allocation.
//! Fingerprints are grouped into *generations* by timestamp
//! (`timestamp >> GEN_SHIFT`), and a generation stores each one in one
//! 8-byte word: the generation already holds the timestamp's high bits. The
//! requests arriving now all land in the one or two newest generations,
//! and expiry drops whole generations:
//! an entry leaves once its timestamp is more than `2 × MAX_SKEW_SECS`
//! behind the server clock — long after the freshness check alone rejects
//! it — so the cache stays bounded. DESIGN.md §4 has the argument for why
//! a fingerprint can refuse an honest request (never, in practice) but can
//! never accept a replay.

use crate::time::MAX_SKEW_SECS;
use krb_telemetry::{Counter, Registry};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Identity of one request for replay purposes, in its descriptive form.
/// The cache stores its [`ReplayFingerprint`], not the key itself.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ReplayKey {
    /// Client `name.instance@realm`. Only its [`hash_bytes`] value is kept
    /// by the cache.
    pub client: String,
    /// Authenticator timestamp.
    pub timestamp: u32,
    /// FNV hash of the authenticator ciphertext (distinguishes two honest
    /// requests in the same second from a byte-identical replay).
    pub auth_hash: u64,
}

impl ReplayKey {
    /// What the cache stores for this key.
    pub fn fingerprint(&self) -> ReplayFingerprint {
        ReplayFingerprint {
            timestamp: self.timestamp,
            client_hash: hash_bytes(self.client.as_bytes()),
            auth_hash: self.auth_hash,
        }
    }
}

/// What the replay cache stores for one request: fixed size, `Copy`, and a
/// function of the request's bytes alone, so a byte-identical replay always
/// maps to the fingerprint already stored.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReplayFingerprint {
    timestamp: u32,
    client_hash: u64,
    auth_hash: u64,
}

// A fingerprint is 24 bytes; a wider one fails to compile here.
const _: usize = 24 - std::mem::size_of::<ReplayFingerprint>();

impl ReplayFingerprint {
    /// Fingerprint of a verified request: the ticket's client (name,
    /// instance, realm), the authenticator's timestamp and the sealed
    /// authenticator's bytes. Equal to `ReplayKey { client:
    /// "name.instance@realm", .. }.fingerprint()` without building the
    /// string.
    pub fn new(client: (&str, &str, &str), timestamp: u32, authenticator: &[u8]) -> Self {
        let (name, instance, realm) = client;
        let mut h = fnv1a(FNV_OFFSET, name.as_bytes());
        if !instance.is_empty() {
            h = fnv1a(fnv1a(h, b"."), instance.as_bytes());
        }
        h = fnv1a(fnv1a(h, b"@"), realm.as_bytes());
        ReplayFingerprint { timestamp, client_hash: h, auth_hash: hash_bytes(authenticator) }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `data`, continuing from state `h`.
fn fnv1a(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash bytes for [`ReplayKey::auth_hash`].
pub fn hash_bytes(data: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, data)
}

/// Hasher for a generation's entries. The word it is fed is already a
/// hash, so it only folds what it is given; the multiply and shift in
/// `finish` spread the fold over both ends of the word, because the table
/// takes its bucket from the low bits and its tag from the high ones, and
/// an entry's low bits are its timestamp offset, shared by every request
/// of one second.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.rotate_left(23) ^ x;
    }

    fn finish(&self) -> u64 {
        let m = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        m ^ (m >> 32)
    }
}

/// Width of a generation as a shift: generation = `timestamp >> GEN_SHIFT`
/// (64 s). Fixed by the sweep recorded in EXPERIMENTS.md ("Replay cache
/// v2"): wide enough that the skew window is a couple of dozen tables,
/// narrow enough that the newest one stays cache-resident.
const GEN_SHIFT: u32 = 6;

/// The timestamp bits a generation does not hold: its offset in the
/// generation.
const OFFSET: u64 = (1 << GEN_SHIFT) - 1;

/// What a generation's set stores for one request: one word. Its low
/// [`GEN_SHIFT`] bits are the timestamp's offset, so the generation key
/// and the word give back the exact timestamp; the other 58 bits are
/// `client_hash ^ auth_hash · MIX` with those low bits dropped. Two
/// requests of one generation compare equal when their timestamps agree
/// and so do the 58 mixed bits: a byte-identical replay always does, two
/// distinct requests only by a 2⁻⁵⁸ chance (DESIGN.md §4).
///
/// `MIX` is odd, so `auth_hash · MIX` is a bijection whose low `i` bits
/// depend only on the low `i` bits of `auth_hash`: a one-bit change of
/// `auth_hash` at bit `i` flips bit `i` of the product and, for `i <
/// GEN_SHIFT`, moves the product by more than the offset bits can hold,
/// so it always reaches the stored bits. The multiply also carries the
/// bits that vary within a stripe (everything above `auth_hash`'s low
/// four) into the whole upper word, where [`FoldHasher`] finds them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Entry(u64);

// An entry is one word; any other size fails to compile here.
const _: [(); 8] = [(); std::mem::size_of::<Entry>()];

/// The odd multiplier of [`Entry`]'s mix (2⁶⁴ over the golden ratio).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Entry {
    fn new(fp: &ReplayFingerprint) -> Self {
        let mixed = fp.client_hash ^ fp.auth_hash.wrapping_mul(MIX);
        Entry(mixed & !OFFSET | u64::from(fp.timestamp) & OFFSET)
    }

    /// The timestamp of an entry stored in generation `generation`.
    fn timestamp(&self, generation: u32) -> u32 {
        generation << GEN_SHIFT | (self.0 & OFFSET) as u32
    }
}

type Generation = HashSet<Entry, BuildHasherDefault<FoldHasher>>;

/// The store inside every stripe: generations of fingerprints in
/// timestamp order, plus the stripe's purge clock. Empty until first used.
#[derive(Default, Debug)]
struct Generations {
    gens: BTreeMap<u32, Generation>,
    last_purge: u32,
}

#[cfg(test)]
thread_local! {
    /// Entries the purge sweeps on this thread have looked at one by one.
    static SWEEP_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Generations {
    /// Record a fingerprint. Returns `false` if it was already present.
    fn insert(&mut self, fp: ReplayFingerprint) -> bool {
        self.gens.entry(fp.timestamp >> GEN_SHIFT).or_default().insert(Entry::new(&fp))
    }

    fn len(&self) -> usize {
        self.gens.values().map(HashSet::len).sum()
    }

    /// Purge at most once per skew window; entries older than twice the
    /// window are unreachable (the freshness check rejects them first).
    /// Generations wholly behind the cutoff are dropped unvisited; only the
    /// one straddling it is walked. Returns the number of entries evicted.
    fn purge_if_due(&mut self, now: u32) -> u64 {
        if now.saturating_sub(self.last_purge) < MAX_SKEW_SECS {
            return 0;
        }
        self.last_purge = now;
        let cutoff = now.saturating_sub(2 * MAX_SKEW_SECS);
        let boundary = cutoff >> GEN_SHIFT;
        let live = self.gens.split_off(&boundary);
        let expired = std::mem::replace(&mut self.gens, live);
        let mut evicted: usize = expired.values().map(HashSet::len).sum();
        if let Some(straddling) = self.gens.get_mut(&boundary) {
            let before = straddling.len();
            #[cfg(test)]
            SWEEP_VISITS.with(|v| v.set(v.get() + before));
            straddling.retain(|e| e.timestamp(boundary) >= cutoff);
            evicted += before - straddling.len();
        }
        evicted as u64
    }
}

/// Stripe count for [`ReplayCache`]. A power of two so the modulo is a
/// mask; 16 stripes keep contention negligible far past the thread counts
/// a single realm sees.
pub const REPLAY_STRIPES: usize = 16;

/// The bounded cache of recently seen requests: [`REPLAY_STRIPES`]
/// independent shards, selected by the authenticator hash, each behind its
/// own mutex with its own purge clock (so no stripe ever waits on a sweep
/// of another stripe's entries). Every method takes `&self`, so a
/// multi-threaded KDC consults it without any global lock, and a
/// single-threaded server pays one uncontended lock per request.
///
/// ## Why per-stripe purge clocks are safe
///
/// For the request sequences that can actually reach a replay cache —
/// authenticators whose timestamp passed the §4.3 freshness check, i.e.
/// `|now − timestamp| ≤ MAX_SKEW_SECS` — the cache accepts and rejects
/// *exactly* the sequences one global set of fingerprints would: an
/// in-window entry is never removed by any purge (the sweep only drops
/// entries older than `2 × MAX_SKEW_SECS`), so the only state the stripes'
/// separate purge clocks can change (which *stale* entries are still
/// sitting in memory) is state the freshness backstop makes unreachable.
/// The proptest `replay_cache_matches_one_set_model_in_window` in
/// `crates/core/tests/proptests.rs` pins this against a one-set reference
/// model, skew boundary included.
#[derive(Debug)]
pub struct ReplayCache {
    stripes: Vec<Mutex<Generations>>,
    /// Per-stripe replay-hit counters, published with zero-padded labels
    /// so the registry's lexicographic render is also numeric order.
    /// Handles sit behind `RwLock` so [`ReplayCache::publish`] can rebind
    /// them to registry-owned storage (see its docs); the lock is only read
    /// on the rare hit/eviction paths.
    stripe_hits: Vec<RwLock<Counter>>,
    hits: RwLock<Counter>,
    evictions: RwLock<Counter>,
}

/// The cache's name from when a single-lock cache stood beside it; kbench
/// imports it.
pub type StripedReplayCache = ReplayCache;

impl Default for ReplayCache {
    fn default() -> Self {
        ReplayCache {
            stripes: (0..REPLAY_STRIPES).map(|_| Mutex::new(Generations::default())).collect(),
            stripe_hits: (0..REPLAY_STRIPES).map(|_| RwLock::new(Counter::new())).collect(),
            hits: RwLock::new(Counter::new()),
            evictions: RwLock::new(Counter::new()),
        }
    }
}

impl ReplayCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a request. Returns `false` if it was already seen (a replay).
    pub fn check_and_insert(&self, key: ReplayKey, now: u32) -> bool {
        self.check_fingerprint(key.fingerprint(), now)
    }

    /// [`ReplayCache::check_and_insert`] on the stored form. Only the
    /// fingerprint's stripe is locked, and only for the purge and the set
    /// probe.
    pub fn check_fingerprint(&self, fp: ReplayFingerprint, now: u32) -> bool {
        let i = (fp.auth_hash % REPLAY_STRIPES as u64) as usize;
        let mut stripe = self.stripes[i].lock();
        let evicted = stripe.purge_if_due(now);
        if evicted > 0 {
            self.evictions.read().add(evicted);
        }
        if !stripe.insert(fp) {
            self.hits.read().inc();
            self.stripe_hits[i].read().inc();
            return false;
        }
        true
    }

    /// Replays detected so far. After [`ReplayCache::publish`] into a
    /// registry shared with other caches, this reads the *shared* counter —
    /// replays across every publisher of the same prefix.
    pub fn replay_hits(&self) -> u64 {
        self.hits.read().get()
    }

    /// Entries evicted by the per-stripe purge sweeps so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.read().get()
    }

    /// Bind the cache's counters to the registry's storage for
    /// `{prefix}_replay_hits_total` / `{prefix}_replay_evictions_total`
    /// plus one `{prefix}_replay_stripe_hits_total{stripe="NN"}` per
    /// stripe. Get-or-create, not adopt: several caches publishing the
    /// same prefix into one shared registry (a master and its slaves, two
    /// hosts' rlogin servers) increment *one* set of counters instead of
    /// silently shadowing each other — the metrics ≡ journal oracle depends
    /// on this. Counts recorded before publishing are dropped; publish
    /// right after construction (or accept the documented `set_telemetry`
    /// reset).
    pub fn publish(&self, registry: &Registry, prefix: &str) {
        *self.hits.write() = registry.counter(&format!("{prefix}_replay_hits_total"));
        *self.evictions.write() = registry.counter(&format!("{prefix}_replay_evictions_total"));
        for (i, c) in self.stripe_hits.iter().enumerate() {
            *c.write() =
                registry.counter(&format!("{prefix}_replay_stripe_hits_total{{stripe=\"{i:02}\"}}"));
        }
    }

    /// Number of live entries across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Principal;

    fn key(client: &str, ts: u32, auth: &[u8]) -> ReplayKey {
        ReplayKey { client: client.into(), timestamp: ts, auth_hash: hash_bytes(auth) }
    }

    /// A key that lands in stripe 3 whatever `n` is: tests of one purge
    /// clock put every entry behind it.
    fn one_stripe_key(client: &str, ts: u32, n: u64) -> ReplayKey {
        ReplayKey { client: client.into(), timestamp: ts, auth_hash: n * REPLAY_STRIPES as u64 + 3 }
    }

    #[test]
    fn detects_exact_replay() {
        let rc = ReplayCache::new();
        assert!(rc.check_and_insert(key("bcn@A", 100, b"auth1"), 100));
        assert!(!rc.check_and_insert(key("bcn@A", 100, b"auth1"), 101), "replay");
    }

    #[test]
    fn distinct_requests_same_second_pass() {
        let rc = ReplayCache::new();
        assert!(rc.check_and_insert(key("bcn@A", 100, b"auth1"), 100));
        assert!(rc.check_and_insert(key("bcn@A", 100, b"auth2"), 100));
    }

    #[test]
    fn different_clients_do_not_collide() {
        let rc = ReplayCache::new();
        assert!(rc.check_and_insert(key("bcn@A", 100, b"x"), 100));
        assert!(rc.check_and_insert(key("jis@A", 100, b"x"), 100));
    }

    #[test]
    fn old_entries_are_purged() {
        let rc = ReplayCache::new();
        for i in 0..100 {
            assert!(rc.check_and_insert(one_stripe_key("bcn@A", i, u64::from(i)), i));
        }
        assert_eq!(rc.len(), 100);
        // Far in the future: purge clears everything stale.
        assert!(rc.check_and_insert(one_stripe_key("bcn@A", 10_000, 100), 10_000));
        assert!(rc.len() < 100, "purge ran: {} entries", rc.len());
    }

    #[test]
    fn expiry_sweep_drops_stale_and_keeps_fresh() {
        let rc = ReplayCache::new();
        let base = 100_000;
        // One entry that will be stale at sweep time, one still in window.
        assert!(rc.check_and_insert(one_stripe_key("old@A", base, 1), base));
        let fresh_ts = base + 3 * MAX_SKEW_SECS;
        assert!(rc.check_and_insert(one_stripe_key("new@A", fresh_ts, 2), fresh_ts));
        // Trigger the sweep well past the old entry's 2*skew horizon but
        // inside the fresh entry's.
        let sweep_at = base + 4 * MAX_SKEW_SECS;
        assert!(rc.check_and_insert(one_stripe_key("x@A", sweep_at, 3), sweep_at));
        assert_eq!(rc.len(), 2, "stale entry swept, fresh + new retained");
        // The fresh entry must still catch its replay after the sweep.
        assert!(!rc.check_and_insert(one_stripe_key("new@A", fresh_ts, 2), sweep_at));
    }

    #[test]
    fn hit_and_eviction_counters_report_through_the_registry() {
        let rc = ReplayCache::new();
        let registry = Registry::new();
        rc.publish(&registry, "kdc");
        assert!(rc.check_and_insert(one_stripe_key("bcn@A", 100, 1), 100));
        assert!(!rc.check_and_insert(one_stripe_key("bcn@A", 100, 1), 101));
        assert!(!rc.check_and_insert(one_stripe_key("bcn@A", 100, 1), 102));
        assert_eq!(rc.replay_hits(), 2);
        assert_eq!(registry.counter_value("kdc_replay_hits_total"), 2);
        // Force a purge far in the future: the lone stale entry is evicted.
        assert!(rc.check_and_insert(one_stripe_key("bcn@A", 50_000, 2), 50_000));
        assert_eq!(rc.evictions(), 1);
        assert_eq!(registry.counter_value("kdc_replay_evictions_total"), 1);
    }

    #[test]
    fn purge_is_rate_limited() {
        let rc = ReplayCache::new();
        rc.check_and_insert(one_stripe_key("a@A", 0, 0), 0);
        // Within one skew window, purging doesn't run on every insert.
        for i in 1..10 {
            rc.check_and_insert(one_stripe_key("a@A", i, u64::from(i)), i);
        }
        assert_eq!(rc.len(), 10);
    }

    #[test]
    fn striped_detects_replay_from_shared_reference() {
        let rc = ReplayCache::new();
        assert!(rc.check_and_insert(key("bcn@A", 100, b"auth1"), 100));
        assert!(!rc.check_and_insert(key("bcn@A", 100, b"auth1"), 101), "replay");
        assert!(rc.check_and_insert(key("bcn@A", 100, b"auth2"), 100));
        assert_eq!(rc.replay_hits(), 1);
        assert_eq!(rc.len(), 2);
    }

    #[test]
    fn striped_publishes_per_stripe_counters_in_render_order() {
        let rc = ReplayCache::new();
        let registry = Registry::new();
        rc.publish(&registry, "kdc");
        let k = key("bcn@A", 100, b"auth1");
        let stripe = (k.auth_hash % REPLAY_STRIPES as u64) as usize;
        assert!(rc.check_and_insert(k.clone(), 100));
        assert!(!rc.check_and_insert(k, 101));
        assert_eq!(registry.counter_value("kdc_replay_hits_total"), 1);
        assert_eq!(
            registry.counter_value(&format!(
                "kdc_replay_stripe_hits_total{{stripe=\"{stripe:02}\"}}"
            )),
            1
        );
        // Zero-padded labels: the registry's lexicographic order is also
        // numeric stripe order, so renders are stable and readable.
        let names: Vec<String> = registry
            .names()
            .into_iter()
            .filter(|n| n.contains("stripe_hits"))
            .collect();
        assert_eq!(names.len(), REPLAY_STRIPES);
        assert!(names[0].contains("stripe=\"00\""));
        assert!(names[REPLAY_STRIPES - 1].contains(&format!("stripe=\"{:02}\"", REPLAY_STRIPES - 1)));
    }

    #[test]
    fn striped_purges_stale_entries_per_stripe() {
        let rc = ReplayCache::new();
        for i in 0..100u32 {
            assert!(rc.check_and_insert(key("bcn@A", i, &i.to_be_bytes()), i));
        }
        assert_eq!(rc.len(), 100);
        // Far in the future: every touched stripe purges its stale slice.
        for i in 0..100u32 {
            assert!(rc.check_and_insert(key("bcn@A", 10_000, &i.to_be_bytes()), 10_000));
        }
        assert_eq!(rc.len(), 100, "stale entries swept: {}", rc.len());
        assert!(rc.evictions() > 0);
    }

    #[test]
    fn fingerprint_of_a_principal_is_the_fingerprint_of_its_display_form() {
        for text in ["bcn", "rlogin.priam", "a.b.c"] {
            let client = Principal::parse(text, "ATHENA.MIT.EDU").unwrap();
            let key = ReplayKey {
                client: client.to_string(),
                timestamp: 7,
                auth_hash: hash_bytes(b"sealed"),
            };
            let parts = (client.name.as_str(), client.instance.as_str(), client.realm.as_str());
            assert_eq!(ReplayFingerprint::new(parts, 7, b"sealed"), key.fingerprint(), "{text}");
        }
    }

    #[test]
    fn a_new_cache_holds_no_generation() {
        // An empty BTreeMap owns no heap, so an unused cache costs its
        // counters and the stripe vector, nothing per second of window:
        // passwd_churn keeps some 34 caches that stay small.
        let rc = ReplayCache::new();
        assert_eq!(rc.stripes.len(), REPLAY_STRIPES);
        assert!(rc.stripes.iter().all(|s| s.lock().gens.is_empty()));
    }

    #[test]
    fn a_sweep_walks_only_the_generation_straddling_the_cutoff() {
        const PER_SECOND: u32 = 10;
        let rc = ReplayCache::new();
        for ts in 0..2_000u32 {
            for i in 0..PER_SECOND {
                assert!(rc.check_and_insert(one_stripe_key("bcn@A", ts, u64::from(ts * PER_SECOND + i)), 0));
            }
        }
        // A cutoff in the middle of a generation: everything before it goes.
        let cutoff = (17 << GEN_SHIFT) + (1 << GEN_SHIFT) / 2;
        let visited_before = SWEEP_VISITS.with(std::cell::Cell::get);
        let now = one_stripe_key("bcn@A", cutoff, u64::from(2_000 * PER_SECOND));
        assert!(rc.check_and_insert(now, cutoff + 2 * MAX_SKEW_SECS));
        let visited = SWEEP_VISITS.with(std::cell::Cell::get) - visited_before;
        assert_eq!(rc.evictions(), u64::from(cutoff * PER_SECOND));
        assert_eq!(rc.len() as u64, u64::from((2_000 - cutoff) * PER_SECOND) + 1);
        assert_eq!(visited, ((1usize << GEN_SHIFT) * PER_SECOND as usize), "one generation, not 17");
    }

    #[test]
    fn one_stripes_fingerprints_spread_over_the_table() {
        // Everything in a stripe shares the low four bits of `auth_hash`;
        // the table's bucket index must not inherit that.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FoldHasher>::default();
        let buckets: HashSet<u64> = (0..1024u64)
            .map(|i| {
                let fp = ReplayFingerprint { timestamp: 100, client_hash: 9, auth_hash: (i << 4) | 3 };
                build.hash_one(Entry::new(&fp)) & 1023
            })
            .collect();
        assert!(buckets.len() > 512, "{} of 1024 buckets used", buckets.len());
    }

    #[test]
    fn an_entry_gives_back_its_exact_timestamp() {
        let hashes = [0, 9, u64::MAX, 0xdead_beef_0000_003f, OFFSET];
        let stamps = [0, 63, 64, 127, 100_000, u32::MAX - 64, u32::MAX - 63, u32::MAX - 1, u32::MAX];
        for client_hash in hashes {
            for timestamp in stamps {
                let fp = ReplayFingerprint { timestamp, client_hash, auth_hash: 7 };
                let e = Entry::new(&fp);
                assert_eq!(e.timestamp(timestamp >> GEN_SHIFT), timestamp, "{client_hash:x} {timestamp}");
            }
        }
        // Offsets 0 and 63 of one generation are two entries, not one.
        let at = |timestamp| Entry::new(&ReplayFingerprint { timestamp, client_hash: u64::MAX, auth_hash: 1 });
        assert_ne!(at(64), at(127));
    }

    #[test]
    fn one_bit_of_either_hash_changes_the_stored_word() {
        // Every bit of `auth_hash` and every bit of `client_hash` above the
        // offset reaches the word, from several starting points.
        let bases = [0, 1, 9, u64::MAX, OFFSET, 0xdead_beef_0000_003f, 0x8000_0000_0000_0000, 0x0123_4567_89ab_cdef];
        for client_hash in bases {
            for auth_hash in bases {
                for timestamp in [0, 100, 127] {
                    let fp = ReplayFingerprint { timestamp, client_hash, auth_hash };
                    let e = Entry::new(&fp);
                    for bit in 0..64 {
                        let flipped = ReplayFingerprint { auth_hash: auth_hash ^ 1 << bit, ..fp };
                        assert_ne!(Entry::new(&flipped), e, "auth bit {bit} of {auth_hash:x}");
                        if bit >= GEN_SHIFT {
                            let flipped = ReplayFingerprint { client_hash: client_hash ^ 1 << bit, ..fp };
                            assert_ne!(Entry::new(&flipped), e, "client bit {bit} of {client_hash:x}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_dense_second_is_accepted_whole_then_refused_whole() {
        // 2^20 distinct authenticators from 64 clients, all under one
        // timestamp: 58 bits keep every one apart, and every one is then
        // caught as a replay.
        const CLIENTS: u32 = 64;
        const PER_CLIENT: u32 = 1 << 14;
        let rc = ReplayCache::new();
        let ts = 1_000_000;
        let fp = |c: u32, i: u32| {
            let client = format!("user{c}");
            ReplayFingerprint::new((&client, "", "ATHENA.MIT.EDU"), ts, &(c * PER_CLIENT + i).to_be_bytes())
        };
        for c in 0..CLIENTS {
            for i in 0..PER_CLIENT {
                assert!(rc.check_fingerprint(fp(c, i), ts), "client {c} request {i} refused");
            }
        }
        assert_eq!(rc.len(), (CLIENTS * PER_CLIENT) as usize);
        for c in 0..CLIENTS {
            for i in 0..PER_CLIENT {
                assert!(!rc.check_fingerprint(fp(c, i), ts), "client {c} request {i} replayed");
            }
        }
        assert_eq!(rc.replay_hits(), u64::from(CLIENTS * PER_CLIENT));
    }

    #[test]
    fn a_purge_at_the_top_of_the_clock_cuts_exactly() {
        // Timestamps at the top of the u32 range: the generation key plus
        // the offset must not wrap, and the straddling `retain` must keep
        // exactly the entries at or past the cutoff, which falls at offset
        // 39 of its generation.
        let rc = ReplayCache::new();
        let (top, first) = (u32::MAX, u32::MAX - 700);
        for ts in first..=top {
            assert!(rc.check_and_insert(one_stripe_key("bcn@A", ts, u64::from(ts)), first));
        }
        assert_eq!(rc.evictions(), 0);
        let cutoff = top - 2 * MAX_SKEW_SECS;
        assert_eq!(cutoff & OFFSET as u32, 39);
        assert!(!rc.check_and_insert(one_stripe_key("bcn@A", top, u64::from(top)), top), "replay");
        assert_eq!(rc.evictions(), u64::from(cutoff - first));
        assert_eq!(rc.len(), (top - cutoff + 1) as usize);
        assert!(!rc.check_and_insert(one_stripe_key("bcn@A", cutoff, u64::from(cutoff)), top), "kept");
        assert!(rc.check_and_insert(one_stripe_key("bcn@A", cutoff - 1, u64::from(cutoff - 1)), top), "gone");
    }

    /// Heap bytes of a generation's table: one entry and one control byte
    /// per bucket, plus the trailing control group. Buckets come from the
    /// capacity the table reports (7/8 of the buckets past 8, one less
    /// than the buckets up to 8).
    fn table_bytes(set: &Generation) -> usize {
        let buckets = match set.capacity() {
            0 => return 0,
            cap if cap < 8 => cap + 1,
            cap => cap / 7 * 8,
        };
        buckets * (std::mem::size_of::<Entry>() + 1) + 16
    }

    #[test]
    fn a_full_window_costs_at_most_12_bytes_an_entry() {
        // ticket_steady's caches hold 140k–180k entries: 200 requests a
        // second over 900 s. The 24-byte fingerprint stored itself at
        // 31–34 bytes an entry, the 16-byte entry at 21.8.
        const PER_SECOND: u32 = 200;
        let rc = ReplayCache::new();
        let base = 1_000_000;
        for ts in base..base + 900 {
            for i in 0..PER_SECOND {
                let auth = (ts * PER_SECOND + i).to_be_bytes();
                assert!(rc.check_and_insert(key("bcn@ATHENA.MIT.EDU", ts, &auth), base));
            }
        }
        assert_eq!(rc.len(), 180_000);
        let bytes: usize =
            rc.stripes.iter().map(|s| s.lock().gens.values().map(table_bytes).sum::<usize>()).sum();
        let per_entry = bytes as f64 / 180_000.0;
        assert!(per_entry <= 12.0, "{per_entry:.1} bytes an entry");
    }
}
