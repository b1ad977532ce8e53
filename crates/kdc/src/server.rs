//! The authentication server (paper §2.2, §4): both the initial-ticket
//! service (Fig. 5) and the ticket-granting service (Fig. 8) in one
//! request handler, as at Athena.
//!
//! The server "performs read-only operations on the Kerberos database,
//! namely, the authentication of principals, and generation of session
//! keys. Since this server does not modify the Kerberos database, it may
//! run on a machine housing a read-only copy" — a slave (Fig. 10).
//!
//! ## Concurrency model (DESIGN.md §15)
//!
//! Request handling takes `&self`: every exchange takes one read lock to
//! clone one `Arc` to the KDC's state — an immutable [`KdcSnapshot`] of the
//! principal store plus the telemetry hooks — and never holds a lock
//! across crypto. Writers (`with_db_mut`, `install_db`) mutate the primary
//! database under its own mutex, take a new snapshot of it (over a
//! `MemStore` that shares the whole tree with the primary), and swap the
//! `Arc` — readers observe either the old or the new database, never a
//! half-installed one. The replay cache is lock-striped by authenticator
//! digest ([`ReplayCache`]), and journal output can be sharded per
//! worker and merged deterministically (`krb_telemetry::merge_journals`).

use crate::realm::RealmConfig;
use kerberos::msg::{seal_kdc_rep, AsReqView, MessageView, TgsReqView};
use kerberos::{
    krb_rd_req_in, remaining_life, ApScratch, ErrorCode, HostAddr, KrbResult, Principal,
    ReplayCache, TicketView, ERROR_KINDS,
};
use krb_kdb::{
    MemStore, PrincipalDb, PrincipalEntry, PrincipalEntryView, Store, ATTR_DISABLED, ATTR_NO_TGS,
};
use krb_crypto::{KeyGenerator, Scheduled};
use krb_telemetry::{
    set_joined_field, ClockUs, Component, Counter, EventKind, Field, Histogram, Journal, Registry,
    SpaceSaving, TraceId,
};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Time source: the KDC reads its own host clock.
pub type Clock = Arc<dyn Fn() -> u32 + Send + Sync>;

/// A clock pinned to a constant (unit tests).
pub fn fixed_clock(t: u32) -> Clock {
    Arc::new(move || t)
}

/// A clock backed by a shared atomic (discrete-event simulations).
pub fn shared_clock(cell: Arc<std::sync::atomic::AtomicU32>) -> Clock {
    Arc::new(move || cell.load(std::sync::atomic::Ordering::SeqCst))
}

/// Whether this KDC holds the master database or a propagated copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KdcRole {
    /// Houses the definitive database (one per realm).
    Master,
    /// Read-only copy fed by `kprop` (any number).
    Slave,
}

/// Per-kind error counts (see [`ERROR_KINDS`] for what lands where).
#[derive(Default, Debug, Clone, Copy)]
pub struct ErrorKindCounts {
    /// Wrong or unusable password / null key.
    pub bad_password: u64,
    /// Client or service not in the database.
    pub unknown_principal: u64,
    /// Expired ticket or principal registration.
    pub expired_ticket: u64,
    /// Replayed authenticator.
    pub replay: u64,
    /// Clock skew outside the §4.3 window.
    pub skew: u64,
    /// Undecodable or wrong-version request.
    pub decode: u64,
    /// Everything else.
    pub other: u64,
}

/// Point-in-time request counts (E9 replication experiment reads these).
///
/// This is a *thin view* over the telemetry registry — the KDC's only
/// counting substrate is `krb-telemetry`; [`Kdc::stats`] materializes
/// this snapshot from the registered counters on demand.
#[derive(Default, Debug, Clone, Copy)]
pub struct KdcStats {
    /// Initial-ticket requests served.
    pub as_ok: u64,
    /// Ticket-granting requests served.
    pub tgs_ok: u64,
    /// Requests answered with an error (sum over all kinds).
    pub errors: u64,
    /// The same errors broken down by taxonomy kind.
    pub errors_by_kind: ErrorKindCounts,
}

/// Bounded per-principal heavy-hitter tables (`krb-mon`'s `TopPrincipals`
/// frame). Space-saving sketches with a fixed capacity `K`, so telemetry
/// memory stays O(K) however many principals the realm holds (ROADMAP
/// item 2 targets 10^6+). Cloning yields handles onto the same tables.
///
/// Deliberately *not* published into the registry: concurrent eviction
/// makes the monitored set near the tail schedule-dependent, which would
/// break [`Registry::render`]'s byte-determinism contract. The sketches
/// are surfaced through `MonService` frames only.
#[derive(Clone, Debug)]
pub struct KdcTopStats {
    /// Client principals by successful AS exchanges.
    pub as_clients: SpaceSaving,
    /// Target services (`name.instance`) by successful TGS exchanges.
    pub tgs_services: SpaceSaving,
    /// Exchange subjects (client or service) by failed exchanges.
    pub error_principals: SpaceSaving,
}

impl KdcTopStats {
    /// Three tables of capacity `k` each.
    pub fn new(k: usize) -> Self {
        KdcTopStats {
            as_clients: SpaceSaving::new(k),
            tgs_services: SpaceSaving::new(k),
            error_principals: SpaceSaving::new(k),
        }
    }
}

/// The KDC's telemetry handles, registered under `kdc_*` names.
#[derive(Clone)]
struct KdcMetrics {
    as_ok: Counter,
    tgs_ok: Counter,
    errors: Counter,
    /// One counter per [`ERROR_KINDS`] entry, same order.
    error_kinds: [Counter; 7],
    as_latency_us: Histogram,
    tgs_latency_us: Histogram,
    sched_hits: Counter,
    sched_misses: Counter,
    /// Snapshots not taken because the store failed to read back; the
    /// previous one kept serving.
    snapshot_failures: Counter,
    /// Snapshot swaps installed.
    store_swaps: Counter,
}

impl KdcMetrics {
    fn new(registry: &Registry) -> Self {
        let kind_counter =
            |kind: &str| registry.counter(&format!("kdc_error_total{{kind=\"{kind}\"}}"));
        KdcMetrics {
            as_ok: registry.counter("kdc_as_ok_total"),
            tgs_ok: registry.counter("kdc_tgs_ok_total"),
            errors: registry.counter("kdc_error_total"),
            error_kinds: ERROR_KINDS.map(kind_counter),
            as_latency_us: registry.histogram("kdc_as_latency_us"),
            tgs_latency_us: registry.histogram("kdc_tgs_latency_us"),
            sched_hits: registry.counter("kdc_sched_cache_hits_total"),
            sched_misses: registry.counter("kdc_sched_cache_misses_total"),
            snapshot_failures: registry.counter("kdc_snapshot_failures_total"),
            store_swaps: registry.counter("kdc_store_swaps_total"),
        }
    }
}

/// Where the KDC's journal events go.
#[derive(Clone)]
enum JournalSink {
    /// No journal attached (the default).
    None,
    /// Everything into one shared journal.
    Single(Arc<Journal>),
    /// One journal per worker shard, selected by the request's trace id
    /// (`trace % nshards`; traceless events land on shard 0). Each
    /// worker's journal then carries exactly its own logins' KDC hops,
    /// and `merge_journals` reassembles one deterministic timeline.
    Sharded(Vec<Arc<Journal>>),
}

impl JournalSink {
    /// The journal an event of this trace goes to, if one is attached.
    fn route(&self, trace: Option<TraceId>) -> Option<&Journal> {
        match self {
            JournalSink::None => None,
            JournalSink::Single(journal) => Some(journal),
            JournalSink::Sharded(shards) => {
                Some(&shards[trace.map_or(0, |t| (t.0 % shards.len() as u64) as usize)])
            }
        }
    }
}

/// The KDC's observability bundle: registry, counter handles, latency
/// clock and journal sink.
#[derive(Clone)]
struct KdcHooks {
    registry: Arc<Registry>,
    metrics: KdcMetrics,
    /// Microsecond clock for latencies and journal stamps. Defaults to
    /// the second-level protocol [`Clock`] scaled up (deterministic
    /// wherever the protocol clock is); a harness measuring real hardware
    /// injects `krb_telemetry::wall_clock_us()` instead.
    clock_us: ClockUs,
    journal: JournalSink,
}

/// Everything a request reads, swapped as one: the read snapshot, the
/// hooks and the heavy-hitter tables. A request takes one read lock and
/// one `Arc` clone for all three; every setter rewrites its part inside
/// the write guard, so concurrent setters never drop each other's change.
#[derive(Clone)]
struct KdcState {
    snapshot: Arc<KdcSnapshot>,
    hooks: KdcHooks,
    /// Absent until [`Kdc::enable_top_stats`].
    top: Option<KdcTopStats>,
}

/// How many principal-key schedules the KDC keeps warm. Small on purpose:
/// the hot set is the krbtgt key (cached separately), a handful of popular
/// services, and recently active users.
const SCHED_CACHE_CAP: usize = 64;

/// Cache key: a schedule is valid only for one version of one principal's
/// key, so a `change_key` (version bump) can never serve a stale schedule.
type SchedKey = (String, String, u8);

/// A bounded LRU of principal-key schedules. Eviction drops the cache's
/// `Arc<Scheduled>`; once the last reference is gone, `Scheduled::drop`
/// zeroizes the subkeys — the zeroize-on-evict contract (DESIGN.md §10).
struct SchedCache {
    /// Most recently used at the back.
    entries: Vec<(SchedKey, Arc<Scheduled>)>,
}

impl SchedCache {
    fn new() -> Self {
        SchedCache { entries: Vec::new() }
    }

    /// Probe by borrowed components: a hit copies no key.
    fn get(&mut self, name: &str, instance: &str, kvno: u8) -> Option<Arc<Scheduled>> {
        // From the most recently used end: keys are unique, so the first
        // match from either end is the same entry.
        let pos = self
            .entries
            .iter()
            .rposition(|((n, i, v), _)| n == name && i == instance && *v == kvno)?;
        let entry = self.entries.remove(pos);
        let sched = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(sched)
    }

    fn insert(&mut self, key: SchedKey, sched: Arc<Scheduled>) {
        if self.entries.len() >= SCHED_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push((key, sched));
    }
}

/// One immutable, atomically-swapped view of the principal store. Requests
/// clone an `Arc` to the current snapshot and serve entirely from it; a
/// write takes a *new* snapshot and swaps the `Arc`, so no request ever
/// observes a half-installed database. The scheduled-key LRU lives inside
/// the snapshot — a swap invalidates it wholesale, which is exactly the
/// old `db_mut`/`install_db` invalidation contract.
pub struct KdcSnapshot {
    /// The principal records as of the swap, shared master key. Over a
    /// `MemStore` primary it shares every tree node the writes since have
    /// not touched; over any other store it is a copy.
    db: PrincipalDb<MemStore>,
    /// The `krbtgt` entry and its key schedule, warmed at snapshot build —
    /// every TGS request verifies against this key. `None` only when the
    /// principal is absent (an empty database being provisioned).
    tgt_cache: Option<(PrincipalEntry, Scheduled)>,
    /// Bounded LRU of other principal-key schedules, keyed by
    /// `(name, instance, key_version)`. Per-snapshot: dies with it.
    sched_cache: Mutex<SchedCache>,
}

impl KdcSnapshot {
    /// The principal records this snapshot serves from.
    pub fn db(&self) -> &PrincipalDb<MemStore> {
        &self.db
    }
}

/// One authentication server instance. All request handling takes `&self`
/// — wrap in an `Arc` and serve from as many threads as you like.
pub struct Kdc<S: Store> {
    /// The writable source of truth (possibly file-backed). Only writers
    /// touch it; every mutation swaps in a new [`Kdc::snapshot`] of it.
    primary: Mutex<PrincipalDb<S>>,
    /// The current read snapshot, hooks and top tables; requests clone
    /// the `Arc` and go lock-free.
    state: RwLock<Arc<KdcState>>,
    config: RealmConfig,
    clock: Clock,
    /// Session-key generator. Serialized so the draw sequence from a seed
    /// is well-defined; the critical section is eight bytes of RNG output.
    keygen: Mutex<KeyGenerator<StdRng>>,
    replay: ReplayCache,
    role: KdcRole,
}

impl<S: Store> Kdc<S> {
    /// Create a KDC over an opened principal database. A fresh telemetry
    /// registry is attached; latencies are timed by the same clock
    /// the protocol reads (scaled to µs), so simulated runs stay
    /// deterministic — see [`Kdc::set_telemetry`] to override either.
    pub fn new(db: PrincipalDb<S>, config: RealmConfig, clock: Clock, role: KdcRole, seed: u64) -> Self {
        let registry = Registry::shared();
        let metrics = KdcMetrics::new(&registry);
        let replay = ReplayCache::new();
        replay.publish(&registry, "kdc");
        let protocol_clock = Arc::clone(&clock);
        let clock_us: ClockUs = Arc::new(move || u64::from(protocol_clock()) * 1_000_000);
        // No last good state to fall back on here: a store that cannot be
        // read starts the server on an empty realm (every request answers
        // `KdcPrUnknown`) until a write or install succeeds.
        let mem = db.snapshot_mem().unwrap_or_else(|_| {
            metrics.snapshot_failures.inc();
            PrincipalDb::empty_mem(db.master_key())
        });
        let snapshot = build_snapshot(mem, &config.realm);
        let hooks = KdcHooks { registry, metrics, clock_us, journal: JournalSink::None };
        Kdc {
            primary: Mutex::new(db),
            state: RwLock::new(Arc::new(KdcState {
                snapshot: Arc::new(snapshot),
                hooks,
                top: None,
            })),
            config,
            clock,
            keygen: Mutex::new(KeyGenerator::new(StdRng::seed_from_u64(seed))),
            replay,
            role,
        }
    }

    fn state(&self) -> Arc<KdcState> {
        Arc::clone(&self.state.read())
    }

    /// Rewrite the state inside the write guard. In-flight requests keep
    /// the `Arc` they cloned; the state is copied only when one is held.
    fn update(&self, f: impl FnOnce(&mut KdcState)) {
        f(Arc::make_mut(&mut self.state.write()));
    }

    /// Start maintaining bounded per-principal heavy-hitter tables of
    /// capacity `k` (see [`KdcTopStats`]). Idempotent per call — calling
    /// again resets the tables with the new capacity.
    pub fn enable_top_stats(&self, k: usize) -> KdcTopStats {
        let stats = KdcTopStats::new(k);
        self.update(|state| state.top = Some(stats.clone()));
        stats
    }

    /// Handles onto the heavy-hitter tables, if enabled.
    pub fn top_stats(&self) -> Option<KdcTopStats> {
        self.state.read().top.clone()
    }

    /// The current read snapshot. The returned `Arc` stays valid (and
    /// internally consistent) for as long as the caller holds it, even
    /// across concurrent `install_db`/`with_db_mut` swaps.
    pub fn snapshot(&self) -> Arc<KdcSnapshot> {
        Arc::clone(&self.state.read().snapshot)
    }

    /// The registry this KDC reports into (render it for a snapshot).
    pub fn telemetry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.read().hooks.registry)
    }

    /// Report into a caller-provided registry and time latencies with a
    /// caller-provided microsecond clock. Counts recorded so far are
    /// dropped (call right after construction); the replay cache's
    /// counters and the swap counter rebind to the new registry's storage
    /// — several KDCs sharing one registry (a master and its slaves)
    /// increment shared counters rather than shadowing each other.
    pub fn set_telemetry(&self, registry: Arc<Registry>, clock_us: ClockUs) {
        self.update(|state| {
            self.replay.publish(&registry, "kdc");
            state.hooks.metrics = KdcMetrics::new(&registry);
            state.hooks.registry = registry;
            state.hooks.clock_us = clock_us;
        });
    }

    /// Override only the latency clock (keep the auto-created registry).
    pub fn set_clock_us(&self, clock_us: ClockUs) {
        self.update(|state| state.hooks.clock_us = clock_us);
    }

    /// Attach a structured event journal. Exchange outcomes (and their
    /// per-kind failures) are recorded into it, stamped with the KDC's
    /// microsecond clock and the request's trace id.
    pub fn set_journal(&self, journal: Arc<Journal>) {
        self.set_sink(JournalSink::Single(journal));
    }

    /// Attach one journal per worker shard. Events route by
    /// `trace % shards.len()` (shard 0 for traceless events), so each
    /// worker journal carries exactly the KDC hops of its own logins;
    /// `krb_telemetry::merge_journals` rebuilds one deterministic
    /// timeline. An empty vector detaches the journal.
    pub fn set_journal_shards(&self, shards: Vec<Arc<Journal>>) {
        if shards.is_empty() {
            self.set_sink(JournalSink::None);
        } else {
            self.set_sink(JournalSink::Sharded(shards));
        }
    }

    fn set_sink(&self, sink: JournalSink) {
        self.update(|state| state.hooks.journal = sink);
    }

    /// Point-in-time counters, materialized from the registry.
    pub fn stats(&self) -> KdcStats {
        let state = self.state();
        let metrics = &state.hooks.metrics;
        let k = &metrics.error_kinds;
        KdcStats {
            as_ok: metrics.as_ok.get(),
            tgs_ok: metrics.tgs_ok.get(),
            errors: metrics.errors.get(),
            errors_by_kind: ErrorKindCounts {
                bad_password: k[0].get(),
                unknown_principal: k[1].get(),
                expired_ticket: k[2].get(),
                replay: k[3].get(),
                skew: k[4].get(),
                decode: k[5].get(),
                other: k[6].get(),
            },
        }
    }

    /// The realm this KDC serves.
    pub fn realm(&self) -> &str {
        &self.config.realm
    }

    /// Master or slave.
    pub fn role(&self) -> KdcRole {
        self.role
    }

    /// Snapshot the database as kprop dump text. Serves from the read
    /// snapshot — no lock is held while the text is built, so a slow
    /// propagation round never stalls authentication (L8 lock discipline).
    pub fn dump_text(&self) -> Result<String, krb_kdb::DbError> {
        let snap = self.snapshot();
        krb_kdb::dump::dump(snap.db())
    }

    /// Run `f` against the writable database — only meaningful on the
    /// master, where the KDBM runs (paper §5: "changes may only be made
    /// to the master"); `None` on a slave. When `f` returns, a new
    /// snapshot is taken and swapped in: readers switch atomically from
    /// the pre-write view to the post-write view, and every cached key
    /// schedule (krbtgt included — a rollover must not serve a stale
    /// schedule) dies with the old snapshot. If the store cannot be read
    /// back, the previous snapshot keeps serving and
    /// `kdc_snapshot_failures_total` counts it.
    pub fn with_db_mut<R>(&self, f: impl FnOnce(&mut PrincipalDb<S>) -> R) -> Option<R> {
        match self.role {
            KdcRole::Slave => None,
            KdcRole::Master => {
                let mut db = self.primary.lock();
                let out = f(&mut db);
                match db.snapshot_mem() {
                    Ok(mem) => self.swap_in(build_snapshot(mem, &self.config.realm)),
                    Err(_) => self.state().hooks.metrics.snapshot_failures.inc(),
                }
                Some(out)
            }
        }
    }

    /// Replace the database contents (slave side of propagation). The new
    /// snapshot is taken *before* the swap: a request racing the install
    /// serves either the complete old database or the complete new one.
    /// A `db` whose store cannot be read is refused whole — the previous
    /// primary and snapshot stay, `kdc_snapshot_failures_total` counts it.
    pub fn install_db(&self, db: PrincipalDb<S>) {
        match db.snapshot_mem() {
            Ok(mem) => {
                let snap = build_snapshot(mem, &self.config.realm);
                let mut primary = self.primary.lock();
                *primary = db;
                self.swap_in(snap);
            }
            Err(_) => self.state().hooks.metrics.snapshot_failures.inc(),
        }
    }

    fn swap_in(&self, snap: KdcSnapshot) {
        self.update(|state| {
            state.snapshot = Arc::new(snap);
            state.hooks.metrics.store_swaps.inc();
        });
    }

    /// Handle one datagram; always returns a reply (success or KRB_ERROR).
    /// End-to-end handling latency (decode through encode, success or
    /// error) is recorded per exchange into `kdc_as_latency_us` /
    /// `kdc_tgs_latency_us`.
    pub fn handle(&self, request: &[u8], sender_addr: HostAddr) -> Vec<u8> {
        self.handle_traced(request, sender_addr, None)
    }

    /// [`Kdc::handle`] with the request's out-of-band trace id: journal
    /// events for this exchange (success or per-kind failure) carry it, so
    /// `krb-trace` can place the KDC hop inside the login's timeline.
    pub fn handle_traced(
        &self,
        request: &[u8],
        sender_addr: HostAddr,
        trace: Option<TraceId>,
    ) -> Vec<u8> {
        let state = self.state();
        let (snap, hooks) = (&*state.snapshot, &state.hooks);
        // Three clock reads, in this order: start, end (once decoding has
        // named the exchange) and the journal stamp.
        let started_at = (hooks.clock_us)();
        // The request is read where it lies: `req` borrows `request`.
        let (result, subject) = match MessageView::decode(request) {
            Ok(MessageView::AsReq(req)) => {
                (self.handle_as(snap, hooks, &req, sender_addr), Some(Subject::Client([req.cname])))
            }
            Ok(MessageView::TgsReq(req)) => (
                self.handle_tgs(snap, hooks, &req, sender_addr),
                Some(Subject::Service([req.sname, req.sinstance])),
            ),
            Ok(_) => (Err(ErrorCode::RdApUndec), None),
            Err(e) => (Err(e), None),
        };
        // A request that never named an exchange records no latency. A
        // traced one leaves its trace as its bucket's exemplar, linking
        // render spikes to timelines.
        if let Some(subject) = subject {
            let elapsed = (hooks.clock_us)().saturating_sub(started_at);
            let histogram = match subject {
                Subject::Client(_) => &hooks.metrics.as_latency_us,
                Subject::Service(_) => &hooks.metrics.tgs_latency_us,
            };
            histogram.record_with_trace(elapsed, trace);
        }
        // The subject — the client principal (AS) or the target service
        // (TGS), never key material — keys the heavy-hitter tables and the
        // journal event.
        let journal = hooks.journal.route(trace);
        match result {
            Ok(reply) => {
                if let Some(subject) = subject {
                    let top = state.top.as_ref();
                    let (kind, table) = match subject {
                        Subject::Client(_) => (EventKind::AsOk, top.map(|t| &t.as_clients)),
                        Subject::Service(_) => (EventKind::TgsOk, top.map(|t| &t.tgs_services)),
                    };
                    if let Some(table) = table {
                        subject.observe(table);
                    }
                    if let Some(journal) = journal {
                        let at_us = (hooks.clock_us)();
                        journal.record_with(at_us, trace, Component::Kdc, kind, |fields| {
                            subject.fill(fields)
                        });
                    }
                }
                reply
            }
            Err(code) => {
                hooks.metrics.errors.inc();
                hooks.metrics.error_kinds[code.kind_index()].inc();
                if let (Some(top), Some(subject)) = (&state.top, subject) {
                    subject.observe(&top.error_principals);
                }
                if let Some(journal) = journal {
                    let mut fields = Vec::with_capacity(2 + usize::from(subject.is_some()));
                    fields.push(("err_kind", Field::from(code.kind())));
                    fields.push(("code", Field::from(code as u8)));
                    if let Some(subject) = subject {
                        fields.push(subject.field());
                    }
                    journal.record((hooks.clock_us)(), trace, Component::Kdc, EventKind::KdcErr, fields);
                }
                MessageView::Err { code, text: code.describe() }.encode()
            }
        }
    }

    /// The initial ticket exchange (Fig. 5). The request is in the clear;
    /// the reply is "encrypted in the client's private key" so that only
    /// someone knowing the password can use it.
    fn handle_as(
        &self,
        snap: &KdcSnapshot,
        hooks: &KdcHooks,
        req: &AsReqView<'_>,
        sender: HostAddr,
    ) -> KrbResult<Vec<u8>> {
        let realm = self.config.realm.as_str();
        if req.crealm != realm {
            return Err(ErrorCode::KdcUnknownRealm);
        }
        let now = (self.clock)();
        let (centry, csched) = lookup_sched(snap, hooks, req.cname, req.cinstance, now)?;
        // For the TGT request the service is krbtgt.<realm>; for AS-only
        // services (KDBM) it is the service itself. Cross-realm TGTs are
        // NOT available from the AS — only via the TGS.
        let (sentry, ssched) = lookup_sched(snap, hooks, req.sname, req.sinstance, now)?;
        Principal::validate(req.cname, req.cinstance, req.crealm)?;
        Principal::validate(req.sname, req.sinstance, realm)?;

        let session_key = self.keygen.lock().generate();
        let life = req
            .life
            .min(centry.max_life)
            .min(effective_max_life(sentry.max_life, self.config.default_max_life));
        let ticket = TicketView {
            sname: req.sname,
            sinstance: req.sinstance,
            cname: req.cname,
            cinstance: req.cinstance,
            crealm: req.crealm,
            // The ticket is bound to the workstation the request came from:
            // the packet's source address goes into it (Fig. 3 "addr").
            addr: sender,
            timestamp: now,
            life,
            session_key: session_key.as_bytes(),
        };
        let reply = seal_kdc_rep(&ticket, realm, centry.key_version, req.ctime, &ssched, &csched)
            .map_err(|_| ErrorCode::KdcGenErr)?;
        hooks.metrics.as_ok.inc();
        Ok(reply)
    }

    /// The ticket-granting exchange (Fig. 8): verify the TGT + authenticator
    /// exactly as any server verifies an AP_REQ, then issue a ticket for the
    /// target with lifetime "the minimum of the remaining life for the
    /// ticket-granting ticket and the default for the service".
    fn handle_tgs(
        &self,
        snap: &KdcSnapshot,
        hooks: &KdcHooks,
        req: &TgsReqView<'_>,
        sender: HostAddr,
    ) -> KrbResult<Vec<u8>> {
        let realm = self.config.realm.as_str();
        let now = (self.clock)();
        // Which key sealed the presented TGT? Ours — served from the
        // snapshot's warm cache, no lookup and no schedule build — or an
        // inter-realm key (cold path: schedule built on the spot).
        let foreign = req.ap.realm != realm;
        let inter_realm;
        let verifier_sched = if foreign {
            let k = self.config.inter_realm_key(req.ap.realm).ok_or(ErrorCode::KdcUnknownRealm)?;
            inter_realm = Scheduled::new(k);
            &inter_realm
        } else {
            tgt_sched(snap, now)?
        };
        // The TGT and the authenticator are opened and read in `scratch`,
        // which wipes them when this function returns.
        let mut scratch = ApScratch::default();
        let verified = krb_rd_req_in(
            &mut scratch,
            &req.ap,
            ("krbtgt", realm),
            verifier_sched,
            sender,
            now,
            &self.replay,
        )?;
        // "the remote ticket-granting server recognizes that the request is
        // not from its own realm" — the client keeps its original realm.
        let (cname, cinstance, crealm) = verified.ticket.client();
        if foreign && crealm == realm {
            // A TGT sealed in an inter-realm key must name a client from
            // the foreign realm; one claiming to be local is inconsistent
            // (a forgery attempt, not a programming error — reject it, do
            // not assert).
            return Err(ErrorCode::RdApIncon);
        }

        // Target may be a service of this realm, or the TGS of a *remote*
        // realm ("a user ... can request a ticket-granting ticket from the
        // local authentication server for the ticket-granting server in the
        // remote realm", §7.2) — sealed in the shared inter-realm key.
        let cross_realm_target = req.sname == "krbtgt" && req.sinstance != realm;
        let (ssched, smax_life, skvno) = if cross_realm_target {
            // §7.2's closing paragraph: authenticating "through a series of
            // realms" would require recording the entire path ("A says that
            // B says that C says..."), which V4 tickets cannot express. So
            // a client that is itself foreign may not hop onward: only
            // locally-authenticated clients get cross-realm TGTs.
            if foreign {
                return Err(ErrorCode::KdcUnknownRealm);
            }
            let k = self
                .config
                .inter_realm_key(req.sinstance)
                .ok_or(ErrorCode::KdcUnknownRealm)?;
            (Arc::new(Scheduled::new(k)), self.config.default_max_life, 1)
        } else {
            let (sentry, sched) = lookup_sched(snap, hooks, req.sname, req.sinstance, now)?;
            if sentry.attributes & ATTR_NO_TGS != 0 {
                // §5.1: "the ticket-granting service will not issue tickets
                // for it. Instead, the authentication service itself must be
                // used."
                return Err(ErrorCode::KdcNoTgsForService);
            }
            (
                sched,
                effective_max_life(sentry.max_life, self.config.default_max_life),
                sentry.key_version,
            )
        };
        Principal::validate(req.sname, req.sinstance, realm)?;

        let session_key = self.keygen.lock().generate();
        let tgt_remaining = remaining_life(verified.ticket.timestamp, verified.ticket.life, now);
        let ticket = TicketView {
            sname: req.sname,
            sinstance: req.sinstance,
            cname,
            cinstance,
            crealm,
            addr: sender,
            timestamp: now,
            life: req.life.min(tgt_remaining).min(smax_life),
            session_key: session_key.as_bytes(),
        };
        // "the reply is encrypted in the session key that was part of the
        // ticket-granting ticket" — no password needed, and the schedule
        // was already built to open the authenticator; reuse it here.
        let nonce = verified.authenticator.timestamp;
        let reply = seal_kdc_rep(&ticket, realm, skvno, nonce, &ssched, &verified.session_sched)
            .map_err(|_| ErrorCode::KdcGenErr)?;
        hooks.metrics.tgs_ok.inc();
        Ok(reply)
    }
}

/// Whom an exchange is about, as named in its request: the parts its
/// journal value and heavy-hitter key join with `.`.
#[derive(Clone, Copy)]
enum Subject<'a> {
    /// AS: the client's primary name.
    Client([&'a str; 1]),
    /// TGS: the target service's name and instance.
    Service([&'a str; 2]),
}

impl<'a> Subject<'a> {
    /// The journal field this subject is recorded under, and its parts.
    fn named(&self) -> (&'static str, &[&'a str]) {
        match self {
            Subject::Client(parts) => ("client", parts),
            Subject::Service(parts) => ("service", parts),
        }
    }

    /// Make `fields` this subject's one journal field, reusing the storage
    /// already in it.
    fn fill(self, fields: &mut Vec<(&'static str, Field)>) {
        let (key, parts) = self.named();
        set_joined_field(fields, key, parts);
    }

    /// This subject's journal field, freshly allocated.
    fn field(self) -> (&'static str, Field) {
        let (key, parts) = self.named();
        (key, Field::from(parts.join(".")))
    }

    /// Count this subject once in `table`.
    fn observe(self, table: &SpaceSaving) {
        table.observe(&self.named().1.join("."));
    }
}

/// Wrap the records a snapshot serves from with cold per-snapshot caches
/// (krbtgt's schedule warmed).
fn build_snapshot(db: PrincipalDb<MemStore>, realm: &str) -> KdcSnapshot {
    let tgt_cache = warm_tgt_cache(&db, realm);
    KdcSnapshot {
        db,
        tgt_cache,
        sched_cache: Mutex::new(SchedCache::new()),
    }
}

/// Look up a principal in the snapshot and hand back its record plus its
/// key schedule, served from the snapshot's LRU when the
/// `(name, instance, key_version)` tuple has been seen before.
///
/// The schedule build runs *outside* the cache lock (double-checked): two
/// threads may race to build the same schedule, but only one insert wins
/// and both get a correct schedule. Single-threaded, hit/miss totals are
/// exactly the old sequential counts.
fn lookup_sched<'a>(
    snap: &'a KdcSnapshot,
    hooks: &KdcHooks,
    name: &str,
    instance: &str,
    now: u32,
) -> KrbResult<(PrincipalEntryView<'a>, Arc<Scheduled>)> {
    let entry = match snap.db.get_ref(name, instance) {
        Ok(Some(e)) => e,
        Ok(None) => return Err(ErrorCode::KdcPrUnknown),
        Err(_) => return Err(ErrorCode::KdcGenErr),
    };
    if entry.attributes & ATTR_DISABLED != 0 {
        return Err(ErrorCode::KdcNullKey);
    }
    if entry.expiration < now {
        // Heuristic only used to pick between two error codes: services at
        // Athena carry a host instance.
        return Err(if name == "krbtgt" || !entry.instance.is_empty() {
            ErrorCode::KdcServiceExp
        } else {
            ErrorCode::KdcNameExp
        });
    }
    if let Some(sched) = snap.sched_cache.lock().get(entry.name, entry.instance, entry.key_version) {
        hooks.metrics.sched_hits.inc();
        return Ok((entry, sched));
    }
    // Miss: build the schedule with no lock held, then re-check.
    let key = snap.db.decrypt_key(&entry.key_encrypted);
    let sched = Arc::new(Scheduled::new(&key));
    let mut cache = snap.sched_cache.lock();
    if let Some(existing) = cache.get(entry.name, entry.instance, entry.key_version) {
        hooks.metrics.sched_hits.inc();
        return Ok((entry, existing));
    }
    hooks.metrics.sched_misses.inc();
    let cache_key = (entry.name.to_owned(), entry.instance.to_owned(), entry.key_version);
    cache.insert(cache_key, Arc::clone(&sched));
    Ok((entry, sched))
}

/// The krbtgt schedule, from the snapshot's warm cache. Policy checks
/// (disabled, expiration) still run per request on the cached entry — only
/// the lookup and the schedule build are amortized.
fn tgt_sched(snap: &KdcSnapshot, now: u32) -> KrbResult<&Scheduled> {
    let (entry, sched) = snap.tgt_cache.as_ref().ok_or(ErrorCode::KdcPrUnknown)?;
    if entry.attributes & ATTR_DISABLED != 0 {
        return Err(ErrorCode::KdcNullKey);
    }
    if entry.expiration < now {
        return Err(ErrorCode::KdcServiceExp);
    }
    Ok(sched)
}

/// Fetch and schedule the realm's krbtgt key. `None` when the principal is
/// missing (an empty database being provisioned) — the next snapshot swap
/// after it is added warms the cache.
fn warm_tgt_cache(
    db: &PrincipalDb<MemStore>,
    realm: &str,
) -> Option<(PrincipalEntry, Scheduled)> {
    let entry = db.get("krbtgt", realm).ok().flatten()?;
    let key = db.decrypt_key(&entry.key_encrypted);
    Some((entry, Scheduled::new(&key)))
}

fn effective_max_life(principal_max: u8, realm_default: u8) -> u8 {
    if principal_max == 0 {
        realm_default
    } else {
        principal_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kerberos::{
        build_as_req, build_tgs_req_with, read_as_reply_with_password, read_tgs_reply_with, Message,
    };
    use krb_crypto::string_to_key;
    use krb_kdb::MemStore;

    const REALM: &str = "ATHENA.MIT.EDU";
    const WS: HostAddr = [18, 72, 0, 5];
    const NOW: u32 = 600_000_000;

    fn test_db() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("master"), NOW).unwrap();
        let far = NOW + 3 * 365 * 24 * 3600;
        db.add_principal("krbtgt", REALM, &string_to_key("tgs-secret"), far, 96, NOW, "init.").unwrap();
        db.add_principal("bcn", "", &string_to_key("bcn-password"), far, 96, NOW, "init.").unwrap();
        db.add_principal("rlogin", "priam", &string_to_key("rlogin-srvtab"), far, 96, NOW, "init.").unwrap();
        db
    }

    fn test_kdc() -> Kdc<MemStore> {
        Kdc::new(test_db(), RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Master, 7)
    }

    fn principal(p: &str) -> Principal {
        Principal::parse(p, REALM).unwrap()
    }

    #[test]
    fn as_exchange_full_round_trip() {
        let kdc = test_kdc();
        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);
        let req = build_as_req(&client, &tgs, 96, NOW);
        let reply = kdc.handle(&req, WS);
        let tgt = read_as_reply_with_password(&reply, "bcn-password", NOW).unwrap();
        assert_eq!(tgt.service.name, "krbtgt");
        assert_eq!(tgt.life, 96);
        assert_eq!(kdc.stats().as_ok, 1);
    }

    #[test]
    fn wrong_password_cannot_use_reply() {
        let kdc = test_kdc();
        let req = build_as_req(&principal("bcn"), &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = kdc.handle(&req, WS);
        assert_eq!(
            read_as_reply_with_password(&reply, "guess", NOW).unwrap_err(),
            ErrorCode::IntkBadPw
        );
    }

    #[test]
    fn unknown_principal_rejected() {
        let kdc = test_kdc();
        let req = build_as_req(&principal("mallory"), &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = kdc.handle(&req, WS);
        assert_eq!(
            read_as_reply_with_password(&reply, "x", NOW).unwrap_err(),
            ErrorCode::KdcPrUnknown
        );
        assert_eq!(kdc.stats().errors, 1);
    }

    #[test]
    fn expired_principal_rejected() {
        let kdc = test_kdc();
        kdc.with_db_mut(|db| {
            db.add_principal("olduser", "", &string_to_key("pw"), NOW - 1, 96, NOW, "t.")
                .unwrap();
        })
        .unwrap();
        let req = build_as_req(&principal("olduser"), &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = kdc.handle(&req, WS);
        assert_eq!(
            read_as_reply_with_password(&reply, "pw", NOW).unwrap_err(),
            ErrorCode::KdcNameExp
        );
    }

    #[test]
    fn full_three_phase_protocol() {
        // Figure 9: AS exchange, TGS exchange, then the ticket is usable.
        let kdc = test_kdc();
        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);

        let as_req = build_as_req(&client, &tgs, 96, NOW);
        let tgt = read_as_reply_with_password(&kdc.handle(&as_req, WS), "bcn-password", NOW).unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());

        let rlogin = principal("rlogin.priam");
        let tgs_req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW + 10, &rlogin, 96);
        let cred = read_tgs_reply_with(&kdc.handle(&tgs_req, WS), &tgt_sched, NOW + 10).unwrap();
        assert_eq!(cred.service, rlogin);
        assert_eq!(kdc.stats().tgs_ok, 1);

        // The issued ticket opens under the rlogin server's srvtab key and
        // names the right client.
        let t = cred.ticket.open_with(&Scheduled::new(&string_to_key("rlogin-srvtab"))).unwrap();
        assert_eq!(t.cname, "bcn");
        assert_eq!(t.addr, WS);
        assert_eq!(t.session_key, cred.session_key);
    }

    #[test]
    fn tgs_lifetime_is_min_of_remaining_and_default() {
        // §4.4: "The lifetime of the new ticket is the minimum of the
        // remaining life for the ticket-granting ticket and the default for
        // the service."
        let mut kdc = test_kdc();
        let client = principal("bcn");
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        // 6 hours later, 2 hours (24 units) remain on the TGT.
        let later = NOW + 6 * 3600;
        kdc.clock = fixed_clock(later);
        let rlogin = principal("rlogin.priam");
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, later, &rlogin, 96);
        let cred = read_tgs_reply_with(&kdc.handle(&req, WS), &tgt_sched, later).unwrap();
        assert_eq!(cred.life, 24, "remaining TGT life caps the new ticket");
    }

    #[test]
    fn tgs_rejects_expired_tgt() {
        let mut kdc = test_kdc();
        let client = principal("bcn");
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        let much_later = NOW + 9 * 3600; // past the 8-hour TGT
        kdc.clock = fixed_clock(much_later);
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, much_later, &principal("rlogin.priam"), 96);
        let err = read_tgs_reply_with(&kdc.handle(&req, WS), &tgt_sched, much_later).unwrap_err();
        assert_eq!(err, ErrorCode::RdApExp);
    }

    #[test]
    fn tgs_replay_detected() {
        let kdc = test_kdc();
        let client = principal("bcn");
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &principal("rlogin.priam"), 96);
        assert!(read_tgs_reply_with(&kdc.handle(&req, WS), &tgt_sched, NOW).is_ok());
        // Byte-identical resend (stolen off the wire).
        let err = read_tgs_reply_with(&kdc.handle(&req, WS), &tgt_sched, NOW).unwrap_err();
        assert_eq!(err, ErrorCode::RdApRepeat);
    }

    #[test]
    fn tgs_rejects_request_from_wrong_address() {
        let kdc = test_kdc();
        let client = principal("bcn");
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &principal("rlogin.priam"), 96);
        let attacker: HostAddr = [10, 66, 66, 66];
        let err = read_tgs_reply_with(&kdc.handle(&req, attacker), &tgt_sched, NOW).unwrap_err();
        assert_eq!(err, ErrorCode::RdApBadAddr);
    }

    #[test]
    fn foreign_realm_as_request_rejected() {
        let kdc = test_kdc();
        let foreign = Principal::parse("bcn@LCS.MIT.EDU", REALM).unwrap();
        let req = build_as_req(&foreign, &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = kdc.handle(&req, WS);
        assert_eq!(
            read_as_reply_with_password(&reply, "bcn-password", NOW).unwrap_err(),
            ErrorCode::KdcUnknownRealm
        );
    }

    #[test]
    fn no_tgs_flag_forces_as_only() {
        let kdc = test_kdc();
        kdc.with_db_mut(|db| {
            db.add_principal("changepw", "kerberos", &string_to_key("kdbm"), NOW * 2, 12, NOW, "i.").unwrap();
            let mut e = db.get("changepw", "kerberos").unwrap().unwrap();
            e.attributes |= ATTR_NO_TGS;
            db.update_entry(&e).unwrap();
        })
        .unwrap();
        let client = principal("bcn");
        // Via TGS: refused.
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        let kdbm = Principal::kdbm(REALM);
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &kdbm, 12);
        assert_eq!(
            read_tgs_reply_with(&kdc.handle(&req, WS), &tgt_sched, NOW).unwrap_err(),
            ErrorCode::KdcNoTgsForService
        );
        // Via AS (password entry): granted.
        let as_req = build_as_req(&client, &kdbm, 12, NOW);
        let cred = read_as_reply_with_password(&kdc.handle(&as_req, WS), "bcn-password", NOW).unwrap();
        assert_eq!(cred.service.local_str(), "changepw.kerberos");
    }

    #[test]
    fn telemetry_records_counts_and_latency_per_exchange() {
        let mut kdc = test_kdc();
        // A deterministic self-advancing µs clock: each span sees exactly
        // one clock step, so latency samples are nonzero and reproducible.
        kdc.set_clock_us(krb_telemetry::lcg_clock_us(7, 40, 400));
        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);

        let as_req = build_as_req(&client, &tgs, 96, NOW);
        let tgt = read_as_reply_with_password(&kdc.handle(&as_req, WS), "bcn-password", NOW).unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());

        let rlogin = principal("rlogin.priam");
        let tgs_req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW + 10, &rlogin, 96);
        kdc.clock = fixed_clock(NOW + 10);
        read_tgs_reply_with(&kdc.handle(&tgs_req, WS), &tgt_sched, NOW + 10).unwrap();

        let registry = kdc.telemetry();
        assert_eq!(registry.counter_value("kdc_as_ok_total"), 1);
        assert_eq!(registry.counter_value("kdc_tgs_ok_total"), 1);
        let text = registry.render();
        assert!(text.contains("kdc_as_latency_us_count 1"), "AS span recorded:\n{text}");
        assert!(text.contains("kdc_tgs_latency_us_count 1"), "TGS span recorded:\n{text}");
        assert!(text.contains("kdc_replay_hits_total 0"));

        // A replayed TGS request shows up in the replay-hit counter.
        read_tgs_reply_with(&kdc.handle(&tgs_req, WS), &tgt_sched, NOW + 10).unwrap_err();
        assert_eq!(registry.counter_value("kdc_replay_hits_total"), 1);
        assert_eq!(registry.counter_value("kdc_error_total"), 1);
        assert!(kdc.telemetry().histogram("kdc_as_latency_us").max() >= 40);
    }

    #[test]
    fn error_taxonomy_splits_counts_by_kind() {
        let kdc = test_kdc();
        let tgs = Principal::tgs(REALM, REALM);
        kdc.handle(&build_as_req(&principal("mallory"), &tgs, 96, NOW), WS);
        kdc.handle(b"not a kerberos message", WS);
        let stats = kdc.stats();
        assert_eq!(stats.errors, 2, "aggregate still counts everything");
        assert_eq!(stats.errors_by_kind.unknown_principal, 1);
        assert_eq!(stats.errors_by_kind.decode, 1);
        assert_eq!(stats.errors_by_kind.replay, 0);
        let registry = kdc.telemetry();
        assert_eq!(
            registry.counter_value("kdc_error_total{kind=\"unknown_principal\"}"),
            1
        );
        assert_eq!(registry.counter_value("kdc_error_total{kind=\"decode\"}"), 1);
        // Every kind counter is pre-registered so renders are stable.
        for kind in ERROR_KINDS {
            assert!(registry
                .names()
                .contains(&format!("kdc_error_total{{kind=\"{kind}\"}}")));
        }
    }

    #[test]
    fn journal_records_exchanges_with_trace_and_error_kind() {
        let kdc = test_kdc();
        let journal = Journal::shared();
        kdc.set_journal(Arc::clone(&journal));
        let trace = TraceId(0xABC);
        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);

        let as_req = build_as_req(&client, &tgs, 96, NOW);
        let tgt = read_as_reply_with_password(
            &kdc.handle_traced(&as_req, WS, Some(trace)),
            "bcn-password",
            NOW,
        )
        .unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());
        let tgs_req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &principal("rlogin.priam"), 96);
        read_tgs_reply_with(&kdc.handle_traced(&tgs_req, WS, Some(trace)), &tgt_sched, NOW).unwrap();
        // Byte-identical resend: the replay verdict lands in the journal
        // as a per-kind error event at the KDC hop.
        kdc.handle_traced(&tgs_req, WS, Some(trace));

        let dump = journal.dump();
        let kinds: Vec<EventKind> = dump.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::AsOk, EventKind::TgsOk, EventKind::KdcErr]);
        assert!(dump.iter().all(|e| e.trace == Some(trace)));
        let err = &dump[2];
        assert!(err
            .fields
            .iter()
            .any(|(k, v)| *k == "err_kind" && *v == Field::from("replay")));
        let text = journal.render();
        assert!(text.contains("kind=kdc_err err_kind=replay"));
    }

    #[test]
    fn sharded_journal_routes_by_trace_id() {
        let kdc = test_kdc();
        let shards = vec![Journal::shared(), Journal::shared()];
        kdc.set_journal_shards(shards.clone());
        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);
        let as_req = build_as_req(&client, &tgs, 96, NOW);
        // Trace 4 → shard 0, trace 5 → shard 1, traceless → shard 0.
        kdc.handle_traced(&as_req, WS, Some(TraceId(4)));
        kdc.handle_traced(&as_req, WS, Some(TraceId(5)));
        kdc.handle(b"not a kerberos message", WS);
        assert_eq!(shards[0].dump().len(), 2, "trace 4 + traceless");
        assert_eq!(shards[1].dump().len(), 1, "trace 5");
        assert_eq!(shards[1].dump()[0].trace, Some(TraceId(5)));
    }

    #[test]
    fn snapshot_swap_counts_and_serves_new_principals() {
        let kdc = test_kdc();
        assert_eq!(kdc.telemetry().counter_value("kdc_store_swaps_total"), 0);
        kdc.with_db_mut(|db| {
            db.add_principal("newuser", "", &string_to_key("np"), NOW * 2, 96, NOW, "t.")
                .unwrap();
        })
        .unwrap();
        assert_eq!(kdc.telemetry().counter_value("kdc_store_swaps_total"), 1);
        // A snapshot taken *before* further writes keeps serving its view.
        let before = kdc.snapshot();
        kdc.with_db_mut(|db| {
            db.delete("newuser", "").unwrap();
        })
        .unwrap();
        assert_eq!(kdc.telemetry().counter_value("kdc_store_swaps_total"), 2);
        assert!(before.db().exists("newuser", "").unwrap(), "old view immutable");
        assert!(!kdc.snapshot().db().exists("newuser", "").unwrap(), "new view swapped in");
    }

    /// Every setter rewrites its own part of the one state a request
    /// loads, inside the write guard: whatever the order, none of them
    /// undoes another's effect.
    #[test]
    fn state_setters_in_any_order_keep_each_others_effects() {
        #[derive(Clone, Copy, PartialEq)]
        enum Step {
            Top,
            Telemetry,
            Clock,
            Single,
            Shards,
            Swap,
        }
        use Step::*;
        let steps = [Top, Telemetry, Clock, Single, Shards, Swap];
        let mut orders = Vec::new();
        for r in 0..steps.len() {
            let mut order = steps;
            order.rotate_left(r);
            orders.push(order);
            order.reverse();
            orders.push(order);
        }
        let add_alice = |db: &mut PrincipalDb<MemStore>| {
            db.add_principal("alice", "", &string_to_key("alice-pw"), NOW * 2, 96, NOW, "t.")
                .unwrap();
        };
        for (n, order) in orders.iter().enumerate() {
            let kdc = test_kdc();
            let registry = Arc::new(Registry::new());
            let (single, shard) = (Journal::shared(), Journal::shared());
            for step in order {
                match step {
                    Top => drop(kdc.enable_top_stats(4)),
                    Telemetry => kdc.set_telemetry(
                        Arc::clone(&registry),
                        krb_telemetry::fixed_clock_us(111),
                    ),
                    Clock => kdc.set_clock_us(krb_telemetry::fixed_clock_us(222)),
                    Single => kdc.set_journal(Arc::clone(&single)),
                    Shards => kdc.set_journal_shards(vec![Arc::clone(&shard)]),
                    // Both writers swap a snapshot in; alternate them.
                    Swap if n % 2 == 0 => kdc.with_db_mut(add_alice).unwrap(),
                    Swap => {
                        let mut db = test_db();
                        add_alice(&mut db);
                        kdc.install_db(db);
                    }
                }
            }
            let later = |a: Step, b: Step| {
                order.iter().position(|s| *s == a) > order.iter().position(|s| *s == b)
            };
            let req = build_as_req(&principal("alice"), &Principal::tgs(REALM, REALM), 96, NOW);
            let reply = kdc.handle_traced(&req, WS, Some(TraceId(9)));
            read_as_reply_with_password(&reply, "alice-pw", NOW).expect("the new snapshot serves");

            let top = kdc.top_stats().expect("top tables stay enabled");
            assert_eq!(top.as_clients.top(1)[0].key, "alice", "the top tables observe");
            assert_eq!(registry.counter_value("kdc_as_ok_total"), 1, "the shared registry counts");
            let swaps_after_telemetry = u64::from(later(Swap, Telemetry));
            assert_eq!(registry.counter_value("kdc_store_swaps_total"), swaps_after_telemetry);
            let (live, idle) = if later(Shards, Single) { (&shard, &single) } else { (&single, &shard) };
            let events = live.dump();
            assert_eq!(events.len(), 1, "the last journal attached records");
            assert!(idle.dump().is_empty());
            let clock = if later(Clock, Telemetry) { 222 } else { 111 };
            assert_eq!(events[0].at_us, clock, "the last clock set stamps");
        }
    }

    #[test]
    fn per_stripe_replay_counters_render_in_registry() {
        let kdc = test_kdc();
        let client = principal("bcn");
        let tgt = {
            let req = build_as_req(&client, &Principal::tgs(REALM, REALM), 96, NOW);
            read_as_reply_with_password(&kdc.handle(&req, WS), "bcn-password", NOW).unwrap()
        };
        let tgt_sched = Scheduled::new(&tgt.key());
        let req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &principal("rlogin.priam"), 96);
        kdc.handle(&req, WS);
        kdc.handle(&req, WS); // replay
        let text = kdc.telemetry().render();
        assert!(text.contains("kdc_replay_hits_total 1"), "{text}");
        assert!(
            text.contains("kdc_replay_stripe_hits_total{stripe=\"00\"}"),
            "per-stripe counters are pre-registered:\n{text}"
        );
        // Exactly one stripe took the hit.
        let stripe_total: u64 = (0..kerberos::REPLAY_STRIPES)
            .map(|i| {
                kdc.telemetry()
                    .counter_value(&format!("kdc_replay_stripe_hits_total{{stripe=\"{i:02}\"}}"))
            })
            .sum();
        assert_eq!(stripe_total, 1);
    }

    #[test]
    fn garbage_requests_record_no_latency_sample() {
        let kdc = test_kdc();
        kdc.handle(b"not a kerberos message", WS);
        let text = kdc.telemetry().render();
        assert!(text.contains("kdc_as_latency_us_count 0"));
        assert!(text.contains("kdc_tgs_latency_us_count 0"));
        assert_eq!(kdc.stats().errors, 1);
    }

    #[test]
    fn slave_serves_reads_but_refuses_writes() {
        let kdc = test_kdc();
        let dump = kdc.dump_text().unwrap();
        let records = krb_kdb::dump::parse(&dump).unwrap();
        let mut store = MemStore::new();
        krb_kdb::dump::install(&mut store, records).unwrap();
        let slave_db = PrincipalDb::open(store, string_to_key("master")).unwrap();
        let slave = Kdc::new(slave_db, RealmConfig::new(REALM), fixed_clock(NOW), KdcRole::Slave, 8);
        assert!(slave.with_db_mut(|_| ()).is_none(), "slave database is read-only");

        let req = build_as_req(&principal("bcn"), &Principal::tgs(REALM, REALM), 96, NOW);
        let reply = slave.handle(&req, WS);
        assert!(read_as_reply_with_password(&reply, "bcn-password", NOW).is_ok());
    }

    #[test]
    fn garbage_request_gets_error_reply() {
        let kdc = test_kdc();
        let reply = kdc.handle(b"not a kerberos message", WS);
        match Message::decode(&reply).unwrap() {
            Message::Err(e) => assert_eq!(e.code, ErrorCode::RdApVersion),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn top_stats_track_principals_per_exchange_kind() {
        let kdc = test_kdc();
        assert!(kdc.top_stats().is_none(), "disabled by default");
        kdc.enable_top_stats(8);

        let client = principal("bcn");
        let tgs = Principal::tgs(REALM, REALM);
        let as_req = build_as_req(&client, &tgs, 96, NOW);
        let tgt =
            read_as_reply_with_password(&kdc.handle(&as_req, WS), "bcn-password", NOW).unwrap();
        let tgt_sched = Scheduled::new(&tgt.key());
        let tgs_req = build_tgs_req_with(&tgt, &tgt_sched, &client, WS, NOW, &principal("rlogin.priam"), 96);
        read_tgs_reply_with(&kdc.handle(&tgs_req, WS), &tgt_sched, NOW).unwrap();
        // Unknown principal: the error table keys on the offending name.
        let bad = build_as_req(&principal("mallory"), &tgs, 96, NOW);
        kdc.handle(&bad, WS);

        let top = kdc.top_stats().expect("enabled above");
        let flat = |entries: Vec<krb_telemetry::SketchEntry>| -> Vec<(String, u64)> {
            entries.into_iter().map(|e| (e.key, e.count)).collect()
        };
        assert_eq!(flat(top.as_clients.top(8)), vec![("bcn".to_string(), 1)]);
        assert_eq!(flat(top.tgs_services.top(8)), vec![("rlogin.priam".to_string(), 1)]);
        assert_eq!(flat(top.error_principals.top(8)), vec![("mallory".to_string(), 1)]);
    }

    #[test]
    fn traced_exchanges_stamp_latency_exemplars() {
        let kdc = test_kdc();
        let trace = TraceId(0xE7);
        let as_req = build_as_req(&principal("bcn"), &Principal::tgs(REALM, REALM), 96, NOW);
        kdc.handle_traced(&as_req, WS, Some(trace));
        let traces: Vec<_> = kdc
            .telemetry()
            .histogram("kdc_as_latency_us")
            .exemplars()
            .into_iter()
            .filter_map(|(_, t)| t)
            .collect();
        assert_eq!(traces, vec![trace], "the traced AS exchange stamps its bucket");
        // Untraced traffic leaves no exemplar behind.
        let before = traces.len();
        kdc.handle(&as_req, WS);
        let after: usize = kdc
            .telemetry()
            .histogram("kdc_as_latency_us")
            .exemplars()
            .into_iter()
            .filter(|(_, t)| t.is_some())
            .count();
        assert_eq!(after, before, "untraced requests do not add exemplars");
    }
}
