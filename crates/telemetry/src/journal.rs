//! The structured event journal: bounded, trace-correlated, deterministic.
//!
//! The registry (see [`crate::registry`]) counts *outcomes*; the journal
//! records *events* — one login is an AS exchange, a TGS exchange, and an
//! AP exchange against the end server, and only a per-request trace can
//! say where in that chain a failure landed. Every event carries:
//!
//! - a monotonic sequence number (global per journal),
//! - a timestamp read from the caller's *injected* clock ([`crate::ClockUs`]),
//! - an optional [`TraceId`] minted by the workstation at login,
//! - the reporting [`Component`] and an [`EventKind`],
//! - a small set of typed fields ([`Field`]) — **never** key material.
//!
//! ## Determinism contract
//!
//! The journal obeys the same rules as the registry: timestamps come from
//! injected clocks, [`Journal::render`] orders events by sequence number,
//! and trace identifiers are minted deterministically from seeds — so the
//! same seed produces a byte-identical dump. Multi-threaded load runs keep
//! this property by giving each worker its *own* journal (its own sequence
//! counter) and concatenating the per-worker renders in worker order.
//!
//! ## Redaction
//!
//! [`Field`] can hold only integers and sanitized strings. There is no
//! constructor taking a key type, and lint rule **L7** bans `DesKey`,
//! `SecretKey`, and `Scheduled` tokens near journal calls outside this
//! crate — an event built from a ticket can name the client principal,
//! but never the session key that sealed it.

use crate::flight::FlightRecorder;
use crate::metrics::Counter;
use crate::registry::Registry;
use crate::ClockUs;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Per-login correlation identifier, minted by the workstation and
/// propagated out-of-band (packet metadata and function parameters,
/// never V4 wire bytes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Deterministically derive a trace id from a seed and a counter —
    /// the workstation mints one per login attempt. SplitMix64 finalizer:
    /// well-mixed, dependency-free, and stable across runs.
    pub fn derive(seed: u64, n: u64) -> Self {
        let mut z = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(n.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        TraceId(z ^ (z >> 31))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The subsystem reporting an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Component {
    /// Workstation / client side (`kinit`, `mk_request`).
    Ws,
    /// Authentication + ticket-granting server.
    Kdc,
    /// An application server (rlogin, POP, Zephyr).
    App,
    /// Database propagation (`kprop`/`kpropd`).
    Kprop,
    /// Network substrate.
    Net,
}

impl Component {
    /// Stable lowercase name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Ws => "ws",
            Component::Kdc => "kdc",
            Component::App => "app",
            Component::Kprop => "kprop",
            Component::Net => "net",
        }
    }

    /// Inverse of [`Component::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ws" => Component::Ws,
            "kdc" => Component::Kdc,
            "app" => Component::App,
            "kprop" => Component::Kprop,
            "net" => Component::Net,
            _ => return None,
        })
    }
}

/// What happened. Kinds are closed-world so dumps stay parseable and the
/// `krb-trace` tool can reason about hops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // variant names mirror their dump strings below
pub enum EventKind {
    LoginStart,
    AsReq,
    AsOk,
    TgsReq,
    TgsOk,
    KdcErr,
    LoginOk,
    LoginErr,
    ApSent,
    ApVerified,
    ApErr,
    ReplayHit,
    AppOk,
    AppErr,
    KpropDump,
    KpropTransfer,
    KpropApply,
    KpropReject,
    /// A fault-injection action taken by the network simulator (chaos runs).
    NetFault,
    /// A datagram sent with a forged source address (`send_spoofed`); the
    /// tap metadata carries the same flag so timelines can tell injected
    /// traffic from honest traffic.
    NetSpoofed,
    /// The adversary injected a replayed/spliced/forged packet.
    AdvInject,
    /// The adversary's derivation closure learned a new secret-class term.
    AdvLearn,
}

impl EventKind {
    /// Stable snake_case name used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::LoginStart => "login_start",
            EventKind::AsReq => "as_req",
            EventKind::AsOk => "as_ok",
            EventKind::TgsReq => "tgs_req",
            EventKind::TgsOk => "tgs_ok",
            EventKind::KdcErr => "kdc_err",
            EventKind::LoginOk => "login_ok",
            EventKind::LoginErr => "login_err",
            EventKind::ApSent => "ap_sent",
            EventKind::ApVerified => "ap_verified",
            EventKind::ApErr => "ap_err",
            EventKind::ReplayHit => "replay_hit",
            EventKind::AppOk => "app_ok",
            EventKind::AppErr => "app_err",
            EventKind::KpropDump => "kprop_dump",
            EventKind::KpropTransfer => "kprop_transfer",
            EventKind::KpropApply => "kprop_apply",
            EventKind::KpropReject => "kprop_reject",
            EventKind::NetFault => "net_fault",
            EventKind::NetSpoofed => "net_spoofed",
            EventKind::AdvInject => "adv_inject",
            EventKind::AdvLearn => "adv_learn",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "login_start" => EventKind::LoginStart,
            "as_req" => EventKind::AsReq,
            "as_ok" => EventKind::AsOk,
            "tgs_req" => EventKind::TgsReq,
            "tgs_ok" => EventKind::TgsOk,
            "kdc_err" => EventKind::KdcErr,
            "login_ok" => EventKind::LoginOk,
            "login_err" => EventKind::LoginErr,
            "ap_sent" => EventKind::ApSent,
            "ap_verified" => EventKind::ApVerified,
            "ap_err" => EventKind::ApErr,
            "replay_hit" => EventKind::ReplayHit,
            "app_ok" => EventKind::AppOk,
            "app_err" => EventKind::AppErr,
            "kprop_dump" => EventKind::KpropDump,
            "kprop_transfer" => EventKind::KpropTransfer,
            "kprop_apply" => EventKind::KpropApply,
            "kprop_reject" => EventKind::KpropReject,
            "net_fault" => EventKind::NetFault,
            "net_spoofed" => EventKind::NetSpoofed,
            "adv_inject" => EventKind::AdvInject,
            "adv_learn" => EventKind::AdvLearn,
            _ => return None,
        })
    }

    /// Whether this kind reports a failure (drives `krb-trace
    /// --errors-only`).
    pub fn is_error(self) -> bool {
        matches!(
            self,
            EventKind::KdcErr
                | EventKind::LoginErr
                | EventKind::ApErr
                | EventKind::ReplayHit
                | EventKind::AppErr
                | EventKind::KpropReject
        )
    }
}

/// A typed event field value. Deliberately narrow: integers and sanitized
/// strings only, so key material cannot ride along.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Field {
    /// An integer value (count, code, byte length, port...).
    U64(u64),
    /// A short string value (principal name, error kind slug...).
    /// Whitespace and `=` are rewritten to `_` at render time so the
    /// `key=value` dump line stays machine-parseable.
    Str(String),
}

impl Field {
    fn render(&self, out: &mut String) {
        match self {
            Field::U64(v) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{v}"));
            }
            Field::Str(s) => {
                for ch in s.chars() {
                    if ch.is_whitespace() || ch == '=' {
                        out.push('_');
                    } else {
                        out.push(ch);
                    }
                }
            }
        }
    }
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}

impl From<u8> for Field {
    fn from(v: u8) -> Self {
        Field::U64(u64::from(v))
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// Make `fields` the single string field `key=value`, where `value` is
/// `parts` joined by `.` — what `vec![(key, Field::from(parts.join(".")))]`
/// builds, without allocating when the storage already there fits. The
/// vector is kept when its capacity is exactly one field, and its string
/// when it has room for `value`; anything else is replaced by storage of
/// exactly the size needed, so a vector never holds spare capacity.
pub fn set_joined_field(
    fields: &mut Vec<(&'static str, Field)>,
    key: &'static str,
    parts: &[&str],
) {
    let len = parts.iter().map(|p| p.len()).sum::<usize>() + parts.len().saturating_sub(1);
    if fields.capacity() != 1 {
        *fields = Vec::with_capacity(1);
    }
    match fields.as_mut_slice() {
        [(k, Field::Str(value))] if value.capacity() >= len => {
            *k = key;
            value.clear();
            push_joined(value, parts);
        }
        _ => {
            let mut value = String::with_capacity(len);
            push_joined(&mut value, parts);
            fields.clear();
            fields.push((key, Field::Str(value)));
        }
    }
}

fn push_joined(out: &mut String, parts: &[&str]) {
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        out.push_str(part);
    }
}

/// One journal entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Journal-wide monotonic sequence number; gaps mean eviction.
    pub seq: u64,
    /// Timestamp in microseconds from the recording component's injected
    /// clock.
    pub at_us: u64,
    /// Correlation id, when the request carried one.
    pub trace: Option<TraceId>,
    /// Reporting subsystem.
    pub component: Component,
    /// What happened.
    pub kind: EventKind,
    /// Small typed payload, `key=value` rendered in insertion order.
    pub fields: Vec<(&'static str, Field)>,
}

impl Event {
    /// Render as a single dump line:
    /// `seq=N us=N trace=<hex16|-> comp=<c> kind=<k> [key=value ...]`.
    pub fn render_line(&self, out: &mut String) {
        let _ = fmt::Write::write_fmt(out, format_args!("seq={} us={}", self.seq, self.at_us));
        match self.trace {
            Some(t) => {
                let _ = fmt::Write::write_fmt(out, format_args!(" trace={t}"));
            }
            None => out.push_str(" trace=-"),
        }
        let _ = fmt::Write::write_fmt(
            out,
            format_args!(" comp={} kind={}", self.component.as_str(), self.kind.as_str()),
        );
        for (key, value) in &self.fields {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            value.render(out);
        }
        out.push('\n');
    }
}

const DEFAULT_CAPACITY: usize = 4096;
const STRIPES: usize = 8;

/// A bounded, lock-striped ring buffer of [`Event`]s.
///
/// Recording takes one atomic increment (the sequence number) and one
/// short stripe lock; when a stripe's ring is full the oldest event in
/// that stripe is evicted and the dropped counter bumped, so a long run
/// holds the most recent window rather than growing without bound.
pub struct Journal {
    stripes: Vec<Mutex<VecDeque<Event>>>,
    stripe_cap: usize,
    seq: AtomicU64,
    events: Counter,
    dropped: Counter,
    /// Optional flight recorder notified of every traced error event
    /// (see [`crate::flight`]). Set-once; absent on the hot path costs one
    /// relaxed `OnceLock` load.
    flight: OnceLock<Arc<FlightRecorder>>,
}

impl Journal {
    /// A journal holding at most `capacity` events (rounded up to a
    /// multiple of the stripe count; minimum one per stripe).
    pub fn new(capacity: usize) -> Self {
        let stripe_cap = capacity.div_ceil(STRIPES).max(1);
        Journal {
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            stripe_cap,
            seq: AtomicU64::new(0),
            events: Counter::new(),
            dropped: Counter::new(),
            flight: OnceLock::new(),
        }
    }

    /// Attach a flight recorder: from now on every error-kind event that
    /// carries a trace triggers a chain capture into `recorder`. Can be
    /// set once per journal; a second call is ignored.
    pub fn set_flight_recorder(&self, recorder: Arc<FlightRecorder>) {
        let _ = self.flight.set(recorder);
    }

    /// A default-capacity journal behind an `Arc`, ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new(DEFAULT_CAPACITY))
    }

    fn lock_stripe(&self, i: usize) -> MutexGuard<'_, VecDeque<Event>> {
        match self.stripes[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Append an event. `at_us` must come from the caller's injected
    /// clock — the journal never reads time itself.
    pub fn record(
        &self,
        at_us: u64,
        trace: Option<TraceId>,
        component: Component,
        kind: EventKind,
        fields: Vec<(&'static str, Field)>,
    ) {
        self.record_with(at_us, trace, component, kind, |slot| *slot = fields);
    }

    /// Append an event whose fields `fill` writes in place. `fill` is
    /// handed the field vector of the event this append evicts (empty
    /// while the ring has room) and must leave exactly the new event's
    /// fields in it; reusing that storage ([`set_joined_field`]) makes
    /// the append allocation-free once the ring is full.
    pub fn record_with(
        &self,
        at_us: u64,
        trace: Option<TraceId>,
        component: Component,
        kind: EventKind,
        fill: impl FnOnce(&mut Vec<(&'static str, Field)>),
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut stripe = self.lock_stripe((seq as usize) % STRIPES);
            let mut fields = Vec::new();
            if stripe.len() >= self.stripe_cap {
                if let Some(evicted) = stripe.pop_front() {
                    fields = evicted.fields;
                }
                self.dropped.inc();
            }
            fill(&mut fields);
            stripe.push_back(Event { seq, at_us, trace, component, kind, fields });
        }
        self.events.inc();
        // The stripe guard is dropped before the capture: the recorder
        // re-enters the journal via `dump()`, which locks every stripe.
        if kind.is_error() {
            if let (Some(trace), Some(recorder)) = (trace, self.flight.get()) {
                recorder.capture(self, at_us, trace, kind);
            }
        }
    }

    /// Total events ever recorded (including since-evicted ones).
    pub fn events_recorded(&self) -> u64 {
        self.events.get()
    }

    /// Events evicted by the ring bound.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Publish the journal's own counters into `registry` as
    /// `journal_events_total` / `journal_dropped_total`.
    pub fn publish(&self, registry: &Registry) {
        registry.adopt_counter("journal_events_total", &self.events);
        registry.adopt_counter("journal_dropped_total", &self.dropped);
    }

    /// Snapshot of the retained events, sorted by sequence number.
    pub fn dump(&self) -> Vec<Event> {
        let mut all = Vec::new();
        for i in 0..STRIPES {
            all.extend(self.lock_stripe(i).iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Render the retained events as dump text, one line per event in
    /// sequence order. Deterministic: equal recorded events produce
    /// byte-identical text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for event in self.dump() {
            event.render_line(&mut out);
        }
        out
    }
}

/// Merge snapshots of several journals into one deterministic timeline,
/// sorted by `(at_us, shard index, seq)`. Within one shard, events keep
/// their recorded order (seq breaks at_us ties); across shards the shard
/// index breaks clock ties, so the merge of the same per-shard contents is
/// always byte-identical regardless of thread interleaving.
pub fn merge_journals(shards: &[Arc<Journal>]) -> Vec<(usize, Event)> {
    let mut all = Vec::new();
    for (idx, journal) in shards.iter().enumerate() {
        all.extend(journal.dump().into_iter().map(|e| (idx, e)));
    }
    all.sort_by_key(|(idx, e)| (e.at_us, *idx, e.seq));
    all
}

/// Render a merged multi-shard timeline as dump text: each line is the
/// event's [`Event::render_line`] prefixed with `shard=NN ` (zero-padded,
/// so text order equals numeric order).
pub fn merge_render(shards: &[Arc<Journal>]) -> String {
    let mut out = String::new();
    for (idx, event) in merge_journals(shards) {
        out.push_str(&format!("shard={idx:02} "));
        event.render_line(&mut out);
    }
    out
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("recorded", &self.events_recorded())
            .field("dropped", &self.events_dropped())
            .field("capacity", &(self.stripe_cap * STRIPES))
            .finish()
    }
}

/// The per-request trace context handed across hops: a shared journal, an
/// injected clock, and the login's [`TraceId`]. Cloned freely; recording
/// through it stamps the trace and the clock automatically.
#[derive(Clone)]
pub struct TraceCtx {
    journal: Arc<Journal>,
    clock: ClockUs,
    trace: TraceId,
}

impl TraceCtx {
    /// Bind `trace` to a journal and a clock.
    pub fn new(journal: Arc<Journal>, clock: ClockUs, trace: TraceId) -> Self {
        TraceCtx { journal, clock, trace }
    }

    /// The correlation id this context carries.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The journal this context records into.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// The injected clock events are stamped with.
    pub fn clock(&self) -> &ClockUs {
        &self.clock
    }

    /// Record an event stamped with this context's trace and clock.
    pub fn record(&self, component: Component, kind: EventKind, fields: Vec<(&'static str, Field)>) {
        self.journal
            .record((self.clock)(), Some(self.trace), component, kind, fields);
    }
}

impl fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCtx").field("trace", &self.trace).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::fixed_clock_us;

    fn ev(j: &Journal, n: u64) {
        j.record(
            n,
            Some(TraceId(0xABCD)),
            Component::Kdc,
            EventKind::AsOk,
            vec![("n", Field::from(n))],
        );
    }

    #[test]
    fn events_render_in_seq_order_with_stable_format() {
        let j = Journal::new(64);
        j.record(
            10,
            Some(TraceId(0xFF)),
            Component::Ws,
            EventKind::LoginStart,
            vec![("client", Field::from("bcn")), ("n", Field::from(1u64))],
        );
        j.record(20, None, Component::Net, EventKind::AsReq, vec![]);
        let text = j.render();
        assert_eq!(
            text,
            "seq=0 us=10 trace=00000000000000ff comp=ws kind=login_start client=bcn n=1\n\
             seq=1 us=20 trace=- comp=net kind=as_req\n"
        );
    }

    #[test]
    fn merged_shards_sort_by_clock_then_shard_then_seq() {
        let a = Journal::shared();
        let b = Journal::shared();
        ev(&a, 30); // a: seq=0 us=30
        ev(&a, 10); // a: seq=1 us=10
        ev(&b, 10); // b: seq=0 us=10 — clock tie with a.seq=1, shard breaks it
        ev(&b, 20); // b: seq=1 us=20
        let merged = merge_journals(&[a.clone(), b.clone()]);
        let order: Vec<(usize, u64, u64)> =
            merged.iter().map(|(s, e)| (*s, e.at_us, e.seq)).collect();
        assert_eq!(order, vec![(0, 10, 1), (1, 10, 0), (1, 20, 1), (0, 30, 0)]);
        let text = merge_render(&[a.clone(), b.clone()]);
        assert!(text.starts_with("shard=00 seq=1 us=10"));
        // Byte-identical on re-render: the merge is a pure function of the
        // per-shard contents.
        assert_eq!(text, merge_render(&[a, b]));
    }

    #[test]
    fn ring_wraparound_evicts_oldest_and_leaves_seq_gap() {
        // Capacity 8 (one slot per stripe): recording 24 events keeps the
        // newest 8 and the dump shows the seq gap where the old ones were.
        let j = Journal::new(8);
        for n in 0..24 {
            ev(&j, n);
        }
        assert_eq!(j.events_recorded(), 24);
        assert_eq!(j.events_dropped(), 16);
        let dump = j.dump();
        assert_eq!(dump.len(), 8);
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (16..24).collect::<Vec<u64>>(), "oldest evicted first");
        assert!(seqs[0] > 0, "gap before the retained window is visible");
    }

    /// Record the same script into two journals: exchange events through
    /// the in-place path into one and as owned vectors into the other.
    /// Names of two lengths and a three-field error event make the ring
    /// reuse slots for shorter values, longer ones and wider vectors.
    #[test]
    fn in_place_fields_match_owned_fields_and_keep_storage_exact() {
        use crate::flight::FlightRecorder;
        let (owned, in_place) = (Journal::new(16), Journal::new(16));
        let recorder = Arc::new(FlightRecorder::new(4));
        in_place.set_flight_recorder(Arc::clone(&recorder));
        let subjects: [(&str, &[&str]); 3] = [
            ("client", &["u00017"]),
            ("service", &["svc3", "host3"]),
            ("service", &["rcmd", "a-much-longer-instance"]),
        ];
        let script = 0..40u64;
        for n in script.clone() {
            let trace = Some(TraceId(n % 5));
            if n % 7 == 6 {
                for j in [&owned, &in_place] {
                    let fields = vec![
                        ("err_kind", Field::from("replay")),
                        ("code", Field::from(n)),
                        ("service", Field::from("svc3.host3")),
                    ];
                    j.record(n, trace, Component::Kdc, EventKind::KdcErr, fields);
                }
            } else {
                let (key, parts) = subjects[n as usize % 3];
                let fields = vec![(key, Field::from(parts.join(".")))];
                owned.record(n, trace, Component::Kdc, EventKind::TgsOk, fields);
                in_place.record_with(n, trace, Component::Kdc, EventKind::TgsOk, |fields| {
                    set_joined_field(fields, key, parts)
                });
            }
            // Once before the ring wraps (16 slots) and once long after.
            if n == 15 || n == script.end - 1 {
                assert_eq!(in_place.dump(), owned.dump());
                assert_eq!(in_place.render(), owned.render());
            }
        }
        assert_eq!(in_place.events_dropped(), 24);
        // The in-place path shares the one record body: a traced error
        // still reaches the flight recorder.
        assert!(recorder.captures_total() > 0);
        let last = recorder.recent(1).pop().expect("a captured failure");
        assert_eq!((last.trace, last.fail_kind), (TraceId(34 % 5), EventKind::KdcErr));
        // `dump()` clones, so inspect the ring itself: no retained field
        // vector holds spare capacity, and a reused string never holds
        // more than the longest value written.
        let longest = subjects.iter().map(|(_, p)| p.join(".").len()).max().unwrap();
        for i in 0..STRIPES {
            for event in in_place.lock_stripe(i).iter() {
                assert_eq!(event.fields.capacity(), event.fields.len(), "seq {}", event.seq);
                for (_, value) in &event.fields {
                    if let Field::Str(s) = value {
                        assert!(s.capacity() <= longest, "seq {}", event.seq);
                    }
                }
            }
        }
    }

    #[test]
    fn string_fields_are_sanitized_for_the_line_format() {
        let j = Journal::new(8);
        j.record(
            0,
            None,
            Component::App,
            EventKind::AppErr,
            vec![("msg", Field::from("bad = thing\nhappened"))],
        );
        let text = j.render();
        assert!(text.contains("msg=bad___thing_happened"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn publish_exports_event_and_drop_counters() {
        let r = Registry::new();
        let j = Journal::new(8);
        j.publish(&r);
        for n in 0..10 {
            ev(&j, n);
        }
        assert_eq!(r.counter_value("journal_events_total"), 10);
        assert_eq!(r.counter_value("journal_dropped_total"), 2);
    }

    #[test]
    fn trace_ctx_stamps_trace_and_clock() {
        let j = Journal::shared();
        let ctx = TraceCtx::new(Arc::clone(&j), fixed_clock_us(42), TraceId::derive(7, 0));
        ctx.record(Component::Kdc, EventKind::TgsOk, vec![]);
        let dump = j.dump();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].at_us, 42);
        assert_eq!(dump[0].trace, Some(TraceId::derive(7, 0)));
    }

    #[test]
    fn derived_trace_ids_are_stable_and_distinct() {
        assert_eq!(TraceId::derive(42, 0), TraceId::derive(42, 0));
        assert_ne!(TraceId::derive(42, 0), TraceId::derive(42, 1));
        assert_ne!(TraceId::derive(42, 0), TraceId::derive(43, 0));
    }

    #[test]
    fn kind_and_component_round_trip_their_names() {
        for kind in [
            EventKind::LoginStart,
            EventKind::AsReq,
            EventKind::AsOk,
            EventKind::TgsReq,
            EventKind::TgsOk,
            EventKind::KdcErr,
            EventKind::LoginOk,
            EventKind::LoginErr,
            EventKind::ApSent,
            EventKind::ApVerified,
            EventKind::ApErr,
            EventKind::ReplayHit,
            EventKind::AppOk,
            EventKind::AppErr,
            EventKind::KpropDump,
            EventKind::KpropTransfer,
            EventKind::KpropApply,
            EventKind::KpropReject,
            EventKind::NetFault,
            EventKind::NetSpoofed,
            EventKind::AdvInject,
            EventKind::AdvLearn,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        for comp in [
            Component::Ws,
            Component::Kdc,
            Component::App,
            Component::Kprop,
            Component::Net,
        ] {
            assert_eq!(Component::parse(comp.as_str()), Some(comp));
        }
    }
}
