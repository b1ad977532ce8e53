//! The deterministic in-process datagram network.
//!
//! This substitutes for Project Athena's campus Ethernet (see DESIGN.md,
//! substitutions). It is an *open* network in exactly the paper's sense:
//! any host can put any packet on the wire with any source address
//! ([`SimNet::send_spoofed`]), and anyone can listen ([`SimNet::add_tap`]).
//! The security experiments depend on both properties.
//!
//! Time is simulated: packets are scheduled onto a priority queue with the
//! configured latency and delivered as the clock advances. Loss and
//! duplication are driven by a seeded RNG, so every run is reproducible.

use crate::fault::{flip_bits, FaultPlan};
use crate::{Endpoint, InjectKind, NetError, Packet};
use krb_telemetry::{Component, Counter, EventKind, Field, Journal, Registry, TraceId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seconds between the UNIX epoch and the simulation's t=0
/// (1987-01-01, the year Kerberos became Athena's sole authentication means).
pub const EPOCH_1987: u32 = 536_457_600;

/// Default bound on a capture tap's buffer (see [`SimNet::add_capture`]).
pub const DEFAULT_CAPTURE_CAP: usize = 4096;

/// Link behaviour knobs.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way delivery latency in simulated milliseconds.
    pub latency_ms: u64,
    /// Extra random latency up to this many milliseconds — packets taking
    /// different paths arrive out of order, as on a real campus network.
    pub jitter_ms: u64,
    /// Probability a packet is silently dropped.
    pub loss: f64,
    /// Probability a delivered packet is delivered twice (network-level
    /// duplication — distinct from a deliberate replay attack).
    pub dup: f64,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { latency_ms: 2, jitter_ms: 0, loss: 0.0, dup: 0.0, seed: 0x5EED }
    }
}

/// A packet observer: sees every packet put on the wire, like a host in
/// promiscuous mode. "Someone watching the network should not be able to
/// obtain the information necessary to impersonate another user" (§1) —
/// taps are how tests check that.
pub type Tap = Box<dyn FnMut(&Packet) + Send>;

#[derive(PartialEq, Eq)]
struct Scheduled {
    deliver_at: u64,
    seq: u64,
    packet: Packet,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network.
pub struct SimNet {
    config: NetConfig,
    rng: StdRng,
    /// Simulated time in milliseconds, shared with host clocks.
    time_ms: Arc<AtomicU64>,
    in_flight: BinaryHeap<Reverse<Scheduled>>,
    inboxes: HashMap<Endpoint, VecDeque<Packet>>,
    /// Hosts cut off from the network (the "master machine is down" case).
    partitioned: std::collections::HashSet<crate::Ipv4>,
    taps: Vec<Tap>,
    seq: u64,
    registry: Arc<Registry>,
    metrics: NetMetrics,
    /// Scheduled fault injection (see [`crate::fault`]); `None` = clean.
    fault: Option<FaultPlan>,
    /// Journal for `net_fault` events, when attached.
    journal: Option<Arc<Journal>>,
}

/// Point-in-time delivery counts — a *thin view* over the telemetry
/// registry (see [`SimNet::stats`]); the registry is the only counting
/// substrate.
#[derive(Default, Debug, Clone, Copy)]
pub struct NetStats {
    /// Packets accepted onto the wire.
    pub sent: u64,
    /// Packets handed to an inbox.
    pub delivered: u64,
    /// Packets dropped by loss or partition.
    pub dropped: u64,
    /// Extra deliveries from duplication.
    pub duplicated: u64,
    /// Packets whose payload a fault plan corrupted (still delivered).
    pub corrupted: u64,
}

/// The network's telemetry handles, registered under `net_*` names.
///
/// Conservation contract (checked by the chaos soak's oracle): once the
/// network is idle, `sent + duplicated == delivered + dropped`. Fault
/// attribution counters (`fault_*`, `corrupted`) are breakdowns, not
/// extra terms — a fault-plan drop also increments `dropped`, and a
/// corrupted packet still counts as `delivered`.
struct NetMetrics {
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    corrupted: Counter,
    fault_dropped: Counter,
    fault_partitioned: Counter,
    fault_delayed: Counter,
    fault_duplicated: Counter,
    spoofed: Counter,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            sent: registry.counter("net_sent_total"),
            delivered: registry.counter("net_delivered_total"),
            dropped: registry.counter("net_dropped_total"),
            duplicated: registry.counter("net_duplicated_total"),
            corrupted: registry.counter("net_corrupted_total"),
            fault_dropped: registry.counter("net_fault_dropped_total"),
            fault_partitioned: registry.counter("net_fault_partitioned_total"),
            fault_delayed: registry.counter("net_fault_delayed_total"),
            fault_duplicated: registry.counter("net_fault_duplicated_total"),
            spoofed: registry.counter("net_spoofed_total"),
        }
    }
}

impl SimNet {
    /// Create a network with the given behaviour.
    pub fn new(config: NetConfig) -> Self {
        let registry = Registry::shared();
        let metrics = NetMetrics::new(&registry);
        SimNet {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            time_ms: Arc::new(AtomicU64::new(0)),
            in_flight: BinaryHeap::new(),
            inboxes: HashMap::new(),
            partitioned: Default::default(),
            taps: Vec::new(),
            seq: 0,
            registry,
            metrics,
            fault: None,
            journal: None,
        }
    }

    /// Install a fault plan; replaces any previous one. The plan's own
    /// seeded RNG drives its decisions, so installing it never perturbs
    /// the base loss/jitter stream.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, for replay reporting.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Heal the network *now*: close every open fault window (partitions
    /// lift, bursts end) and reconnect all base-partitioned hosts. The
    /// liveness oracle runs after this.
    pub fn heal_faults(&mut self) {
        let now = self.now_ms();
        if let Some(plan) = &mut self.fault {
            plan.heal(now);
        }
        self.partitioned.clear();
    }

    /// Attach a journal: each fault the plan applies is recorded as a
    /// `comp=net kind=net_fault` event carrying the packet's trace id (if
    /// any), so a trace that died on the wire says why.
    pub fn set_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    fn journal_fault(&self, trace: Option<TraceId>, what: &'static str, extra: u64) {
        if let Some(journal) = &self.journal {
            journal.record(
                self.now_ms() * 1000,
                trace,
                Component::Net,
                EventKind::NetFault,
                vec![("fault", Field::from(what)), ("n", Field::from(extra))],
            );
        }
    }

    /// The registry this network reports into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Report into a caller-provided registry instead of the auto-created
    /// one (counts recorded so far are dropped; call right after
    /// construction).
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.metrics = NetMetrics::new(&registry);
        self.registry = registry;
    }

    /// Point-in-time delivery counts, materialized from the registry.
    pub fn stats(&self) -> NetStats {
        NetStats {
            sent: self.metrics.sent.get(),
            delivered: self.metrics.delivered.get(),
            dropped: self.metrics.dropped.get(),
            duplicated: self.metrics.duplicated.get(),
            corrupted: self.metrics.corrupted.get(),
        }
    }

    /// Register an endpoint so it can receive packets.
    pub fn bind(&mut self, ep: Endpoint) {
        self.inboxes.entry(ep).or_default();
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.time_ms.load(Ordering::SeqCst)
    }

    /// Shared handle to simulated time, for building [`HostClock`]s.
    pub fn time_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.time_ms)
    }

    /// Advance simulated time without traffic (e.g. to expire tickets).
    pub fn advance_ms(&mut self, ms: u64) {
        let t = self.now_ms() + ms;
        self.time_ms.store(t, Ordering::SeqCst);
        self.deliver_due();
    }

    /// Put a packet on the wire with an honest source address.
    pub fn send(&mut self, src: Endpoint, dst: Endpoint, payload: Vec<u8>) {
        self.send_traced(src, dst, payload, None)
    }

    /// [`SimNet::send`] carrying an out-of-band trace id as packet
    /// metadata (never wire bytes — see [`Packet::trace`]).
    pub fn send_traced(
        &mut self,
        src: Endpoint,
        dst: Endpoint,
        payload: Vec<u8>,
        trace: Option<TraceId>,
    ) {
        self.transmit(src, dst, payload, trace, false)
    }

    /// Put a packet on the wire with *any* source address. The network does
    /// not authenticate senders — that is the paper's premise.
    pub fn send_spoofed(&mut self, claimed_src: Endpoint, dst: Endpoint, payload: Vec<u8>) {
        self.send_spoofed_traced(claimed_src, dst, payload, None)
    }

    /// [`SimNet::send_spoofed`] with trace metadata.
    pub fn send_spoofed_traced(
        &mut self,
        claimed_src: Endpoint,
        dst: Endpoint,
        payload: Vec<u8>,
        trace: Option<TraceId>,
    ) {
        self.inject(InjectKind::Spoof, claimed_src, dst, payload, trace)
    }

    /// The typed spoof-injection hook: put a packet on the wire with a
    /// forged source address, declaring *why* (the attack class). The
    /// declaration is observer-side only — a `comp=net kind=net_spoofed`
    /// journal event plus the [`Packet::spoofed`] tap flag; the wire bytes
    /// and delivery behaviour are identical to an honest send, because the
    /// open network authenticates nobody.
    pub fn inject(
        &mut self,
        kind: InjectKind,
        claimed_src: Endpoint,
        dst: Endpoint,
        payload: Vec<u8>,
        trace: Option<TraceId>,
    ) {
        self.metrics.spoofed.inc();
        if let Some(journal) = &self.journal {
            journal.record(
                self.now_ms() * 1000,
                trace,
                Component::Net,
                EventKind::NetSpoofed,
                vec![("kind", Field::from(kind.as_str())), ("n", Field::from(payload.len()))],
            );
        }
        self.transmit(claimed_src, dst, payload, trace, true)
    }

    /// Shared delivery path for honest and spoofed sends; `spoofed` rides
    /// the packet as tap metadata.
    fn transmit(
        &mut self,
        claimed_src: Endpoint,
        dst: Endpoint,
        mut payload: Vec<u8>,
        trace: Option<TraceId>,
        spoofed: bool,
    ) {
        self.seq += 1;
        // Ask the fault plan first: corruption mutates the bytes that both
        // the taps and the receiver see (a wire error corrupts the wire).
        let action = match &mut self.fault {
            Some(plan) => {
                let now = self.time_ms.load(Ordering::SeqCst);
                plan.decide(now, claimed_src.addr, dst.addr, payload.len())
            }
            None => Default::default(),
        };
        if !action.corrupt_bits.is_empty() {
            flip_bits(&mut payload, &action.corrupt_bits);
            self.metrics.corrupted.inc();
            self.journal_fault(trace, "corrupt", action.corrupt_bits.len() as u64);
        }
        let packet = Packet { src: claimed_src, dst, payload, id: self.seq, trace, spoofed };
        for tap in &mut self.taps {
            tap(&packet);
        }
        self.metrics.sent.inc();
        if self.partitioned.contains(&claimed_src.addr) || self.partitioned.contains(&dst.addr) {
            self.metrics.dropped.inc();
            return;
        }
        if action.drop_partition {
            self.metrics.dropped.inc();
            self.metrics.fault_partitioned.inc();
            self.journal_fault(trace, "partition", 0);
            return;
        }
        if self.config.loss > 0.0 && self.rng.random::<f64>() < self.config.loss {
            self.metrics.dropped.inc();
            return;
        }
        if action.drop_loss {
            self.metrics.dropped.inc();
            self.metrics.fault_dropped.inc();
            self.journal_fault(trace, "loss", 0);
            return;
        }
        let jitter = if self.config.jitter_ms > 0 {
            self.rng.random_range(0..=self.config.jitter_ms)
        } else {
            0
        };
        if action.extra_delay_ms > 0 {
            self.metrics.fault_delayed.inc();
            self.journal_fault(trace, "delay", action.extra_delay_ms);
        }
        let deliver_at = self.now_ms() + self.config.latency_ms + jitter + action.extra_delay_ms;
        let base_dup = self.config.dup > 0.0 && self.rng.random::<f64>() < self.config.dup;
        // The payload is copied only when the network really carries it twice.
        let duplicate = (base_dup || action.duplicate).then(|| packet.clone());
        self.in_flight.push(Reverse(Scheduled { deliver_at, seq: self.seq, packet }));
        if let Some(packet) = duplicate {
            self.seq += 1;
            self.metrics.duplicated.inc();
            if action.duplicate {
                self.metrics.fault_duplicated.inc();
                self.journal_fault(trace, "dup", 0);
            }
            self.in_flight.push(Reverse(Scheduled {
                deliver_at: deliver_at + 1,
                seq: self.seq,
                packet,
            }));
        }
    }

    /// Deliver everything whose time has come.
    fn deliver_due(&mut self) {
        let now = self.now_ms();
        while let Some(Reverse(s)) = self.in_flight.peek() {
            if s.deliver_at > now {
                break;
            }
            let Reverse(s) = self.in_flight.pop().expect("peeked");
            if let Some(inbox) = self.inboxes.get_mut(&s.packet.dst) {
                inbox.push_back(s.packet);
                self.metrics.delivered.inc();
            } else {
                self.metrics.dropped.inc(); // no listener: like ICMP unreachable
            }
        }
    }

    /// Advance time just enough to deliver the next in-flight packet.
    /// Returns false if the network is quiescent.
    pub fn step(&mut self) -> bool {
        match self.in_flight.peek() {
            None => false,
            Some(Reverse(s)) => {
                let t = s.deliver_at.max(self.now_ms());
                self.time_ms.store(t, Ordering::SeqCst);
                self.deliver_due();
                true
            }
        }
    }

    /// Run until no packets are in flight.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Take the next packet queued at `ep`.
    pub fn recv(&mut self, ep: Endpoint) -> Option<Packet> {
        self.inboxes.get_mut(&ep)?.pop_front()
    }

    /// Attach a promiscuous observer.
    pub fn add_tap(&mut self, tap: Tap) {
        self.taps.push(tap);
    }

    /// Attach a tap that records packets into a shared buffer and return
    /// the buffer — the standard eavesdropper/replayer setup. The buffer
    /// is bounded at [`DEFAULT_CAPTURE_CAP`] packets; see
    /// [`SimNet::add_capture_bounded`].
    pub fn add_capture(&mut self) -> Arc<Mutex<Vec<Packet>>> {
        self.add_capture_bounded(DEFAULT_CAPTURE_CAP)
    }

    /// Attach a capture tap holding at most `cap` packets. Once full, the
    /// earliest traffic is kept (what an attacker tapes first is the
    /// interesting part) and later packets are counted in the registry as
    /// `net_capture_dropped_total` instead of growing the buffer for the
    /// whole run.
    pub fn add_capture_bounded(&mut self, cap: usize) -> Arc<Mutex<Vec<Packet>>> {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let clone = Arc::clone(&buf);
        let dropped = self.registry.counter("net_capture_dropped_total");
        self.add_tap(Box::new(move |p| {
            let mut b = clone.lock();
            if b.len() < cap {
                b.push(p.clone());
            } else {
                dropped.inc();
            }
        }));
        buf
    }

    /// Disconnect or reconnect a host (all its endpoints).
    pub fn set_partitioned(&mut self, addr: crate::Ipv4, down: bool) {
        if down {
            self.partitioned.insert(addr);
        } else {
            self.partitioned.remove(&addr);
        }
    }
}

/// A per-host wall clock derived from simulated time.
///
/// `skew_secs` models the paper's §4.3 assumption: "It is assumed that
/// clocks are synchronized to within several minutes" — tests set skews on
/// either side of the window and watch requests be accepted or rejected.
#[derive(Clone)]
pub struct HostClock {
    time_ms: Arc<AtomicU64>,
    skew_secs: i64,
}

impl HostClock {
    /// A clock reading `EPOCH_1987 + sim_time + skew`.
    pub fn new(time_ms: Arc<AtomicU64>, skew_secs: i64) -> Self {
        HostClock { time_ms, skew_secs }
    }

    /// Current time in seconds since the UNIX epoch, as this host sees it.
    pub fn now(&self) -> u32 {
        let sim_secs = (self.time_ms.load(Ordering::SeqCst) / 1000) as i64;
        (i64::from(EPOCH_1987) + sim_secs + self.skew_secs) as u32
    }
}

/// Convenience: result of pumping a request/response pair (see [`crate::rpc`]).
pub type RecvResult = Result<Packet, NetError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, Ipv4};

    fn ep(a: u8, port: u16) -> Endpoint {
        Endpoint { addr: Ipv4([10, 0, 0, a]), port }
    }

    #[test]
    fn basic_delivery() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        net.send(ep(1, 1000), ep(2, 88), b"hello".to_vec());
        assert!(net.recv(ep(2, 88)).is_none(), "latency: not yet delivered");
        net.run_until_idle();
        let p = net.recv(ep(2, 88)).expect("delivered");
        assert_eq!(p.payload, b"hello");
        assert_eq!(p.src, ep(1, 1000));
    }

    #[test]
    fn delivery_order_is_fifo_at_equal_latency() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        for i in 0..10u8 {
            net.send(ep(1, 1000), ep(2, 88), vec![i]);
        }
        net.run_until_idle();
        for i in 0..10u8 {
            assert_eq!(net.recv(ep(2, 88)).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn loss_drops_packets_deterministically() {
        let cfg = NetConfig { loss: 0.5, seed: 42, ..Default::default() };
        let run = |cfg: NetConfig| {
            let mut net = SimNet::new(cfg);
            net.bind(ep(2, 88));
            for i in 0..100u8 {
                net.send(ep(1, 1), ep(2, 88), vec![i]);
            }
            net.run_until_idle();
            let mut got = Vec::new();
            while let Some(p) = net.recv(ep(2, 88)) {
                got.push(p.payload[0]);
            }
            got
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same seed, same losses");
        assert!(a.len() < 80 && a.len() > 20, "roughly half dropped: {}", a.len());
    }

    #[test]
    fn duplication_delivers_twice() {
        let cfg = NetConfig { dup: 1.0, ..Default::default() };
        let mut net = SimNet::new(cfg);
        net.bind(ep(2, 88));
        net.send(ep(1, 1), ep(2, 88), b"x".to_vec());
        net.run_until_idle();
        assert!(net.recv(ep(2, 88)).is_some());
        assert!(net.recv(ep(2, 88)).is_some(), "duplicate expected");
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn partition_blocks_host() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        net.set_partitioned(Ipv4([10, 0, 0, 2]), true);
        net.send(ep(1, 1), ep(2, 88), b"x".to_vec());
        net.run_until_idle();
        assert!(net.recv(ep(2, 88)).is_none());
        net.set_partitioned(Ipv4([10, 0, 0, 2]), false);
        net.send(ep(1, 1), ep(2, 88), b"y".to_vec());
        net.run_until_idle();
        assert!(net.recv(ep(2, 88)).is_some());
    }

    #[test]
    fn tap_sees_all_traffic_including_spoofed() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        let captured = net.add_capture();
        net.send(ep(1, 1), ep(2, 88), b"a".to_vec());
        net.send_spoofed(ep(9, 9), ep(2, 88), b"forged".to_vec());
        net.run_until_idle();
        let buf = captured.lock();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[1].src, ep(9, 9));
        assert_eq!(buf[1].payload, b"forged");
        assert!(!buf[0].spoofed, "honest send is not flagged");
        assert!(buf[1].spoofed, "spoofed send carries the tap flag");
    }

    #[test]
    fn inject_flags_journals_and_counts_spoofed_traffic() {
        let mut net = SimNet::new(NetConfig::default());
        let registry = net.registry();
        let journal = Arc::new(Journal::new(64));
        net.set_journal(Arc::clone(&journal));
        net.bind(ep(2, 88));
        net.send(ep(1, 1), ep(2, 88), b"honest".to_vec());
        net.inject(
            InjectKind::Replay,
            ep(9, 9),
            ep(2, 88),
            b"replayed".to_vec(),
            Some(TraceId(7)),
        );
        net.run_until_idle();
        assert!(!net.recv(ep(2, 88)).expect("honest").spoofed);
        assert!(net.recv(ep(2, 88)).expect("injected").spoofed);
        assert_eq!(registry.counter_value("net_spoofed_total"), 1);
        let events = journal.dump();
        let spoofed: Vec<_> =
            events.iter().filter(|e| e.kind == EventKind::NetSpoofed).collect();
        assert_eq!(spoofed.len(), 1, "one net_spoofed event");
        assert_eq!(spoofed[0].trace, Some(TraceId(7)));
        let mut line = String::new();
        spoofed[0].render_line(&mut line);
        assert!(line.contains("kind=replay"), "the attack class rides the event: {line}");
    }

    #[test]
    fn capture_buffer_is_bounded_and_counts_drops() {
        let mut net = SimNet::new(NetConfig::default());
        let registry = net.registry();
        net.bind(ep(2, 88));
        let captured = net.add_capture_bounded(3);
        for i in 0..10u8 {
            net.send(ep(1, 1), ep(2, 88), vec![i]);
        }
        net.run_until_idle();
        let buf = captured.lock();
        assert_eq!(buf.len(), 3, "cap holds");
        assert_eq!(buf[0].payload, vec![0], "earliest traffic kept");
        assert_eq!(registry.counter_value("net_capture_dropped_total"), 7);
    }

    #[test]
    fn trace_metadata_rides_the_packet_not_the_wire() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        let t = TraceId(0xBEEF);
        net.send_traced(ep(1, 1), ep(2, 88), b"x".to_vec(), Some(t));
        net.send(ep(1, 1), ep(2, 88), b"x".to_vec());
        net.run_until_idle();
        let a = net.recv(ep(2, 88)).unwrap();
        let b = net.recv(ep(2, 88)).unwrap();
        assert_eq!(a.trace, Some(t));
        assert_eq!(b.trace, None);
        assert_eq!(a.payload, b.payload, "trace never alters wire bytes");
    }

    #[test]
    fn host_clocks_follow_sim_time_with_skew() {
        let mut net = SimNet::new(NetConfig::default());
        let good = HostClock::new(net.time_handle(), 0);
        let fast = HostClock::new(net.time_handle(), 600);
        assert_eq!(good.now(), EPOCH_1987);
        assert_eq!(fast.now(), EPOCH_1987 + 600);
        net.advance_ms(10_000);
        assert_eq!(good.now(), EPOCH_1987 + 10);
        assert_eq!(fast.now(), EPOCH_1987 + 610);
    }

    #[test]
    fn unbound_destination_counts_as_dropped() {
        let mut net = SimNet::new(NetConfig::default());
        net.send(ep(1, 1), ep(7, 7), b"x".to_vec());
        net.run_until_idle();
        assert_eq!(net.stats().dropped, 1);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use crate::Endpoint;

    #[test]
    fn jitter_reorders_packets() {
        let mut net = SimNet::new(NetConfig { jitter_ms: 50, seed: 9, ..Default::default() });
        let dst = Endpoint::new([10, 0, 0, 2], 88);
        net.bind(dst);
        for i in 0..30u8 {
            net.send(Endpoint::new([10, 0, 0, 1], 1), dst, vec![i]);
        }
        net.run_until_idle();
        let mut order = Vec::new();
        while let Some(p) = net.recv(dst) {
            order.push(p.payload[0]);
        }
        assert_eq!(order.len(), 30, "nothing lost");
        let sorted: Vec<u8> = (0..30).collect();
        assert_ne!(order, sorted, "jitter must reorder at least one pair");
    }

    #[test]
    fn zero_jitter_preserves_order() {
        let mut net = SimNet::new(NetConfig::default());
        let dst = Endpoint::new([10, 0, 0, 2], 88);
        net.bind(dst);
        for i in 0..30u8 {
            net.send(Endpoint::new([10, 0, 0, 1], 1), dst, vec![i]);
        }
        net.run_until_idle();
        let mut order = Vec::new();
        while let Some(p) = net.recv(dst) {
            order.push(p.payload[0]);
        }
        assert_eq!(order, (0..30).collect::<Vec<u8>>());
    }
}

#[cfg(test)]
mod fault_injection_tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan, FaultWindow, LinkMatch};
    use crate::{Endpoint, Ipv4};

    fn ep(a: u8, port: u16) -> Endpoint {
        Endpoint { addr: Ipv4([10, 0, 0, a]), port }
    }

    #[test]
    fn fault_corruption_delivers_mutated_bytes_and_counts() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        let mut plan = FaultPlan::new(7);
        plan.push(FaultWindow {
            from_ms: 0,
            until_ms: u64::MAX,
            link: LinkMatch::Any,
            fault: Fault::Corrupt { prob: 1.0, max_bits: 1 },
        });
        net.set_fault_plan(plan);
        net.send(ep(1, 1), ep(2, 88), vec![0u8; 16]);
        net.run_until_idle();
        let p = net.recv(ep(2, 88)).expect("corrupted packets are still delivered");
        assert_ne!(p.payload, vec![0u8; 16], "exactly one bit flipped");
        assert_eq!(p.payload.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let s = net.stats();
        assert_eq!(s.corrupted, 1);
        assert_eq!(s.delivered, 1, "corruption never drops the packet itself");
    }

    #[test]
    fn fault_partition_window_drops_then_heals_by_schedule() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        let mut plan = FaultPlan::new(1);
        plan.push(FaultWindow {
            from_ms: 0,
            until_ms: 50,
            link: LinkMatch::Host(Ipv4([10, 0, 0, 2])),
            fault: Fault::Partition,
        });
        net.set_fault_plan(plan);
        net.send(ep(1, 1), ep(2, 88), b"during".to_vec());
        net.run_until_idle();
        assert!(net.recv(ep(2, 88)).is_none(), "window is open: dropped");
        net.advance_ms(60);
        net.send(ep(1, 1), ep(2, 88), b"after".to_vec());
        net.run_until_idle();
        assert_eq!(net.recv(ep(2, 88)).unwrap().payload, b"after");
    }

    #[test]
    fn heal_faults_closes_windows_early() {
        let mut net = SimNet::new(NetConfig::default());
        net.bind(ep(2, 88));
        let mut plan = FaultPlan::new(1);
        plan.push(FaultWindow {
            from_ms: 0,
            until_ms: u64::MAX,
            link: LinkMatch::Any,
            fault: Fault::Loss(1.0),
        });
        net.set_fault_plan(plan);
        net.send(ep(1, 1), ep(2, 88), b"lost".to_vec());
        net.run_until_idle();
        assert!(net.recv(ep(2, 88)).is_none());
        net.heal_faults();
        net.send(ep(1, 1), ep(2, 88), b"ok".to_vec());
        net.run_until_idle();
        assert_eq!(net.recv(ep(2, 88)).unwrap().payload, b"ok");
    }

    #[test]
    fn conservation_holds_under_faults_at_idle() {
        let cfg = NetConfig { loss: 0.2, dup: 0.2, jitter_ms: 3, seed: 11, ..Default::default() };
        let mut net = SimNet::new(cfg);
        net.bind(ep(2, 88));
        let mut plan = FaultPlan::new(99);
        for (fault, from) in [
            (Fault::Loss(0.3), 0),
            (Fault::Duplicate(0.3), 0),
            (Fault::Corrupt { prob: 0.3, max_bits: 4 }, 0),
            (Fault::Delay(5), 0),
        ] {
            plan.push(FaultWindow {
                from_ms: from,
                until_ms: u64::MAX,
                link: LinkMatch::Any,
                fault,
            });
        }
        net.set_fault_plan(plan);
        for i in 0..200u8 {
            net.send(ep(1, 1), ep(2, 88), vec![i; 24]);
            if i % 8 == 0 {
                net.run_until_idle();
            }
        }
        net.run_until_idle();
        while net.recv(ep(2, 88)).is_some() {}
        let s = net.stats();
        assert_eq!(
            s.sent + s.duplicated,
            s.delivered + s.dropped,
            "conservation: injected == delivered + dropped ({s:?})"
        );
        assert!(s.corrupted > 0 && s.dropped > 0 && s.duplicated > 0);
    }
}
