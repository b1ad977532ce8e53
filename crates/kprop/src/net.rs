//! Propagation over the network: `kpropd` is one service
//! ([`IncrKpropdService`]) behind the netsim seam, so the simulated
//! network, `netsim::udp::UdpServer` and the TCP stream of [`TcpKpropd`]
//! (the original `kprop` pushed its dumps over TCP) all carry the same
//! packets to the same verify-and-apply.

use crate::incr::{packet_kind, Applied, IncrReplica, PacketKind};
use crate::PropError;
use krb_crypto::DesKey;
use krb_kdb::{MemStore, PrincipalDb};
use krb_netsim::udp::endpoint_of;
use krb_netsim::{Packet, Service};
use krb_telemetry::{
    ClockUs, Component, Counter, EventKind, Field, Gauge, Journal, Registry, TraceCtx,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `kpropd`: wraps an [`IncrReplica`] behind the netsim service seam. Each
/// packet (segment or sequenced full dump) is counted
/// (`kprop_rounds_total`, `kprop_bytes_total`, then `kprop_accepted_total`
/// with `kprop_incr_total`/`kprop_full_total`, or `kprop_rejected_total`),
/// verified and applied stage-then-swap; on commit
/// the install hook receives the new mirror so the serving KDC can swap its
/// snapshot. Replies `OK <seq>` (the applied sequence number, which is the
/// master's cursor ack) or `ERR <why>`.
pub struct IncrKpropdService {
    replica: IncrReplica,
    on_install: Box<dyn FnMut(&PrincipalDb<MemStore>) + Send>,
    registry: Arc<Registry>,
    rounds: Counter,
    accepted: Counter,
    rejected: Counter,
    bytes: Counter,
    incr_rounds: Counter,
    full_rounds: Counter,
    applied_seq: Gauge,
    tracing: Option<(Arc<Journal>, ClockUs)>,
}

impl IncrKpropdService {
    /// Build around a fresh (un-bootstrapped) replica and an install hook.
    pub fn new(
        master_key: DesKey,
        on_install: impl FnMut(&PrincipalDb<MemStore>) + Send + 'static,
    ) -> Self {
        let registry = Registry::shared();
        let mut svc = IncrKpropdService {
            replica: IncrReplica::new(master_key),
            on_install: Box::new(on_install),
            registry: Arc::clone(&registry),
            rounds: Counter::new(),
            accepted: Counter::new(),
            rejected: Counter::new(),
            bytes: Counter::new(),
            incr_rounds: Counter::new(),
            full_rounds: Counter::new(),
            applied_seq: Gauge::new(),
            tracing: None,
        };
        svc.bind_metrics(&registry);
        svc
    }

    fn bind_metrics(&mut self, registry: &Registry) {
        self.rounds = registry.counter("kprop_rounds_total");
        self.accepted = registry.counter("kprop_accepted_total");
        self.rejected = registry.counter("kprop_rejected_total");
        self.bytes = registry.counter("kprop_bytes_total");
        self.incr_rounds = registry.counter("kprop_incr_total");
        self.full_rounds = registry.counter("kprop_full_total");
        self.applied_seq = registry.gauge("kprop_applied_seq");
    }

    /// The registry this service reports into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Report into a caller-provided registry (call right after
    /// construction; counts recorded so far are dropped).
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.bind_metrics(&registry);
        self.registry = registry;
    }

    /// Attach an event journal: transfers arriving with a trace id on the
    /// packet (simulator metadata, never wire bytes) are journaled as
    /// `kprop_transfer` followed by `kprop_apply` or `kprop_reject`.
    pub fn set_journal(&mut self, journal: Arc<Journal>, clock_us: ClockUs) {
        self.tracing = Some((journal, clock_us));
    }

    /// The replica's applied sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.replica.applied_seq()
    }

    /// Read access to the replica (tests and oracles).
    pub fn replica(&self) -> &IncrReplica {
        &self.replica
    }
}

impl Service for IncrKpropdService {
    fn handle(&mut self, req: &Packet) -> Option<Vec<u8>> {
        self.rounds.inc();
        self.bytes.add(req.payload.len() as u64);
        let mode = match packet_kind(&req.payload) {
            Some(PacketKind::IncrSegment) => "incr",
            Some(PacketKind::FullWithSeq) => "full",
            None => "unknown",
        };
        let ctx = match (&self.tracing, req.trace) {
            (Some((journal, clock)), Some(trace)) => {
                Some(TraceCtx::new(Arc::clone(journal), ClockUs::clone(clock), trace))
            }
            _ => None,
        };
        if let Some(ctx) = &ctx {
            ctx.record(
                Component::Kprop,
                EventKind::KpropTransfer,
                vec![
                    ("bytes", Field::from(req.payload.len())),
                    ("mode", Field::from(mode)),
                ],
            );
        }
        match self.replica.apply(&req.payload) {
            Ok(applied) => {
                self.accepted.inc();
                let (entries, seq) = match applied {
                    Applied::Incremental { records, seq } => {
                        self.incr_rounds.inc();
                        (records, seq)
                    }
                    Applied::Full { entries, seq } => {
                        self.full_rounds.inc();
                        (entries, seq)
                    }
                };
                self.applied_seq.set(seq as i64);
                if let Some(db) = self.replica.db() {
                    (self.on_install)(db);
                }
                if let Some(ctx) = &ctx {
                    ctx.record(
                        Component::Kprop,
                        EventKind::KpropApply,
                        vec![
                            ("entries", Field::from(entries)),
                            ("seq", Field::from(seq)),
                            ("mode", Field::from(mode)),
                        ],
                    );
                }
                Some(format!("OK {seq}").into_bytes())
            }
            Err(e) => {
                self.rejected.inc();
                if let Some(ctx) = &ctx {
                    ctx.record(
                        Component::Kprop,
                        EventKind::KpropReject,
                        vec![
                            ("why", Field::from(reject_kind(&e))),
                            ("mode", Field::from(mode)),
                        ],
                    );
                }
                Some(format!("ERR {e}").into_bytes())
            }
        }
    }
}

/// Short classification of a propagation refusal for journal fields and
/// report tallies (the full [`PropError`] rendering goes on the wire).
pub fn reject_kind(e: &PropError) -> &'static str {
    match e {
        PropError::BadPacket => "bad_packet",
        PropError::ChecksumMismatch => "checksum",
        PropError::ReplayedUpdate { .. } => "replayed_update",
        PropError::SequenceGap { .. } => "sequence_gap",
        PropError::Db(_) => "db",
    }
}

/// Typed view of an incremental `kpropd` reply (`OK <seq>` / `ERR <why>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrReply {
    /// The slave applied the transfer and is now at this sequence number.
    Accepted(u64),
    /// The slave refused; the reason string from the wire.
    Rejected(String),
}

/// Parse an [`IncrKpropdService`] reply. Anything unreadable is a
/// rejection: an unparseable ack must never advance the master's cursor.
pub fn parse_incr_reply(reply: &[u8]) -> IncrReply {
    match std::str::from_utf8(reply) {
        Ok(s) if s.starts_with("OK ") => match s[3..].parse::<u64>() {
            Ok(seq) => IncrReply::Accepted(seq),
            Err(_) => IncrReply::Rejected("malformed ack seq".to_string()),
        },
        Ok(s) if s.starts_with("ERR ") => IncrReply::Rejected(s[4..].to_string()),
        _ => IncrReply::Rejected("malformed reply".to_string()),
    }
}

/// `kpropd` on a TCP stream: a length-prefixed shim around a [`Service`],
/// as `netsim::udp::UdpServer` is for datagrams. Each connection carries
/// one `u32`-length-prefixed packet in and the service's reply, framed the
/// same way, out. One accept loop on a thread; stops when the returned
/// guard is dropped.
pub struct TcpKpropd {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The bound address.
    pub local_addr: SocketAddr,
}

impl TcpKpropd {
    /// Listen on `addr` (e.g. `127.0.0.1:0`) and hand every framed packet
    /// to `svc`.
    pub fn spawn(addr: &str, mut svc: impl Service + 'static) -> Result<Self, PropError> {
        let listener = TcpListener::bind(addr).map_err(|_| PropError::BadPacket)?;
        let local_addr = listener.local_addr().map_err(|_| PropError::BadPacket)?;
        listener.set_nonblocking(true).map_err(|_| PropError::BadPacket)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let dst = endpoint_of(local_addr);
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut conn, peer)) => {
                        let _ = conn.set_nonblocking(false);
                        let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                        // A frame that cannot be read is refused here and
                        // never reaches the service; either way only this
                        // connection ends.
                        let reply = match read_framed(&mut conn) {
                            Ok(payload) => svc.handle(&Packet {
                                src: endpoint_of(peer),
                                dst,
                                payload,
                                id: 0,
                                trace: None,
                                spoofed: false,
                            }),
                            Err(e) => Some(format!("ERR {e}").into_bytes()),
                        };
                        if let Some(reply) = reply {
                            let _ = conn.write_all(&(reply.len() as u32).to_be_bytes());
                            let _ = conn.write_all(&reply);
                        }
                    }
                    // Nothing pending, or an accept that failed for one
                    // peer: neither ends the server.
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        });
        Ok(TcpKpropd { stop, handle: Some(handle), local_addr })
    }
}

impl Drop for TcpKpropd {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn read_framed(conn: &mut TcpStream) -> Result<Vec<u8>, PropError> {
    let mut len_buf = [0u8; 4];
    conn.read_exact(&mut len_buf).map_err(|_| PropError::BadPacket)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > 64 << 20 {
        return Err(PropError::BadPacket);
    }
    let mut buf = vec![0u8; len];
    conn.read_exact(&mut buf).map_err(|_| PropError::BadPacket)?;
    Ok(buf)
}

/// Master side of the TCP transfer: push one framed packet and return the
/// slave's reply bytes (`OK <seq>` / `ERR <why>`), which
/// [`crate::SlaveCursor::settle`] judges. `Err` means the stream itself
/// failed.
pub fn tcp_kprop_send(addr: SocketAddr, packet: &[u8]) -> Result<Vec<u8>, PropError> {
    let mut conn = TcpStream::connect(addr).map_err(|_| PropError::BadPacket)?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).map_err(|_| PropError::BadPacket)?;
    conn.write_all(&(packet.len() as u32).to_be_bytes()).map_err(|_| PropError::BadPacket)?;
    conn.write_all(packet).map_err(|_| PropError::BadPacket)?;
    let mut len_buf = [0u8; 4];
    conn.read_exact(&mut len_buf).map_err(|_| PropError::BadPacket)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    let mut reply = vec![0u8; len.min(1024)];
    conn.read_exact(&mut reply).map_err(|_| PropError::BadPacket)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_full_seq, build_incr_segment, SlaveCursor, UpdateLog, UpdateOp};
    use krb_crypto::{string_to_key, Scheduled};
    use krb_kdb::dump as kdump;
    use krb_netsim::{Endpoint, NetConfig, Router, SimNet};
    use parking_lot::Mutex;

    const NOW: u32 = 600_000_000;
    const SLAVE_EP: Endpoint = Endpoint { addr: krb_netsim::Ipv4([18, 72, 0, 11]), port: krb_netsim::ports::KPROP };
    const MASTER_EP: Endpoint = Endpoint { addr: krb_netsim::Ipv4([18, 72, 0, 10]), port: 1000 };

    fn master_db() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
        for i in 0..10 {
            db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        db
    }

    fn full_dump(db: &PrincipalDb<MemStore>) -> Vec<u8> {
        build_full_seq(db.master_sched(), 0, kdump::dump(db).unwrap().as_bytes())
    }

    /// A router with `svc` as the slave's `kpropd`.
    fn serve(svc: IncrKpropdService) -> Router {
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        router.serve(SLAVE_EP, svc);
        router
    }

    #[test]
    fn simulated_network_propagation() {
        let master = master_db();
        let received: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
        let received2 = Arc::clone(&received);
        let mut router = serve(IncrKpropdService::new(string_to_key("mk"), move |db| {
            *received2.lock() = db.len();
        }));
        let reply = router.rpc(MASTER_EP, SLAVE_EP, &full_dump(&master)).unwrap();
        assert_eq!(reply, b"OK 0");
        assert_eq!(*received.lock(), 11); // 10 users + K.M
    }

    #[test]
    fn propagation_rounds_and_bytes_are_counted() {
        let master = master_db();
        let mut svc = IncrKpropdService::new(string_to_key("mk"), |_| {});
        let registry = svc.registry();
        // The registry handle outlives the service being moved into the
        // router — that is how an experiment reads counters afterwards.
        svc.set_registry(Arc::clone(&registry)); // idempotent: same handles re-bound
        let mut router = serve(svc);

        let good = full_dump(&master);
        let good_len = good.len() as u64;
        assert_eq!(router.rpc(MASTER_EP, SLAVE_EP, &good).unwrap(), b"OK 0");
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(router.rpc(MASTER_EP, SLAVE_EP, &bad).unwrap().starts_with(b"ERR"));

        assert_eq!(registry.counter_value("kprop_rounds_total"), 2);
        assert_eq!(registry.counter_value("kprop_accepted_total"), 1);
        assert_eq!(registry.counter_value("kprop_full_total"), 1);
        assert_eq!(registry.counter_value("kprop_rejected_total"), 1);
        assert_eq!(registry.counter_value("kprop_bytes_total"), 2 * good_len);
    }

    #[test]
    fn simulated_network_rejects_tamper() {
        let master = master_db();
        let mut router = serve(IncrKpropdService::new(string_to_key("mk"), |_| {}));
        let mut packet = full_dump(&master);
        let n = packet.len();
        packet[n - 1] ^= 1;
        let reply = router.rpc(Endpoint::new([10, 0, 0, 66], 1), SLAVE_EP, &packet).unwrap();
        assert!(reply.starts_with(b"ERR"));
    }

    #[test]
    fn journal_records_transfer_and_verdict_per_round() {
        use krb_telemetry::{fixed_clock_us, EventKind, TraceId};
        let master = master_db();
        let mut svc = IncrKpropdService::new(string_to_key("mk"), |_| {});
        let journal = Journal::shared();
        svc.set_journal(Arc::clone(&journal), fixed_clock_us(7));
        let mut router = serve(svc);

        let good = full_dump(&master);
        let trace = TraceId::derive(9, 0);
        assert_eq!(router.rpc_traced(MASTER_EP, SLAVE_EP, &good, Some(trace)).unwrap(), b"OK 0");
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let trace2 = TraceId::derive(9, 1);
        assert!(router
            .rpc_traced(MASTER_EP, SLAVE_EP, &bad, Some(trace2))
            .unwrap()
            .starts_with(b"ERR"));

        let events = journal.dump();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::KpropTransfer,
                EventKind::KpropApply,
                EventKind::KpropTransfer,
                EventKind::KpropReject
            ]
        );
        assert_eq!(events[0].trace, Some(trace));
        assert_eq!(events[3].trace, Some(trace2));
    }

    /// The frame `kprop` spoke before `KFULSEQ1`: checksum ‖ length ‖ dump,
    /// no magic. Kept only to show the one service refuses it.
    fn legacy_frame(db: &PrincipalDb<MemStore>) -> Vec<u8> {
        let dump = kdump::dump(db).unwrap();
        let mut out =
            krb_crypto::cbc_checksum_with(db.master_sched(), &[0u8; 8], dump.as_bytes()).to_vec();
        out.extend_from_slice(&(dump.len() as u32).to_be_bytes());
        out.extend_from_slice(dump.as_bytes());
        out
    }

    #[test]
    fn legacy_unsequenced_frame_is_refused() {
        use krb_telemetry::{fixed_clock_us, TraceId};
        let master = master_db();
        let mirror: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let mirror2 = Arc::clone(&mirror);
        let mut svc = IncrKpropdService::new(string_to_key("mk"), move |db| {
            *mirror2.lock() = kdump::dump(db).ok();
        });
        let registry = svc.registry();
        let journal = Journal::shared();
        svc.set_journal(Arc::clone(&journal), fixed_clock_us(7));
        let mut router = serve(svc);
        assert_eq!(router.rpc(MASTER_EP, SLAVE_EP, &full_dump(&master)).unwrap(), b"OK 0");
        let before = mirror.lock().clone();

        let mut newer = master_db();
        newer.delete("u3", "").unwrap();
        let trace = TraceId::derive(9, 2);
        let reply = router.rpc_traced(MASTER_EP, SLAVE_EP, &legacy_frame(&newer), Some(trace)).unwrap();
        assert!(reply.starts_with(b"ERR"), "{:?}", String::from_utf8_lossy(&reply));
        assert_eq!(registry.counter_value("kprop_rejected_total"), 1);
        assert_eq!(registry.counter_value("kprop_accepted_total"), 1);
        let reject = journal.dump().into_iter().find(|e| e.kind == EventKind::KpropReject).unwrap();
        assert!(reject.fields.contains(&("why", Field::from("bad_packet"))), "{reject:?}");
        assert_eq!(*mirror.lock(), before, "a refused frame must not reach the install hook");
    }

    #[test]
    fn tcp_carries_a_full_dump_then_a_segment() {
        let mut master = master_db();
        let installed: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
        let installed2 = Arc::clone(&installed);
        let svc = IncrKpropdService::new(string_to_key("mk"), move |db| {
            *installed2.lock() = db.len();
        });
        let server = TcpKpropd::spawn("127.0.0.1:0", svc).unwrap();
        let mut log = UpdateLog::new(16);
        let mut cursor = SlaveCursor::new();

        let boot = cursor.next_transfer(&master, &log, false).unwrap().unwrap();
        let reply = tcp_kprop_send(server.local_addr, &boot.packet).unwrap();
        assert!(cursor.settle(&boot, Some(&reply)), "{:?}", String::from_utf8_lossy(&reply));
        assert_eq!(*installed.lock(), 11);

        // A peer that promises 4 GiB and one that hangs up mid-frame are
        // each refused on their own connection; the listener lives on.
        let mut liar = TcpStream::connect(server.local_addr).unwrap();
        liar.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let mut refusal = Vec::new();
        liar.read_to_end(&mut refusal).unwrap();
        assert!(refusal[4..].starts_with(b"ERR"), "{refusal:?}");
        let mut short = TcpStream::connect(server.local_addr).unwrap();
        short.write_all(&[0, 0, 0, 9, b'K']).unwrap();
        drop(short);

        master.add_principal("late", "", &string_to_key("pw"), NOW * 2, 96, NOW, "i.").unwrap();
        log.append(UpdateOp::Put(master.get("late", "").unwrap().unwrap()));
        let seg = cursor.next_transfer(&master, &log, false).unwrap().unwrap();
        assert_eq!(seg.mode(), "incr");
        let reply = tcp_kprop_send(server.local_addr, &seg.packet).unwrap();
        assert_eq!(reply, b"OK 1");
        assert!(cursor.settle(&seg, Some(&reply)));
        assert_eq!(*installed.lock(), 12);
    }

    #[test]
    fn tcp_propagation_rejects_wrong_key() {
        let master = master_db();
        let server =
            TcpKpropd::spawn("127.0.0.1:0", IncrKpropdService::new(string_to_key("mk"), |_| {}))
                .unwrap();
        let dump = kdump::dump(&master).unwrap();
        let forged = build_full_seq(&Scheduled::new(&string_to_key("wrong")), 0, dump.as_bytes());
        // The refusal arrives as the slave worded it, not as a guess.
        assert_eq!(
            tcp_kprop_send(server.local_addr, &forged).unwrap(),
            format!("ERR {}", PropError::ChecksumMismatch).into_bytes()
        );
        let seg = build_incr_segment(master.master_sched(), 0, &[]).unwrap();
        assert!(tcp_kprop_send(server.local_addr, &seg).unwrap().starts_with(b"ERR sequence gap"));
    }
}
