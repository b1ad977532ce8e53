//! # krb-netsim — the network substrate
//!
//! Project Athena ran Kerberos over its campus network; this crate is the
//! reproduction's substitute (see DESIGN.md). It provides:
//!
//! * [`sim::SimNet`] — a deterministic in-process datagram network with
//!   configurable latency, loss and duplication, promiscuous taps
//!   (eavesdroppers), source-address spoofing, and host partitions. All the
//!   security experiments run here so that attacks are scriptable and
//!   reproducible.
//! * [`rpc::Router`] — request/response dispatch between in-process
//!   services, matching the single-datagram shape of Kerberos exchanges.
//! * [`udp`] — the same [`rpc::Service`] trait served over a real
//!   `UdpSocket`, proving transport-independence.
//! * [`sim::HostClock`] — per-host clocks with configurable skew, for the
//!   paper's §4.3 clock-synchronization assumption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod rpc;
pub mod sim;
pub mod udp;

pub use fault::{flip_bits, Fault, FaultAction, FaultPlan, FaultWindow, LinkMatch};
pub use rpc::{Router, Service};
pub use sim::{HostClock, NetConfig, NetStats, SimNet, EPOCH_1987};
pub use udp::{udp_request, UdpServer};

/// An IPv4-style host address. Tickets and authenticators carry these
/// (paper Figures 3 and 4: "addr").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Ipv4(pub [u8; 4]);

impl std::fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// A datagram endpoint: host address plus port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Endpoint {
    /// Host address.
    pub addr: Ipv4,
    /// UDP-style port.
    pub port: u16,
}

impl Endpoint {
    /// Construct from octets and port.
    pub fn new(octets: [u8; 4], port: u16) -> Self {
        Endpoint { addr: Ipv4(octets), port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// One datagram on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Claimed source endpoint (spoofable — the network does not verify it).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Wire sequence number assigned by the simulator (0 for real UDP).
    pub id: u64,
    /// Out-of-band trace correlation id. This is simulator *metadata* —
    /// the V4 wire format never carries it (`payload` is the wire), so
    /// byte-level protocol behaviour is unchanged; services echo it onto
    /// replies so a login's hops share one trace. `None` on real UDP.
    pub trace: Option<krb_telemetry::TraceId>,
    /// Whether the sender went through the spoofed-send path
    /// ([`SimNet::send_spoofed`]/[`SimNet::inject`]). Tap *metadata* only —
    /// a real receiver cannot see this bit (the V4 wire carries nothing
    /// like it), so protocol code must never branch on it; it exists so
    /// captures and timelines can tell injected traffic from honest
    /// traffic. Always `false` on real UDP.
    pub spoofed: bool,
}

/// Why an injected packet was put on the wire — the attack taxonomy a
/// spoofed send announces to the journal and the tap metadata
/// ([`SimNet::inject`]). Plain [`SimNet::send_spoofed`] uses
/// [`InjectKind::Spoof`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectKind {
    /// Generic spoofed-source send with no declared attack class.
    Spoof,
    /// A captured datagram re-sent verbatim.
    Replay,
    /// A captured datagram re-sent after shifting the victim's clock view.
    TimeShift,
    /// A message assembled from pieces of different captured sessions.
    Splice,
    /// A message built from forged material (guessed or learned keys).
    Forge,
    /// Traffic pretending to originate from a KDC address.
    Impersonate,
}

impl InjectKind {
    /// Stable snake_case slug used in journal events.
    pub fn as_str(self) -> &'static str {
        match self {
            InjectKind::Spoof => "spoof",
            InjectKind::Replay => "replay",
            InjectKind::TimeShift => "time_shift",
            InjectKind::Splice => "splice",
            InjectKind::Forge => "forge",
            InjectKind::Impersonate => "impersonate",
        }
    }

    /// Inverse of [`InjectKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "spoof" => InjectKind::Spoof,
            "replay" => InjectKind::Replay,
            "time_shift" => InjectKind::TimeShift,
            "splice" => InjectKind::Splice,
            "forge" => InjectKind::Forge,
            "impersonate" => InjectKind::Impersonate,
            _ => return None,
        })
    }
}

/// Errors from the network substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No reply within the deadline (packet lost, service down, partition).
    Timeout,
    /// Underlying socket error (real UDP only).
    Io(String),
}

impl NetError {
    pub(crate) fn io(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Well-known ports of the reproduction (mirroring historical assignments).
pub mod ports {
    /// Authentication server / TGS ("kerberos", udp 750 in V4).
    pub const KDC: u16 = 750;
    /// Administration server (KDBM).
    pub const KADM: u16 = 751;
    /// Database propagation (kpropd).
    pub const KPROP: u16 = 754;
    /// Hesiod nameserver.
    pub const HESIOD: u16 = 753;
    /// Kerberized rlogin.
    pub const KLOGIN: u16 = 543;
    /// Post Office Protocol.
    pub const POP: u16 = 110;
    /// Zephyr notification service.
    pub const ZEPHYR: u16 = 2102;
    /// NFS (mount daemon + server share one endpoint here).
    pub const NFS: u16 = 2049;
    /// Service Management System.
    pub const SMS: u16 = 760;
    /// The `krb-mon` introspection plane (`MonService` query frames).
    /// Not a historical V4 assignment: chosen from the same privileged
    /// range the KDC family occupies, unused by any service above.
    pub const MON: u16 = 755;
}
