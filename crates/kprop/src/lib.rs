//! # krb-kprop — Kerberos database propagation
//!
//! The "propagation software" of Figure 1 in Steiner, Neuman & Schiller
//! (USENIX 1988), per §5.3 and Figure 13:
//!
//! > "The master database is dumped every hour. The database is sent, in
//! > its entirety, to the slave machines ... First kprop sends a checksum
//! > of the new database it is about to send. The checksum is encrypted in
//! > the Kerberos master database key, which both the master and slave
//! > Kerberos machines possess. ... The slave propagation server
//! > calculates a checksum of the data it has received, and if it matches
//! > the checksum sent by the master, the new information is used to
//! > update the slave's database."
//!
//! The dump itself is safe to send because every key in it is already
//! encrypted in the master database key; the checksum defends against
//! *tampering* and against accepting data from anyone but the master.
//!
//! There is one such exchange here. [`incr`] holds the wire (a full dump
//! is a `KFULSEQ1` packet, an update run a `KINCSEG1` segment, both under
//! that checksum), the slave's verify-and-apply ([`IncrReplica`],
//! [`verify_full_seq`]) and the master's ship-and-corroborate step
//! ([`SlaveCursor`]); [`master`] is the master's whole half — write,
//! journal, ship — as one type ([`KpropMaster`]); [`net`] puts the slave
//! behind the netsim service seam ([`IncrKpropdService`]) and a TCP stream
//! ([`TcpKpropd`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod incr;
pub mod master;
pub mod net;

use krb_crypto::DesKey;
use krb_kdb::dump as kdump;
use krb_kdb::{DbError, PrincipalDb, PrincipalEntry, Store};

pub use incr::{
    build_full_seq, build_incr_segment, packet_kind, verify_full_seq, Applied, IncrReplica,
    PacketKind, SlaveCursor, Transfer, UpdateLog, UpdateOp, UpdateRecord, DEFAULT_LOG_CAP,
    FULL_MAGIC, INCR_MAGIC,
};
pub use master::{KpropMaster, MasterTx, Shipped, Tally};
pub use net::{
    parse_incr_reply, reject_kind, tcp_kprop_send, IncrKpropdService, IncrReply, TcpKpropd,
};

/// How often the master dumps and propagates: hourly (§5.3).
pub const PROPAGATION_INTERVAL_SECS: u32 = 3600;

/// Propagation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// Transfer framing is damaged.
    BadPacket,
    /// The keyed checksum did not match: tampering, corruption, or a
    /// sender who does not possess the master database key.
    ChecksumMismatch,
    /// An incremental segment started at or before an already-applied
    /// sequence number (duplicate delivery or a replayed capture).
    ReplayedUpdate {
        /// The replica's applied sequence number.
        applied: u64,
        /// First sequence number the refused transfer carried.
        first: u64,
    },
    /// An incremental segment started past the next expected sequence
    /// number: updates were lost in between (or arrived out of order);
    /// the master must fall back to a full dump.
    SequenceGap {
        /// The replica's applied sequence number.
        applied: u64,
        /// First sequence number the refused segment carried.
        first: u64,
    },
    /// The dump did not parse or install.
    Db(DbError),
}

impl std::fmt::Display for PropError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropError::BadPacket => write!(f, "malformed propagation packet"),
            PropError::ChecksumMismatch => write!(f, "propagation checksum mismatch"),
            PropError::ReplayedUpdate { applied, first } => write!(
                f,
                "replayed update: segment starts at seq {first} but {applied} is already applied"
            ),
            PropError::SequenceGap { applied, first } => write!(
                f,
                "sequence gap: segment starts at seq {first} but replica is at {applied}"
            ),
            PropError::Db(e) => write!(f, "propagation database error: {e}"),
        }
    }
}

impl std::error::Error for PropError {}

impl From<DbError> for PropError {
    fn from(e: DbError) -> Self {
        PropError::Db(e)
    }
}

/// Slave side, install half: replace the slave store's contents with the
/// entries [`verify_full_seq`] returned and reopen it as a principal
/// database under the same master key. Generic over the store, so a
/// file-backed slave installs through the same call as the in-memory mirror.
pub fn kpropd_install<S: Store>(
    mut store: S,
    entries: &[PrincipalEntry],
    master_key: DesKey,
) -> Result<PrincipalDb<S>, PropError> {
    kdump::install(&mut store, entries)?;
    Ok(PrincipalDb::open(store, master_key)?)
}

/// Hourly schedule bookkeeping: decides when the next dump is due.
#[derive(Debug, Clone, Copy)]
pub struct PropSchedule {
    last_dump: u32,
    /// Interval between dumps (seconds); hourly by default.
    pub interval: u32,
}

impl PropSchedule {
    /// Start the schedule at `now`.
    pub fn new(now: u32) -> Self {
        PropSchedule { last_dump: now, interval: PROPAGATION_INTERVAL_SECS }
    }

    /// Whether a propagation is due, and if so, mark it done.
    pub fn due(&mut self, now: u32) -> bool {
        if now.saturating_sub(self.last_dump) >= self.interval {
            self.last_dump = now;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::{string_to_key, Scheduled};
    use krb_kdb::MemStore;

    const NOW: u32 = 600_000_000;

    fn master() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("master"), NOW).unwrap();
        for i in 0..20 {
            db.add_principal(&format!("user{i}"), "", &string_to_key(&format!("pw{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        db
    }

    fn full_dump(db: &PrincipalDb<MemStore>) -> Vec<u8> {
        build_full_seq(db.master_sched(), 7, kdump::dump(db).unwrap().as_bytes())
    }

    fn receive(packet: &[u8]) -> Result<PrincipalDb<MemStore>, PropError> {
        let key = string_to_key("master");
        let (_, entries) = verify_full_seq(&Scheduled::new(&key), packet)?;
        kpropd_install(MemStore::new(), &entries, key)
    }

    #[test]
    fn propagation_round_trip() {
        let m = master();
        let packet = full_dump(&m);
        let (seq, _) = verify_full_seq(m.master_sched(), &packet).unwrap();
        assert_eq!(seq, 7);
        let slave = receive(&packet).unwrap();
        assert_eq!(slave.len(), m.len());
        // The slave can authenticate a user: keys decrypt identically.
        let (_, k) = slave.get_with_key("user7", "").unwrap().unwrap();
        assert_eq!(k.as_bytes(), string_to_key("pw7").as_bytes());
    }

    #[test]
    fn tampered_dump_rejected() {
        let m = master();
        let mut packet = full_dump(&m);
        // Flip one byte of the payload (an attacker editing an entry).
        let n = packet.len() - 5;
        packet[n] ^= 0x20;
        assert_eq!(receive(&packet).map(|_| ()).unwrap_err(), PropError::ChecksumMismatch);
    }

    #[test]
    fn forged_checksum_without_master_key_rejected() {
        // An attacker who can compute checksums but lacks the master key
        // cannot make the slave accept their data.
        let m = master();
        let dump = kdump::dump(&m).unwrap();
        let forged =
            build_full_seq(&Scheduled::new(&string_to_key("attacker-guess")), 7, dump.as_bytes());
        assert_eq!(receive(&forged).map(|_| ()).unwrap_err(), PropError::ChecksumMismatch);
    }

    #[test]
    fn truncated_packet_rejected_at_every_cut() {
        let m = master();
        let packet = full_dump(&m);
        for cut in 0..packet.len() {
            let err = verify_full_seq(m.master_sched(), &packet[..cut]).unwrap_err();
            // Before the payload starts there is nothing to checksum; after,
            // the checksum no longer covers what arrived.
            let want = if cut < 16 { PropError::BadPacket } else { PropError::ChecksumMismatch };
            assert_eq!(err, want, "cut {cut}");
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        // A correctly sealed payload whose length word disagrees with it.
        let m = master();
        let dump = kdump::dump(&m).unwrap();
        let mut long = dump.clone().into_bytes();
        long.push(b'\n');
        let mut packet = build_full_seq(m.master_sched(), 7, &long);
        let honest_len = (dump.len() as u32).to_be_bytes();
        packet[24..28].copy_from_slice(&honest_len);
        let sum = krb_crypto::cbc_checksum_with(m.master_sched(), &[0u8; 8], &packet[16..]);
        packet[8..16].copy_from_slice(&sum);
        assert_eq!(
            verify_full_seq(m.master_sched(), &packet).unwrap_err(),
            PropError::BadPacket
        );
    }

    #[test]
    fn a_segment_is_not_a_full_dump() {
        let m = master();
        let seg = build_incr_segment(m.master_sched(), 0, &[]).unwrap();
        assert_eq!(verify_full_seq(m.master_sched(), &seg).unwrap_err(), PropError::BadPacket);
    }

    #[test]
    fn dump_contains_no_plaintext_keys() {
        // §5.3: "the information passed from master to slave over the
        // network is not useful to an eavesdropper".
        let m = master();
        let packet = full_dump(&m);
        let user_key = string_to_key("pw3");
        let hex: String = user_key.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        let text = String::from_utf8_lossy(&packet);
        assert!(!text.contains(&hex));
    }

    #[test]
    fn schedule_fires_hourly() {
        let mut s = PropSchedule::new(NOW);
        assert!(!s.due(NOW + 1800));
        assert!(s.due(NOW + 3600));
        assert!(!s.due(NOW + 3601), "just fired");
        assert!(s.due(NOW + 7300));
    }

    #[test]
    fn repeated_propagation_is_idempotent() {
        let m = master();
        let packet = full_dump(&m);
        let slave1 = receive(&packet).unwrap();
        assert_eq!(slave1.len(), m.len());
        // Re-install the same dump over an already-populated store.
        let (_, entries) = verify_full_seq(m.master_sched(), &packet).unwrap();
        let mut store = MemStore::new();
        kdump::install(&mut store, &entries).unwrap();
        let slave2 = kpropd_install(store, &entries, string_to_key("master")).unwrap();
        assert_eq!(slave2.len(), m.len());
    }
}
