//! Journaled incremental propagation.
//!
//! The paper ships the database "in its entirety, to the slave machines"
//! every hour (§5.3) — viable at Athena's 5,000 principals, not at 10^6.
//! This module adds a per-update journal on the master ([`UpdateLog`]:
//! append-only, sequence-numbered records) shipped slave-ward as checksummed
//! segments, with the full dump demoted to bootstrap, gap recovery, and
//! periodic anti-entropy.
//!
//! Wire formats — the only two `kpropd` accepts, and this file is their
//! only parser. Both are checksummed under the master database key, the
//! checksum of §5.3: possession of the master key remains the only
//! authentication, and keys inside records stay encrypted in it:
//!
//! ```text
//! incremental segment:
//!   "KINCSEG1" || checksum[8] || payload
//!   payload = after_seq u64 || count u32 || count * record
//!   record  = tag u8 (1=put, 2=delete) || len u16 || body
//!             put body: a dump line; delete body: "name instance" ('*' = empty)
//!   (record i carries sequence number after_seq + 1 + i)
//!
//! sequenced full dump:
//!   "KFULSEQ1" || checksum[8] || as_of_seq u64 || len u32 || dump text
//! ```
//!
//! The slave ([`IncrReplica`]) applies a segment only when `after_seq`
//! equals its applied sequence number: an already-applied record is refused
//! as [`PropError::ReplayedUpdate`], a sequence past the next expected as
//! [`PropError::SequenceGap`]. Application is stage-then-swap: ops land on
//! a snapshot of the mirror database (sharing every tree node they do not
//! touch) and the snapshot is swapped in only if every
//! op succeeds, so a half-applied segment can never be observed — the same
//! discipline as the KDC's snapshot swap, which is where the mirror is then
//! installed. A master answers a refusal (or any transport failure) by
//! falling back to a full dump, and advances its per-slave cursor only on
//! an ack that matches what it shipped ([`SlaveCursor::next_transfer`] /
//! [`SlaveCursor::settle`] are that policy, once), so a faulted stream
//! converges or is rejected — never installs divergence.

use crate::{kpropd_install, PropError};
use krb_crypto::{cbc_checksum_with, constant_time_eq, DesKey, Scheduled};
use krb_kdb::dump as kdump;
use krb_kdb::{MemStore, PrincipalDb, PrincipalEntry, Store};
use std::collections::VecDeque;

/// Magic prefix of an incremental segment.
pub const INCR_MAGIC: &[u8; 8] = b"KINCSEG1";
/// Magic prefix of a sequenced full dump.
pub const FULL_MAGIC: &[u8; 8] = b"KFULSEQ1";

/// Default bound on journal retention (records kept for lagging slaves).
pub const DEFAULT_LOG_CAP: usize = 4096;

/// One journaled database mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert or replace a principal record (key already encrypted in the
    /// master database key, like every dump line).
    Put(PrincipalEntry),
    /// Remove a principal.
    Delete {
        /// Primary name.
        name: String,
        /// Instance (empty string is the NULL instance).
        instance: String,
    },
}

/// A sequence-numbered journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Position in the master's update sequence, starting at 1.
    pub seq: u64,
    /// The mutation.
    pub op: UpdateOp,
}

/// The master's append-only update journal, bounded to `cap` records.
/// Once the bound evicts old records, a slave that lags past the retained
/// window can no longer be served incrementally ([`UpdateLog::since`]
/// returns `None`) and must take a full dump.
#[derive(Debug, Clone)]
pub struct UpdateLog {
    records: VecDeque<UpdateRecord>,
    head: u64,
    cap: usize,
}

impl UpdateLog {
    /// An empty journal retaining at most `cap` records.
    pub fn new(cap: usize) -> Self {
        UpdateLog { records: VecDeque::new(), head: 0, cap: cap.max(1) }
    }

    /// Append a mutation; returns its sequence number.
    pub fn append(&mut self, op: UpdateOp) -> u64 {
        self.head += 1;
        self.records.push_back(UpdateRecord { seq: self.head, op });
        while self.records.len() > self.cap {
            self.records.pop_front();
        }
        self.head
    }

    /// Sequence number of the newest record (0 if nothing was ever logged).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Records with sequence numbers strictly greater than `after`, oldest
    /// first. `None` means retention has evicted part of that range — the
    /// caller must fall back to a full dump.
    pub fn since(&self, after: u64) -> Option<Vec<UpdateRecord>> {
        if after >= self.head {
            return Some(Vec::new());
        }
        let first_retained = self.records.front().map_or(self.head + 1, |r| r.seq);
        if after + 1 < first_retained {
            return None;
        }
        Some(self.records.iter().filter(|r| r.seq > after).cloned().collect())
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

fn op_body(op: &UpdateOp) -> String {
    match op {
        UpdateOp::Put(e) => kdump::entry_to_line(e),
        UpdateOp::Delete { name, instance } => {
            let inst = if instance.is_empty() { "*" } else { instance };
            format!("{name} {inst}")
        }
    }
}

fn parse_op(tag: u8, body: &[u8]) -> Result<UpdateOp, PropError> {
    let text = std::str::from_utf8(body).map_err(|_| PropError::BadPacket)?;
    match tag {
        1 => Ok(UpdateOp::Put(kdump::line_to_entry(text)?)),
        2 => {
            let mut parts = text.split(' ');
            let (name, inst) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(i), None) => (n, i),
                _ => return Err(PropError::BadPacket),
            };
            Ok(UpdateOp::Delete {
                name: name.to_string(),
                instance: if inst == "*" { String::new() } else { inst.to_string() },
            })
        }
        _ => Err(PropError::BadPacket),
    }
}

/// Build an incremental segment from consecutive records. `records` must
/// start at `after_seq + 1` and be gap-free — callers hand this the slice
/// [`UpdateLog::since`] returned.
pub fn build_incr_segment(
    master: &Scheduled,
    after_seq: u64,
    records: &[UpdateRecord],
) -> Result<Vec<u8>, PropError> {
    let mut payload = Vec::with_capacity(16 + records.len() * 48);
    payload.extend_from_slice(&after_seq.to_be_bytes());
    payload.extend_from_slice(&(records.len() as u32).to_be_bytes());
    for (i, r) in records.iter().enumerate() {
        if r.seq != after_seq + 1 + i as u64 {
            return Err(PropError::BadPacket);
        }
        let body = op_body(&r.op);
        if body.len() > u16::MAX as usize {
            return Err(PropError::BadPacket);
        }
        payload.push(match r.op {
            UpdateOp::Put(_) => 1,
            UpdateOp::Delete { .. } => 2,
        });
        payload.extend_from_slice(&(body.len() as u16).to_be_bytes());
        payload.extend_from_slice(body.as_bytes());
    }
    Ok(seal(master, INCR_MAGIC, &payload))
}

/// Build a sequenced full dump: the bootstrap / gap-recovery / anti-entropy
/// transfer, stamped with the journal position it reflects.
pub fn build_full_seq(master: &Scheduled, as_of_seq: u64, dump: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + dump.len());
    payload.extend_from_slice(&as_of_seq.to_be_bytes());
    payload.extend_from_slice(&(dump.len() as u32).to_be_bytes());
    payload.extend_from_slice(dump);
    seal(master, FULL_MAGIC, &payload)
}

/// What a propagation packet claims to be (by magic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// `KINCSEG1`: incremental segment.
    IncrSegment,
    /// `KFULSEQ1`: sequenced full dump.
    FullWithSeq,
}

/// Classify a propagation packet by its magic prefix; `None` is neither
/// wire format and is refused unread.
pub fn packet_kind(packet: &[u8]) -> Option<PacketKind> {
    if packet.starts_with(INCR_MAGIC) {
        Some(PacketKind::IncrSegment)
    } else if packet.starts_with(FULL_MAGIC) {
        Some(PacketKind::FullWithSeq)
    } else {
        None
    }
}

/// `magic || checksum || payload`: the sealing half of [`verify_payload`].
fn seal(master: &Scheduled, magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&cbc_checksum_with(master, &[0u8; 8], payload));
    out.extend_from_slice(payload);
    out
}

/// The keyed-checksum check of §5.3, for either wire format: recompute the
/// checksum over everything after `magic || checksum` and compare. Every
/// other field is read only from the payload this returns.
fn verify_payload<'a>(master: &Scheduled, packet: &'a [u8]) -> Result<&'a [u8], PropError> {
    if packet.len() < 16 {
        return Err(PropError::BadPacket);
    }
    let sent_sum: [u8; 8] = packet[8..16].try_into().map_err(|_| PropError::BadPacket)?;
    let payload = &packet[16..];
    let local = cbc_checksum_with(master, &[0u8; 8], payload);
    if !constant_time_eq(&local, &sent_sum) {
        return Err(PropError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Slave side, verification half of a full dump: check the magic, the
/// keyed checksum and the framing, then parse the dump. Returns the journal
/// position the dump reflects and the entries, ready for
/// [`kpropd_install`] into any store.
pub fn verify_full_seq(
    master: &Scheduled,
    packet: &[u8],
) -> Result<(u64, Vec<PrincipalEntry>), PropError> {
    if !packet.starts_with(FULL_MAGIC) {
        return Err(PropError::BadPacket);
    }
    let payload = verify_payload(master, packet)?;
    if payload.len() < 12 {
        return Err(PropError::BadPacket);
    }
    let as_of_seq = u64::from_be_bytes(payload[..8].try_into().map_err(|_| PropError::BadPacket)?);
    let len = u32::from_be_bytes(payload[8..12].try_into().map_err(|_| PropError::BadPacket)?) as usize;
    if payload.len() != 12 + len {
        return Err(PropError::BadPacket);
    }
    let text = std::str::from_utf8(&payload[12..]).map_err(|_| PropError::BadPacket)?;
    Ok((as_of_seq, kdump::parse(text)?))
}

/// What an accepted transfer did to the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// An incremental segment landed.
    Incremental {
        /// Records applied (may be 0 for a heartbeat segment).
        records: usize,
        /// The replica's sequence number afterwards.
        seq: u64,
    },
    /// A sequenced full dump replaced the mirror.
    Full {
        /// Entries installed.
        entries: usize,
        /// The replica's sequence number afterwards.
        seq: u64,
    },
}

impl Applied {
    /// The replica sequence number after this transfer.
    pub fn seq(&self) -> u64 {
        match *self {
            Applied::Incremental { seq, .. } | Applied::Full { seq, .. } => seq,
        }
    }
}

/// The slave side of incremental propagation: a mirror database plus the
/// sequence number it reflects. All checks happen before any state change;
/// segment application is stage-then-swap: the ops land on a snapshot of
/// the mirror (an O(1) clone that copies only the tree paths they touch),
/// which replaces the mirror only if every op applied.
pub struct IncrReplica {
    master_key: DesKey,
    sched: Scheduled,
    db: Option<PrincipalDb<MemStore>>,
    applied_seq: u64,
}

impl IncrReplica {
    /// A replica that has never taken a transfer. It refuses incremental
    /// segments with [`PropError::SequenceGap`] until a full dump arrives.
    pub fn new(master_key: DesKey) -> Self {
        let sched = Scheduled::new(&master_key);
        IncrReplica { master_key, sched, db: None, applied_seq: 0 }
    }

    /// Sequence number of the master journal position this mirror reflects.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// The mirror database, once bootstrapped.
    pub fn db(&self) -> Option<&PrincipalDb<MemStore>> {
        self.db.as_ref()
    }

    /// Canonical dump text of the mirror (the conservation oracle compares
    /// this against the master's).
    pub fn dump_text(&self) -> Option<String> {
        self.db.as_ref().and_then(|db| kdump::dump(db).ok())
    }

    /// Verify and apply one propagation packet (either wire format).
    pub fn apply(&mut self, packet: &[u8]) -> Result<Applied, PropError> {
        match packet_kind(packet) {
            Some(PacketKind::IncrSegment) => self.apply_segment(packet),
            Some(PacketKind::FullWithSeq) => self.apply_full(packet),
            None => Err(PropError::BadPacket),
        }
    }

    fn apply_segment(&mut self, packet: &[u8]) -> Result<Applied, PropError> {
        let payload = verify_payload(&self.sched, packet)?;
        if payload.len() < 12 {
            return Err(PropError::BadPacket);
        }
        let after_seq = u64::from_be_bytes(payload[..8].try_into().map_err(|_| PropError::BadPacket)?);
        let count = u32::from_be_bytes(payload[8..12].try_into().map_err(|_| PropError::BadPacket)?) as usize;
        // A record is at least 3 bytes. A sealed header can still lie (a
        // leaked master key seals anything): a count the payload cannot
        // hold is damage, and must never size an allocation.
        if count > (payload.len() - 12) / 3 {
            return Err(PropError::BadPacket);
        }
        let mut ops = Vec::with_capacity(count);
        let mut off = 12;
        for _ in 0..count {
            if off + 3 > payload.len() {
                return Err(PropError::BadPacket);
            }
            let tag = payload[off];
            let len = u16::from_be_bytes([payload[off + 1], payload[off + 2]]) as usize;
            off += 3;
            if off + len > payload.len() {
                return Err(PropError::BadPacket);
            }
            ops.push(parse_op(tag, &payload[off..off + len])?);
            off += len;
        }
        if off != payload.len() {
            return Err(PropError::BadPacket);
        }
        // Sequencing checks come only after the packet proved authentic and
        // well-formed: a truncated replay must read as damage, not skew.
        // `after_seq` is as hostile as `count`: saturate, never overflow.
        let first = after_seq.saturating_add(1);
        let db = match self.db.as_ref() {
            None => return Err(PropError::SequenceGap { applied: 0, first }),
            Some(db) => db,
        };
        if after_seq < self.applied_seq {
            return Err(PropError::ReplayedUpdate { applied: self.applied_seq, first });
        }
        if after_seq > self.applied_seq {
            return Err(PropError::SequenceGap { applied: self.applied_seq, first });
        }
        let seq = self.applied_seq.checked_add(ops.len() as u64).ok_or(PropError::BadPacket)?;
        // Stage onto a snapshot, swap only on full success.
        let mut stage = db.snapshot_mem()?;
        for op in &ops {
            match op {
                UpdateOp::Put(e) => {
                    let key = PrincipalEntry::db_key(&e.name, &e.instance);
                    stage.store_mut().store(&key, &e.encode())?;
                }
                UpdateOp::Delete { name, instance } => {
                    stage.store_mut().delete(&PrincipalEntry::db_key(name, instance))?;
                }
            }
        }
        self.db = Some(stage);
        self.applied_seq = seq;
        Ok(Applied::Incremental { records: ops.len(), seq })
    }

    fn apply_full(&mut self, packet: &[u8]) -> Result<Applied, PropError> {
        let (as_of_seq, entries) = verify_full_seq(&self.sched, packet)?;
        // A stale full dump must never roll the mirror back: refusing it is
        // the replayed-update check at dump granularity.
        if self.db.is_some() && as_of_seq < self.applied_seq {
            return Err(PropError::ReplayedUpdate {
                applied: self.applied_seq,
                first: as_of_seq.saturating_add(1),
            });
        }
        self.db = Some(kpropd_install(MemStore::new(), &entries, self.master_key.clone())?);
        self.applied_seq = as_of_seq;
        Ok(Applied::Full { entries: entries.len(), seq: as_of_seq })
    }
}

/// The master's view of one slave: what it has acknowledged and whether the
/// next transfer must be a full dump. The fields move only through
/// [`SlaveCursor::settle`], so `log.head() - cursor.acked()` is the slave's
/// replication lag as the master can prove it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlaveCursor {
    acked: u64,
    synced: bool,
}

/// One transfer the master has built for one slave, with the only ack
/// that may settle it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The wire bytes: a `KFULSEQ1` dump or a `KINCSEG1` segment.
    pub packet: Vec<u8>,
    /// The sequence number a genuine `OK <seq>` for this packet carries.
    pub expected: u64,
    mode: &'static str,
}

impl Transfer {
    /// `"full"` or `"incr"`, as the slave journals the same packet.
    pub fn mode(&self) -> &'static str {
        self.mode
    }
}

impl SlaveCursor {
    /// A slave that has never been propagated to.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest sequence number the slave acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Whether the slave is known to be in sync (bootstrap done, no
    /// unsettled failure since).
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// Build the next transfer for this slave from the master database and
    /// its update journal, or `None` when the slave is in sync with nothing
    /// new. An unsynced slave, one the journal has evicted records for, or
    /// `force_full` (the caller's anti-entropy cadence) gets the full
    /// dump; the database is dumped only then.
    pub fn next_transfer<S: Store>(
        &self,
        master: &PrincipalDb<S>,
        log: &UpdateLog,
        force_full: bool,
    ) -> Result<Option<Transfer>, PropError> {
        let sched = master.master_sched();
        let records = if force_full || !self.synced { None } else { log.since(self.acked) };
        Ok(match records {
            None => Some(Transfer {
                packet: build_full_seq(sched, log.head(), kdump::dump(master)?.as_bytes()),
                expected: log.head(),
                mode: "full",
            }),
            Some(records) if records.is_empty() => None,
            Some(records) => Some(Transfer {
                packet: build_incr_segment(sched, self.acked, &records)?,
                expected: self.acked + records.len() as u64,
                mode: "incr",
            }),
        })
    }

    /// Settle `sent` against the slave's reply (`None`: the wire died).
    /// The cursor advances only on a reply that is byte for byte
    /// `OK <expected>` — a refusal, silence, or a reply corrupted into some
    /// other plausible `OK <n>` marks the slave unsynced, so the next
    /// transfer is a full dump. Returns whether the cursor advanced.
    pub fn settle(&mut self, sent: &Transfer, reply: Option<&[u8]>) -> bool {
        self.synced = reply == Some(format!("OK {}", sent.expected).as_bytes());
        if self.synced {
            self.acked = sent.expected;
        }
        self.synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::string_to_key;

    const NOW: u32 = 600_000_000;

    fn master_db() -> PrincipalDb<MemStore> {
        let mut db = PrincipalDb::create(MemStore::new(), string_to_key("mk"), NOW).unwrap();
        for i in 0..8 {
            db.add_principal(&format!("u{i}"), "", &string_to_key(&format!("p{i}")), NOW * 2, 96, NOW, "i.")
                .unwrap();
        }
        db
    }

    fn full_packet(db: &PrincipalDb<MemStore>, as_of: u64) -> Vec<u8> {
        build_full_seq(db.master_sched(), as_of, kdump::dump(db).unwrap().as_bytes())
    }

    fn put_record(db: &PrincipalDb<MemStore>, seq: u64, name: &str, pw: &str) -> UpdateRecord {
        let entry = PrincipalEntry {
            name: name.into(),
            instance: String::new(),
            key_encrypted: db.encrypt_key(&string_to_key(pw)),
            key_version: 1,
            expiration: u32::MAX,
            max_life: 96,
            attributes: 0,
            mod_time: NOW,
            mod_by: "kadmin.".into(),
        };
        UpdateRecord { seq, op: UpdateOp::Put(entry) }
    }

    #[test]
    fn bootstrap_then_incremental_converges() {
        let mut m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        // Bootstrap.
        let applied = replica.apply(&full_packet(&m, 0)).unwrap();
        assert_eq!(applied, Applied::Full { entries: 9, seq: 0 });
        assert_eq!(replica.dump_text().unwrap(), kdump::dump(&m).unwrap());
        // Incremental: one put, one delete.
        let rec1 = put_record(&m, 1, "newbie", "newpw");
        m.add_principal("newbie", "", &string_to_key("newpw"), u32::MAX, 96, NOW, "kadmin.")
            .unwrap();
        m.delete("u3", "").unwrap();
        let rec2 = UpdateRecord {
            seq: 2,
            op: UpdateOp::Delete { name: "u3".into(), instance: String::new() },
        };
        let seg = build_incr_segment(m.master_sched(), 0, &[rec1, rec2]).unwrap();
        let applied = replica.apply(&seg).unwrap();
        assert_eq!(applied, Applied::Incremental { records: 2, seq: 2 });
        assert_eq!(replica.applied_seq(), 2);
        assert_eq!(replica.dump_text().unwrap(), kdump::dump(&m).unwrap());
    }

    #[test]
    fn replica_refuses_incremental_before_bootstrap() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        let seg = build_incr_segment(m.master_sched(), 0, &[]).unwrap();
        assert!(matches!(
            replica.apply(&seg).unwrap_err(),
            PropError::SequenceGap { applied: 0, .. }
        ));
    }

    #[test]
    fn replayed_segment_refused_without_state_change() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let seg = build_incr_segment(m.master_sched(), 0, &[put_record(&m, 1, "a", "b")]).unwrap();
        replica.apply(&seg).unwrap();
        let before = replica.dump_text().unwrap();
        assert_eq!(
            replica.apply(&seg).unwrap_err(),
            PropError::ReplayedUpdate { applied: 1, first: 1 }
        );
        assert_eq!(replica.dump_text().unwrap(), before, "refusal must not mutate");
        assert_eq!(replica.applied_seq(), 1);
    }

    #[test]
    fn gapped_segment_refused() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let seg = build_incr_segment(m.master_sched(), 5, &[put_record(&m, 6, "x", "y")]).unwrap();
        assert_eq!(
            replica.apply(&seg).unwrap_err(),
            PropError::SequenceGap { applied: 0, first: 6 }
        );
    }

    #[test]
    fn tampered_segment_is_checksum_mismatch() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let mut seg =
            build_incr_segment(m.master_sched(), 0, &[put_record(&m, 1, "a", "b")]).unwrap();
        let n = seg.len() - 3;
        seg[n] ^= 0x40;
        assert_eq!(replica.apply(&seg).unwrap_err(), PropError::ChecksumMismatch);
    }

    #[test]
    fn truncated_segment_is_bad_packet_or_checksum() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let seg = build_incr_segment(m.master_sched(), 0, &[put_record(&m, 1, "a", "b")]).unwrap();
        for cut in [0, 8, 15, 20, seg.len() - 1] {
            let err = replica.apply(&seg[..cut]).unwrap_err();
            assert!(
                matches!(err, PropError::BadPacket | PropError::ChecksumMismatch),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn forged_segment_without_master_key_refused() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let wrong = Scheduled::new(&string_to_key("attacker-guess"));
        let seg = build_incr_segment(&wrong, 0, &[put_record(&m, 1, "evil", "pw")]).unwrap();
        assert_eq!(replica.apply(&seg).unwrap_err(), PropError::ChecksumMismatch);
        assert!(replica.dump_text().unwrap().contains("K M"));
        assert!(!replica.dump_text().unwrap().contains("evil"));
    }

    #[test]
    fn stale_full_dump_cannot_roll_back() {
        let mut m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        let old_full = full_packet(&m, 0);
        replica.apply(&old_full).unwrap();
        m.change_key("u1", "", &string_to_key("rotated"), NOW + 5, "kadmin.").unwrap();
        let rec = UpdateRecord {
            seq: 1,
            op: UpdateOp::Put(m.get("u1", "").unwrap().unwrap()),
        };
        let seg = build_incr_segment(m.master_sched(), 0, &[rec]).unwrap();
        replica.apply(&seg).unwrap();
        // Replaying the pre-rotation dump must be refused.
        assert_eq!(
            replica.apply(&old_full).unwrap_err(),
            PropError::ReplayedUpdate { applied: 1, first: 1 }
        );
        assert_eq!(replica.dump_text().unwrap(), kdump::dump(&m).unwrap());
    }

    #[test]
    fn anti_entropy_full_dump_at_same_seq_is_idempotent() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let again = replica.apply(&full_packet(&m, 0)).unwrap();
        assert_eq!(again, Applied::Full { entries: 9, seq: 0 });
        assert_eq!(replica.dump_text().unwrap(), kdump::dump(&m).unwrap());
    }

    #[test]
    fn update_log_retention_and_since() {
        let m = master_db();
        let mut log = UpdateLog::new(3);
        assert_eq!(log.since(0).unwrap(), vec![]);
        for i in 0..5u64 {
            let seq = log.append(put_record(&m, i + 1, &format!("p{i}"), "pw").op);
            assert_eq!(seq, i + 1);
        }
        assert_eq!(log.head(), 5);
        assert_eq!(log.len(), 3, "cap evicts the oldest");
        assert!(log.since(0).is_none(), "evicted range forces full dump");
        assert!(log.since(1).is_none());
        let tail = log.since(2).unwrap();
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(log.since(5).unwrap(), vec![]);
        assert_eq!(log.since(99).unwrap(), vec![]);
    }

    #[test]
    fn cursor_policy_full_then_segments_then_fallback() {
        let m = master_db();
        let mut log = UpdateLog::new(100);
        let mut cur = SlaveCursor::new();
        let boot = cur.next_transfer(&m, &log, false).unwrap().unwrap();
        assert_eq!((boot.mode(), boot.expected), ("full", 0), "bootstrap is a full dump");
        assert_eq!(boot.packet, full_packet(&m, 0));
        assert!(cur.settle(&boot, Some(b"OK 0")));
        assert_eq!(cur.next_transfer(&m, &log, false).unwrap(), None, "in sync, nothing new");
        log.append(put_record(&m, 1, "a", "pw").op);
        let seg = cur.next_transfer(&m, &log, false).unwrap().unwrap();
        assert_eq!((seg.mode(), seg.expected), ("incr", 1));
        assert_eq!(seg.packet, build_incr_segment(m.master_sched(), 0, &log.since(0).unwrap()).unwrap());
        let forced = cur.next_transfer(&m, &log, true).unwrap().unwrap();
        assert_eq!(forced.mode(), "full", "anti-entropy overrides an in-sync cursor");
        assert!(!cur.settle(&seg, None), "a dead wire is a failure");
        assert_eq!((cur.acked(), cur.synced()), (0, false));
        let full = cur.next_transfer(&m, &log, false).unwrap().unwrap();
        assert_eq!((full.mode(), full.expected), ("full", 1), "failure forces full dump");
        assert!(cur.settle(&full, Some(b"OK 1")));
        assert_eq!((cur.acked(), cur.synced()), (1, true));
        assert_eq!(cur.next_transfer(&m, &log, false).unwrap(), None);
    }

    #[test]
    fn sealed_segment_with_a_hostile_header_is_refused_not_fatal() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let before = replica.dump_text().unwrap();
        // count = u32::MAX with no records behind it: must not reserve.
        let mut huge = 0u64.to_be_bytes().to_vec();
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(replica.apply(&seal(m.master_sched(), INCR_MAGIC, &huge)).unwrap_err(), PropError::BadPacket);
        // after_seq = u64::MAX: `after_seq + 1` must not overflow.
        let mut far = u64::MAX.to_be_bytes().to_vec();
        far.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(
            replica.apply(&seal(m.master_sched(), INCR_MAGIC, &far)).unwrap_err(),
            PropError::SequenceGap { applied: 0, first: u64::MAX }
        );
        let mut fresh = IncrReplica::new(string_to_key("mk"));
        assert_eq!(
            fresh.apply(&seal(m.master_sched(), INCR_MAGIC, &far)).unwrap_err(),
            PropError::SequenceGap { applied: 0, first: u64::MAX }
        );
        // A mirror parked at u64::MAX cannot count one record further.
        replica.apply(&full_packet(&m, u64::MAX)).unwrap();
        let mut one_more = u64::MAX.to_be_bytes().to_vec();
        one_more.extend_from_slice(&1u32.to_be_bytes());
        one_more.extend_from_slice(b"\x02\x00\x03x *");
        assert_eq!(
            replica.apply(&seal(m.master_sched(), INCR_MAGIC, &one_more)).unwrap_err(),
            PropError::BadPacket
        );
        assert_eq!(replica.dump_text().unwrap(), before, "refusals must not mutate");
        assert_eq!(replica.applied_seq(), u64::MAX);
    }

    /// A put whose key version, lifetime or attributes do not fit their
    /// field is damage: it must not land as the number modulo the width.
    #[test]
    fn sealed_put_with_an_out_of_range_field_is_refused() {
        let m = master_db();
        let mut replica = IncrReplica::new(string_to_key("mk"));
        replica.apply(&full_packet(&m, 0)).unwrap();
        let before = replica.dump_text().unwrap();
        let good = kdump::entry_to_line(&m.get("u1", "").unwrap().unwrap());
        for (at, wide) in [(2, "257"), (4, "256"), (5, "65537")] {
            let mut fields: Vec<&str> = good.split(' ').collect();
            fields[at] = wide;
            let body = fields.join(" ");
            let mut payload = 0u64.to_be_bytes().to_vec();
            payload.extend_from_slice(&1u32.to_be_bytes());
            payload.push(1);
            payload.extend_from_slice(&(body.len() as u16).to_be_bytes());
            payload.extend_from_slice(body.as_bytes());
            let err = replica.apply(&seal(m.master_sched(), INCR_MAGIC, &payload)).unwrap_err();
            assert!(matches!(err, PropError::Db(krb_kdb::DbError::Corrupt(_))), "field {at} = {wide}: {err:?}");
        }
        assert_eq!(replica.dump_text().unwrap(), before, "refusals must not mutate");
        assert_eq!(replica.applied_seq(), 0);
    }

    #[test]
    fn segment_builder_rejects_non_consecutive_records() {
        let m = master_db();
        let recs = [put_record(&m, 1, "a", "x"), put_record(&m, 3, "b", "y")];
        assert_eq!(
            build_incr_segment(m.master_sched(), 0, &recs).unwrap_err(),
            PropError::BadPacket
        );
    }

    #[test]
    fn segment_contains_no_plaintext_keys() {
        let m = master_db();
        let rec = put_record(&m, 1, "leaky", "super-secret-pw");
        let seg = build_incr_segment(m.master_sched(), 0, &[rec]).unwrap();
        let key = string_to_key("super-secret-pw");
        let hex: String = key.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert!(!String::from_utf8_lossy(&seg).contains(&hex));
    }
}
