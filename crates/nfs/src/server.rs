//! The modified NFS server of the appendix, plus the rejected
//! full-authentication baseline it was measured against.
//!
//! Modified NFS: "NFS servers must accept credentials from a workstation
//! if and only if the credentials indicate the UID of the workstation's
//! user, and no other." Each request's credential is translated through
//! the kernel [`CredMap`]; unmapped requests become "nobody" on friendly
//! servers or an access error on unfriendly ones.
//!
//! Baseline: "One obvious solution would be to change the nature of
//! credentials ... to full blown Kerberos authenticated data. However a
//! significant performance penalty would be paid ... Credentials are
//! exchanged on every NFS operation including all disk read and write
//! activities." [`FullAuthNfsServer`] implements that rejected design so
//! E13 can measure the penalty.

use crate::credmap::CredMap;
use crate::vfs::{Ino, Mode, Vfs};
use crate::{NfsCredential, NfsError};
use kerberos::{krb_rd_req, ApReq};
use kerberos::{HostAddr, Principal, ReplayCache};
use krb_crypto::{DesKey, Scheduled};

/// The uid of the anonymous "nobody" user ("who has no privileged access
/// and has a unique UID").
pub const NOBODY_UID: u32 = 65534;

/// How unmapped requests are treated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerPolicy {
    /// "In our friendly configuration we default the unmappable requests
    /// into the credentials for the user 'nobody'."
    Friendly,
    /// "Unfriendly servers return an NFS access error."
    Unfriendly,
}

/// One NFS operation, as carried in a request packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsOp {
    /// Resolve a name in a directory.
    Lookup(Ino, String),
    /// Read a byte range.
    Read(Ino, usize, usize),
    /// Write bytes at an offset.
    Write(Ino, usize, Vec<u8>),
    /// Create a file.
    Create(Ino, String, Mode),
    /// Make a directory.
    Mkdir(Ino, String, Mode),
    /// List a directory.
    Readdir(Ino),
    /// Remove an entry.
    Remove(Ino, String),
    /// Get attributes.
    Getattr(Ino),
}

/// Result payload of an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NfsReply {
    /// An inode handle.
    Handle(Ino),
    /// File bytes.
    Data(Vec<u8>),
    /// Bytes written.
    Written(usize),
    /// Directory listing.
    Names(Vec<String>),
    /// (uid, gid, mode, size).
    Attr(u32, u32, Mode, usize),
    /// Operation succeeded with no payload.
    Done,
}

/// Per-server counters (E13 reads these).
#[derive(Default, Debug, Clone, Copy)]
pub struct NfsStats {
    /// Operations processed.
    pub ops: u64,
    /// Operations whose credential mapped.
    pub mapped: u64,
    /// Operations that fell through to nobody / access error.
    pub unmapped: u64,
}

/// The appendix's modified NFS server.
pub struct NfsServer {
    /// The exported filesystem.
    pub vfs: Vfs,
    /// The kernel credential map.
    pub credmap: CredMap,
    /// Friendly or unfriendly.
    pub policy: ServerPolicy,
    /// Counters.
    pub stats: NfsStats,
}

impl NfsServer {
    /// A server exporting `vfs` under the given policy.
    pub fn new(vfs: Vfs, policy: ServerPolicy) -> Self {
        NfsServer { vfs, credmap: CredMap::new(), policy, stats: NfsStats::default() }
    }

    /// Handle one NFS transaction.
    ///
    /// "The CLIENT-IP-ADDRESS is extracted from the NFS request packet and
    /// the UID-ON-CLIENT is extracted from the credential supplied by the
    /// client system. Note: all information in the client-generated
    /// credential except the UID-ON-CLIENT is discarded."
    pub fn handle(
        &mut self,
        client_addr: HostAddr,
        client_cred: &NfsCredential,
        op: &NfsOp,
    ) -> Result<NfsReply, NfsError> {
        self.stats.ops += 1;
        let effective = match self.credmap.lookup(client_addr, client_cred.uid) {
            Some(mapped) => {
                self.stats.mapped += 1;
                mapped.clone()
            }
            None => {
                self.stats.unmapped += 1;
                match self.policy {
                    ServerPolicy::Friendly => NfsCredential { uid: NOBODY_UID, gids: vec![NOBODY_UID] },
                    ServerPolicy::Unfriendly => return Err(NfsError::Access),
                }
            }
        };
        self.execute(&effective, op)
    }

    fn execute(&mut self, cred: &NfsCredential, op: &NfsOp) -> Result<NfsReply, NfsError> {
        match op {
            NfsOp::Lookup(dir, name) => Ok(NfsReply::Handle(self.vfs.lookup(*dir, name, cred)?)),
            NfsOp::Read(ino, off, len) => Ok(NfsReply::Data(self.vfs.read(*ino, *off, *len, cred)?)),
            NfsOp::Write(ino, off, data) => {
                Ok(NfsReply::Written(self.vfs.write(*ino, *off, data, cred)?))
            }
            NfsOp::Create(dir, name, mode) => {
                Ok(NfsReply::Handle(self.vfs.create(*dir, name, *mode, cred)?))
            }
            NfsOp::Mkdir(dir, name, mode) => {
                Ok(NfsReply::Handle(self.vfs.mkdir(*dir, name, *mode, cred)?))
            }
            NfsOp::Readdir(dir) => Ok(NfsReply::Names(self.vfs.readdir(*dir, cred)?)),
            NfsOp::Remove(dir, name) => {
                self.vfs.unlink(*dir, name, cred)?;
                Ok(NfsReply::Done)
            }
            NfsOp::Getattr(ino) => {
                let (uid, gid, mode, size) = self.vfs.getattr(*ino)?;
                Ok(NfsReply::Attr(uid, gid, mode, size))
            }
        }
    }
}

/// The rejected baseline: full Kerberos authentication on every NFS
/// transaction. Each request carries an `AP_REQ` whose authenticator must
/// be fresh and unreplayed; the server runs `krb_rd_req` — "a fair number
/// of full-blown encryptions (done in software) per transaction".
pub struct FullAuthNfsServer {
    /// The exported filesystem.
    pub vfs: Vfs,
    service: Principal,
    /// The srvtab key's schedule, built once at startup.
    service_sched: Scheduled,
    replay: ReplayCache,
    /// username -> server credential, the same special file mountd uses.
    user_table: std::collections::HashMap<String, NfsCredential>,
    /// Counters.
    pub stats: NfsStats,
}

impl FullAuthNfsServer {
    /// A full-auth server for `service` with its srvtab key.
    pub fn new(vfs: Vfs, service: Principal, service_key: DesKey) -> Self {
        FullAuthNfsServer {
            vfs,
            service,
            service_sched: Scheduled::new(&service_key),
            replay: ReplayCache::new(),
            user_table: std::collections::HashMap::new(),
            stats: NfsStats::default(),
        }
    }

    /// Register a username → server-credential mapping.
    pub fn add_user(&mut self, username: &str, cred: NfsCredential) {
        self.user_table.insert(username.to_string(), cred);
    }

    /// Handle one transaction: verify the per-op `AP_REQ`, then execute.
    pub fn handle(
        &mut self,
        client_addr: HostAddr,
        ap: &ApReq,
        now: u32,
        op: &NfsOp,
    ) -> Result<NfsReply, NfsError> {
        self.stats.ops += 1;
        let verified = krb_rd_req(ap, &self.service, &self.service_sched, client_addr, now, &self.replay, None)
            .map_err(NfsError::Auth)?;
        let cred = self
            .user_table
            .get(&verified.client.name)
            .cloned()
            .ok_or(NfsError::Access)?;
        self.stats.mapped += 1;
        // Reuse the mapped server's execute logic via a scratch NfsServer
        // shape: the VFS call is identical.
        match op {
            NfsOp::Lookup(dir, name) => Ok(NfsReply::Handle(self.vfs.lookup(*dir, name, &cred)?)),
            NfsOp::Read(ino, off, len) => Ok(NfsReply::Data(self.vfs.read(*ino, *off, *len, &cred)?)),
            NfsOp::Write(ino, off, data) => {
                Ok(NfsReply::Written(self.vfs.write(*ino, *off, data, &cred)?))
            }
            NfsOp::Create(dir, name, mode) => {
                Ok(NfsReply::Handle(self.vfs.create(*dir, name, *mode, &cred)?))
            }
            NfsOp::Mkdir(dir, name, mode) => {
                Ok(NfsReply::Handle(self.vfs.mkdir(*dir, name, *mode, &cred)?))
            }
            NfsOp::Readdir(dir) => Ok(NfsReply::Names(self.vfs.readdir(*dir, &cred)?)),
            NfsOp::Remove(dir, name) => {
                self.vfs.unlink(*dir, name, &cred)?;
                Ok(NfsReply::Done)
            }
            NfsOp::Getattr(ino) => {
                let (uid, gid, mode, size) = self.vfs.getattr(*ino)?;
                Ok(NfsReply::Attr(uid, gid, mode, size))
            }
        }
    }
}
