//! The KDBM server (paper §5, §5.1, Figure 11).
//!
//! "The administration server (or KDBM server) provides a read-write
//! network interface to the database. ... The server side, however, must
//! run on the machine housing the Kerberos database" — it shares the master
//! KDC's database and refuses to run against a slave.
//!
//! Authorization (§5.1): a request is permitted if the authenticated
//! requester *is* the target, or if the requester's principal name appears
//! in the access control list — by convention an `admin` instance. "All
//! requests to the KDBM program, whether permitted or denied, are logged."

use crate::proto::{AdminOp, AdminRequest};
use kerberos::{krb_rd_priv, krb_rd_req, ErrorCode, HostAddr, Message, Principal, ReplayCache};
use krb_kdc::{Clock, Kdc, KdcRole};
use krb_kdb::{Store, ATTR_NO_TGS};
use krb_crypto::{DesKey, Scheduled};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// The access control list: principal names (with `admin` instances, by
/// convention) permitted to operate on other principals' entries.
#[derive(Clone, Debug, Default)]
pub struct Acl {
    entries: HashSet<String>,
}

impl Acl {
    /// Empty list: only self-service password changes are possible.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `name.instance@realm` to the list.
    pub fn add(&mut self, principal: &Principal) {
        self.entries.insert(principal.to_string());
    }

    /// Remove an entry; returns whether it was present.
    pub fn remove(&mut self, principal: &Principal) -> bool {
        self.entries.remove(&principal.to_string())
    }

    /// Whether the principal is listed.
    pub fn contains(&self, principal: &Principal) -> bool {
        self.entries.contains(&principal.to_string())
    }

    /// Serialize one entry per line (the ACL "file").
    pub fn to_file(&self) -> String {
        let mut lines: Vec<&str> = self.entries.iter().map(String::as_str).collect();
        lines.sort_unstable();
        let mut out = String::new();
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Parse the ACL file format.
    pub fn from_file(text: &str, default_realm: &str) -> Result<Self, ErrorCode> {
        let mut acl = Acl::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            acl.add(&Principal::parse(line, default_realm)?);
        }
        Ok(acl)
    }
}

/// One audit-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Server time of the request.
    pub time: u32,
    /// Authenticated requester.
    pub requester: String,
    /// Operation name.
    pub op: String,
    /// Target `name.instance` (`*.*` = self).
    pub target: String,
    /// Whether the request was permitted.
    pub permitted: bool,
}

/// The KDBM server.
pub struct KdbmServer<S: Store + Send> {
    kdc: Arc<Kdc<S>>,
    acl: Acl,
    clock: Clock,
    replay: ReplayCache,
    audit: Vec<AuditRecord>,
    realm: String,
}

impl<S: Store + Send> KdbmServer<S> {
    /// Attach the KDBM to the master KDC's database. Fails (with
    /// `KadmUnauth`) if the KDC is a slave: "the KDBM server may only run
    /// on the master Kerberos machine."
    pub fn new(kdc: Arc<Kdc<S>>, acl: Acl, clock: Clock) -> Result<Self, ErrorCode> {
        if kdc.role() != KdcRole::Master {
            return Err(ErrorCode::KadmUnauth);
        }
        let realm = kdc.realm().to_string();
        Ok(KdbmServer { kdc, acl, clock, replay: ReplayCache::new(), audit: Vec::new(), realm })
    }

    /// Register the KDBM's own service principal (`changepw.kerberos`) with
    /// the `NO_TGS` attribute, so only the AS — which demands the password —
    /// issues tickets for it (§5.1).
    pub fn register_service(kdc: &Arc<Kdc<S>>, key: &DesKey, now: u32) -> Result<(), ErrorCode> {
        kdc.with_db_mut(|db| -> Result<(), ErrorCode> {
            db.add_principal("changepw", "kerberos", key, u32::MAX, 12, now, "kdb_init.")
                .map_err(|_| ErrorCode::KdcGenErr)?;
            let mut e = db
                .get("changepw", "kerberos")
                .map_err(|_| ErrorCode::KdcGenErr)?
                .ok_or(ErrorCode::KdcGenErr)?;
            e.attributes |= ATTR_NO_TGS;
            db.update_entry(&e).map_err(|_| ErrorCode::KdcGenErr)?;
            Ok(())
        })
        .ok_or(ErrorCode::KadmUnauth)?
    }

    /// The audit log (most recent last).
    pub fn audit_log(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// Handle one admin datagram; the reply is a `KRB_ERROR`-shaped status
    /// (code `Ok` on success).
    pub fn handle(&mut self, request: &[u8], sender: HostAddr) -> Vec<u8> {
        match self.try_handle(request, sender) {
            Ok(()) => Message::error(ErrorCode::Ok, "ok"),
            Err(code) => Message::error(code, code.describe()),
        }
    }

    fn try_handle(&mut self, request: &[u8], sender: HostAddr) -> Result<(), ErrorCode> {
        let req = AdminRequest::decode(request)?;
        let now = (self.clock)();
        let kdbm = Principal::kdbm(&self.realm);
        let kdbm_key = {
            let snap = self.kdc.snapshot();
            match snap.db().get_with_key("changepw", "kerberos") {
                Ok(Some((_, k))) => Scheduled::new(&k),
                _ => return Err(ErrorCode::RdApNoKey),
            }
        };
        let verified = krb_rd_req(&req.ap, &kdbm, &kdbm_key, sender, now, &self.replay, None)?;
        let requester = verified.client.clone();

        // The ticket must come from the AS: AS-issued KDBM tickets are the
        // only kind that exist because the TGS refuses `NO_TGS` services —
        // belt and braces, verify the ticket's lifetime is the KDBM's short
        // one (≤ 1 hour), the signature of an AS-issued admin ticket.
        if verified.ticket.life > 12 {
            self.log(now, &requester, "bad_ticket", "*", false);
            return Err(ErrorCode::KadmUnauth);
        }

        let op_bytes = krb_rd_priv(
            &kerberos::PrivMsg { enc_part: req.sealed_op.clone() },
            &verified.session_sched,
            Some(sender),
            now,
        )?;
        let op = AdminOp::decode(&op_bytes)?;

        // Authorization (§5.1).
        let (tname, tinstance) = op.target();
        let is_self = tname == "*"
            || (tname == requester.name && tinstance == requester.instance);
        let permitted = is_self || self.acl.contains(&requester);
        self.log(now, &requester, op.op_name(), &format!("{tname}.{tinstance}"), permitted);
        if !permitted {
            return Err(ErrorCode::KadmUnauth);
        }

        let mod_by = requester.local_str();
        let result = self
            .kdc
            .with_db_mut(|db| match op {
                AdminOp::ChangeOwnPassword { new_key } => db.change_key(
                    &requester.name,
                    &requester.instance,
                    &DesKey::from_bytes(new_key),
                    now,
                    &mod_by,
                ),
                AdminOp::ChangePasswordOf { name, instance, new_key } => {
                    db.change_key(&name, &instance, &DesKey::from_bytes(new_key), now, &mod_by)
                }
                AdminOp::AddPrincipal { name, instance, key, expiration, max_life } => db
                    .add_principal(
                        &name,
                        &instance,
                        &DesKey::from_bytes(key),
                        expiration,
                        max_life,
                        now,
                        &mod_by,
                    ),
            })
            .ok_or(ErrorCode::KadmUnauth)?;
        result.map_err(|e| match e {
            krb_kdb::DbError::AlreadyExists(_) => ErrorCode::KadmBadReq,
            krb_kdb::DbError::NotFound(_) => ErrorCode::KdcPrUnknown,
            krb_kdb::DbError::BadName(_) => ErrorCode::KdcNameFormat,
            _ => ErrorCode::KdcGenErr,
        })
    }

    fn log(&mut self, time: u32, requester: &Principal, op: &str, target: &str, permitted: bool) {
        self.audit.push(AuditRecord {
            time,
            requester: requester.to_string(),
            op: op.to_string(),
            target: target.to_string(),
            permitted,
        });
    }
}

/// Bind a KDBM server to the network substrate.
pub struct KdbmService<S: Store + Send>(pub Arc<Mutex<KdbmServer<S>>>);

impl<S: Store + Send> krb_netsim::Service for KdbmService<S> {
    fn handle(&mut self, req: &krb_netsim::Packet) -> Option<Vec<u8>> {
        Some(self.0.lock().handle(&req.payload, req.src.addr.0))
    }
}
