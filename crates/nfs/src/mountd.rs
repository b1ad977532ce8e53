//! The modified mount daemon (appendix).
//!
//! "We modified the mount daemon ... to accept a new transaction type, the
//! Kerberos authentication mapping request. Basically, as part of the
//! mounting process, the client system provides a Kerberos authenticator
//! along with an indication of her/his UID-ON-CLIENT (encrypted in the
//! Kerberos authenticator) ... The server's mount daemon converts the
//! Kerberos principal name into a local username. This username is then
//! looked up in a special file to yield the user's UID and GIDs list. ...
//! From this information, an NFS credential is constructed and handed to
//! the kernel as the valid mapping of the <CLIENT-IP-ADDRESS, CLIENT-UID>
//! tuple."
//!
//! The UID-ON-CLIENT rides in the authenticator's checksum field, so it is
//! covered by the session-key encryption exactly as the paper requires.

use crate::credmap::CredMap;
use crate::{NfsCredential, NfsError};
use kerberos::{krb_rd_req, ApReq, ErrorCode, HostAddr, Principal, ReplayCache};
use krb_crypto::{DesKey, Scheduled};
use std::collections::HashMap;

/// The mapping-table file: username → (uid, gids). "For efficiency, this
/// file is a ndbm database file with the username as the key."
#[derive(Default, Clone, Debug)]
pub struct UserTable {
    map: HashMap<String, NfsCredential>,
}

impl UserTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a local user.
    pub fn add(&mut self, username: &str, uid: u32, gids: Vec<u32>) {
        self.map.insert(username.to_string(), NfsCredential { uid, gids });
    }

    /// Look up a username.
    pub fn get(&self, username: &str) -> Option<&NfsCredential> {
        self.map.get(username)
    }
}

/// The mount daemon on a fileserver.
pub struct MountD {
    service: Principal,
    /// The srvtab key's schedule, built once at startup.
    service_sched: Scheduled,
    users: UserTable,
    replay: ReplayCache,
    /// Audit trail of mapping installs: (client, uid_on_client, server_uid).
    pub mappings_installed: Vec<(HostAddr, u32, u32)>,
}

impl MountD {
    /// A mount daemon authenticating as `service` (e.g. `nfs.charon`).
    pub fn new(service: Principal, service_key: DesKey, users: UserTable) -> Self {
        let service_sched = Scheduled::new(&service_key);
        MountD { service, service_sched, users, replay: ReplayCache::new(), mappings_installed: Vec::new() }
    }

    /// The Kerberos authentication mapping request: verify and install the
    /// `<CLIENT-IP-ADDRESS, UID-ON-CLIENT> → server credential` mapping.
    pub fn map_request(
        &mut self,
        credmap: &mut CredMap,
        ap: &ApReq,
        sender: HostAddr,
        now: u32,
    ) -> Result<NfsCredential, NfsError> {
        let verified = krb_rd_req(ap, &self.service, &self.service_sched, sender, now, &self.replay, None)
            .map_err(NfsError::Auth)?;
        // The principal name maps to the local username; the instance must
        // be empty (users, not services, mount home directories) and the
        // realm is subject to local policy — we accept only our own realm.
        if !verified.client.instance.is_empty() || verified.client.realm != self.service.realm {
            return Err(NfsError::Auth(ErrorCode::KadmUnauth));
        }
        let uid_on_client = verified.cksum;
        let cred = self
            .users
            .get(&verified.client.name)
            .cloned()
            .ok_or(NfsError::BadCredential)?;
        credmap.add(sender, uid_on_client, cred.clone());
        self.mappings_installed.push((sender, uid_on_client, cred.uid));
        Ok(cred)
    }

    /// Unmount: "At unmount time a request is sent to the mount daemon to
    /// remove the previously added mapping from the kernel."
    pub fn unmount(&mut self, credmap: &mut CredMap, client: HostAddr, uid_on_client: u32) -> bool {
        credmap.del(client, uid_on_client)
    }

    /// Logout cleanup: "invalidate all mapping for the current user on the
    /// server in question."
    pub fn logout(&mut self, credmap: &mut CredMap, server_uid: u32) -> usize {
        credmap.flush_uid(server_uid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NfsOp, NfsReply, NfsServer, ServerPolicy, NOBODY_UID};
    use crate::vfs::Vfs;
    use kerberos::{krb_mk_req, Ticket};
    use krb_crypto::string_to_key;

    const REALM: &str = "ATHENA.MIT.EDU";
    const WS: HostAddr = [18, 72, 0, 5];
    const NOW: u32 = 600_000_000;

    fn setup() -> (MountD, NfsServer, ApReq, Principal) {
        let mut users = UserTable::new();
        users.add("bcn", 8042, vec![8042, 100]);
        let nfs_svc = Principal::parse("nfs.charon", REALM).unwrap();
        let nfs_key = string_to_key("nfs-charon-srvtab");
        let mountd = MountD::new(nfs_svc.clone(), nfs_key, users);

        let mut vfs = Vfs::new();
        vfs.provision_home("bcn", 8042, 8042).unwrap();
        let server = NfsServer::new(vfs, ServerPolicy::Friendly);

        // The client's ticket for the NFS service (normally via TGS).
        let client = Principal::parse("bcn", REALM).unwrap();
        let session = string_to_key("mount-session");
        let ticket = Ticket::new(&nfs_svc, &client, WS, NOW, 96, *session.as_bytes())
            .seal_with(&Scheduled::new(&string_to_key("nfs-charon-srvtab")));
        // UID-ON-CLIENT = 500, carried encrypted inside the authenticator.
        let ap = krb_mk_req(&ticket, REALM, &session, &client, WS, NOW, 500, false);
        (mountd, server, ap, client)
    }

    #[test]
    fn mount_installs_mapping_and_files_flow() {
        let (mut mountd, mut server, ap, _) = setup();
        let cred = mountd.map_request(&mut server.credmap, &ap, WS, NOW).unwrap();
        assert_eq!(cred.uid, 8042);
        assert_eq!(server.credmap.len(), 1);

        // Now NFS ops from (WS, uid 500) act as server uid 8042.
        let client_cred = NfsCredential { uid: 500, gids: vec![500] };
        let home = match server.handle(WS, &client_cred, &NfsOp::Lookup(crate::vfs::ROOT, "bcn".into())) {
            Ok(NfsReply::Handle(h)) => h,
            other => panic!("lookup failed: {other:?}"),
        };
        let f = match server.handle(WS, &client_cred, &NfsOp::Create(home, "notes".into(), 0o600)) {
            Ok(NfsReply::Handle(h)) => h,
            other => panic!("create failed: {other:?}"),
        };
        assert!(matches!(
            server.handle(WS, &client_cred, &NfsOp::Write(f, 0, b"hi".to_vec())),
            Ok(NfsReply::Written(2))
        ));
    }

    #[test]
    fn unmapped_request_is_nobody_on_friendly_server() {
        let (_, mut server, _, _) = setup();
        let stranger = NfsCredential { uid: 777, gids: vec![777] };
        // Root dir is world-searchable, so lookup succeeds as nobody...
        assert!(server.handle(WS, &stranger, &NfsOp::Lookup(crate::vfs::ROOT, "bcn".into())).is_ok());
        // ...but reading the 700 home directory fails: nobody has no access.
        let home = 1; // first provisioned inode
        assert!(matches!(
            server.handle(WS, &stranger, &NfsOp::Readdir(home)),
            Err(NfsError::Access)
        ));
        assert_eq!(server.stats.unmapped, 2);
        let _ = NOBODY_UID;
    }

    #[test]
    fn unmapped_request_errors_on_unfriendly_server() {
        let (_, _, _, _) = setup();
        let mut server = NfsServer::new(Vfs::new(), ServerPolicy::Unfriendly);
        let stranger = NfsCredential { uid: 777, gids: vec![777] };
        assert!(matches!(
            server.handle(WS, &stranger, &NfsOp::Readdir(crate::vfs::ROOT)),
            Err(NfsError::Access)
        ));
    }

    #[test]
    fn forged_credential_fails_when_user_not_logged_in() {
        // "When a user is not logged in, no amount of IP address forgery
        // will permit unauthorized access to her/his files."
        let (mut mountd, mut server, ap, _) = setup();
        let cred = mountd.map_request(&mut server.credmap, &ap, WS, NOW).unwrap();
        // Logout: flush mappings.
        assert_eq!(mountd.logout(&mut server.credmap, cred.uid), 1);
        let forged = NfsCredential { uid: 500, gids: vec![500] };
        let home = 1;
        assert!(matches!(
            server.handle(WS, &forged, &NfsOp::Readdir(home)),
            Err(NfsError::Access)
        ));
    }

    #[test]
    fn forgery_window_exists_while_logged_in() {
        // The appendix is explicit that "this implementation is not
        // completely secure": while the user is logged in, forging
        // <CLIENT-IP, UID> grants their access. Demonstrate the documented
        // limitation — the E13 companion test.
        let (mut mountd, mut server, ap, _) = setup();
        mountd.map_request(&mut server.credmap, &ap, WS, NOW).unwrap();
        // Attacker forges the client address + uid (spoofed packet).
        let forged = NfsCredential { uid: 500, gids: vec![] };
        let home = 1;
        assert!(
            server.handle(WS, &forged, &NfsOp::Readdir(home)).is_ok(),
            "documented forgery window while mapping is live"
        );
    }

    #[test]
    fn unknown_principal_cannot_mount() {
        let (mut mountd, mut server, _, _) = setup();
        let ghost = Principal::parse("ghost", REALM).unwrap();
        let session = string_to_key("s2");
        let nfs_svc = Principal::parse("nfs.charon", REALM).unwrap();
        let ticket = Ticket::new(&nfs_svc, &ghost, WS, NOW, 96, *session.as_bytes())
            .seal_with(&Scheduled::new(&string_to_key("nfs-charon-srvtab")));
        let ap = krb_mk_req(&ticket, REALM, &session, &ghost, WS, NOW, 500, false);
        assert!(matches!(
            mountd.map_request(&mut server.credmap, &ap, WS, NOW),
            Err(NfsError::BadCredential)
        ));
        assert!(server.credmap.is_empty());
    }

    #[test]
    fn replayed_mount_request_rejected() {
        let (mut mountd, mut server, ap, _) = setup();
        mountd.map_request(&mut server.credmap, &ap, WS, NOW).unwrap();
        assert!(matches!(
            mountd.map_request(&mut server.credmap, &ap, WS, NOW + 1),
            Err(NfsError::Auth(ErrorCode::RdApRepeat))
        ));
    }

    #[test]
    fn unmount_removes_exactly_one_mapping() {
        let (mut mountd, mut server, ap, _) = setup();
        mountd.map_request(&mut server.credmap, &ap, WS, NOW).unwrap();
        assert!(mountd.unmount(&mut server.credmap, WS, 500));
        assert!(!mountd.unmount(&mut server.credmap, WS, 500));
        assert!(server.credmap.is_empty());
    }
}
