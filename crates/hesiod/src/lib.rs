//! # krb-hesiod — the Hesiod nameserver substrate
//!
//! Paper §2.2: "Other user information, such as real name, phone number,
//! and so forth, is kept by another server, the Hesiod nameserver. This
//! way, sensitive information, namely passwords, can be handled by
//! Kerberos ... while the non-sensitive information kept by Hesiod is
//! dealt with differently; it can, for example, be sent unencrypted over
//! the network."
//!
//! The appendix uses Hesiod twice during login: "the user's home directory
//! is located by consulting the Hesiod naming service", and "the Hesiod
//! service is also used to construct an entry in the local password file."
//! This crate provides exactly those lookups: `passwd`-style user records
//! and `filsys`-style home-directory locations, served in the clear.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A `passwd`-style record: everything *except* the password.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UserInfo {
    /// Login name.
    pub username: String,
    /// Numeric user id.
    pub uid: u32,
    /// Group memberships (first is the primary group).
    pub gids: Vec<u32>,
    /// Real name ("sent unencrypted" — deliberately non-sensitive).
    pub real_name: String,
    /// Phone number.
    pub phone: String,
    /// Login shell.
    pub shell: String,
}

/// A `filsys`-style record: where a user's home directory lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilsysInfo {
    /// Fileserver host address.
    pub server_addr: [u8; 4],
    /// Exported path on the fileserver.
    pub path: String,
}

/// The Hesiod database and query interface.
#[derive(Default)]
pub struct Hesiod {
    users: RwLock<HashMap<String, UserInfo>>,
    filsys: RwLock<HashMap<String, FilsysInfo>>,
}

/// Query errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HesiodError {
    /// No record under that name.
    NotFound,
    /// Malformed query string.
    BadQuery,
}

impl std::fmt::Display for HesiodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HesiodError::NotFound => write!(f, "hesiod: name not found"),
            HesiodError::BadQuery => write!(f, "hesiod: bad query"),
        }
    }
}

impl std::error::Error for HesiodError {}

impl Hesiod {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register or replace a user record.
    pub fn add_user(&self, info: UserInfo) {
        self.users.write().insert(info.username.clone(), info);
    }

    /// Register or replace a home-directory record.
    pub fn add_filsys(&self, username: &str, info: FilsysInfo) {
        self.filsys.write().insert(username.to_string(), info);
    }

    /// `hes_getpwnam`: the passwd-style lookup used to build the local
    /// password file entry at login.
    pub fn getpwnam(&self, username: &str) -> Result<UserInfo, HesiodError> {
        self.users.read().get(username).cloned().ok_or(HesiodError::NotFound)
    }

    /// `hes_getfilsys`: locate the user's home directory for the NFS mount.
    pub fn getfilsys(&self, username: &str) -> Result<FilsysInfo, HesiodError> {
        self.filsys.read().get(username).cloned().ok_or(HesiodError::NotFound)
    }

    /// Serve the text query protocol: `passwd <name>` or `filsys <name>`.
    /// Responses are plain text — this data is public by design.
    pub fn query(&self, q: &str) -> Result<String, HesiodError> {
        let (kind, name) = q.split_once(' ').ok_or(HesiodError::BadQuery)?;
        match kind {
            "passwd" => {
                let u = self.getpwnam(name)?;
                let gids = u.gids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
                Ok(format!(
                    "{}:*:{}:{}:{},{}:{}",
                    u.username, u.uid, gids, u.real_name, u.phone, u.shell
                ))
            }
            "filsys" => {
                let f = self.getfilsys(name)?;
                Ok(format!(
                    "NFS {} {}.{}.{}.{}",
                    f.path, f.server_addr[0], f.server_addr[1], f.server_addr[2], f.server_addr[3]
                ))
            }
            _ => Err(HesiodError::BadQuery),
        }
    }
}

/// Serve a shared [`Hesiod`] on the network substrate.
pub struct HesiodService(pub Arc<Hesiod>);

impl krb_netsim::Service for HesiodService {
    fn handle(&mut self, req: &krb_netsim::Packet) -> Option<Vec<u8>> {
        let q = String::from_utf8_lossy(&req.payload);
        Some(match self.0.query(&q) {
            Ok(answer) => answer.into_bytes(),
            Err(e) => format!("ERR {e}").into_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hesiod {
        let h = Hesiod::new();
        h.add_user(UserInfo {
            username: "bcn".into(),
            uid: 8042,
            gids: vec![100, 200],
            real_name: "Clifford Neuman".into(),
            phone: "x3-1234".into(),
            shell: "/bin/csh".into(),
        });
        h.add_filsys("bcn", FilsysInfo { server_addr: [18, 72, 0, 30], path: "/u1/bcn".into() });
        h
    }

    #[test]
    fn getpwnam_and_getfilsys() {
        let h = sample();
        let u = h.getpwnam("bcn").unwrap();
        assert_eq!(u.uid, 8042);
        assert_eq!(u.gids, vec![100, 200]);
        let f = h.getfilsys("bcn").unwrap();
        assert_eq!(f.path, "/u1/bcn");
        assert_eq!(h.getpwnam("nobody").unwrap_err(), HesiodError::NotFound);
        assert_eq!(h.getfilsys("nobody").unwrap_err(), HesiodError::NotFound);
    }

    #[test]
    fn query_protocol_text_formats() {
        let h = sample();
        let pw = h.query("passwd bcn").unwrap();
        assert!(pw.starts_with("bcn:*:8042:100,200:"), "{pw}");
        assert!(pw.contains("Clifford Neuman"));
        let fs = h.query("filsys bcn").unwrap();
        assert_eq!(fs, "NFS /u1/bcn 18.72.0.30");
    }

    #[test]
    fn passwd_field_never_contains_a_password() {
        // The whole point of the Kerberos/Hesiod split: the password field
        // in Hesiod's passwd record is a placeholder.
        let h = sample();
        let pw = h.query("passwd bcn").unwrap();
        assert_eq!(pw.split(':').nth(1), Some("*"));
    }

    #[test]
    fn bad_queries_rejected() {
        let h = sample();
        assert_eq!(h.query("passwd").unwrap_err(), HesiodError::BadQuery);
        assert_eq!(h.query("uidmap bcn").unwrap_err(), HesiodError::BadQuery);
        assert_eq!(h.query("passwd ghost").unwrap_err(), HesiodError::NotFound);
    }

    #[test]
    fn network_service_answers() {
        use krb_netsim::{Endpoint, NetConfig, Router, SimNet};
        let mut router = Router::new(SimNet::new(NetConfig::default()));
        let h = Arc::new(sample());
        let ep = Endpoint::new([18, 72, 0, 9], krb_netsim::ports::HESIOD);
        router.serve(ep, HesiodService(Arc::clone(&h)));
        let me = Endpoint::new([18, 72, 0, 5], 1024);
        let reply = router.rpc(me, ep, b"filsys bcn").unwrap();
        assert_eq!(reply, b"NFS /u1/bcn 18.72.0.30");
        let err = router.rpc(me, ep, b"passwd ghost").unwrap();
        assert!(err.starts_with(b"ERR"));
    }
}
