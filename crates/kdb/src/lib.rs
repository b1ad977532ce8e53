//! # krb-kdb — the Kerberos database library
//!
//! The "database library" component of Figure 1 in Steiner, Neuman &
//! Schiller (USENIX 1988). Provides:
//!
//! * [`ndbm::HashStore`] — a file-backed extendible-hash key/value store
//!   standing in for `ndbm` (the paper notes the database management system
//!   is "another replaceable module"; [`store::Store`] is the seam);
//! * [`store::MemStore`] — an in-memory store for simulators and tests;
//! * [`db::PrincipalDb`] — the principal database: one record per
//!   principal with name, private key (encrypted in the master database
//!   key), expiration date and administrative information (§2.2);
//! * [`dump`] — the hourly full-dump format shipped to slaves (§5.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod db;
pub mod dump;
pub mod ndbm;
pub mod principal;
pub mod store;

pub use db::{PrincipalDb, MASTER_INSTANCE, MASTER_NAME};
pub use ndbm::{HashStore, StoreStats};
pub use principal::{PrincipalEntry, PrincipalEntryView, ATTR_DISABLED, ATTR_NO_TGS, NAME_SZ};
pub use store::{Cursor, MemStore, Store};

/// Errors produced by the database library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Underlying file I/O failure.
    Io(String),
    /// Structural damage: bad magic, truncated record, bad dump line.
    Corrupt(String),
    /// A record exceeded the single-page limit.
    RecordTooLarge(usize),
    /// Directory growth limit reached.
    Full,
    /// Principal already registered.
    AlreadyExists(String),
    /// Principal not present.
    NotFound(String),
    /// Principal exists but is administratively disabled.
    Disabled(String),
    /// Illegal principal name component.
    BadName(String),
    /// The master key did not verify against the `K.M` entry.
    WrongMasterKey,
}

impl DbError {
    pub(crate) fn io(e: std::io::Error) -> Self {
        DbError::Io(e.to_string())
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "i/o error: {e}"),
            DbError::Corrupt(w) => write!(f, "database corrupt: {w}"),
            DbError::RecordTooLarge(n) => write!(f, "record too large: {n} bytes"),
            DbError::Full => write!(f, "hash directory limit reached"),
            DbError::AlreadyExists(p) => write!(f, "principal already exists: {p}"),
            DbError::NotFound(p) => write!(f, "principal unknown: {p}"),
            DbError::Disabled(p) => write!(f, "principal disabled: {p}"),
            DbError::BadName(w) => write!(f, "bad principal name: {w}"),
            DbError::WrongMasterKey => write!(f, "master key verification failed"),
        }
    }
}

impl std::error::Error for DbError {}
