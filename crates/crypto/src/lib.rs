//! # krb-crypto — the Kerberos encryption library
//!
//! The "encryption library" component of Figure 1 in Steiner, Neuman &
//! Schiller (USENIX 1988): DES (FIPS 46) implemented from the standard's
//! tables, the ECB/CBC/**PCBC** modes of operation (§2.2 of the paper
//! motivates PCBC: a transmission error renders the entire message useless
//! rather than a single block), the one-way password-to-key function, the
//! quadratic checksum used by safe messages, and session-key generation.
//!
//! The paper notes the encryption library "is an independent module, and may
//! be replaced"; accordingly nothing in here knows about tickets or
//! protocols — it is pure bytes-in/bytes-out.
//!
//! ```
//! use krb_crypto::{seal_with, string_to_key, unseal_with, Mode, Scheduled};
//!
//! // The key schedule is built once and passed to every call.
//! let key = Scheduled::new(&string_to_key("correct horse battery staple"));
//! let iv = [0u8; 8];
//! let ct = seal_with(Mode::Pcbc, &key, &iv, b"ticket contents").unwrap();
//! assert_eq!(unseal_with(Mode::Pcbc, &key, &iv, &ct).unwrap(), b"ticket contents");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cksum;
pub mod des;
pub mod fast;
pub mod key;
pub mod modes;
pub mod sched;
pub mod secret;
pub mod string_to_key;
mod tables;

pub use cksum::quad_cksum;
pub use des::Des;
pub use fast::FastDes;
/// Constant-time byte comparison — the canonical name the L2 lint steers
/// callers toward.
pub use key::constant_time_eq as ct_eq;
pub use key::{constant_time_eq, DesKey, KeyGenerator};
pub use sched::Scheduled;
pub use secret::SecretKey;
pub use modes::{
    cbc_checksum_matches_with, cbc_checksum_with, decrypt_raw_with, encrypt_raw_with, seal_in_place,
    seal_nested_in_place, seal_with, unseal_in_place, unseal_with, Mode, BLOCK,
};
pub use string_to_key::string_to_key;

/// Errors produced by the encryption library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Input length is not a whole number of 8-byte blocks (raw modes), or
    /// exceeds the frame limit (seal).
    BadLength(usize),
    /// Decryption produced an implausible frame: wrong key or tampering.
    Integrity,
    /// A weak or semi-weak DES key was rejected.
    WeakKey,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadLength(n) => write!(f, "bad input length {n} (not a whole block)"),
            CryptoError::Integrity => write!(f, "integrity check failed (wrong key or tampered data)"),
            CryptoError::WeakKey => write!(f, "weak or semi-weak DES key rejected"),
        }
    }
}

impl std::error::Error for CryptoError {}
