//! [`Scheduled`]: a precomputed DES key schedule bound to its key.
//!
//! Building a DES key schedule costs an order of magnitude more than
//! encrypting one block, and the Kerberos hot paths (KDC exchanges, the
//! application servers' per-message seals) reuse the same handful of keys
//! over and over. `Scheduled` makes the schedule a first-class cached
//! object: compute it once, then hand `&Scheduled` to the `*_with` family
//! in [`crate::modes`] so the mode loop does zero per-call schedule work.
//!
//! A schedule *is* key material — the 16 subkeys contain 48 bits of the
//! key each — so `Scheduled` carries the same hygiene contract as
//! [`crate::SecretKey`]: a redacting `Debug` impl and best-effort
//! zeroization of both the subkeys and the bound key on drop. Caches that
//! evict `Scheduled` values (the KDC's principal-schedule LRU) get the
//! zeroize-on-evict guarantee for free from `Drop`.

use crate::fast::FastDes;
use crate::key::DesKey;

/// A precomputed [`FastDes`] schedule bound to the [`DesKey`] it was built
/// from. Redacting `Debug`; zeroizes subkeys and key on drop.
#[derive(Clone)]
pub struct Scheduled {
    des: FastDes,
    key: DesKey,
}

impl Scheduled {
    /// Precompute the schedule for `key`.
    pub fn new(key: &DesKey) -> Self {
        Scheduled { des: FastDes::new(key), key: *key }
    }

    /// The key this schedule was built from.
    pub fn key(&self) -> &DesKey {
        &self.key
    }

    /// The underlying cipher instance (for the mode loops).
    pub(crate) fn des(&self) -> &FastDes {
        &self.des
    }

    /// Encrypt one 8-byte block in place (single-block ECB callers, e.g.
    /// the database's master-key wrapping of principal keys).
    pub fn encrypt_block(&self, block: &mut [u8; 8]) {
        self.des.encrypt_block(block);
    }

    /// Decrypt one 8-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 8]) {
        self.des.decrypt_block(block);
    }
}

impl From<&DesKey> for Scheduled {
    fn from(key: &DesKey) -> Self {
        Scheduled::new(key)
    }
}

impl std::fmt::Debug for Scheduled {
    // Subkeys are key material; Debug prints a redaction marker only.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduled(<redacted>)")
    }
}

impl Scheduled {
    /// Overwrite every round-key word and the bound key.
    fn wipe(&mut self) {
        // Best-effort zeroization, same caveats as `SecretKey`: the
        // workspace forbids `unsafe`, so overwrite plus a compiler fence is
        // the strongest available discouragement against eliding the store.
        self.des.subkeys = [[0u32; 2]; 16];
        self.key = DesKey::zeroed();
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

impl Drop for Scheduled {
    fn drop(&mut self) {
        self.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> DesKey {
        DesKey::from_bytes([0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1])
    }

    #[test]
    fn debug_redacts_schedule_material() {
        let s = Scheduled::new(&k());
        let out = format!("{s:?}");
        assert!(out.contains("redacted"));
        assert!(!out.contains("13") && !out.contains("0x"), "no key bytes: {out}");
    }

    #[test]
    fn matches_fresh_fastdes_block_for_block() {
        let s = Scheduled::new(&k());
        let fresh = FastDes::new(&k());
        let mut a = *b"8 bytes!";
        let mut b = a;
        s.encrypt_block(&mut a);
        fresh.encrypt_block(&mut b);
        assert_eq!(a, b);
        s.decrypt_block(&mut a);
        assert_eq!(&a, b"8 bytes!");
    }

    #[test]
    fn binds_its_key() {
        let s = Scheduled::new(&k());
        assert_eq!(s.key().as_bytes(), k().as_bytes());
    }

    #[test]
    fn drop_overwrites_every_word_of_the_schedule() {
        let mut s = Scheduled::new(&k());
        assert!(s.des.subkeys.iter().all(|k| *k != [0, 0]), "a live schedule has no blank round");
        s.wipe(); // what `Drop` runs
        assert_eq!(s.des.subkeys, [[0u32; 2]; 16]);
        assert_eq!(s.key.as_bytes(), DesKey::zeroed().as_bytes());
    }

    #[test]
    fn dropping_a_clone_leaves_the_original_intact() {
        let s = Scheduled::new(&k());
        drop(s.clone());
        let mut blk = *b"\x01\x23\x45\x67\x89\xAB\xCD\xEF";
        s.encrypt_block(&mut blk);
        assert_eq!(u64::from_be_bytes(blk), 0x85E813540F0AB405);
        assert_eq!(s.key().as_bytes(), k().as_bytes());
    }

    #[test]
    fn clone_is_independent() {
        let s = Scheduled::new(&k());
        let c = s.clone();
        drop(s);
        // The clone still works after the original zeroized itself.
        let mut blk = *b"\x01\x23\x45\x67\x89\xAB\xCD\xEF";
        c.encrypt_block(&mut blk);
        let mut expect = *b"\x01\x23\x45\x67\x89\xAB\xCD\xEF";
        FastDes::new(&k()).encrypt_block(&mut expect);
        assert_eq!(blk, expect);
    }
}
