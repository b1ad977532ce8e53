//! The one-way function from a user's password to their DES private key.
//!
//! Paper, Conventions: "In the case of a user, the private key is the result
//! of a one-way function applied to the user's password."
//!
//! The algorithm follows the shape of the Kerberos V4 `string_to_key`:
//!
//! 1. zero-pad the password to a multiple of 8 bytes;
//! 2. *fan-fold*: XOR the 8-byte groups together, bit-reversing every other
//!    group so that `abcdefgh` + `hgfedcba` style passwords do not cancel;
//! 3. force odd parity to obtain a temporary key (repairing weak keys);
//! 4. compute the DES CBC checksum of the padded password under the
//!    temporary key (used as both key and IV) — this is the one-way step:
//!    recovering the password from the checksum requires inverting DES;
//! 5. force odd parity again and repair weak keys by flipping the
//!    high nibble of the last byte (as MIT's implementation did).

use crate::key::{odd_parity, DesKey};
use crate::modes::cbc_checksum_with;
use crate::sched::Scheduled;

/// Derive a DES key from a password. Deterministic; never produces a weak key.
pub fn string_to_key(password: &str) -> DesKey {
    let bytes = password.as_bytes();
    let padded_len = bytes.len().div_ceil(8).max(1) * 8;
    let mut padded = bytes.to_vec();
    padded.resize(padded_len, 0);

    // Fan-fold.
    let mut folded = [0u8; 8];
    for (group_idx, group) in padded.chunks_exact(8).enumerate() {
        if group_idx % 2 == 0 {
            for (i, &b) in group.iter().enumerate() {
                folded[i] ^= b;
            }
        } else {
            // Odd groups contribute byte- and bit-reversed.
            for (i, &b) in group.iter().rev().enumerate() {
                folded[i] ^= b.reverse_bits();
            }
        }
    }
    for b in &mut folded {
        *b = odd_parity(*b);
    }
    let mut temp = DesKey::from_bytes(folded);
    if temp.is_weak() {
        let mut fixed = *temp.as_bytes();
        fixed[7] ^= 0xF0;
        temp = DesKey::from_bytes(fixed);
    }

    // One-way step: CBC checksum of the padded password under the temp key.
    let iv = *temp.as_bytes();
    let mut out = cbc_checksum_with(&Scheduled::new(&temp), &iv, &padded);
    for b in &mut out {
        *b = odd_parity(*b);
    }
    let mut key = DesKey::from_bytes(out);
    if key.is_weak() {
        let mut fixed = *key.as_bytes();
        fixed[7] ^= 0xF0;
        key = DesKey::from_bytes(fixed);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            string_to_key("correct horse battery staple").as_bytes(),
            string_to_key("correct horse battery staple").as_bytes()
        );
    }

    #[test]
    fn distinct_passwords_distinct_keys() {
        let samples = [
            "", "a", "b", "password", "passworD", "Password", "drowssap",
            "athena", "kerberos", "zanarotti", "x y z", "xyz ",
        ];
        let mut keys = std::collections::HashSet::new();
        for p in samples {
            keys.insert(*string_to_key(p).as_bytes());
        }
        assert_eq!(keys.len(), samples.len());
    }

    #[test]
    fn long_passwords_use_all_groups() {
        // Two passwords that agree in the first 8 bytes must still differ.
        let a = string_to_key("sharedprefix-AAAA");
        let b = string_to_key("sharedprefix-BBBB");
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn palindromic_fold_does_not_cancel() {
        // Without the bit-reversal of odd groups, a 16-byte password whose
        // second group mirrors the first could fold to (nearly) zero.
        let k = string_to_key("abcdefghhgfedcba");
        assert_ne!(k.as_bytes(), &[0x01; 8]);
        assert!(!k.is_weak());
    }

    #[test]
    fn never_weak() {
        for p in ["", "\u{1}\u{1}\u{1}\u{1}\u{1}\u{1}\u{1}\u{1}", "weak", "0"] {
            assert!(!string_to_key(p).is_weak(), "password {p:?}");
        }
    }

    #[test]
    fn parity_is_valid() {
        for b in string_to_key("check parity").as_bytes() {
            assert_eq!(b.count_ones() % 2, 1);
        }
    }
}
