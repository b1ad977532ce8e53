//! Where sealed protocol parts are opened: a buffer that holds one
//! decrypted ticket, authenticator or reply part while a view reads it, and
//! wipes itself afterwards.
//!
//! A decrypted ticket carries the session key, so its plaintext gets the
//! hygiene of `krb_crypto::SecretKey` and `Scheduled`: it lives in exactly
//! one place — here, not in a `Vec` some callee returned — and that place
//! is overwritten when the scratch is dropped or reused.

use crate::name::COMPONENT_MAX;
use krb_crypto::{unseal_in_place, CryptoError, Mode, Scheduled, BLOCK};
use std::sync::atomic::{compiler_fence, Ordering};

/// The largest sealed part made of legal components: a ticket — five
/// length-prefixed names, then address, timestamp, lifetime and session key
/// (17 bytes) — behind the seal's 4-byte length, in whole blocks: 232. (An
/// authenticator, three names and 12 bytes, seals to 144.) Anything longer
/// is opened on the heap instead, through the same code.
const STACK_BYTES: usize = (5 * (COMPONENT_MAX + 1) + 17 + 4).div_ceil(BLOCK) * BLOCK;

/// Scratch space for one sealed part. Opening a second part in the same
/// scratch wipes the first.
pub struct Scratch {
    stack: [u8; STACK_BYTES],
    /// Holds the part instead when it is longer than `stack`.
    spill: Vec<u8>,
}

impl Scratch {
    /// An empty scratch.
    pub fn new() -> Self {
        Scratch { stack: [0; STACK_BYTES], spill: Vec::new() }
    }

    /// Copy `sealed` in, decrypt it there (PCBC, zero IV — the library's
    /// sealing convention) and lend out the payload. The verdict is
    /// `krb_crypto::unseal_with`'s for every input, whichever buffer the
    /// input landed in.
    pub fn unseal(&mut self, sched: &Scheduled, sealed: &[u8]) -> Result<&[u8], CryptoError> {
        self.wipe();
        let buf = match self.stack.get_mut(..sealed.len()) {
            Some(buf) => {
                buf.copy_from_slice(sealed);
                buf
            }
            None => {
                self.spill.clear();
                self.spill.extend_from_slice(sealed);
                self.spill.as_mut_slice()
            }
        };
        unseal_in_place(Mode::Pcbc, sched, &[0u8; 8], buf)
    }

    /// Overwrite whatever plaintext the scratch holds.
    pub fn wipe(&mut self) {
        // Best-effort zeroization, same caveats as `SecretKey`: the
        // workspace forbids `unsafe`, so overwrite plus a compiler fence is
        // the strongest available discouragement against eliding the store.
        self.stack.fill(0);
        // Nearly every part fits the stack and leaves the spill empty; a
        // zero-length `fill` still costs a memset call (~100 ns measured).
        if !self.spill.is_empty() {
            self.spill.fill(0);
        }
        compiler_fence(Ordering::SeqCst);
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krb_crypto::{seal_with, string_to_key, unseal_with};

    #[test]
    fn the_stack_holds_the_largest_legal_ticket() {
        assert_eq!(STACK_BYTES, 232);
    }

    #[test]
    fn verdicts_are_unseal_withs_on_both_sides_of_the_spill() {
        let sched = Scheduled::new(&string_to_key("k"));
        let wrong = Scheduled::new(&string_to_key("other"));
        let mut scratch = Scratch::new();
        for len in [0usize, 1, 100, STACK_BYTES - 4, STACK_BYTES - 3, 500] {
            let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = seal_with(Mode::Pcbc, &sched, &[0u8; 8], &plain).unwrap();
            assert_eq!(scratch.unseal(&sched, &sealed).unwrap(), plain, "len {len}");
            for (key, input) in [(&wrong, &sealed[..]), (&sched, &sealed[..sealed.len() - 3])] {
                let want = unseal_with(Mode::Pcbc, key, &[0u8; 8], input);
                assert_eq!(scratch.unseal(key, input).map(<[u8]>::to_vec), want, "len {len}");
            }
        }
    }

    #[test]
    fn wipe_leaves_no_plaintext_on_the_stack_or_in_the_spill() {
        let sched = Scheduled::new(&string_to_key("k"));
        for len in [40usize, 600] {
            let sealed = seal_with(Mode::Pcbc, &sched, &[0u8; 8], &vec![0xA5; len]).unwrap();
            let mut scratch = Scratch::new();
            assert_eq!(scratch.unseal(&sched, &sealed).unwrap(), vec![0xA5; len]);
            let spilled = sealed.len() > STACK_BYTES;
            assert_eq!(scratch.spill.contains(&0xA5), spilled);
            assert_eq!(scratch.stack.contains(&0xA5), !spilled);
            scratch.wipe();
            assert_eq!(scratch.stack, [0u8; STACK_BYTES], "len {len}");
            assert_eq!(scratch.spill, vec![0u8; if spilled { sealed.len() } else { 0 }]);
        }
    }

    #[test]
    fn reuse_wipes_the_part_opened_before() {
        let sched = Scheduled::new(&string_to_key("k"));
        let long = seal_with(Mode::Pcbc, &sched, &[0u8; 8], &[0xA5; 600]).unwrap();
        let short = seal_with(Mode::Pcbc, &sched, &[0u8; 8], &[0x5A; 9]).unwrap();
        let mut scratch = Scratch::new();
        scratch.unseal(&sched, &long).unwrap();
        scratch.unseal(&sched, &short).unwrap();
        assert!(!scratch.spill.contains(&0xA5));
        scratch.unseal(&sched, &long).unwrap();
        assert!(!scratch.stack.contains(&0x5A));
    }
}
