//! Block cipher modes of operation: ECB, CBC, and the Propagating CBC mode
//! the paper describes in §2.2.
//!
//! > "An extension to the DES Cypher Block Chaining (CBC) mode, called the
//! > Propagating CBC mode, is also provided. In CBC, an error is propagated
//! > only through the current block of the cipher, whereas in PCBC, the
//! > error is propagated throughout the message."
//!
//! The engine behind these functions is [`FastDes`] — bit-identical to
//! the reference [`crate::des::Des`] (property-tested, block by block and
//! mode loop by mode loop); the paper notes the encryption library "may be
//! replaced with other DES implementations", and this is that seam in
//! action. Encryption chains through the cipher and runs one block at a
//! time; decryption chains through XORs only and runs four blocks side by
//! side.
//!
//! The raw functions operate on whole blocks. [`seal`]/[`open`] add the
//! length framing the Kerberos library uses so that arbitrary-length
//! messages round-trip (V4 carried explicit lengths in its messages; we
//! frame with a 4-byte big-endian length followed by zero padding).

use crate::fast::FastDes;
use crate::key::DesKey;
use crate::sched::Scheduled;
use crate::CryptoError;

/// Cipher mode selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Electronic codebook: blocks are independent. Fast, leaks structure;
    /// provided for completeness ("tradeoffs between speed and security").
    Ecb,
    /// Cipher block chaining: an error garbles one block and one bit.
    Cbc,
    /// Propagating CBC: an error garbles the rest of the message, rendering
    /// "the entire message useless if an error occurs".
    Pcbc,
}

/// Block size of DES in bytes.
pub const BLOCK: usize = 8;

/// Blocks decrypted side by side. CBC and PCBC chain the *decrypt*
/// direction through XORs only — `D(C_i)` needs nothing but ciphertext —
/// so a group of blocks goes through the rounds together and the chaining
/// is applied afterwards. Measured, not guessed: Kerberos messages are
/// 5–20 blocks, 2 lanes leave a third of the gain behind and 8 lanes drop
/// everything under 8 blocks to the serial tail (EXPERIMENTS.md, "DES
/// engine v2").
const LANES: usize = 4;

/// What the next block is XORed with: the previous block's two sides.
struct Chain {
    cipher: u64,
    plain: u64,
}

impl Chain {
    /// PCBC's first block chains with the IV alone, hence `plain: 0`.
    fn new(iv: &[u8; 8]) -> Self {
        Chain { cipher: u64::from_be_bytes(*iv), plain: 0 }
    }

    fn mask(&self, mode: Mode) -> u64 {
        match mode {
            Mode::Ecb => 0,
            Mode::Cbc => self.cipher,
            Mode::Pcbc => self.cipher ^ self.plain,
        }
    }
}

/// The mode loop, encrypt direction, in place over whole blocks. Each
/// block's input depends on the previous block's output, so this is one
/// block at a time by construction.
fn encrypt_blocks_in_place(mode: Mode, des: &FastDes, iv: &[u8; 8], buf: &mut [u8]) {
    let mut chain = Chain::new(iv);
    for block in buf.as_chunks_mut::<BLOCK>().0 {
        let plain = u64::from_be_bytes(*block);
        let cipher = des.encrypt_block_u64(plain ^ chain.mask(mode));
        *block = cipher.to_be_bytes();
        chain = Chain { cipher, plain };
    }
}

/// Decrypt `N` blocks through the cipher together, then chain them in order.
fn decrypt_group<const N: usize>(mode: Mode, des: &FastDes, chain: &mut Chain, group: &mut [[u8; BLOCK]; N]) {
    let ciphers = group.map(u64::from_be_bytes);
    let decrypted = des.decrypt_blocks_u64(ciphers);
    for ((block, cipher), d) in group.iter_mut().zip(ciphers).zip(decrypted) {
        let plain = d ^ chain.mask(mode);
        *block = plain.to_be_bytes();
        *chain = Chain { cipher, plain };
    }
}

/// The mode loop, decrypt direction, in place over whole blocks: groups of
/// [`LANES`], then the 1–3-block tail one block at a time.
fn decrypt_blocks_in_place(mode: Mode, des: &FastDes, iv: &[u8; 8], buf: &mut [u8]) {
    let mut chain = Chain::new(iv);
    let (groups, tail) = buf.as_chunks_mut::<BLOCK>().0.as_chunks_mut::<LANES>();
    for group in groups {
        decrypt_group(mode, des, &mut chain, group);
    }
    for block in tail {
        decrypt_group(mode, des, &mut chain, std::array::from_mut(block));
    }
}

/// Encrypt `data` (whole blocks only) under a precomputed schedule.
pub fn encrypt_raw_with(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if !data.len().is_multiple_of(BLOCK) {
        return Err(CryptoError::BadLength(data.len()));
    }
    let mut out = data.to_vec();
    encrypt_blocks_in_place(mode, sched.des(), iv, &mut out);
    Ok(out)
}

/// Decrypt `data` (whole blocks only) under a precomputed schedule.
pub fn decrypt_raw_with(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if !data.len().is_multiple_of(BLOCK) {
        return Err(CryptoError::BadLength(data.len()));
    }
    let mut out = data.to_vec();
    decrypt_blocks_in_place(mode, sched.des(), iv, &mut out);
    Ok(out)
}

/// Encrypt `data` (whole blocks only) under `key` with the given mode and IV.
pub fn encrypt_raw(mode: Mode, key: &DesKey, iv: &[u8; 8], data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    encrypt_raw_with(mode, &Scheduled::new(key), iv, data)
}

/// Decrypt `data` (whole blocks only) under `key` with the given mode and IV.
pub fn decrypt_raw(mode: Mode, key: &DesKey, iv: &[u8; 8], data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    decrypt_raw_with(mode, &Scheduled::new(key), iv, data)
}

/// Seal the tail of `buf` where it lies: `buf[start..start + 4]` is a
/// reserved slot for the length field and `buf[start + 4..]` the plaintext.
/// The slot is patched, the tail zero-padded to a whole number of blocks
/// (counted from `start`) and encrypted in place, so `buf[start..]` ends up
/// holding exactly what [`seal_with`] returns for that plaintext. Bytes
/// before `start` are not touched, which is what lets a caller seal one
/// message inside another, innermost first.
pub fn seal_in_place(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    buf: &mut Vec<u8>,
    start: usize,
) -> Result<(), CryptoError> {
    let plain_len = start
        .checked_add(4)
        .and_then(|body| buf.len().checked_sub(body))
        .ok_or(CryptoError::BadLength(buf.len()))?;
    let framed = u32::try_from(plain_len).map_err(|_| CryptoError::BadLength(plain_len))?;
    buf.resize(start + (4 + plain_len).div_ceil(BLOCK) * BLOCK, 0);
    let tail = buf.get_mut(start..).unwrap_or_default();
    if let Some((slot, _)) = tail.split_first_chunk_mut::<4>() {
        *slot = framed.to_be_bytes();
    }
    encrypt_blocks_in_place(mode, sched.des(), iv, tail);
    Ok(())
}

/// Reverse [`seal_with`] where the ciphertext lies: decrypt `buf` in place
/// and return the payload as a sub-slice of it. The checks are
/// [`unseal_with`]'s — whole blocks, a plausible length field, zero padding
/// — and on any error `buf` holds whatever the decryption produced, so a
/// caller that cares wipes it either way.
pub fn unseal_in_place<'a>(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    buf: &'a mut [u8],
) -> Result<&'a [u8], CryptoError> {
    if !buf.len().is_multiple_of(BLOCK) {
        return Err(CryptoError::BadLength(buf.len()));
    }
    decrypt_blocks_in_place(mode, sched.des(), iv, buf);
    let buf: &'a [u8] = buf;
    let Some((len, body)) = buf.split_first_chunk::<4>() else {
        return Err(CryptoError::Integrity);
    };
    let Some((payload, padding)) = body.split_at_checked(u32::from_be_bytes(*len) as usize) else {
        return Err(CryptoError::Integrity);
    };
    // Padding must be zero; garbled decryptions rarely satisfy this.
    if padding.iter().any(|&b| b != 0) {
        return Err(CryptoError::Integrity);
    }
    Ok(payload)
}

/// [`seal`] with a precomputed schedule: one allocation, no schedule work.
pub fn seal_with(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    plaintext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut out = Vec::with_capacity((plaintext.len() + 4).div_ceil(BLOCK) * BLOCK);
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(plaintext);
    seal_in_place(mode, sched, iv, &mut out, 0)?;
    Ok(out)
}

/// Encrypt an arbitrary-length message: prepend a 4-byte big-endian length,
/// zero-pad to a block boundary, then encrypt. PCBC with a zero IV is the
/// Kerberos library default (tickets, authenticators, private messages).
pub fn seal(mode: Mode, key: &DesKey, iv: &[u8; 8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    seal_with(mode, &Scheduled::new(key), iv, plaintext)
}

/// [`open`] with a precomputed schedule: decrypt a copy, then shift the
/// payload over the length prefix in place — one allocation total.
pub fn unseal_with(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut plain = ciphertext.to_vec();
    let len = unseal_in_place(mode, sched, iv, &mut plain)?.len();
    plain.copy_within(4..4 + len, 0);
    plain.truncate(len);
    Ok(plain)
}

/// Reverse [`seal`]: decrypt and strip the length framing.
///
/// A wrong key (or tampered ciphertext) shows up as an implausible length or
/// nonzero padding and is reported as [`CryptoError::Integrity`]. Callers
/// that need stronger integrity add a checksum inside the plaintext, as the
/// Kerberos protocol messages do.
pub fn open(mode: Mode, key: &DesKey, iv: &[u8; 8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    unseal_with(mode, &Scheduled::new(key), iv, ciphertext)
}

/// [`cbc_checksum`] under a precomputed schedule (`kprop` checksums whole
/// database dumps in the master key — the schedule is already in hand).
///
/// Only the last ciphertext block is kept, so the input is streamed through
/// one word of CBC state; a short (or absent) final block is zero-padded.
pub fn cbc_checksum_with(sched: &Scheduled, iv: &[u8; 8], data: &[u8]) -> [u8; 8] {
    let des = sched.des();
    let mut state = u64::from_be_bytes(*iv);
    let (blocks, rest) = data.as_chunks::<BLOCK>();
    for block in blocks {
        state = des.encrypt_block_u64(state ^ u64::from_be_bytes(*block));
    }
    if !rest.is_empty() || blocks.is_empty() {
        let mut last = [0u8; BLOCK];
        last[..rest.len()].copy_from_slice(rest);
        state = des.encrypt_block_u64(state ^ u64::from_be_bytes(last));
    }
    state.to_be_bytes()
}

/// CBC "checksum": encrypt in CBC mode and keep only the final block.
/// Every bit of the input influences the result; used by the string-to-key
/// one-way function and by `kprop` dump integrity.
pub fn cbc_checksum(key: &DesKey, iv: &[u8; 8], data: &[u8]) -> [u8; 8] {
    cbc_checksum_with(&Scheduled::new(key), iv, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k() -> DesKey {
        DesKey::from_bytes([0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1])
    }
    const IV: [u8; 8] = [0xA5; 8];

    #[test]
    fn raw_round_trip_all_modes() {
        let data = b"sixteen bytes!!!".to_vec();
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            let c = encrypt_raw(mode, &k(), &IV, &data).unwrap();
            assert_ne!(c, data);
            let p = decrypt_raw(mode, &k(), &IV, &c).unwrap();
            assert_eq!(p, data, "{mode:?}");
        }
    }

    #[test]
    fn raw_rejects_partial_blocks() {
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            assert!(matches!(
                encrypt_raw(mode, &k(), &IV, b"short"),
                Err(CryptoError::BadLength(5))
            ));
            assert!(matches!(
                decrypt_raw(mode, &k(), &IV, b"short"),
                Err(CryptoError::BadLength(5))
            ));
        }
    }

    #[test]
    fn ecb_leaks_equal_blocks_cbc_does_not() {
        let data = [0x42u8; 16]; // two identical blocks
        let ecb = encrypt_raw(Mode::Ecb, &k(), &IV, &data).unwrap();
        assert_eq!(ecb[..8], ecb[8..16], "ECB repeats identical blocks");
        let cbc = encrypt_raw(Mode::Cbc, &k(), &IV, &data).unwrap();
        assert_ne!(cbc[..8], cbc[8..16], "CBC hides identical blocks");
    }

    #[test]
    fn seal_open_round_trip_various_lengths() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for mode in [Mode::Cbc, Mode::Pcbc] {
                let c = seal(mode, &k(), &IV, &data).unwrap();
                assert_eq!(c.len() % BLOCK, 0);
                let p = open(mode, &k(), &IV, &c).unwrap();
                assert_eq!(p, data, "len {len} {mode:?}");
            }
        }
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let c = seal(Mode::Pcbc, &k(), &IV, b"the quick brown fox jumps").unwrap();
        let wrong = DesKey::from_bytes([0x0E, 0x32, 0x92, 0x32, 0xEA, 0x6D, 0x0D, 0x73]);
        // With overwhelming probability the decrypted length/padding is junk.
        assert!(open(Mode::Pcbc, &wrong, &IV, &c).is_err());
    }

    /// The paper's §2.2 claim, demonstrated exactly: flip one ciphertext bit
    /// in the first block of a 5-block message. Under CBC only blocks 0 and 1
    /// are disturbed (block 1 by exactly one bit); under PCBC every
    /// subsequent block is garbled.
    #[test]
    fn error_propagation_cbc_vs_pcbc() {
        let data: Vec<u8> = (0u8..40).collect(); // 5 blocks
        for (mode, expect_tail_garbled) in [(Mode::Cbc, false), (Mode::Pcbc, true)] {
            let mut c = encrypt_raw(mode, &k(), &IV, &data).unwrap();
            c[3] ^= 0x40; // corrupt block 0
            let p = decrypt_raw(mode, &k(), &IV, &c).unwrap();
            assert_ne!(p[..8], data[..8], "block 0 must be garbled ({mode:?})");
            match mode {
                Mode::Cbc => {
                    // Exactly one bit of block 1 flips; blocks 2.. intact.
                    let diff: u32 = p[8..16]
                        .iter()
                        .zip(&data[8..16])
                        .map(|(a, b)| (a ^ b).count_ones())
                        .sum();
                    assert_eq!(diff, 1, "CBC propagates exactly the flipped bit");
                    assert_eq!(&p[16..], &data[16..], "CBC: remainder intact");
                }
                Mode::Pcbc => {
                    for blk in 1..5 {
                        assert_ne!(
                            &p[blk * 8..blk * 8 + 8],
                            &data[blk * 8..blk * 8 + 8],
                            "PCBC must garble block {blk}"
                        );
                    }
                }
                Mode::Ecb => unreachable!(),
            }
            let _ = expect_tail_garbled;
        }
    }

    #[test]
    fn seal_in_place_leaves_the_prefix_alone() {
        let sched = Scheduled::new(&k());
        for len in [0usize, 1, 4, 8, 64, 200] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = b"header".to_vec();
            buf.extend_from_slice(&[0xEE; 4]); // a dirty slot must be overwritten
            buf.extend_from_slice(&data);
            seal_in_place(Mode::Pcbc, &sched, &IV, &mut buf, 6).unwrap();
            assert_eq!(&buf[..6], b"header");
            assert_eq!(buf[6..], seal(Mode::Pcbc, &k(), &IV, &data).unwrap(), "len {len}");
            assert_eq!(unseal_in_place(Mode::Pcbc, &sched, &IV, &mut buf[6..]).unwrap(), data);
        }
    }

    #[test]
    fn seal_in_place_needs_its_slot() {
        let sched = Scheduled::new(&k());
        for (len, start) in [(0usize, 0usize), (3, 0), (8, 5), (8, 9), (8, usize::MAX)] {
            let mut buf = vec![0u8; len];
            let refused = seal_in_place(Mode::Pcbc, &sched, &IV, &mut buf, start);
            assert!(matches!(refused, Err(CryptoError::BadLength(_))), "len {len} start {start}");
            assert_eq!(buf, vec![0u8; len], "a refused buffer is left as it was");
        }
    }

    #[test]
    fn unseal_with_rejects_what_open_rejects() {
        let sched = Scheduled::new(&k());
        assert!(matches!(
            unseal_with(Mode::Pcbc, &sched, &IV, b"short"),
            Err(CryptoError::BadLength(5))
        ));
        let c = seal_with(Mode::Pcbc, &sched, &IV, b"payload bytes").unwrap();
        let wrong = Scheduled::new(&DesKey::from_bytes([0x0E, 0x32, 0x92, 0x32, 0xEA, 0x6D, 0x0D, 0x73]));
        assert!(unseal_with(Mode::Pcbc, &wrong, &IV, &c).is_err());
        let mut tampered = c.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x01;
        assert!(unseal_with(Mode::Pcbc, &sched, &IV, &tampered).is_err());
    }

    #[test]
    fn cbc_checksum_depends_on_every_bit() {
        let base = cbc_checksum(&k(), &IV, b"some data for checksumming");
        let mut tweaked = b"some data for checksumming".to_vec();
        tweaked[0] ^= 1;
        assert_ne!(base, cbc_checksum(&k(), &IV, &tweaked));
        let mut tail = b"some data for checksumming".to_vec();
        let n = tail.len() - 1;
        tail[n] ^= 0x80;
        assert_ne!(base, cbc_checksum(&k(), &IV, &tail));
    }

    /// The streaming checksum against its definition: the last block of a
    /// CBC encryption of the zero-padded input.
    #[test]
    fn cbc_checksum_is_the_last_block_of_a_cbc_encryption() {
        for len in [0usize, 1, 7, 8, 9, 4099] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut padded = data.clone();
            padded.resize(len.div_ceil(BLOCK).max(1) * BLOCK, 0);
            let c = encrypt_raw(Mode::Cbc, &k(), &IV, &padded).unwrap();
            assert_eq!(cbc_checksum(&k(), &IV, &data)[..], c[c.len() - BLOCK..], "len {len}");
        }
    }

    #[test]
    fn cbc_checksum_of_empty_input_is_defined() {
        let a = cbc_checksum(&k(), &IV, b"");
        let b = cbc_checksum(&k(), &IV, &[0u8; 8]);
        assert_eq!(a, b, "empty input is one zero block");
    }
}
