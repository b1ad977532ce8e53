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
//! action. Decryption chains through XORs only and runs up to four blocks
//! side by side, the tail included, and so does ECB encryption, which has
//! no chain. CBC and PCBC encryption chain through the cipher, so one
//! chain is one block at a time; the only second chain ready to
//! run beside it is a message sealed inside another, where
//! [`seal_nested_in_place`] runs the inner chain two-wide with the outer
//! blocks in front of it.
//!
//! Every function takes the key as a [`Scheduled`], built once per key.
//! The raw functions operate on whole blocks. [`seal_with`]/[`unseal_with`]
//! add the length framing the Kerberos library uses so that arbitrary-length
//! messages round-trip (V4 carried explicit lengths in its messages; we
//! frame with a 4-byte big-endian length followed by zero padding).

use crate::fast::FastDes;
use crate::key::constant_time_eq;
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
/// everything under 8 blocks to the tail, which then ran one block at a
/// time (EXPERIMENTS.md, "DES engine v2").
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

/// The mode loop, encrypt direction, in place over whole blocks, carrying
/// `chain` on. Each block's input depends on the previous block's output,
/// so one chain is one block at a time by construction.
fn encrypt_chain(mode: Mode, des: &FastDes, chain: &mut Chain, buf: &mut [u8]) {
    for block in buf.as_chunks_mut::<BLOCK>().0 {
        let plain = u64::from_be_bytes(*block);
        let cipher = des.encrypt_block_u64(plain ^ chain.mask(mode));
        *block = cipher.to_be_bytes();
        *chain = Chain { cipher, plain };
    }
}

/// Two independent chains side by side: block `j` of `a` under `des[0]`
/// goes through the rounds together with block `j` of `b` under `des[1]`,
/// for as many blocks as the shorter has. Returns that count; each chain
/// is left ready to carry on from there.
fn encrypt_two_chains(
    mode: Mode,
    des: [&FastDes; 2],
    chains: &mut [Chain; 2],
    [a, b]: [&mut [u8]; 2],
) -> usize {
    let pairs = a.as_chunks_mut::<BLOCK>().0.iter_mut().zip(b.as_chunks_mut::<BLOCK>().0);
    let done = pairs.len();
    for (x, y) in pairs {
        let plain = [u64::from_be_bytes(*x), u64::from_be_bytes(*y)];
        let cipher = FastDes::encrypt_lanes_u64(des, [0, 1].map(|i| plain[i] ^ chains[i].mask(mode)));
        [*x, *y] = cipher.map(u64::to_be_bytes);
        *chains = [0, 1].map(|i| Chain { cipher: cipher[i], plain: plain[i] });
    }
    done
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
/// [`LANES`], then the 1–3-block tail as one group of its own size, so its
/// blocks overlap too (a 14-block reply part ends in two, a 7-block ticket
/// in three).
fn decrypt_blocks_in_place(mode: Mode, des: &FastDes, iv: &[u8; 8], buf: &mut [u8]) {
    let mut chain = Chain::new(iv);
    let (groups, tail) = buf.as_chunks_mut::<BLOCK>().0.as_chunks_mut::<LANES>();
    for group in groups {
        decrypt_group(mode, des, &mut chain, group);
    }
    let chain = &mut chain;
    match tail.len() {
        1 => tail.first_chunk_mut().map(|group| decrypt_group::<1>(mode, des, chain, group)),
        2 => tail.first_chunk_mut().map(|group| decrypt_group::<2>(mode, des, chain, group)),
        3 => tail.first_chunk_mut().map(|group| decrypt_group::<3>(mode, des, chain, group)),
        _ => None,
    };
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
    match mode {
        Mode::Ecb => encrypt_ecb_in_place(sched.des(), &mut out),
        Mode::Cbc | Mode::Pcbc => encrypt_chain(mode, sched.des(), &mut Chain::new(iv), &mut out),
    }
    Ok(out)
}

/// ECB, encrypt direction: no block depends on another, so the blocks go
/// through the rounds [`LANES`] at a time, like decryption's groups; the
/// 1–3-block tail rides in one zero-filled group.
fn encrypt_ecb_in_place(des: &FastDes, buf: &mut [u8]) {
    let (groups, tail) = buf.as_chunks_mut::<BLOCK>().0.as_chunks_mut::<LANES>();
    let encrypt = |group: [[u8; BLOCK]; LANES]| {
        FastDes::encrypt_lanes_u64([des; LANES], group.map(u64::from_be_bytes)).map(u64::to_be_bytes)
    };
    for group in groups {
        *group = encrypt(*group);
    }
    if !tail.is_empty() {
        let mut last = [[0; BLOCK]; LANES];
        last[..tail.len()].copy_from_slice(tail);
        let last = encrypt(last);
        tail.copy_from_slice(&last[..tail.len()]);
    }
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
    encrypt_chain(mode, sched.des(), &mut Chain::new(iv), tail);
    Ok(())
}

/// Seal a message inside a message where both lie. The bytes equal
/// [`seal_in_place`] at `inner` under `inner_sched`, then the inner
/// ciphertext's length as a big-endian `u16` in `buf[inner - 2..inner]`,
/// then [`seal_in_place`] at `outer` under `outer_sched`: a Kerberos reply
/// part ending in a ticket it carries as a byte string. The 4 bytes at
/// `outer` and at `inner` are the reserved slots, the 2-byte field lies in
/// the outer plaintext, and the inner plaintext runs to the end of `buf`.
///
/// All three lengths are patched before any block is encrypted, so the
/// outer blocks wholly in front of `inner` are final from the start: they
/// go through the rounds two-wide with the inner chain's first blocks,
/// the rest of the inner chain follows, and the outer chain carries on
/// over the inner ciphertext. A 14-block reply part around a 7-block
/// ticket is 15 serial block steps instead of 21.
pub fn seal_nested_in_place(
    mode: Mode,
    outer_sched: &Scheduled,
    inner_sched: &Scheduled,
    iv: &[u8; 8],
    buf: &mut Vec<u8>,
    outer: usize,
    inner: usize,
) -> Result<(), CryptoError> {
    let bad = CryptoError::BadLength(buf.len());
    let inner_plain = inner.checked_add(4).and_then(|body| buf.len().checked_sub(body)).ok_or(bad)?;
    let front = inner.checked_sub(outer).filter(|&front| front >= 4 + 2).ok_or(bad)?;
    let inner_sealed = (4 + inner_plain).div_ceil(BLOCK) * BLOCK;
    let field = u16::try_from(inner_sealed).map_err(|_| CryptoError::BadLength(inner_sealed))?;
    let outer_plain = front - 4 + inner_sealed;
    let outer_framed = u32::try_from(outer_plain).map_err(|_| CryptoError::BadLength(outer_plain))?;
    buf.resize(outer + (4 + outer_plain).div_ceil(BLOCK) * BLOCK, 0);

    let region = buf.get_mut(outer..).unwrap_or_default();
    let (head, tail) = region.split_at_mut_checked(front).unwrap_or_default();
    let ticket = tail.get_mut(..inner_sealed).unwrap_or_default();
    if let Some(slot) = head.first_chunk_mut::<4>() {
        *slot = outer_framed.to_be_bytes();
    }
    if let Some(slot) = head.last_chunk_mut::<2>() {
        *slot = field.to_be_bytes();
    }
    if let Some(slot) = ticket.first_chunk_mut::<4>() {
        *slot = (inner_plain as u32).to_be_bytes();
    }
    let des = [outer_sched.des(), inner_sched.des()];
    let mut chains = [Chain::new(iv), Chain::new(iv)];
    let pairs = encrypt_two_chains(mode, des, &mut chains, [head, &mut *ticket]);
    let [outer_chain, inner_chain] = &mut chains;
    encrypt_chain(mode, des[1], inner_chain, ticket.get_mut(pairs * BLOCK..).unwrap_or_default());
    encrypt_chain(mode, des[0], outer_chain, region.get_mut(pairs * BLOCK..).unwrap_or_default());
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

/// Encrypt an arbitrary-length message: prepend a 4-byte big-endian length,
/// zero-pad to a block boundary, then encrypt. PCBC with a zero IV is the
/// Kerberos library default (tickets, authenticators, private messages).
/// One allocation, no schedule work.
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

/// Reverse [`seal_with`]: decrypt a copy, then shift the payload over the
/// length prefix in place — one allocation total.
///
/// A wrong key (or tampered ciphertext) shows up as an implausible length or
/// nonzero padding and is reported as [`CryptoError::Integrity`]. Callers
/// that need stronger integrity add a checksum inside the plaintext, as the
/// Kerberos protocol messages do.
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

/// CBC "checksum": encrypt in CBC mode and keep only the final block.
/// Every bit of the input influences the result; used by the string-to-key
/// one-way function and by `kprop` dump integrity (in the master key,
/// whose schedule is already in hand).
///
/// Only the last ciphertext block is kept, so the input is streamed through
/// one word of CBC state, which stays in the IP domain from the first block
/// to the last; a short (or absent) final block is zero-padded.
pub fn cbc_checksum_with(sched: &Scheduled, iv: &[u8; 8], data: &[u8]) -> [u8; 8] {
    let (blocks, padded) = checksum_blocks(data);
    let words = blocks.iter().chain(&padded).map(|b| u64::from_be_bytes(*b));
    sched.des().cbc_last_u64(u64::from_be_bytes(*iv), words).to_be_bytes()
}

/// Whether `claimed` is [`cbc_checksum_with`]`(sched, iv, data)`, checked
/// from both ends: the chain runs forward from `iv` over the first half of
/// the blocks and backward from `claimed` over the second, the two halves
/// side by side, and the answer is whether the two walks meet in the same
/// word (compared in constant time). Every step is a bijection, so they
/// meet exactly when the checksum is right — at about half the serial
/// depth of recomputing it. Only a check can run this way: the backward
/// walk needs the claimed end, which a sealer does not have yet.
pub fn cbc_checksum_matches_with(
    sched: &Scheduled,
    iv: &[u8; 8],
    data: &[u8],
    claimed: &[u8; 8],
) -> bool {
    let (blocks, padded) = checksum_blocks(data);
    // The front half is the shorter, and it never reaches past the whole
    // blocks: one block is padded in when `blocks` is empty.
    let (front, back) = blocks.split_at((blocks.len() + usize::from(padded.is_some())) / 2);
    let word = |b: &[u8; BLOCK]| u64::from_be_bytes(*b);
    let (fwd, bwd) = sched.des().cbc_meet_u64(
        word(iv),
        front.iter().map(word),
        word(claimed),
        back.iter().chain(&padded).rev().map(word),
    );
    constant_time_eq(&fwd.to_be_bytes(), &bwd.to_be_bytes())
}

/// `data` as the blocks a CBC checksum runs over: its whole blocks, then
/// its short tail zero-padded, or one zero block when `data` is empty.
fn checksum_blocks(data: &[u8]) -> (&[[u8; BLOCK]], Option<[u8; BLOCK]>) {
    let (blocks, rest) = data.as_chunks::<BLOCK>();
    let mut last = [0u8; BLOCK];
    last[..rest.len()].copy_from_slice(rest);
    (blocks, (!rest.is_empty() || blocks.is_empty()).then_some(last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DesKey;

    fn k() -> Scheduled {
        Scheduled::new(&DesKey::from_bytes([0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1]))
    }
    const IV: [u8; 8] = [0xA5; 8];

    #[test]
    fn raw_round_trip_all_modes() {
        let data = b"sixteen bytes!!!".to_vec();
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            let c = encrypt_raw_with(mode, &k(), &IV, &data).unwrap();
            assert_ne!(c, data);
            let p = decrypt_raw_with(mode, &k(), &IV, &c).unwrap();
            assert_eq!(p, data, "{mode:?}");
        }
    }

    #[test]
    fn raw_rejects_partial_blocks() {
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            assert!(matches!(
                encrypt_raw_with(mode, &k(), &IV, b"short"),
                Err(CryptoError::BadLength(5))
            ));
            assert!(matches!(
                decrypt_raw_with(mode, &k(), &IV, b"short"),
                Err(CryptoError::BadLength(5))
            ));
        }
    }

    #[test]
    fn ecb_leaks_equal_blocks_cbc_does_not() {
        let data = [0x42u8; 16]; // two identical blocks
        let ecb = encrypt_raw_with(Mode::Ecb, &k(), &IV, &data).unwrap();
        assert_eq!(ecb[..8], ecb[8..16], "ECB repeats identical blocks");
        let cbc = encrypt_raw_with(Mode::Cbc, &k(), &IV, &data).unwrap();
        assert_ne!(cbc[..8], cbc[8..16], "CBC hides identical blocks");
    }

    #[test]
    fn seal_open_round_trip_various_lengths() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for mode in [Mode::Cbc, Mode::Pcbc] {
                let c = seal_with(mode, &k(), &IV, &data).unwrap();
                assert_eq!(c.len() % BLOCK, 0);
                let p = unseal_with(mode, &k(), &IV, &c).unwrap();
                assert_eq!(p, data, "len {len} {mode:?}");
            }
        }
    }

    #[test]
    fn open_with_wrong_key_fails() {
        let c = seal_with(Mode::Pcbc, &k(), &IV, b"the quick brown fox jumps").unwrap();
        let wrong = Scheduled::new(&DesKey::from_bytes([0x0E, 0x32, 0x92, 0x32, 0xEA, 0x6D, 0x0D, 0x73]));
        // With overwhelming probability the decrypted length/padding is junk.
        assert!(unseal_with(Mode::Pcbc, &wrong, &IV, &c).is_err());
    }

    /// The paper's §2.2 claim, demonstrated exactly: flip one ciphertext bit
    /// in the first block of a 5-block message. Under CBC only blocks 0 and 1
    /// are disturbed (block 1 by exactly one bit); under PCBC every
    /// subsequent block is garbled.
    #[test]
    fn error_propagation_cbc_vs_pcbc() {
        let data: Vec<u8> = (0u8..40).collect(); // 5 blocks
        for (mode, expect_tail_garbled) in [(Mode::Cbc, false), (Mode::Pcbc, true)] {
            let mut c = encrypt_raw_with(mode, &k(), &IV, &data).unwrap();
            c[3] ^= 0x40; // corrupt block 0
            let p = decrypt_raw_with(mode, &k(), &IV, &c).unwrap();
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
        let sched = k();
        for len in [0usize, 1, 4, 8, 64, 200] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = b"header".to_vec();
            buf.extend_from_slice(&[0xEE; 4]); // a dirty slot must be overwritten
            buf.extend_from_slice(&data);
            seal_in_place(Mode::Pcbc, &sched, &IV, &mut buf, 6).unwrap();
            assert_eq!(&buf[..6], b"header");
            assert_eq!(buf[6..], seal_with(Mode::Pcbc, &k(), &IV, &data).unwrap(), "len {len}");
            assert_eq!(unseal_in_place(Mode::Pcbc, &sched, &IV, &mut buf[6..]).unwrap(), data);
        }
    }

    #[test]
    fn seal_in_place_needs_its_slot() {
        let sched = k();
        for (len, start) in [(0usize, 0usize), (3, 0), (8, 5), (8, 9), (8, usize::MAX)] {
            let mut buf = vec![0u8; len];
            let refused = seal_in_place(Mode::Pcbc, &sched, &IV, &mut buf, start);
            assert!(matches!(refused, Err(CryptoError::BadLength(_))), "len {len} start {start}");
            assert_eq!(buf, vec![0u8; len], "a refused buffer is left as it was");
        }
    }

    /// Refused, buffer untouched: no inner slot, no room in front of the
    /// inner region for the outer slot and the 2-byte field, an inner
    /// region the 2-byte field cannot describe.
    #[test]
    fn seal_nested_in_place_needs_its_slots_and_field() {
        let sched = k();
        for (len, outer, inner) in [(20, 0, 17), (20, 0, usize::MAX), (20, 3, 8), (20, 9, 8), (70_000, 0, 8)] {
            let mut buf = vec![0u8; len];
            let refused = seal_nested_in_place(Mode::Pcbc, &sched, &sched, &IV, &mut buf, outer, inner);
            assert!(matches!(refused, Err(CryptoError::BadLength(_))), "len {len} outer {outer} inner {inner}");
            assert_eq!(buf, vec![0u8; len], "a refused buffer is left as it was");
        }
        let mut buf = vec![0u8; 20];
        assert!(seal_nested_in_place(Mode::Pcbc, &sched, &sched, &IV, &mut buf, 2, 8).is_ok());
    }

    #[test]
    fn unseal_with_rejects_what_open_rejects() {
        let sched = k();
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
        let base = cbc_checksum_with(&k(), &IV, b"some data for checksumming");
        let mut tweaked = b"some data for checksumming".to_vec();
        tweaked[0] ^= 1;
        assert_ne!(base, cbc_checksum_with(&k(), &IV, &tweaked));
        let mut tail = b"some data for checksumming".to_vec();
        let n = tail.len() - 1;
        tail[n] ^= 0x80;
        assert_ne!(base, cbc_checksum_with(&k(), &IV, &tail));
    }

    /// The streaming checksum, whose chain stays in the IP domain, against
    /// its definition: the last block of the reference engine's CBC
    /// encryption of the zero-padded input, at every length up to ten
    /// blocks and one long one.
    #[test]
    fn cbc_checksum_is_the_last_block_of_a_cbc_encryption() {
        let des = crate::des::Des::new(k().key());
        for len in (0usize..=80).chain([4099]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut padded = data.clone();
            padded.resize(len.div_ceil(BLOCK).max(1) * BLOCK, 0);
            let mut chain = IV;
            for block in padded.as_chunks::<BLOCK>().0 {
                chain = std::array::from_fn(|i| chain[i] ^ block[i]);
                des.encrypt_block(&mut chain);
            }
            assert_eq!(cbc_checksum_with(&k(), &IV, &data), chain, "len {len}");
        }
    }

    /// The check from both ends against the forward recomputation: the
    /// right checksum passes, and every one-bit change of the checksum or
    /// of the first, middle or last block is refused, at every length up
    /// to ten blocks and one long one.
    #[test]
    fn checking_from_both_ends_agrees_with_recomputing() {
        let verdicts = |data: &[u8], claimed: &[u8; 8]| {
            let ends = cbc_checksum_matches_with(&k(), &IV, data, claimed);
            assert_eq!(ends, cbc_checksum_with(&k(), &IV, data) == *claimed, "len {}", data.len());
            ends
        };
        for len in (0usize..=80).chain([4099]) {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let sum = cbc_checksum_with(&k(), &IV, &data);
            assert!(verdicts(&data, &sum), "len {len}");
            for bit in 0..64 {
                let mut wrong = sum;
                wrong[bit / 8] ^= 1 << (bit % 8);
                assert!(!verdicts(&data, &wrong), "len {len}, checksum bit {bit}");
            }
            if len == 0 {
                continue;
            }
            let last = (len - 1) / BLOCK;
            for at in [0, last / 2, last].map(|block| block * BLOCK) {
                for bit in 0..8 * BLOCK.min(len - at) {
                    let mut tampered = data.clone();
                    tampered[at + bit / 8] ^= 1 << (bit % 8);
                    assert!(!verdicts(&tampered, &sum), "len {len}, bit {bit} of the block at {at}");
                }
            }
        }
    }

    #[test]
    fn cbc_checksum_of_empty_input_is_defined() {
        let a = cbc_checksum_with(&k(), &IV, b"");
        let b = cbc_checksum_with(&k(), &IV, &[0u8; 8]);
        assert_eq!(a, b, "empty input is one zero block");
    }
}
