//! The fast DES implementation.
//!
//! Paper §2.2: "Several methods of encryption are provided, with tradeoffs
//! between speed and security" — and the encryption library "may be
//! replaced with other DES implementations". This module is that other
//! implementation: bit-identical to [`crate::des::Des`] (property-tested
//! against it and against the NBS vectors) but substantially faster.
//!
//! Three classic techniques. Every table is built *from the reference
//! tables at startup* and the swap network is tested against them, so
//! correctness is by construction:
//!
//! * fused S-box+P lookup: `SP[box][group6]` maps each 6-bit group
//!   directly to its 32-bit post-P contribution;
//! * rotated rounds: `L` and `R` stay rotated left by one bit for all 16
//!   rounds, which lines E's eight overlapping 6-bit groups up on byte
//!   boundaries of `R'` (boxes 1, 3, 5, 7) and of `R' >>> 4` (boxes 0, 2,
//!   4, 6). The S·P tables are pre-rotated to match and each subkey is
//!   stored as the two `u32` words those groups XOR against, so a round
//!   is 2 XORs, 1 rotate and 8 masked lookups;
//! * IP and FP as a five-step delta-swap network on the two halves — no
//!   tables, so the S·P tables (2 KB) are the engine's whole cache
//!   footprint.
//!
//! The round code is written over `N` independent blocks, each with its
//! own key schedule: a single block is a serial chain of 16 dependent
//! rounds, but the CPU can overlap the chains of several blocks. The
//! mode loops in [`crate::modes`] feed it a CBC/PCBC decrypt group (one
//! schedule, `FastDes::decrypt_blocks_u64`) and two encrypt chains sealed
//! side by side (two schedules, `FastDes::encrypt_lanes_u64`).

use crate::key::DesKey;
use crate::tables::{P, PC1, PC2, SBOX, SHIFTS};
use std::sync::OnceLock;

/// Fused S-box+P tables, each entry rotated left by one bit like the
/// `L`/`R` halves it is XORed into.
fn sp_tables() -> &'static [[u32; 64]; 8] {
    static SP: OnceLock<[[u32; 64]; 8]> = OnceLock::new();
    SP.get_or_init(|| {
        // Where each pre-P bit lands: P maps output bit `dst` (0-based,
        // MSB-first) from input bit `P[dst]` (1-based).
        let mut p_of_bit = [0u32; 32];
        for (dst, &src) in P.iter().enumerate() {
            p_of_bit[(src - 1) as usize] |= 1 << (31 - dst);
        }
        let mut sp = [[0u32; 64]; 8];
        for (b, sbox) in SBOX.iter().enumerate() {
            for group in 0..64u8 {
                let row = ((group & 0x20) >> 4) | (group & 0x01);
                let col = (group >> 1) & 0x0F;
                let s = u32::from(sbox[row as usize][col as usize]);
                // S-box b's 4 output bits occupy pre-P positions 4b..4b+3.
                let mut out = 0u32;
                for bit in 0..4 {
                    if s & (1 << (3 - bit)) != 0 {
                        out |= p_of_bit[4 * b + bit];
                    }
                }
                sp[b][group as usize] = out.rotate_left(1);
            }
        }
        sp
    })
}

/// Byte-indexed selection table: `table[pos][byte]` is the output
/// contribution of input byte `byte` at byte position `pos` (0 = MSB).
type BytePerm = [[u64; 256]; 8];

/// Byte-indexed PC1: `table[pos][byte]` is the 56-bit (right-aligned)
/// contribution of key byte `byte` at byte position `pos`. PC1 is a
/// *selection* permutation — the parity bits simply contribute nothing.
fn pc1_tables() -> &'static BytePerm {
    static T: OnceLock<BytePerm> = OnceLock::new();
    T.get_or_init(|| {
        // Output position (0-based MSB-first of 56) of each input bit, or
        // 56+ (out of range) for the dropped parity bits.
        let mut out_pos_of_in = [usize::MAX; 64];
        for (dst, &src) in PC1.iter().enumerate() {
            out_pos_of_in[(src - 1) as usize] = dst;
        }
        let mut table = [[0u64; 256]; 8];
        for (pos, row) in table.iter_mut().enumerate() {
            for (byte, slot) in row.iter_mut().enumerate() {
                let mut out = 0u64;
                for bit in 0..8 {
                    if byte & (1 << (7 - bit)) != 0 {
                        let dst = out_pos_of_in[pos * 8 + bit];
                        if dst != usize::MAX {
                            out |= 1u64 << (55 - dst);
                        }
                    }
                }
                *slot = out;
            }
        }
        table
    })
}

/// Chunk-indexed PC2: `table[pos][chunk7]` is the 48-bit (right-aligned)
/// contribution of the 7-bit chunk at position `pos` of the 56-bit CD
/// register. Like PC1, PC2 drops bits, so some chunks contribute less.
fn pc2_tables() -> &'static [[u64; 128]; 8] {
    static T: OnceLock<[[u64; 128]; 8]> = OnceLock::new();
    T.get_or_init(|| {
        let mut out_pos_of_in = [usize::MAX; 56];
        for (dst, &src) in PC2.iter().enumerate() {
            out_pos_of_in[(src - 1) as usize] = dst;
        }
        let mut table = [[0u64; 128]; 8];
        for (pos, row) in table.iter_mut().enumerate() {
            for (chunk, slot) in row.iter_mut().enumerate() {
                let mut out = 0u64;
                for bit in 0..7 {
                    if chunk & (1 << (6 - bit)) != 0 {
                        let dst = out_pos_of_in[pos * 7 + bit];
                        if dst != usize::MAX {
                            out |= 1u64 << (47 - dst);
                        }
                    }
                }
                *slot = out;
            }
        }
        table
    })
}

/// The DES key schedule via the byte-indexed PC1/PC2 tables: bit-identical
/// to [`crate::des::Des::new`] (property-tested below) at roughly the cost
/// of a single block encryption instead of seventeen bit-gather passes.
pub(crate) fn fast_subkeys(key: &DesKey) -> [u64; 16] {
    let pc1 = pc1_tables();
    let kb = key.to_u64().to_be_bytes();
    let mut permuted = 0u64;
    for (pos, &b) in kb.iter().enumerate() {
        permuted |= pc1[pos][b as usize];
    }
    let mut c = ((permuted >> 28) & 0x0FFF_FFFF) as u32;
    let mut d = (permuted & 0x0FFF_FFFF) as u32;
    let pc2 = pc2_tables();
    let mut subkeys = [0u64; 16];
    for (round, &shift) in SHIFTS.iter().enumerate() {
        c = ((c << shift) | (c >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
        d = ((d << shift) | (d >> (28 - u32::from(shift)))) & 0x0FFF_FFFF;
        let cd = (u64::from(c) << 28) | u64::from(d);
        let mut k = 0u64;
        for (pos, row) in pc2.iter().enumerate() {
            k |= row[((cd >> (49 - 7 * pos)) & 0x7F) as usize];
        }
        subkeys[round] = k;
    }
    subkeys
}

/// One subkey as the round consumes it: word 0 carries the 6-bit groups of
/// boxes 1, 3, 5, 7 in bytes 3..0 (XORed against `R'`), word 1 those of
/// boxes 0, 2, 4, 6 (XORed against `R' >>> 4`).
type RoundKey = [u32; 2];

fn round_key(subkey: u64) -> RoundKey {
    let six = |b: u32| ((subkey >> (42 - 6 * b)) & 0x3F) as u32;
    [
        six(1) << 24 | six(3) << 16 | six(5) << 8 | six(7),
        six(0) << 24 | six(2) << 16 | six(4) << 8 | six(6),
    ]
}

/// Delta swap: exchange the bits of `b` under `mask` with the bits of `a`
/// under `mask << shift`.
#[inline(always)]
fn delta_swap(a: &mut u32, b: &mut u32, shift: u32, mask: u32) {
    let t = ((*a >> shift) ^ *b) & mask;
    *b ^= t;
    *a ^= t << shift;
}

/// The initial permutation as `(L0, R0)`.
#[inline(always)]
fn ip(block: u64) -> (u32, u32) {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    delta_swap(&mut l, &mut r, 4, 0x0F0F_0F0F);
    delta_swap(&mut l, &mut r, 16, 0x0000_FFFF);
    delta_swap(&mut r, &mut l, 2, 0x3333_3333);
    delta_swap(&mut r, &mut l, 8, 0x00FF_00FF);
    delta_swap(&mut l, &mut r, 1, 0x5555_5555);
    (l, r)
}

/// The final permutation of the 64-bit word `hi:lo` — [`ip`]'s swaps in
/// reverse order, each being its own inverse.
#[inline(always)]
fn fp(mut hi: u32, mut lo: u32) -> u64 {
    delta_swap(&mut hi, &mut lo, 1, 0x5555_5555);
    delta_swap(&mut lo, &mut hi, 8, 0x00FF_00FF);
    delta_swap(&mut lo, &mut hi, 2, 0x3333_3333);
    delta_swap(&mut hi, &mut lo, 16, 0x0000_FFFF);
    delta_swap(&mut hi, &mut lo, 4, 0x0F0F_0F0F);
    u64::from(hi) << 32 | u64::from(lo)
}

/// The cipher function `f(R, K)` on a rotated half, rotated result.
#[inline(always)]
fn f(sp: &[[u32; 64]; 8], r: u32, k: &RoundKey) -> u32 {
    let odd = r ^ k[0];
    let even = r.rotate_right(4) ^ k[1];
    sp[7][(odd & 0x3F) as usize]
        ^ sp[5][(odd >> 8 & 0x3F) as usize]
        ^ sp[3][(odd >> 16 & 0x3F) as usize]
        ^ sp[1][(odd >> 24 & 0x3F) as usize]
        ^ sp[6][(even & 0x3F) as usize]
        ^ sp[4][(even >> 8 & 0x3F) as usize]
        ^ sp[2][(even >> 16 & 0x3F) as usize]
        ^ sp[0][(even >> 24 & 0x3F) as usize]
}

/// IP, sixteen rounds, FP — over `N` independent blocks, each step applied
/// to every block before the next step so the `N` dependency chains
/// overlap. `keys` yields each round's subkey for every lane, so the lanes
/// may share one schedule (a decrypt group: the same key `N` times, loaded
/// once) or not (two chains sealed side by side).
#[inline(always)]
fn crypt_blocks<'k, const N: usize>(
    keys: impl Iterator<Item = [&'k RoundKey; N]>,
    blocks: [u64; N],
) -> [u64; N] {
    let sp = sp_tables();
    let mut l = [0u32; N];
    let mut r = [0u32; N];
    for i in 0..N {
        let (l0, r0) = ip(blocks[i]);
        l[i] = l0.rotate_left(1);
        r[i] = r0.rotate_left(1);
    }
    rounds(sp, keys, &mut l, &mut r);
    let mut out = [0u64; N];
    for i in 0..N {
        // The pre-output block is R16:L16.
        out[i] = fp(r[i].rotate_right(1), l[i].rotate_right(1));
    }
    out
}

/// The sixteen rounds over `N` lanes of rotated halves, between IP and FP.
#[inline(always)]
fn rounds<'k, const N: usize>(
    sp: &[[u32; 64]; 8],
    mut keys: impl Iterator<Item = [&'k RoundKey; N]>,
    l: &mut [u32; N],
    r: &mut [u32; N],
) {
    // Two rounds per step: the first round's new R lands in `l` (the old
    // R, now L, stays in `r`), the second's lands back in `r` — so the
    // halves never swap.
    while let (Some(k0), Some(k1)) = (keys.next(), keys.next()) {
        for i in 0..N {
            l[i] ^= f(sp, r[i], k0[i]);
        }
        for i in 0..N {
            r[i] ^= f(sp, l[i], k1[i]);
        }
    }
}

/// Each round's subkey for every lane, in encryption order.
fn lane_keys<const N: usize>(lanes: [&FastDes; N]) -> impl DoubleEndedIterator<Item = [&RoundKey; N]> {
    (0..16).map(move |round| lanes.map(|des| &des.subkeys[round]))
}

/// A DES instance using the fused tables. Drop-in alternative to
/// [`crate::des::Des`], as the paper says the library should permit.
#[derive(Clone)]
pub struct FastDes {
    pub(crate) subkeys: [RoundKey; 16],
}

impl FastDes {
    /// Build the key schedule via the byte-indexed PC1/PC2 tables —
    /// bit-identical to the reference schedule, stored in the two-word
    /// layout the rounds consume. Callers that use a key more than once
    /// should hold a [`crate::Scheduled`] instead of rebuilding this.
    pub fn new(key: &DesKey) -> Self {
        FastDes { subkeys: fast_subkeys(key).map(round_key) }
    }

    /// Encrypt one 64-bit block.
    pub fn encrypt_block_u64(&self, block: u64) -> u64 {
        let [out] = crypt_blocks(self.subkeys.iter().map(|k| [k]), [block]);
        out
    }

    /// Encrypt `N` independent blocks side by side, block `i` under
    /// `lanes[i]`: two chains sealed at once under different keys.
    pub(crate) fn encrypt_lanes_u64<const N: usize>(lanes: [&FastDes; N], blocks: [u64; N]) -> [u64; N] {
        crypt_blocks(lane_keys(lanes), blocks)
    }

    /// The last block of `blocks` encrypted in CBC mode from `iv`. The
    /// chain runs in the IP domain: IP is linear, so IP(c ⊕ b) = IP(c) ⊕
    /// IP(b), and IP(FP(x)) = x, so one block's rounds feed the next's
    /// with only the halves swapped. Each block's IP is off the dependent
    /// chain, and FP runs once, at the end.
    pub(crate) fn cbc_last_u64(&self, iv: u64, blocks: impl Iterator<Item = u64>) -> u64 {
        // The state is the last rounds' output, (L16, R16), whose
        // ciphertext is FP(R16:L16); the IV is a ciphertext like any other.
        let sp = sp_tables();
        let (hi, lo) = ip(iv);
        let (mut l, mut r) = ([lo.rotate_left(1)], [hi.rotate_left(1)]);
        for block in blocks {
            let (bl, br) = ip(block);
            (l, r) = ([r[0] ^ bl.rotate_left(1)], [l[0] ^ br.rotate_left(1)]);
            rounds(sp, self.subkeys.iter().map(|k| [k]), &mut l, &mut r);
        }
        fp(r[0].rotate_right(1), l[0].rotate_right(1))
    }

    /// A CBC chain walked from both ends: forward from `iv` over `front`,
    /// and backward from `last`, the claimed final ciphertext, over `back`
    /// (the remaining blocks, last first), each backward step undoing one
    /// forward step: X₍ᵢ₋₁₎ = D(Xᵢ) ⊕ Pᵢ. Returns the two words where the
    /// walks stop, which are equal exactly when `last` is the chain's true
    /// end, every step being a bijection. The two walks are independent, so
    /// they run as two lanes of one [`rounds`] call, the backward lane on
    /// the reversed schedule; both stay in the IP domain, as in
    /// [`Self::cbc_last_u64`]. `back` holds as many blocks as `front` or
    /// more; those past `front`'s length run in the backward lane alone.
    pub(crate) fn cbc_meet_u64(
        &self,
        iv: u64,
        front: impl Iterator<Item = u64>,
        last: u64,
        mut back: impl Iterator<Item = u64>,
    ) -> (u64, u64) {
        let sp = sp_tables();
        let rotated = |word: u64| {
            let (hi, lo) = ip(word);
            (hi.rotate_left(1), lo.rotate_left(1))
        };
        // Each walk's state is IP of its current ciphertext word, as
        // rotated halves.
        let (mut fwd, mut bwd) = (rotated(iv), rotated(last));
        let xor_in = |(hi, lo): (u32, u32), block: u64| {
            let (bl, br) = rotated(block);
            (hi ^ bl, lo ^ br)
        };
        // Forward: XOR the block in, then the rounds. Backward: the
        // rounds, then XOR the block in. Either way the rounds' output
        // (L16, R16) is IP of the next word as (R16, L16).
        let both = (0..16).map(|round| [&self.subkeys[round], &self.subkeys[15 - round]]);
        for (f, b) in front.zip(back.by_ref()) {
            let (fl, fr) = xor_in(fwd, f);
            let (mut l, mut r) = ([fl, bwd.0], [fr, bwd.1]);
            rounds(sp, both.clone(), &mut l, &mut r);
            fwd = (r[0], l[0]);
            bwd = xor_in((r[1], l[1]), b);
        }
        for b in back {
            let (mut l, mut r) = ([bwd.0], [bwd.1]);
            rounds(sp, self.subkeys.iter().rev().map(|k| [k]), &mut l, &mut r);
            bwd = xor_in((r[0], l[0]), b);
        }
        let word = |(hi, lo): (u32, u32)| fp(hi.rotate_right(1), lo.rotate_right(1));
        (word(fwd), word(bwd))
    }

    /// Decrypt one 64-bit block.
    pub fn decrypt_block_u64(&self, block: u64) -> u64 {
        let [out] = self.decrypt_blocks_u64([block]);
        out
    }

    /// Decrypt `N` independent blocks side by side: the result equals `N`
    /// calls of [`Self::decrypt_block_u64`], but the blocks' round chains
    /// overlap in the pipeline instead of running one after another.
    #[inline(always)]
    pub(crate) fn decrypt_blocks_u64<const N: usize>(&self, blocks: [u64; N]) -> [u64; N] {
        crypt_blocks(self.subkeys.iter().rev().map(|k| [k; N]), blocks)
    }

    /// Encrypt one 8-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 8]) {
        *block = self.encrypt_block_u64(u64::from_be_bytes(*block)).to_be_bytes();
    }

    /// Decrypt one 8-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 8]) {
        *block = self.decrypt_block_u64(u64::from_be_bytes(*block)).to_be_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Des;

    fn key(bytes: u64) -> DesKey {
        DesKey::from_bytes(bytes.to_be_bytes())
    }

    #[test]
    fn swap_network_matches_reference_permutation() {
        use crate::tables::{FP, IP};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let table_perm = |value: u64, table: &[u8]| -> u64 {
            let mut out = 0u64;
            for &src in table {
                out = (out << 1) | ((value >> (64 - u32::from(src))) & 1);
            }
            out
        };
        let halves = |x: u64| ((x >> 32) as u32, x as u32);
        let mut rng = StdRng::seed_from_u64(0x1BF9);
        let patterns = [
            0u64,
            u64::MAX,
            0x0123456789ABCDEF,
            0xDEADBEEF01234567,
            0x8000000000000001,
            0x00000000FFFFFFFF,
            0x5555555555555555,
        ];
        for x in patterns.into_iter().chain((0..2000).map(|_| rng.random())) {
            let (l, r) = ip(x);
            assert_eq!((l, r), halves(table_perm(x, &IP)), "IP({x:#x})");
            let (hi, lo) = halves(x);
            assert_eq!(fp(hi, lo), table_perm(x, &FP), "FP({x:#x})");
            assert_eq!(fp(l, r), x);
        }
    }

    /// The per-lane kernel against single blocks of the reference engine:
    /// 1–4 lanes, each under its own key, both directions.
    #[test]
    fn lanes_with_distinct_keys_equal_single_blocks() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        fn check<const N: usize>(rng: &mut StdRng) {
            let keys: [DesKey; N] = std::array::from_fn(|_| key(rng.random()));
            let fast = keys.each_ref().map(FastDes::new);
            let reference = keys.each_ref().map(Des::new);
            let blocks: [u64; N] = std::array::from_fn(|_| rng.random());
            let lanes = fast.each_ref();
            let encrypted = FastDes::encrypt_lanes_u64(lanes, blocks);
            assert_eq!(encrypted, std::array::from_fn(|i| reference[i].encrypt_block_u64(blocks[i])));
            let decrypted = crypt_blocks(lane_keys(lanes).rev(), blocks);
            assert_eq!(decrypted, std::array::from_fn(|i| reference[i].decrypt_block_u64(blocks[i])));
            assert_eq!(fast[0].decrypt_blocks_u64(blocks), blocks.map(|b| reference[0].decrypt_block_u64(b)));
        }
        let mut rng = StdRng::seed_from_u64(0x4A9E);
        for _ in 0..200 {
            check::<1>(&mut rng);
            check::<2>(&mut rng);
            check::<3>(&mut rng);
            check::<4>(&mut rng);
        }
    }

    #[test]
    fn matches_reference_on_known_vectors() {
        let cases: &[(u64, u64)] = &[
            (0x133457799BBCDFF1, 0x0123456789ABCDEF),
            (0x0E329232EA6D0D73, 0x8787878787878787),
            (0x0101010101010101, 0x0000000000000000),
            (0xFEDCBA9876543210, 0x0123456789ABCDEF),
        ];
        for &(k, p) in cases {
            let reference = Des::new(&key(k)).encrypt_block_u64(p);
            let fast = FastDes::new(&key(k)).encrypt_block_u64(p);
            assert_eq!(fast, reference, "key {k:#018x}");
            assert_eq!(FastDes::new(&key(k)).decrypt_block_u64(fast), p);
        }
    }

    #[test]
    fn fast_key_schedule_matches_reference_schedule() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C4E);
        for _ in 0..2000 {
            let k = key(rng.random());
            assert_eq!(
                fast_subkeys(&k),
                Des::new(&k).subkeys(),
                "schedule diverged for key {:#018x}",
                k.to_u64()
            );
        }
        // Edge keys: all-zero (parity-fixed to 0x01s) and all-ones.
        for raw in [0u64, u64::MAX, 0x8000_0000_0000_0001, 0x0101_0101_0101_0101] {
            let k = key(raw);
            assert_eq!(fast_subkeys(&k), Des::new(&k).subkeys());
        }
    }

    #[test]
    fn matches_reference_on_many_random_inputs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFA57);
        for _ in 0..500 {
            let k = key(rng.random());
            let p: u64 = rng.random();
            let reference = Des::new(&k);
            let fast = FastDes::new(&k);
            let c = reference.encrypt_block_u64(p);
            assert_eq!(fast.encrypt_block_u64(p), c);
            assert_eq!(fast.decrypt_block_u64(c), p);
        }
    }

    #[test]
    fn byte_api_round_trip() {
        let fast = FastDes::new(&key(0x133457799BBCDFF1));
        let mut block = 0x0123456789ABCDEFu64.to_be_bytes();
        fast.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x85E813540F0AB405);
        fast.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x0123456789ABCDEF);
    }
}
