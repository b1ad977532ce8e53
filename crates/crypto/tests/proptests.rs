//! Property-based tests for the encryption library.

use krb_crypto::{
    decrypt_raw, decrypt_raw_with, encrypt_raw, encrypt_raw_with, open, quad_cksum, seal,
    seal_in_place, seal_with, string_to_key, unseal_in_place, unseal_with, CryptoError, Des,
    DesKey, Mode, Scheduled,
};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = DesKey> {
    any::<[u8; 8]>().prop_map(DesKey::from_bytes)
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![Just(Mode::Ecb), Just(Mode::Cbc), Just(Mode::Pcbc)]
}

/// The framing, written out: length, payload, zero padding, then the raw
/// mode function over the copy. What `seal_with` was before it became a
/// caller of `seal_in_place`; kept here as the model both are held to.
fn reference_seal(mode: Mode, sched: &Scheduled, iv: &[u8; 8], plaintext: &[u8]) -> Vec<u8> {
    let mut framed = (plaintext.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(plaintext);
    framed.resize(framed.len().div_ceil(8) * 8, 0);
    encrypt_raw_with(mode, sched, iv, &framed).unwrap()
}

/// The reverse, likewise: the checks `unseal_with` made on its own copy.
fn reference_unseal(
    mode: Mode,
    sched: &Scheduled,
    iv: &[u8; 8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let plain = decrypt_raw_with(mode, sched, iv, ciphertext)?;
    if plain.len() < 4 {
        return Err(CryptoError::Integrity);
    }
    let len = u32::from_be_bytes(plain[..4].try_into().unwrap()) as usize;
    if len > plain.len() - 4 || plain[4 + len..].iter().any(|&b| b != 0) {
        return Err(CryptoError::Integrity);
    }
    Ok(plain[4..4 + len].to_vec())
}

proptest! {
    /// DES is a permutation: decrypt(encrypt(x)) == x for any key/block.
    #[test]
    fn des_block_invertible(key in arb_key(), block in any::<u64>()) {
        let des = Des::new(&key);
        prop_assert_eq!(des.decrypt_block_u64(des.encrypt_block_u64(block)), block);
    }

    /// The published complementation property holds for all keys/blocks.
    #[test]
    fn des_complementation(kb in any::<[u8; 8]>(), block in any::<u64>()) {
        let k = DesKey::from_bytes(kb);
        let mut inv = *k.as_bytes();
        for b in &mut inv { *b = !*b; }
        let kc = DesKey::from_bytes(inv);
        let c = Des::new(&k).encrypt_block_u64(block);
        let cc = Des::new(&kc).encrypt_block_u64(!block);
        prop_assert_eq!(cc, !c);
    }

    /// Raw mode round trip for whole-block payloads.
    #[test]
    fn modes_round_trip(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        blocks in proptest::collection::vec(any::<u8>(), 0..32).prop_map(|v| {
            let mut v = v;
            let len = v.len() / 8 * 8;
            v.truncate(len);
            v
        }),
    ) {
        let c = encrypt_raw(mode, &key, &iv, &blocks).unwrap();
        prop_assert_eq!(decrypt_raw(mode, &key, &iv, &c).unwrap(), blocks);
    }

    /// seal/open round trip for arbitrary payloads.
    #[test]
    fn seal_open_round_trip(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let c = seal(mode, &key, &iv, &data).unwrap();
        prop_assert_eq!(open(mode, &key, &iv, &c).unwrap(), data);
    }

    /// PCBC propagation: corrupting any ciphertext block garbles the final
    /// plaintext block (this is what makes PCBC detect mid-message errors).
    #[test]
    fn pcbc_corruption_reaches_final_block(
        key in arb_key(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 32..64).prop_map(|mut v| {
            v.truncate(v.len() / 8 * 8);
            v
        }),
        corrupt_block in 0usize..3,
        bit in 0usize..64,
    ) {
        let mut c = encrypt_raw(Mode::Pcbc, &key, &iv, &data).unwrap();
        c[corrupt_block * 8 + bit / 8] ^= 1 << (bit % 8);
        let p = decrypt_raw(Mode::Pcbc, &key, &iv, &c).unwrap();
        let last = data.len() - 8;
        prop_assert_ne!(&p[last..], &data[last..]);
    }

    /// §2.2 in full generality: flip *any single bit* of a PCBC ciphertext
    /// and every plaintext block from the corrupted block onward is garbled,
    /// for any key, IV, and message length. (The earlier
    /// `pcbc_corruption_reaches_final_block` checks only the final block of
    /// short messages; this is the whole propagation claim — it is what lets
    /// a checksum at the *end* of a message vouch for all of it.)
    #[test]
    fn pcbc_single_bit_flip_garbles_all_subsequent_blocks(
        key in arb_key(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 16..128).prop_map(|mut v| {
            v.truncate(v.len() / 8 * 8);
            v
        }),
        pos in any::<u64>(),
    ) {
        let mut c = encrypt_raw(Mode::Pcbc, &key, &iv, &data).unwrap();
        let bit = (pos as usize) % (c.len() * 8);
        c[bit / 8] ^= 1 << (bit % 8);
        let p = decrypt_raw(Mode::Pcbc, &key, &iv, &c).unwrap();
        let first_bad = bit / 8 / 8 * 8; // start of the corrupted block
        for block in (first_bad..data.len()).step_by(8) {
            prop_assert_ne!(
                &p[block..block + 8],
                &data[block..block + 8],
                "block at {} survived a flip of ciphertext bit {}",
                block,
                bit
            );
        }
        // And blocks before the corruption decrypt untouched: the damage
        // propagates forward only.
        prop_assert_eq!(&p[..first_bad], &data[..first_bad]);
    }

    /// The consequence the protocol relies on: a sealed message carrying a
    /// trailing checksum never survives ciphertext corruption. For any bit
    /// position and message length, the tampered message either fails to
    /// open at all or opens to bytes whose embedded checksum no longer
    /// verifies — it never silently yields the original-looking payload.
    #[test]
    fn corrupted_sealed_message_never_passes_its_checksum(
        key in arb_key(),
        data in proptest::collection::vec(any::<u8>(), 0..96),
        pos in any::<u64>(),
    ) {
        let iv = [0u8; 8]; // the Kerberos library default
        let mut framed = data.clone();
        framed.extend_from_slice(&quad_cksum(key.as_bytes(), &data).to_be_bytes());
        let mut c = seal(Mode::Pcbc, &key, &iv, &framed).unwrap();
        let bit = (pos as usize) % (c.len() * 8);
        c[bit / 8] ^= 1 << (bit % 8);
        match open(Mode::Pcbc, &key, &iv, &c) {
            Err(_) => {} // framing (length prefix / padding) caught it
            Ok(p) => {
                // Opened structurally; the checksum must still catch it.
                let valid = p.len() >= 4 && {
                    let (body, sum) = p.split_at(p.len() - 4);
                    quad_cksum(key.as_bytes(), body).to_be_bytes() == sum
                };
                prop_assert!(!valid, "bit {} flipped yet checksum verified", bit);
            }
        }
    }

    /// string_to_key is a function (deterministic) and never weak.
    #[test]
    fn string_to_key_props(pw in "\\PC{0,40}") {
        let a = string_to_key(&pw);
        let b = string_to_key(&pw);
        prop_assert_eq!(a.as_bytes(), b.as_bytes());
        prop_assert!(!a.is_weak());
    }

    /// quad_cksum: appending a byte changes the checksum (prefix-freeness in
    /// practice), and the checksum is seed-dependent.
    #[test]
    fn quad_cksum_props(seed in any::<[u8; 8]>(), data in proptest::collection::vec(any::<u8>(), 0..128), extra in any::<u8>()) {
        let base = quad_cksum(&seed, &data);
        prop_assert_eq!(base, quad_cksum(&seed, &data));
        let mut longer = data.clone();
        longer.push(extra);
        // Not a cryptographic guarantee, but collisions here would indicate
        // a broken mixing step; tolerate none in the sampled space.
        prop_assert_ne!(base, quad_cksum(&seed, &longer));
    }
}

proptest! {
    /// The tentpole invariant of the `Scheduled` API: the cached path can
    /// never diverge from the reference path. For random keys/IVs/messages
    /// and every mode, `seal_with(&Scheduled::new(k), ..)` is byte-identical
    /// to `seal(k, ..)`, and ciphertext from either path round-trips through
    /// both `open` and `unseal_with`.
    #[test]
    fn scheduled_seal_equals_keyed_seal(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let sched = Scheduled::new(&key);
        let keyed = seal(mode, &key, &iv, &data).unwrap();
        let cached = seal_with(mode, &sched, &iv, &data).unwrap();
        prop_assert_eq!(&keyed, &cached);
        prop_assert_eq!(unseal_with(mode, &sched, &iv, &keyed).unwrap(), data.clone());
        prop_assert_eq!(open(mode, &key, &iv, &cached).unwrap(), data);
    }

    /// Sealing where the plaintext lies — after an arbitrary prefix, over a
    /// dirty length slot — leaves the prefix alone and writes, from `start`
    /// on, exactly the bytes `seal_with` returns, which are the reference
    /// framing's: every mode, 0–64 blocks.
    #[test]
    fn seal_in_place_equals_seal_with(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        prefix in proptest::collection::vec(any::<u8>(), 1..40),
        slot in any::<[u8; 4]>(),
        data in proptest::collection::vec(any::<u8>(), 0..=64 * 8),
    ) {
        let sched = Scheduled::new(&key);
        let mut buf = prefix.clone();
        buf.extend_from_slice(&slot);
        buf.extend_from_slice(&data);
        seal_in_place(mode, &sched, &iv, &mut buf, prefix.len()).unwrap();
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
        let sealed = seal_with(mode, &sched, &iv, &data).unwrap();
        prop_assert_eq!(&buf[prefix.len()..], &sealed[..]);
        prop_assert_eq!(sealed, reference_seal(mode, &sched, &iv, &data));
    }

    /// Unsealing where the ciphertext lies gives `unseal_with`'s verdict,
    /// which is the reference's — the same payload or the same
    /// `CryptoError` — on honest ciphertext, on ciphertext with one byte
    /// changed or its tail cut off, on a well-framed plaintext with stray
    /// padding, and on arbitrary bytes of any length (partial blocks
    /// included).
    #[test]
    fn unseal_in_place_equals_unseal_with(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 0..=64 * 8),
        junk in proptest::collection::vec(any::<u8>(), 0..=64 * 8),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let sched = Scheduled::new(&key);
        let honest = seal_with(mode, &sched, &iv, &data).unwrap();
        let mut flipped = honest.clone();
        flipped[at % honest.len()] ^= flip;
        let cut = honest[..at % honest.len()].to_vec();
        // A decryption that happens to frame well: plaintext with a length
        // field that fits and stray non-zero padding after it.
        let mut padded = vec![0, 0, 0, 1, 9, 9, 9, 9];
        padded.extend_from_slice(&junk[..junk.len() / 8 * 8]);
        let stray_padding = encrypt_raw_with(mode, &sched, &iv, &padded).unwrap();
        for ciphertext in [honest, flipped, cut, junk, stray_padding] {
            let mut buf = ciphertext.clone();
            let in_place = unseal_in_place(mode, &sched, &iv, &mut buf).map(<[u8]>::to_vec);
            let copied = unseal_with(mode, &sched, &iv, &ciphertext);
            prop_assert_eq!(&in_place, &copied);
            prop_assert_eq!(copied, reference_unseal(mode, &sched, &iv, &ciphertext));
        }
    }

    /// Same invariant for the raw whole-block functions.
    #[test]
    fn scheduled_raw_equals_keyed_raw(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        blocks in proptest::collection::vec(any::<u8>(), 0..64).prop_map(|mut v| {
            v.truncate(v.len() / 8 * 8);
            v
        }),
    ) {
        let sched = Scheduled::new(&key);
        let keyed = encrypt_raw(mode, &key, &iv, &blocks).unwrap();
        prop_assert_eq!(&keyed, &encrypt_raw_with(mode, &sched, &iv, &blocks).unwrap());
        prop_assert_eq!(decrypt_raw_with(mode, &sched, &iv, &keyed).unwrap(), blocks.clone());
        prop_assert_eq!(decrypt_raw(mode, &key, &iv, &keyed).unwrap(), blocks);
    }

    /// The mode loops against the reference engine, not against themselves:
    /// a straight-line ECB/CBC/PCBC written here over `Des` with byte XORs
    /// must agree with `encrypt_raw_with`/`decrypt_raw_with` at every length
    /// from 0 to 13 blocks, so the decrypt loop's every combination of 0–3
    /// four-block groups and a 0–3-block tail is exercised — on arbitrary
    /// bytes, since decryption is defined on any input.
    #[test]
    fn mode_loops_equal_reference_des(
        key in arb_key(),
        mode in arb_mode(),
        iv in any::<[u8; 8]>(),
        data in proptest::collection::vec(any::<u8>(), 13 * 8),
    ) {
        fn xor(a: [u8; 8], b: [u8; 8]) -> [u8; 8] {
            std::array::from_fn(|i| a[i] ^ b[i])
        }
        fn reference(des: &Des, mode: Mode, iv: [u8; 8], data: &[u8], decrypt: bool) -> Vec<u8> {
            let mut out = Vec::with_capacity(data.len());
            let (mut prev_plain, mut prev_cipher) = ([0u8; 8], iv);
            for block in data.chunks_exact(8) {
                let input: [u8; 8] = block.try_into().unwrap();
                let chain = match mode {
                    Mode::Ecb => [0u8; 8],
                    Mode::Cbc => prev_cipher,
                    Mode::Pcbc => xor(prev_cipher, prev_plain),
                };
                let (plain, cipher) = if decrypt {
                    let mut d = input;
                    des.decrypt_block(&mut d);
                    (xor(d, chain), input)
                } else {
                    let mut c = xor(input, chain);
                    des.encrypt_block(&mut c);
                    (input, c)
                };
                out.extend_from_slice(if decrypt { &plain } else { &cipher });
                (prev_plain, prev_cipher) = (plain, cipher);
            }
            out
        }
        let des = Des::new(&key);
        let sched = Scheduled::new(&key);
        for blocks in 0..=13 {
            let data = &data[..blocks * 8];
            prop_assert_eq!(
                encrypt_raw_with(mode, &sched, &iv, data).unwrap(),
                reference(&des, mode, iv, data, false),
                "encrypt, {} blocks", blocks
            );
            prop_assert_eq!(
                decrypt_raw_with(mode, &sched, &iv, data).unwrap(),
                reference(&des, mode, iv, data, true),
                "decrypt, {} blocks", blocks
            );
        }
    }

    /// The fast (fused-table) implementation is bit-identical to the
    /// reference table-driven one for every key and block.
    #[test]
    fn fast_des_equals_reference(key in arb_key(), block in any::<u64>()) {
        use krb_crypto::FastDes;
        let reference = Des::new(&key);
        let fast = FastDes::new(&key);
        let c = reference.encrypt_block_u64(block);
        prop_assert_eq!(fast.encrypt_block_u64(block), c);
        prop_assert_eq!(fast.decrypt_block_u64(c), block);
    }
}
