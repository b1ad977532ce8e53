//! E14 (§2.2): the encryption library — DES block rate, mode throughput
//! (ECB vs CBC vs PCBC), string_to_key, and quad_cksum.

mod common;

use common::quick;
use criterion::{BenchmarkId, Criterion, Throughput};
use krb_crypto::{
    decrypt_raw_with, encrypt_raw, encrypt_raw_with, quad_cksum, string_to_key, Des, DesKey, Mode, Scheduled,
};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let key = string_to_key("k");
    let iv = [0u8; 8];

    c.bench_function("e14_des_key_schedule", |b| {
        b.iter(|| black_box(Des::new(&key)))
    });
    let des = Des::new(&key);
    c.bench_function("e14_des_block", |b| {
        b.iter(|| black_box(des.encrypt_block_u64(black_box(0x0123456789ABCDEF))))
    });
    // The replaceable-implementation ablation (§2.2: the library "may be
    // replaced with other DES implementations").
    let fast = krb_crypto::FastDes::new(&key);
    c.bench_function("e14_fast_des_block", |b| {
        b.iter(|| black_box(fast.encrypt_block_u64(black_box(0x0123456789ABCDEF))))
    });

    let mut g = c.benchmark_group("e14_modes");
    for size in [64usize, 1024, 8192] {
        let data = vec![0x5Au8; size];
        g.throughput(Throughput::Bytes(size as u64));
        for mode in [Mode::Ecb, Mode::Cbc, Mode::Pcbc] {
            g.bench_with_input(
                BenchmarkId::new(format!("{mode:?}"), size),
                &size,
                |b, _| b.iter(|| black_box(encrypt_raw(mode, &key, &iv, &data).unwrap())),
            );
        }
    }
    g.finish();

    // Both directions at Kerberos message sizes (an authenticator is 5
    // blocks, a ticket 8, a TGS reply ~20), schedule prebuilt: encryption
    // chains through the cipher, decryption through XORs only, so the two
    // directions have different floors. elem/s is blocks per second.
    let sched = Scheduled::new(&key);
    let mut g = c.benchmark_group("e14_mode_blocks");
    for blocks in [1usize, 5, 8, 20, 128] {
        let data = vec![0x5Au8; blocks * 8];
        g.throughput(Throughput::Elements(blocks as u64));
        for mode in [Mode::Cbc, Mode::Pcbc] {
            g.bench_with_input(BenchmarkId::new(format!("{mode:?}_encrypt"), blocks), &blocks, |b, _| {
                b.iter(|| black_box(encrypt_raw_with(mode, &sched, &iv, black_box(&data)).unwrap()))
            });
            g.bench_with_input(BenchmarkId::new(format!("{mode:?}_decrypt"), blocks), &blocks, |b, _| {
                b.iter(|| black_box(decrypt_raw_with(mode, &sched, &iv, black_box(&data)).unwrap()))
            });
        }
    }
    g.finish();

    c.bench_function("e14_string_to_key", |b| {
        b.iter(|| black_box(string_to_key(black_box("some user password"))))
    });
    let data = vec![7u8; 1024];
    c.bench_function("e14_quad_cksum_1k", |b| {
        b.iter(|| black_box(quad_cksum(DesKey::from_bytes([1; 8]).as_bytes(), &data)))
    });
}

fn main() {
    let mut c = quick();
    bench(&mut c);
    c.final_summary();
}
