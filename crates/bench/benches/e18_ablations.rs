//! E18+ — ablations of the design choices DESIGN.md calls out:
//!
//! * the replay cache (how much does remembering past requests cost as
//!   the cache fills, where in the skew window do the remembered requests
//!   lie, and what does the purge sweep cost?);
//! * the storage engine (file-backed extendible hashing vs in-memory —
//!   the `ndbm` substitution's overhead on the KDC's hot path);
//! * sealing mode (PCBC vs CBC-plus-explicit-checksum — the §2.2 design
//!   choice of propagating errors instead of appending a checksum).

mod common;

use common::{quick, NOW, WS};
use criterion::{BenchmarkId, Criterion};
use kerberos::{replay::hash_bytes, ReplayCache, ReplayKey, MAX_SKEW_SECS};
use krb_crypto::{open, quad_cksum, seal, string_to_key, Mode};
use krb_kdb::{HashStore, MemStore, Store};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn replay_cache_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_replay_cache");
    for preload in [0usize, 1_000, 50_000] {
        let mut cache = ReplayCache::new();
        for i in 0..preload {
            cache.check_and_insert(
                ReplayKey {
                    client: format!("user{i}@R"),
                    timestamp: NOW,
                    auth_hash: hash_bytes(&i.to_be_bytes()),
                },
                NOW,
            );
        }
        let mut n = 0u64;
        g.bench_with_input(BenchmarkId::new("check_insert", preload), &preload, |b, _| {
            b.iter(|| {
                n += 1;
                black_box(cache.check_and_insert(
                    ReplayKey {
                        client: "probe@R".into(),
                        timestamp: NOW,
                        auth_hash: n,
                    },
                    NOW,
                ))
            })
        });
    }
    g.finish();
}

/// The timestamp of the `i`-th remembered request.
type Stamp = fn(usize) -> u32;

/// `count` distinct requests of 200 clients, numbered from `first`, the
/// `i`-th stamped `ts(i)`.
fn replay_keys(first: usize, count: usize, ts: Stamp) -> Vec<ReplayKey> {
    (first..first + count)
        .map(|i| ReplayKey {
            client: format!("u{:05}@ATHENA.MIT.EDU", i % 200),
            timestamp: ts(i),
            auth_hash: hash_bytes(&i.to_be_bytes()),
        })
        .collect()
}

/// Median over `SAMPLES` runs of `routine`, each on a cache `setup` builds
/// outside the timing — what criterion's `iter` cannot do, and what a cache
/// that grows with every call needs. Prints criterion's line format.
fn one_shot<S>(name: &str, per: u32, mut setup: impl FnMut() -> S, mut routine: impl FnMut(&mut S)) {
    const SAMPLES: usize = 15;
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            routine(&mut state);
            start.elapsed() / per
        })
        .collect();
    samples.sort();
    println!("{name:<60} time: [{:>12.2?}]", samples[SAMPLES / 2]);
}

/// One `check_and_insert` of a fresh request stamped *now* against `live`
/// remembered ones — all stamped this second, or spread evenly over the 900
/// seconds a steady-state cache spans — and the purge sweep a steady-state
/// cache of 3·10⁵ runs every `MAX_SKEW_SECS` (a third of it has expired).
fn replay_check() {
    const PROBES: usize = 256;
    for live in [1_000usize, 100_000, 300_000] {
        let layouts: [(&str, Stamp); 2] =
            [("same_second", |_| NOW), ("spread_900s", |i| NOW - (i % 900) as u32)];
        for (layout, ts) in layouts {
            one_shot(
                &format!("e18_replay_check/check_insert/{layout}/{live}"),
                PROBES as u32,
                || {
                    let mut cache = ReplayCache::new();
                    for key in replay_keys(0, live, ts) {
                        cache.check_and_insert(key, NOW);
                    }
                    (cache, replay_keys(live, PROBES, |_| NOW))
                },
                |(cache, probes)| {
                    for key in probes.drain(..) {
                        black_box(cache.check_and_insert(key, NOW));
                    }
                },
            );
        }
    }
    let live = 300_000;
    one_shot(
        &format!("e18_replay_check/purge_sweep/spread_900s/{live}"),
        1,
        || {
            // Filled under a clock one purge period back, so the timed call
            // is the one that sweeps: everything older than NOW − 600 goes.
            let mut cache = ReplayCache::new();
            for key in replay_keys(0, live, |i| NOW - (i % 900) as u32) {
                cache.check_and_insert(key, NOW - MAX_SKEW_SECS);
            }
            (cache, replay_keys(live, 1, |_| NOW))
        },
        |(cache, probe)| {
            let swept = probe.pop().map(|key| cache.check_and_insert(key, NOW));
            assert!(black_box(swept) == Some(true) && cache.evictions() > 0, "the timed call swept");
        },
    );
}

fn store_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_store_engine");
    // Populate both engines with 5000 principal-sized records.
    let mut mem = MemStore::new();
    let path = std::env::temp_dir().join(format!("krb-ablate-{}", std::process::id()));
    let _ = std::fs::remove_file(path.with_extension("pag"));
    let _ = std::fs::remove_file(path.with_extension("dir"));
    let mut file = HashStore::open(&path).unwrap();
    for i in 0..5000u32 {
        let key = format!("user{i}.");
        let val = vec![0u8; 60];
        mem.store(key.as_bytes(), &val).unwrap();
        file.store(key.as_bytes(), &val).unwrap();
    }
    let mut i = 0u32;
    g.bench_function("memstore_fetch", |b| {
        b.iter(|| {
            i = (i + 1) % 5000;
            black_box(mem.fetch(format!("user{i}.").as_bytes()).unwrap())
        })
    });
    let mut j = 0u32;
    g.bench_function("hashstore_fetch", |b| {
        b.iter(|| {
            j = (j + 1) % 5000;
            black_box(file.fetch(format!("user{j}.").as_bytes()).unwrap())
        })
    });
    g.finish();
}

fn sealing_modes(c: &mut Criterion) {
    // The §2.2 choice: PCBC's whole-message error propagation gives
    // integrity "for free" vs CBC plus a separate keyed checksum.
    let key = string_to_key("k");
    let iv = [0u8; 8];
    let data = vec![0x77u8; 1024];
    let mut g = c.benchmark_group("ablation_sealing");
    g.bench_function("pcbc_seal_open", |b| {
        b.iter(|| {
            let ct = seal(Mode::Pcbc, &key, &iv, &data).unwrap();
            black_box(open(Mode::Pcbc, &key, &iv, &ct).unwrap())
        })
    });
    g.bench_function("cbc_plus_quad_cksum", |b| {
        b.iter(|| {
            // The alternative design: CBC seal + explicit checksum append.
            let ck = quad_cksum(key.as_bytes(), &data);
            let mut framed = data.clone();
            framed.extend_from_slice(&ck.to_be_bytes());
            let ct = seal(Mode::Cbc, &key, &iv, &framed).unwrap();
            let pt = open(Mode::Cbc, &key, &iv, &ct).unwrap();
            let (body, tail) = pt.split_at(pt.len() - 4);
            assert_eq!(quad_cksum(key.as_bytes(), body).to_be_bytes(), tail);
            black_box(body.len())
        })
    });
    g.finish();
    let _ = WS;
}

fn main() {
    let mut c = quick();
    replay_cache_cost(&mut c);
    replay_check();
    store_engines(&mut c);
    sealing_modes(&mut c);
    c.final_summary();
}
