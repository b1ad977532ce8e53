//! `krb-kdbench` — kdb bulk-load and cold/warm lookup benchmark.
//!
//! ```text
//! krb-kdbench [--principals N] [--seed N] [--cold N] [--warm N]
//!             [--out PATH] [--smoke]
//! ```
//!
//! Bulk-loads `N` principals into a file-backed extendible-hash store
//! through the pre-splitting batch path ([`PrincipalDb::bulk_register`]),
//! reports the resulting on-disk structure (pages, directory depth,
//! splits, doublings), then measures lookup latency two ways:
//!
//! * **cold** — the page cache is dropped before every timed `get`, so
//!   each lookup pays the directory probe plus one page read from disk
//!   (the ndbm promise: two file accesses regardless of database size);
//! * **warm** — the cache is pre-warmed once, so lookups are pure
//!   in-memory probes.
//!
//! Results are one JSON document, schema-gated in `scripts/check.sh`:
//! written to `--out` and summarized on stdout, or printed to stdout
//! without it (the committed `BENCH_kdb.json` is a full-size run written
//! with `--out BENCH_kdb.json`). The store structure and record counts
//! are deterministic functions of `(principals, seed)`; the timings are
//! wall-clock and vary by host, which is why the gate checks the schema,
//! not the numbers.

use krb_crypto::DesKey;
use krb_kdb::{HashStore, PrincipalDb};
use krb_telemetry::Json;
use krb_tools::args::Args;
use std::path::PathBuf;
use std::time::Instant;

const NOW: u32 = 600_000_000;

struct Cfg {
    principals: usize,
    seed: u64,
    cold: usize,
    warm: usize,
    out: Option<PathBuf>,
}

impl Default for Cfg {
    fn default() -> Self {
        Cfg {
            principals: 1_000_000,
            seed: 42,
            cold: 256,
            warm: 4_096,
            out: None,
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

struct Quantiles {
    samples: usize,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

fn quantiles(mut ns: Vec<u64>) -> Quantiles {
    ns.sort_unstable();
    Quantiles {
        samples: ns.len(),
        p50: percentile(&ns, 0.50),
        p95: percentile(&ns, 0.95),
        p99: percentile(&ns, 0.99),
        max: ns.last().copied().unwrap_or(0),
    }
}

impl Quantiles {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("samples", self.samples)
            .with("p50", self.p50)
            .with("p95", self.p95)
            .with("p99", self.p99)
            .with("max", self.max)
    }
}

const USAGE: &str = "krb-kdbench [--principals N] [--seed N] [--cold N] [--warm N] \
                     [--out PATH] [--smoke]";

fn main() {
    let mut cfg = Cfg::default();
    let mut args = Args::from_env("krb-kdbench", USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--principals" => cfg.principals = args.value(&flag, "a number"),
            "--seed" => cfg.seed = args.value(&flag, "a number"),
            "--cold" => cfg.cold = args.value(&flag, "a number"),
            "--warm" => cfg.warm = args.value(&flag, "a number"),
            "--out" => cfg.out = Some(args.value(&flag, "a path")),
            "--smoke" => {
                cfg.principals = 20_000;
                cfg.cold = 64;
                cfg.warm = 512;
            }
            other => args.unknown(other),
        }
    }
    if cfg.principals == 0 {
        args.usage_error("--principals must be at least 1");
    }

    let base = std::env::temp_dir().join(format!("krb-kdbench-{}", std::process::id()));
    let cleanup = |base: &PathBuf| {
        let _ = std::fs::remove_file(base.with_extension("pag"));
        let _ = std::fs::remove_file(base.with_extension("dir"));
    };
    cleanup(&base);

    // --- Bulk load --------------------------------------------------------
    let mut rng = cfg.seed | 1;
    let batch: Vec<(String, String, DesKey)> = (0..cfg.principals)
        .map(|i| {
            let key = DesKey::from_bytes(xorshift(&mut rng).to_be_bytes());
            (format!("u{i:07}"), String::new(), key)
        })
        .collect();
    let master = DesKey::from_bytes(xorshift(&mut rng).to_be_bytes());

    let store = HashStore::open(&base).unwrap_or_else(|e| die(&base, &format!("open: {e}")));
    let mut db = PrincipalDb::create(store, master, NOW)
        .unwrap_or_else(|e| die(&base, &format!("create: {e}")));
    let t0 = Instant::now();
    db.bulk_register(&batch, u32::MAX, 96, NOW, "kdbench")
        .unwrap_or_else(|e| die(&base, &format!("bulk_register: {e}")));
    let bulk_us = t0.elapsed().as_micros() as u64;
    let stats = db.store().stats();

    // --- Lookups ----------------------------------------------------------
    let mut pick = || format!("u{:07}", xorshift(&mut rng) as usize % cfg.principals);
    let mut cold_ns = Vec::with_capacity(cfg.cold);
    for _ in 0..cfg.cold {
        let name = pick();
        db.store_mut().drop_cache();
        let t = Instant::now();
        let hit = db.get(&name, "").unwrap_or_else(|e| die(&base, &format!("get: {e}")));
        cold_ns.push(t.elapsed().as_nanos() as u64);
        assert!(hit.is_some(), "cold lookup missed {name}");
    }
    db.store_mut()
        .warm_cache()
        .unwrap_or_else(|e| die(&base, &format!("warm_cache: {e}")));
    let mut warm_ns = Vec::with_capacity(cfg.warm);
    for _ in 0..cfg.warm {
        let name = pick();
        let t = Instant::now();
        let hit = db.get(&name, "").unwrap_or_else(|e| die(&base, &format!("get: {e}")));
        warm_ns.push(t.elapsed().as_nanos() as u64);
        assert!(hit.is_some(), "warm lookup missed {name}");
    }
    cleanup(&base);

    let cold = quantiles(cold_ns);
    let warm = quantiles(warm_ns);
    let per_sec = if bulk_us == 0 {
        0.0
    } else {
        cfg.principals as f64 / (bulk_us as f64 / 1_000_000.0)
    };

    let json = Json::obj()
        .with("bench", "kdb_depth")
        .with("principals", cfg.principals)
        .with("seed", cfg.seed)
        .with("clock", "wall")
        .with("bulk", Json::obj().with("elapsed_us", bulk_us).with("per_sec", per_sec))
        .with(
            "store",
            Json::obj()
                .with("pages", stats.pages)
                .with("depth", stats.depth)
                .with("records", stats.records)
                .with("splits", stats.splits)
                .with("dir_doubles", stats.dir_doubles),
        )
        .with("lookup_ns", Json::obj().with("cold", cold.to_json()).with("warm", warm.to_json()))
        .render();
    let Some(out) = &cfg.out else {
        println!("{json}");
        return;
    };
    if let Err(e) = std::fs::write(out, format!("{json}\n")) {
        eprintln!("krb-kdbench: writing {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "krb-kdbench: {} principals loaded in {:.2}s ({:.0}/s); {} pages at depth {} \
         ({} splits, {} doublings)",
        cfg.principals,
        bulk_us as f64 / 1_000_000.0,
        per_sec,
        stats.pages,
        stats.depth,
        stats.splits,
        stats.dir_doubles
    );
    println!(
        "  cold lookup p50/p95/p99: {}/{}/{} ns over {} samples (cache dropped per get)",
        cold.p50, cold.p95, cold.p99, cold.samples
    );
    println!(
        "  warm lookup p50/p95/p99: {}/{}/{} ns over {} samples (cache pre-warmed)",
        warm.p50, warm.p95, warm.p99, warm.samples
    );
    println!("  wrote {}", out.display());
}

fn die(base: &PathBuf, msg: &str) -> ! {
    let _ = std::fs::remove_file(base.with_extension("pag"));
    let _ = std::fs::remove_file(base.with_extension("dir"));
    eprintln!("krb-kdbench: {msg}");
    std::process::exit(1);
}
