//! # krb-adversary — a seeded Dolev–Yao active attacker
//!
//! The paper assumes an open network where "packets traveling along the
//! network can be read, modified, and inserted at will" (§1) and argues
//! that Kerberos stays safe anyway. This crate *machine-checks* that
//! argument with the classic symbolic-attacker construction of Dolev &
//! Yao: the adversary is exactly what it has observed plus everything
//! derivable from it.
//!
//! * [`knowledge`] — the attacker's knowledge base: captured datagrams
//!   split into typed terms (names, addresses, timestamps, ciphertext
//!   blobs), saturated under the derivation rules *decrypt with a known
//!   key* and *recombine into credentials*. Perfect encryption is the
//!   model: a blob without its key is opaque.
//! * [`soak`] — the attack engine: an honest victim runs real protocol
//!   rounds while the attacker schedules seeded replays, time-shifted
//!   replays, ticket/authenticator splices, forgeries, and spoofed-KDC
//!   impersonations; **secrecy** and **authentication** oracles are
//!   checked after every step.
//!
//! Runs are deterministic: `krb-adversary --seed S --steps N` replays
//! byte-identically — same journal, same closure dump, same oracle
//! verdicts. The `--leak` modes hand the attacker one long-term key on
//! purpose and the engine proves its own oracles by requiring exactly the
//! matching detections to fire ([`verify_expectations`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knowledge;
pub mod soak;

pub use knowledge::{blob_hash, key_fingerprint, Atom, Knowledge, LearnedCred};
pub use soak::{
    run, smoke_json, verify_expectations, AdvConfig, AdvReport, Leak, ADVERSARY_JSON_KEYS,
    ADV_SEED, ADV_TAPE_CAP, ALL_LEAKS,
};
