//! Stage probes: what happens *inside* `Kdc::handle`, priced from outside.
//!
//! The benchmark may not touch the program, so it cannot put a clock
//! between the KDC's stages. Instead it times the public functions the KDC
//! itself runs — decode, principal lookup, key unseal, schedule build,
//! ticket seal, reply seal, request verification, replay check, journal
//! append, encode — on the request/reply pairs captured during the traced
//! segment, and reports how much of the handle span they explain. An
//! in-program stage clock can later replace the probes and must agree with
//! them.

use crate::realm::{password, Captured, Realm, REALM};
use crate::stats::percentile_of;
use kerberos::msg::{ApReq, EncKdcReplyPart, KdcRep, Message};
use kerberos::replay::hash_bytes;
use kerberos::{
    krb_rd_req_sched, EncryptedTicket, HostAddr, Principal, ReplayKey, StripedReplayCache, Ticket,
};
use krb_crypto::{
    cbc_checksum_with, seal_with, string_to_key, unseal_with, DesKey, KeyGenerator, Mode, Scheduled,
};
use krb_kdb::PrincipalEntry;
use krb_telemetry::{wall_clock_us, Component, EventKind, Field, Histogram, Journal, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Calls timed together: one clock reading costs about as much as the
/// cheapest probed function, so single calls would mostly time the clock.
const CHUNK: usize = 32;
/// Fewest calls a cheap probe makes, cycling over its inputs if need be.
const MIN_CALLS: usize = 2_048;
/// Repetitions of a whole-database probe (21 is the fewest with ten
/// samples beyond the median).
const HEAVY_REPS: usize = 21;

/// Median nanoseconds per call of `f`, or `None` without inputs.
fn price<I>(inputs: &[I], mut f: impl FnMut(&I)) -> Option<f64> {
    if inputs.is_empty() {
        return None;
    }
    let calls = inputs.len().max(MIN_CALLS);
    let mut per_call = Vec::with_capacity(calls / CHUNK + 1);
    let mut next = inputs.iter().cycle();
    for _ in 0..calls.div_ceil(CHUNK) {
        let t0 = Instant::now();
        for input in next.by_ref().take(CHUNK) {
            f(input);
        }
        per_call.push(t0.elapsed().as_nanos() as u64 / CHUNK as u64);
    }
    percentile_of(&mut per_call, 0.5).map(|ns| ns as f64)
}

/// Median nanoseconds of `f` over [`HEAVY_REPS`] runs.
fn price_heavy(mut f: impl FnMut()) -> Option<f64> {
    let mut runs: Vec<u64> = (0..HEAVY_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    percentile_of(&mut runs, 0.5).map(|ns| ns as f64)
}

/// What the probes found, in nanoseconds per call unless noted. `None`
/// means the traced segment captured no input for that function.
#[derive(Default, Debug)]
pub struct Prices {
    /// `Message::decode` of a request.
    pub decode: Option<f64>,
    /// `Message::encode` of a reply.
    pub encode: Option<f64>,
    /// `PrincipalDb::get` on the KDC's snapshot.
    pub kdb_get: Option<f64>,
    /// `PrincipalDb::decrypt_key` (unseal under the master key).
    pub key_unseal: Option<f64>,
    /// `Scheduled::new`.
    pub sched_build: Option<f64>,
    /// `Ticket::new(..).seal_with(..)`.
    pub ticket_seal: Option<f64>,
    /// `seal_with(Pcbc)` at the reply part's length.
    pub seal: Option<f64>,
    /// `unseal_with(Pcbc)` at the same length.
    pub unseal: Option<f64>,
    /// `string_to_key` of a user's password.
    pub string_to_key: Option<f64>,
    /// `cbc_checksum_with` per KiB of dump text.
    pub cbc_cksum_per_kb: Option<f64>,
    /// `krb_rd_req_sched` on captured TGS requests.
    pub rd_req: Option<f64>,
    /// `StripedReplayCache::check_and_insert`.
    pub replay_check: Option<f64>,
    /// `Journal::record` of an exchange outcome.
    pub journal_record: Option<f64>,
    /// `Span::start` + `finish` on the wall clock.
    pub telemetry_span: Option<f64>,
    /// `PrincipalDb::snapshot_mem` of the whole realm.
    pub snapshot_mem: Option<f64>,
    /// `PrincipalDb::change_key`.
    pub change_key: Option<f64>,
    /// `dump::dump` of the whole realm.
    pub dump: Option<f64>,
    /// `KeyGenerator::generate` (the session key).
    pub keygen: Option<f64>,
    /// `Principal::new` (validated client and service names).
    pub principal_new: Option<f64>,
    /// `EncKdcReplyPart::encode` (the reply part before sealing).
    pub reply_part_encode: Option<f64>,
}

/// A captured TGS request, decoded.
struct TgsInput {
    ap: ApReq,
    sender: HostAddr,
    now: u32,
}

/// Run every probe against the realm's current snapshot.
pub fn run(realm: &Realm, captured: &[Captured]) -> Prices {
    let snapshot = realm.dep.master.snapshot();
    let db = snapshot.db();
    let mut prices = Prices::default();

    // Decode once, untimed, to sort the inputs out.
    let mut names: Vec<(String, String)> = Vec::new();
    let mut tgs_inputs: Vec<TgsInput> = Vec::new();
    let mut reply_parts: Vec<Vec<u8>> = Vec::new();
    for pair in captured {
        match Message::decode(&pair.request) {
            Ok(Message::AsReq(req)) => names.push((req.cname, req.cinstance)),
            Ok(Message::TgsReq(req)) => {
                names.push((req.sname, req.sinstance));
                tgs_inputs.push(TgsInput {
                    ap: req.ap,
                    sender: pair.sender,
                    now: pair.now,
                });
            }
            _ => {}
        }
        if let Ok(Message::KdcRep(rep)) = Message::decode(&pair.reply) {
            reply_parts.push(rep.enc_part);
        }
    }
    let entries: Vec<PrincipalEntry> = names
        .iter()
        .filter_map(|(n, i)| db.get(n, i).ok().flatten())
        .collect();
    let keys: Vec<DesKey> = entries
        .iter()
        .map(|e| db.decrypt_key(&e.key_encrypted))
        .collect();
    let scheds: Vec<Scheduled> = keys.iter().take(256).map(Scheduled::new).collect();

    prices.decode = price(captured, |pair| {
        black_box(Message::decode(black_box(&pair.request)).ok());
    });
    prices.encode = price(&reply_parts, |part| {
        black_box(
            Message::KdcRep(KdcRep {
                enc_part: part.clone(),
            })
            .encode(),
        );
    });
    prices.kdb_get = price(&names, |(name, instance)| {
        black_box(db.get(black_box(name), instance).ok());
    });
    prices.key_unseal = price(&entries, |entry| {
        black_box(db.decrypt_key(black_box(&entry.key_encrypted)));
    });
    prices.sched_build = price(&keys, |key| {
        black_box(Scheduled::new(black_box(key)));
    });

    // Ticket and reply sealing, under real principal-key schedules.
    let client = realm.user(0);
    let service = &realm.services[0].principal;
    if let Some(sched) = scheds.first() {
        prices.ticket_seal = price(&keys, |key| {
            let ticket = Ticket::new(
                service,
                &client,
                realm.client_addr,
                realm.now,
                96,
                *key.as_bytes(),
            );
            black_box(ticket.seal_with(sched));
        });
        // A plaintext of `len - 4` seals to exactly `len` bytes.
        let plains: Vec<Vec<u8>> = reply_parts
            .iter()
            .map(|p| vec![0x5a; p.len().saturating_sub(4)])
            .collect();
        prices.seal = price(&plains, |plain| {
            black_box(seal_with(Mode::Pcbc, sched, &[0u8; 8], black_box(plain)).ok());
        });
        let sealed: Vec<Vec<u8>> = plains
            .iter()
            .filter_map(|p| seal_with(Mode::Pcbc, sched, &[0u8; 8], p).ok())
            .collect();
        prices.unseal = price(&sealed, |ct| {
            black_box(unseal_with(Mode::Pcbc, sched, &[0u8; 8], black_box(ct)).ok());
        });
    }

    // The smaller steps between the seals: a session key, two validated
    // principals, the reply part's plaintext.
    let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(realm.seed));
    prices.keygen = price(&[(); CHUNK], |_| {
        black_box(keygen.generate());
    });
    prices.principal_new = price(&names, |(name, instance)| {
        black_box(Principal::new(black_box(name), instance, REALM).ok());
    });
    let parts: Vec<EncKdcReplyPart> = reply_parts
        .iter()
        .take(256)
        .map(|sealed| EncKdcReplyPart {
            session_key: [7u8; 8].into(),
            sname: service.name.clone(),
            sinstance: service.instance.clone(),
            srealm: REALM.to_string(),
            life: 96,
            kvno: 1,
            kdc_time: realm.now,
            nonce: realm.now,
            // As long as the ticket the captured reply carried.
            ticket: EncryptedTicket(vec![0; sealed.len().saturating_sub(56) / 8 * 8]),
        })
        .collect();
    prices.reply_part_encode = price(&parts, |part| {
        black_box(part.encode());
    });

    let passwords: Vec<String> = (0..256).map(|i| password(realm.seed, i, 0)).collect();
    prices.string_to_key = price(&passwords, |pw| {
        black_box(string_to_key(black_box(pw)));
    });

    // Request verification as the TGS path runs it, and the replay check
    // alone, each on a cache the harness owns. Every captured request is
    // distinct, so within one pass the cache never refuses; later passes
    // (few inputs, cycled) take the same lookup and skip the insert.
    if let Ok(Some((_, tgs_key))) = db.get_with_key("krbtgt", REALM) {
        let tgs_sched = Scheduled::new(&tgs_key);
        let tgs_principal = Principal::tgs(REALM, REALM);
        let cache = StripedReplayCache::new();
        prices.rd_req = price(&tgs_inputs, |input| {
            black_box(
                krb_rd_req_sched(
                    &input.ap,
                    &tgs_principal,
                    &tgs_sched,
                    input.sender,
                    input.now,
                    &mut &cache,
                )
                .ok(),
            );
        });
    }
    let cache = StripedReplayCache::new();
    let replay_keys: Vec<(ReplayKey, u32)> = tgs_inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let key = ReplayKey {
                client: format!("{}@{REALM}", crate::realm::user_name(i as u32)),
                timestamp: input.now,
                auth_hash: hash_bytes(&input.ap.authenticator),
            };
            (key, input.now)
        })
        .collect();
    prices.replay_check = price(&replay_keys, |(key, now)| {
        black_box(cache.check_and_insert(key.clone(), *now));
    });

    let journal = Journal::shared();
    prices.journal_record = price(&names, |(name, _)| {
        journal.record(
            0,
            None,
            Component::Kdc,
            EventKind::AsOk,
            vec![("client", Field::from(name.clone()))],
        );
    });
    let (clock, histogram) = (wall_clock_us(), Histogram::latency_us());
    prices.telemetry_span = price(&[(); CHUNK], |_| {
        black_box(Span::start(&clock, &histogram).finish());
    });

    // The write path's whole-database steps, on the realm at hand.
    prices.snapshot_mem = price_heavy(|| {
        black_box(db.snapshot_mem().ok());
    });
    let mut dump_text = String::new();
    prices.dump = price_heavy(|| {
        dump_text = krb_kdb::dump::dump(db).unwrap_or_default();
    });
    if let Ok(mut scratch) = db.snapshot_mem() {
        let users: Vec<String> = (0..256).map(crate::realm::user_name).collect();
        let new_key = string_to_key("probe");
        prices.change_key = price(&users, |user| {
            black_box(
                scratch
                    .change_key(user, "", &new_key, realm.now, "probe.")
                    .ok(),
            );
        });
    }
    let kib = dump_text.len() / 1024;
    if kib > 0 {
        let master = Scheduled::new(&realm.dep.master_key);
        prices.cbc_cksum_per_kb = price_heavy(|| {
            black_box(cbc_checksum_with(&master, &[0u8; 8], dump_text.as_bytes()));
        })
        .map(|ns| ns / kib as f64);
    }
    prices
}

impl Prices {
    /// The stages both exchanges share once the keys are in hand: session
    /// key, client and service principals, ticket seal, reply part, reply
    /// seal, journal append, latency span, encode.
    fn sum_issue(&self) -> f64 {
        let p = |v: Option<f64>| v.unwrap_or(0.0);
        p(self.keygen)
            + 2.0 * p(self.principal_new)
            + p(self.ticket_seal)
            + p(self.reply_part_encode)
            + p(self.seal)
            + p(self.journal_record)
            + p(self.telemetry_span)
            + p(self.encode)
    }

    /// What the probes say one AS exchange costs inside `Kdc::handle`:
    /// decode, two principal lookups (client and `krbtgt`), the cold
    /// client's key unseal and schedule build (`misses_per_as` of them),
    /// then the issuing stages.
    pub fn sum_as(&self, misses_per_as: f64) -> f64 {
        let p = |v: Option<f64>| v.unwrap_or(0.0);
        p(self.decode)
            + 2.0 * p(self.kdb_get)
            + misses_per_as * (p(self.key_unseal) + p(self.sched_build))
            + self.sum_issue()
    }

    /// The same for one TGS exchange: decode, request verification (ticket
    /// and authenticator open, session-key schedule, replay check), the
    /// service's lookup, then the issuing stages.
    pub fn sum_tgs(&self) -> f64 {
        let p = |v: Option<f64>| v.unwrap_or(0.0);
        p(self.decode) + p(self.rd_req) + p(self.kdb_get) + self.sum_issue()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_cycles_short_inputs_and_reports_nothing_without_any() {
        let mut calls = 0usize;
        let ns = price(&[1u32, 2, 3], |_| calls += 1);
        assert!(ns.is_some());
        assert_eq!(calls, MIN_CALLS);
        assert_eq!(price(&[] as &[u32], |_| ()), None);
    }

    #[test]
    fn sums_add_the_stages_the_kdc_runs() {
        let prices = Prices {
            decode: Some(1.0),
            kdb_get: Some(10.0),
            key_unseal: Some(100.0),
            sched_build: Some(1000.0),
            rd_req: Some(5000.0),
            ..Prices::default()
        };
        assert_eq!(prices.sum_as(1.0), 1.0 + 20.0 + 1100.0);
        assert_eq!(prices.sum_as(0.0), 21.0);
        assert_eq!(prices.sum_tgs(), 1.0 + 5000.0 + 10.0);
    }
}
