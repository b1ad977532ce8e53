//! What the workloads share: latency samples, correctness bookkeeping, the
//! `Load` trait the phase runner drives, and the three authentication
//! workloads (`login_storm`, `ticket_steady`, `udp_loopback`), which are
//! one loop under three configurations.

use crate::metrics::PER_TICK;
use crate::realm::{password, Outcome, Realm, RealmSpec, Refusal, Session, N_SERVICES};
use crate::schedule::{Schedule, Slot};
use crate::span::Tracer;
use kerberos::{ErrorCode, Principal, DEFAULT_TGT_LIFE};
use std::time::Instant;

/// Client-observed latencies of one segment, in nanoseconds.
#[derive(Default)]
pub struct Samples {
    /// AS exchanges, including `string_to_key` and reply decryption.
    pub as_ns: Vec<u64>,
    /// TGS exchanges.
    pub tgs_ns: Vec<u64>,
    /// AP exchanges with mutual authentication.
    pub ap_ns: Vec<u64>,
    /// Password typed → status reply, including the snapshot swap.
    pub kpasswd_ns: Vec<u64>,
    /// Master log append → slave serving the new key.
    pub prop_ns: Vec<u64>,
    /// Where each slice ended, in order.
    pub slices: Vec<SliceMark>,
}

/// The end of one slice: a run of consecutive ops (a tick of the protocol
/// clock, or one `passwd_churn` cycle) short enough to fall inside a quiet
/// spell of a shared box.
pub struct SliceMark {
    /// Wall time the slice took.
    pub wall_ns: u64,
    /// `as_ns.len()`, `tgs_ns.len()` and `ap_ns.len()` when it ended.
    pub ends: [usize; 3],
}

/// Correctness bookkeeping. Every op is checked; an expected refusal is a
/// success and anything else a failure.
#[derive(Default, Debug)]
pub struct Checks {
    /// Honest ops and negative probes attempted.
    pub attempted: u64,
    /// Those that did not end as they must, plus end-of-run mismatches.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    /// Record a failure.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// A negative probe: it must be refused, and with exactly `want`.
    pub fn refusal<T>(&mut self, what: &str, outcome: Outcome<T>, want: ErrorCode) {
        self.attempted += 1;
        match outcome {
            Err(Refusal::Krb(code)) if code == want => {}
            Err(other) => self.fail(format!("{what}: refused with {other:?}, expected {want:?}")),
            Ok(_) => self.fail(format!("{what}: accepted, expected {want:?}")),
        }
    }

    /// An end-of-run tally: the program's count must equal the harness's.
    pub fn equal(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(format!(
                "{what}: program says {got}, harness counted {want}"
            ));
        }
    }
}

/// What the harness expects the KDCs' own counters to read.
#[derive(Default, Debug)]
pub struct Expect {
    /// AS requests naming known principals (a wrong password is still an
    /// issued reply: the KDC cannot tell).
    pub as_ok: u64,
    /// Honest TGS requests.
    pub tgs_ok: u64,
    /// Unknown-principal probes.
    pub unknown: u64,
    /// Verbatim-replay probes.
    pub replay: u64,
}

impl Expect {
    /// Compare with `Kdc::stats()` and the replay-hit counter.
    pub fn verify(&self, realm: &Realm, checks: &mut Checks) {
        // Master and slaves report into one registry, so the master's view
        // is the realm's.
        let stats = realm.dep.master.stats();
        checks.equal("as_ok", stats.as_ok, self.as_ok);
        checks.equal("tgs_ok", stats.tgs_ok, self.tgs_ok);
        checks.equal("errors", stats.errors, self.unknown + self.replay);
        checks.equal(
            "errors_by_kind.unknown_principal",
            stats.errors_by_kind.unknown_principal,
            self.unknown,
        );
        checks.equal(
            "errors_by_kind.replay",
            stats.errors_by_kind.replay,
            self.replay,
        );
        checks.equal(
            "kdc replay hits",
            realm.registry.counter_value("kdc_replay_hits_total"),
            self.replay,
        );
        let app_hits: u64 = realm.services.iter().map(|s| s.replay.replay_hits()).sum();
        checks.equal("application-server replay hits", app_hits, 0);
    }
}

/// Negative probes fire once each per this many ops (or per run, if the
/// run is shorter).
pub const PROBE_PERIOD: u64 = 10_000;

/// Which negative probe, if any, follows op `i` of `total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Resend the op's TGS request verbatim ⇒ `RdApRepeat`.
    Replay,
    /// Open an AS reply with the wrong password ⇒ `IntkBadPw`.
    WrongPassword,
    /// Ask for a principal that does not exist ⇒ `KdcPrUnknown`.
    Unknown,
}

/// The fixed-rate probe plan: one of each kind per period.
pub fn probe_after(i: u64, total: u64) -> Option<Probe> {
    // At least 4, so that the three offsets below stay distinct.
    let period = PROBE_PERIOD.min(total.max(4));
    match i % period {
        p if p == period / 3 => Some(Probe::Replay),
        p if p == 2 * period / 3 => Some(Probe::WrongPassword),
        p if p == period - 1 => Some(Probe::Unknown),
        _ => None,
    }
}

/// A workload as the phase runner sees it.
pub trait Load {
    /// Run the next op (and any probe due after it).
    fn op(&mut self, samples: &mut Samples, checks: &mut Checks);
    /// End-of-run checks.
    fn verify(&mut self, checks: &mut Checks);
    /// The realm, for counters and probes.
    fn realm(&self) -> &Realm;
    /// Digest of the schedule consumed so far.
    fn schedule_digest(&self) -> u64;
    /// Ops per slice: one tick's worth, or one cycle.
    fn slice_ops(&self) -> u64;
    /// Counts only this workload keeps.
    fn own_counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
    /// Durations only this workload measures, in nanoseconds.
    fn own_timings(&self) -> Vec<(&'static str, Vec<u64>)> {
        Vec::new()
    }
}

/// Configuration of an authentication workload.
#[derive(Clone, Copy, Debug)]
pub struct AuthSpec {
    /// The realm it runs in.
    pub realm: RealmSpec,
    /// Users logged in during set-up; 0 means every op is a fresh login.
    pub logged_in: usize,
}

/// `login_storm`, `ticket_steady` and `udp_loopback`.
pub struct AuthLoad {
    realm: Realm,
    tracer: Tracer,
    schedule: Schedule,
    tick: Vec<Slot>,
    /// Empty when every op logs in afresh.
    sessions: Vec<Session>,
    expect: Expect,
    done: u64,
    total: u64,
}

impl AuthLoad {
    /// Set the realm up; `total` is the number of ops the run will make
    /// (it places the negative probes).
    pub fn setup(
        spec: AuthSpec,
        seed: u64,
        tracer: Tracer,
        total: u64,
    ) -> Result<AuthLoad, String> {
        let mut realm = Realm::build(seed, spec.realm, tracer.clone())?;
        let mut expect = Expect::default();
        let mut sessions = Vec::with_capacity(spec.logged_in);
        let kdc = realm.master_ep();
        for i in 0..spec.logged_in as u32 {
            let session = realm
                .login(kdc, realm.user(i), &password(seed, i, 0))
                .map_err(|e| format!("set-up login of user {i}: {e:?}"))?;
            expect.as_ok += 1;
            sessions.push(session);
        }
        let population = if spec.logged_in > 0 {
            spec.logged_in
        } else {
            spec.realm.principals
        };
        Ok(AuthLoad {
            realm,
            tracer,
            schedule: Schedule::new(seed, population, PER_TICK as usize, N_SERVICES as u8),
            tick: Vec::with_capacity(PER_TICK as usize),
            sessions,
            expect,
            done: 0,
            total,
        })
    }

    /// One honest op. A fresh-login op is Figure 9 end to end; otherwise
    /// the user already holds a TGT and the op is TGS + AP.
    fn honest(&mut self, slot: Slot, samples: &mut Samples) -> Outcome<(Vec<u8>, Option<Session>)> {
        let kdc = self.realm.master_ep();
        let service = usize::from(slot.service);
        let fresh = if self.sessions.is_empty() {
            let client = self.realm.user(slot.user);
            let pw = password(self.realm.seed, slot.user, 0);
            let tgs = self.realm.tgs.clone();
            let t0 = Instant::now();
            self.expect.as_ok += 1;
            let tgt = self.tracer.span("client.as", || {
                self.realm
                    .as_exchange(kdc, &client, &pw, &tgs, DEFAULT_TGT_LIFE)
            })?;
            samples.as_ns.push(t0.elapsed().as_nanos() as u64);
            Some((client, tgt))
        } else {
            None
        };

        let t1 = Instant::now();
        self.expect.tgs_ok += 1;
        let (session, cred, request) = self.tracer.span("client.tgs", || {
            let fresh = fresh.map(|(client, tgt)| Session::new(&self.tracer, client, tgt));
            let session = fresh
                .as_ref()
                .unwrap_or_else(|| &self.sessions[slot.user as usize]);
            let (cred, request) = self.realm.tgs_exchange(kdc, session, service)?;
            Outcome::Ok((fresh, cred, request))
        })?;
        samples.tgs_ns.push(t1.elapsed().as_nanos() as u64);

        let t2 = Instant::now();
        let client = match &session {
            Some(s) => &s.client,
            None => &self.sessions[slot.user as usize].client,
        };
        self.tracer.span("client.ap", || {
            self.realm.ap_exchange(client, &cred, service)
        })?;
        samples.ap_ns.push(t2.elapsed().as_nanos() as u64);
        Ok((request, session))
    }

    fn probe(
        &mut self,
        probe: Probe,
        slot: Slot,
        last: Option<(Vec<u8>, Option<Session>)>,
        checks: &mut Checks,
    ) {
        let kdc = self.realm.master_ep();
        let tgs = self.realm.tgs.clone();
        self.tracer.span("probe.negative", || match probe {
            Probe::Replay => {
                // Only an op that succeeded leaves a request to replay.
                let Some((request, fresh)) = last else { return };
                let session = fresh
                    .as_ref()
                    .unwrap_or_else(|| &self.sessions[slot.user as usize]);
                self.expect.replay += 1;
                let outcome = self.realm.replay_tgs(kdc, session, &request);
                checks.refusal("verbatim TGS replay", outcome, ErrorCode::RdApRepeat);
            }
            Probe::WrongPassword => {
                self.expect.as_ok += 1;
                let client = self.realm.user(slot.user);
                let outcome = self.realm.as_exchange(
                    kdc,
                    &client,
                    "not-the-password",
                    &tgs,
                    DEFAULT_TGT_LIFE,
                );
                checks.refusal("wrong password", outcome, ErrorCode::IntkBadPw);
            }
            Probe::Unknown => {
                self.expect.unknown += 1;
                let nobody = Principal {
                    name: "nobody".into(),
                    ..self.realm.user(0)
                };
                let outcome = self
                    .realm
                    .as_exchange(kdc, &nobody, "x", &tgs, DEFAULT_TGT_LIFE);
                checks.refusal("unknown principal", outcome, ErrorCode::KdcPrUnknown);
            }
        });
    }
}

impl Load for AuthLoad {
    fn op(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let i = self.done;
        self.done += 1;
        let pos = (i % self.schedule.per_tick() as u64) as usize;
        if pos == 0 {
            // A new second: every user may ask once more.
            self.realm.tick();
            self.tick.clear();
            self.tick.extend_from_slice(self.schedule.next_tick());
        }
        let slot = self.tick[pos];
        self.tracer.set_op(i as u32);
        checks.attempted += 1;
        let last = match self.honest(slot, samples) {
            Ok(done) => Some(done),
            Err(e) => {
                checks.fail(format!(
                    "op {i} (user {}, service {}): {e:?}",
                    slot.user, slot.service
                ));
                None
            }
        };
        if let Some(probe) = probe_after(i, self.total) {
            self.probe(probe, slot, last, checks);
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        self.expect.verify(&self.realm, checks);
    }

    fn realm(&self) -> &Realm {
        &self.realm
    }

    fn schedule_digest(&self) -> u64 {
        self.schedule.digest()
    }

    fn slice_ops(&self) -> u64 {
        self.schedule.per_tick() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_probe_fires_once_per_period_even_in_a_short_run() {
        for total in [4u64, 25, 2_000, 10_000, 25_000] {
            let fired: Vec<Probe> = (0..total).filter_map(|i| probe_after(i, total)).collect();
            let periods = (total / PROBE_PERIOD).max(1) as usize;
            for kind in [Probe::Replay, Probe::WrongPassword, Probe::Unknown] {
                let n = fired.iter().filter(|p| **p == kind).count();
                assert!(
                    n >= periods && n <= periods + 1,
                    "total {total}: {kind:?} fired {n} times"
                );
            }
        }
    }

    #[test]
    fn an_accepted_replay_probe_is_a_failure() {
        // The check that guards the replay cache must itself be live: a KDC
        // that accepts the verbatim resend makes the run incorrect.
        let mut checks = Checks::default();
        checks.refusal(
            "verbatim TGS replay",
            Outcome::Ok(()),
            ErrorCode::RdApRepeat,
        );
        assert_eq!((checks.attempted, checks.failed), (1, 1));
        // So does a refusal for the wrong reason.
        checks.refusal(
            "verbatim TGS replay",
            Outcome::<()>::Err(Refusal::Krb(ErrorCode::RdApTime)),
            ErrorCode::RdApRepeat,
        );
        assert_eq!(checks.failed, 2);
        // The expected refusal is a success.
        let mut good = Checks::default();
        good.refusal(
            "verbatim TGS replay",
            Outcome::<()>::Err(Refusal::Krb(ErrorCode::RdApRepeat)),
            ErrorCode::RdApRepeat,
        );
        assert_eq!(good.failed, 0);
    }
}
