//! # krb-sim — the Athena environment simulator
//!
//! Reproduces the operational context of Steiner, Neuman & Schiller
//! (USENIX 1988): [`scenario`] replays an Athena day (§9's 5,000 users /
//! 650 workstations / 65 servers at configurable scale) against the real
//! protocol stack with hourly database propagation; [`lifetime`] explores
//! §8's ticket-lifetime tradeoff; [`attacks`] scripts wire-level
//! adversaries (eavesdrop, replay, address forgery) against real captured
//! traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod chaos;
pub mod full_day;
pub mod lifetime;
pub mod repl;
pub mod scenario;
pub mod soak;

pub use attacks::{
    replay_captured_ap, rig, wire_contains, AttackOutcome, AttackRig, ATTACK_CAPTURE_CAP,
};
pub use chaos::{smoke_json, Profile, SoakConfig, SoakReport, ALL_PROFILES, CHAOS_JSON_KEYS};
pub use full_day::{run_full_day, FullDayConfig, FullDayReport};
pub use repl::{run_repl, ReplConfig, ReplReport, REPL_JSON_KEYS};
pub use soak::SoakFailure;
pub use lifetime::{tradeoff, LifetimeConfig, TradeoffRow};
pub use scenario::{run, ScenarioConfig, ScenarioReport};

/// The paper's §9 scale, for full-size runs (benches and examples).
pub fn athena_scale() -> ScenarioConfig {
    ScenarioConfig {
        users: 5000,
        workstations: 650,
        services: 65,
        slaves: 2,
        ..Default::default()
    }
}
