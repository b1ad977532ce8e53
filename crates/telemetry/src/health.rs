//! The derived health model: per-component `Healthy/Degraded/Failing`
//! verdicts computed from counter ratios.
//!
//! The paper's Athena deployment ran the KDC as shared infrastructure an
//! operator had to keep healthy; a raw counter dump answers "what
//! happened" but not "is it OK". This module turns three signals into a
//! verdict:
//!
//! - **error rate** — errors vs. total handled requests,
//! - **replay-hit rate** — replayed authenticators vs. total requests
//!   (PAPERS.md's replay-prevention line motivates surfacing this as a
//!   first-class signal rather than a buried counter),
//! - **journal drops** — a journal that wrapped is an observability
//!   outage: whatever else is true, the component cannot be fully audited.
//!
//! Rates are integer **per-mille** (`x * 1000 / total`) so a verdict — and
//! any JSON rendering of it — is an exact function of the counters, with
//! no float formatting drift between runs or platforms. All inputs come
//! from counters recorded under injected clocks, so the verdict inherits
//! the workspace determinism contract.

/// The verdict ladder, worst wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All rates under the degraded thresholds, journal intact.
    Healthy,
    /// At least one rate crossed its degraded threshold (or the journal
    /// dropped events).
    Degraded,
    /// At least one rate crossed its failing threshold.
    Failing,
}

impl HealthState {
    /// Stable lowercase name for dumps and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failing => "failing",
        }
    }
}

/// The raw counter readings a verdict is computed from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthInputs {
    /// Successful requests handled.
    pub ok: u64,
    /// Failed requests.
    pub err: u64,
    /// Replayed authenticators detected.
    pub replay_hits: u64,
    /// Journal events evicted by the ring bound.
    pub journal_dropped: u64,
    /// Internal faults (e.g. a store snapshot that could not be read).
    /// Not a rate: any fault at all means the component is serving in a
    /// state its request counters cannot show.
    pub faults: u64,
}

/// Threshold knobs, in per-mille of total requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthThresholds {
    /// Error rate (‰) at or above which the component is degraded.
    pub degraded_err_permille: u64,
    /// Error rate (‰) at or above which the component is failing.
    pub failing_err_permille: u64,
    /// Replay-hit rate (‰) at or above which the component is degraded.
    pub degraded_replay_permille: u64,
    /// Replay-hit rate (‰) at or above which the component is failing.
    pub failing_replay_permille: u64,
    /// Journal drops above this count degrade the component (observability
    /// is impaired even if the protocol counters look clean).
    pub max_journal_dropped: u64,
}

impl Default for HealthThresholds {
    /// The defaults DESIGN.md §16 documents: degraded at 5% errors or 1%
    /// replays, failing at 30% errors or 20% replays, any journal drop
    /// degrades.
    fn default() -> Self {
        HealthThresholds {
            degraded_err_permille: 50,
            failing_err_permille: 300,
            degraded_replay_permille: 10,
            failing_replay_permille: 200,
            max_journal_dropped: 0,
        }
    }
}

/// A computed verdict plus the rates that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthVerdict {
    /// The verdict.
    pub state: HealthState,
    /// Error rate in per-mille of total requests (0 when idle).
    pub err_permille: u64,
    /// Replay-hit rate in per-mille of total requests (0 when idle).
    pub replay_permille: u64,
    /// Total requests the rates are over.
    pub total: u64,
}

impl HealthThresholds {
    /// Compute the verdict for one component. An idle component (zero
    /// requests) is healthy unless its journal dropped events or it
    /// counted a fault.
    pub fn evaluate(&self, inputs: &HealthInputs) -> HealthVerdict {
        let total = inputs.ok + inputs.err;
        let permille = |x: u64| if total == 0 { 0 } else { x * 1000 / total };
        let err_permille = permille(inputs.err);
        let replay_permille = permille(inputs.replay_hits);
        let mut state = HealthState::Healthy;
        if err_permille >= self.degraded_err_permille
            || replay_permille >= self.degraded_replay_permille
            || inputs.journal_dropped > self.max_journal_dropped
            || inputs.faults > 0
        {
            state = HealthState::Degraded;
        }
        if err_permille >= self.failing_err_permille
            || replay_permille >= self.failing_replay_permille
        {
            state = HealthState::Failing;
        }
        HealthVerdict { state, err_permille, replay_permille, total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(ok: u64, err: u64, replay: u64, dropped: u64) -> HealthVerdict {
        HealthThresholds::default().evaluate(&HealthInputs {
            ok,
            err,
            replay_hits: replay,
            journal_dropped: dropped,
            faults: 0,
        })
    }

    #[test]
    fn idle_component_is_healthy() {
        let v = verdict(0, 0, 0, 0);
        assert_eq!(v.state, HealthState::Healthy);
        assert_eq!((v.err_permille, v.replay_permille, v.total), (0, 0, 0));
    }

    #[test]
    fn clean_traffic_is_healthy() {
        assert_eq!(verdict(1000, 10, 0, 0).state, HealthState::Healthy); // 1% errors
    }

    #[test]
    fn error_rate_ladder() {
        assert_eq!(verdict(950, 50, 0, 0).state, HealthState::Degraded); // 5.0%
        assert_eq!(verdict(700, 300, 0, 0).state, HealthState::Failing); // 30.0%
        // Exactly below the threshold stays down a rung.
        assert_eq!(verdict(951, 49, 0, 0).state, HealthState::Healthy);
    }

    #[test]
    fn replay_rate_ladder() {
        assert_eq!(verdict(990, 10, 10, 0).state, HealthState::Degraded); // 1.0% replays
        assert_eq!(verdict(800, 200, 200, 0).state, HealthState::Failing); // 20.0%
    }

    #[test]
    fn journal_drops_degrade_even_when_counters_are_clean() {
        let v = verdict(1000, 0, 0, 1);
        assert_eq!(v.state, HealthState::Degraded);
        // ...but drops alone never claim Failing: the protocol may be fine.
        assert!(verdict(1000, 0, 0, 99999).state < HealthState::Failing);
    }

    #[test]
    fn one_fault_degrades_clean_traffic_but_never_claims_failing() {
        let inputs = HealthInputs { ok: 1000, faults: 1, ..HealthInputs::default() };
        assert_eq!(HealthThresholds::default().evaluate(&inputs).state, HealthState::Degraded);
    }

    #[test]
    fn rates_are_exact_integer_permille() {
        let v = verdict(2, 1, 1, 0); // 1/3 = 333‰ exactly, truncated
        assert_eq!(v.err_permille, 333);
        assert_eq!(v.replay_permille, 333);
        assert_eq!(v.state, HealthState::Failing);
    }

    #[test]
    fn worst_signal_wins() {
        // Healthy errors + failing replays = failing.
        assert_eq!(verdict(790, 10, 210, 0).state, HealthState::Failing);
    }

    #[test]
    fn states_order_by_severity() {
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Failing);
        assert_eq!(HealthState::Failing.as_str(), "failing");
    }
}
