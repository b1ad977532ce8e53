//! # krb-telemetry — the workspace's single counting substrate
//!
//! The paper justifies its architecture with load arguments — slaves
//! absorb read traffic at Athena scale (§4), and per-operation NFS
//! authentication is rejected on latency grounds (appendix) — so this
//! reproduction needs one place where every component reports what it did
//! and how long it took. This crate is that place: a dependency-free,
//! thread-safe metrics registry of atomic counters, gauges, and
//! fixed-bucket latency histograms, plus span timing driven by an
//! *injected* clock. It also holds the one JSON writer ([`Json`]) that
//! every machine-readable report renders through.
//!
//! ## Determinism contract
//!
//! Timing behaviour *is* protocol behaviour in Kerberos: skew windows and
//! ticket lifetimes decide correctness, and the simulator depends on every
//! run with a given seed being identical. Therefore:
//!
//! - **No component in a simulated path may read the wall clock.** Spans
//!   are timed by a [`ClockUs`] handed in by the caller; the simulator
//!   passes a deterministic clock ([`shared_clock_us`], [`lcg_clock_us`])
//!   and gets byte-identical [`Registry::render`] output on every run.
//! - [`wall_clock_us`] exists for real deployments and the kbench harness
//!   (`benchmark/`) only; it must never be wired into a simulated path
//!   whose output is compared byte for byte.
//! - [`Registry::render`] iterates a `BTreeMap`, so the exported text is
//!   a deterministic function of the recorded values.
//!
//! The `krb-lint` rule **L5** enforces the substrate's monopoly: raw
//! `AtomicU64` counters outside this crate are findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod flight;
pub mod health;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod sketch;

pub use clock::{fixed_clock_us, lcg_clock_us, shared_clock_us, wall_clock_us, ClockUs};
pub use flight::{FailureRecord, FlightRecorder};
pub use health::{HealthInputs, HealthState, HealthThresholds, HealthVerdict};
pub use journal::{
    merge_journals, merge_render, set_joined_field, Component, Event, EventKind, Field, Journal,
    TraceCtx, TraceId,
};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, LATENCY_BUCKETS_US};
pub use registry::Registry;
pub use sketch::{SketchEntry, SpaceSaving};

/// An in-progress timed section: reads the clock at [`Span::start`] and
/// records the elapsed microseconds into a [`Histogram`] at
/// [`Span::finish`]. The clock is injected, so a span in a simulated path
/// measures simulated time and stays deterministic.
///
/// A span that is simply dropped (an early-return error path, a `?`)
/// still records into the histogram it was opened with — losing the
/// latency sample silently made error paths invisible.
pub struct Span {
    clock: ClockUs,
    started_at: u64,
    histogram: Option<Histogram>,
}

impl Span {
    /// Begin timing against `clock`, to be recorded into `histogram`.
    pub fn start(clock: &ClockUs, histogram: &Histogram) -> Self {
        Span {
            clock: ClockUs::clone(clock),
            started_at: clock(),
            histogram: Some(histogram.clone()),
        }
    }

    fn elapsed(&self) -> u64 {
        (self.clock)().saturating_sub(self.started_at)
    }

    /// Stop timing and record the elapsed microseconds. Returns the
    /// recorded duration so callers can log or aggregate it further.
    pub fn finish(mut self) -> u64 {
        let elapsed = self.elapsed();
        if let Some(hist) = self.histogram.take() {
            hist.record(elapsed);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(hist) = self.histogram.take() {
            hist.record(self.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn span_records_elapsed_simulated_time() {
        let cell = Arc::new(AtomicU64::new(1_000));
        let clock = shared_clock_us(Arc::clone(&cell));
        let hist = Histogram::latency_us();
        let span = Span::start(&clock, &hist);
        cell.store(1_250, Ordering::SeqCst);
        assert_eq!(span.finish(), 250);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 250);
        assert_eq!(hist.max(), 250);
    }

    #[test]
    fn span_survives_clock_going_backwards() {
        // A skewed or reset clock must not underflow the duration.
        let cell = Arc::new(AtomicU64::new(500));
        let clock = shared_clock_us(Arc::clone(&cell));
        let hist = Histogram::latency_us();
        let span = Span::start(&clock, &hist);
        cell.store(100, Ordering::SeqCst);
        assert_eq!(span.finish(), 0);
    }

    #[test]
    fn dropped_span_still_records() {
        // Regression: an early-return error path that drops the span must
        // not lose the latency sample.
        let cell = Arc::new(AtomicU64::new(10));
        let clock = shared_clock_us(Arc::clone(&cell));
        let hist = Histogram::latency_us();
        {
            let _span = Span::start(&clock, &hist);
            cell.store(85, Ordering::SeqCst);
            // dropped without finish()
        }
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 75);
    }
}
