//! Injected microsecond clocks for span timing.
//!
//! The determinism contract (crate docs) hinges on this module: simulated
//! paths take their [`ClockUs`] from the simulation, never from the OS.
//! [`wall_clock_us`] is the one escape hatch, for real deployments and the
//! kbench harness (`benchmark/`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A microsecond time source. Shared by value (it is an `Arc`), so a
/// component and its telemetry spans can read the same clock.
pub type ClockUs = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A clock pinned to a constant (unit tests; spans read as zero-length).
pub fn fixed_clock_us(t: u64) -> ClockUs {
    Arc::new(move || t)
}

/// A clock backed by a shared atomic cell — the microsecond analogue of
/// the KDC's `shared_clock`, for discrete-event simulations that advance
/// time explicitly.
pub fn shared_clock_us(cell: Arc<AtomicU64>) -> ClockUs {
    Arc::new(move || cell.load(Ordering::SeqCst))
}

/// A deterministic self-advancing clock: every read moves time forward by
/// a pseudo-random step in `min_step..=max_step` microseconds, driven by a
/// seeded linear congruential generator. Two clocks built with the same
/// arguments return identical sequences, so a load loop timed with this
/// clock produces byte-identical histograms on every run — the simulated
/// stand-in for "how long did the handler take".
pub fn lcg_clock_us(seed: u64, min_step: u64, max_step: u64) -> ClockUs {
    let (lo, hi) = if min_step <= max_step {
        (min_step, max_step)
    } else {
        (max_step, min_step)
    };
    let state = Mutex::new((seed, 0u64));
    Arc::new(move || {
        let mut guard = match state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (ref mut lcg, ref mut now) = *guard;
        // Numerical Recipes LCG constants; quality is irrelevant, only
        // determinism matters.
        *lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let span = hi - lo + 1;
        let step = lo + (*lcg >> 33) % span;
        *now += step;
        *now
    })
}

/// Real elapsed time since the clock was built, via `std::time::Instant`.
///
/// **Not for simulated paths.** Anything driven by `SimNet` or a shared
/// clock cell must use one of the deterministic clocks above; this one is
/// for real deployments and the kbench harness (`benchmark/`), where the
/// point is to measure the hardware.
pub fn wall_clock_us() -> ClockUs {
    let origin = std::time::Instant::now();
    Arc::new(move || {
        u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clock_never_moves() {
        let c = fixed_clock_us(42);
        assert_eq!(c(), 42);
        assert_eq!(c(), 42);
    }

    #[test]
    fn shared_clock_follows_the_cell() {
        let cell = Arc::new(AtomicU64::new(5));
        let c = shared_clock_us(Arc::clone(&cell));
        assert_eq!(c(), 5);
        cell.store(9, Ordering::SeqCst);
        assert_eq!(c(), 9);
    }

    #[test]
    fn lcg_clock_is_monotone_and_bounded() {
        let c = lcg_clock_us(7, 10, 20);
        let mut prev = 0;
        for _ in 0..1000 {
            let t = c();
            let step = t - prev;
            assert!((10..=20).contains(&step), "step {step} out of range");
            prev = t;
        }
    }

    #[test]
    fn lcg_clock_is_reproducible() {
        let a = lcg_clock_us(99, 1, 1000);
        let b = lcg_clock_us(99, 1, 1000);
        let seq_a: Vec<u64> = (0..100).map(|_| a()).collect();
        let seq_b: Vec<u64> = (0..100).map(|_| b()).collect();
        assert_eq!(seq_a, seq_b);
        let other = lcg_clock_us(100, 1, 1000);
        let seq_c: Vec<u64> = (0..100).map(|_| other()).collect();
        assert_ne!(seq_a, seq_c, "different seeds diverge");
    }

    #[test]
    fn lcg_clock_tolerates_swapped_bounds_and_zero_width() {
        let c = lcg_clock_us(1, 5, 5);
        assert_eq!(c(), 5);
        assert_eq!(c(), 10);
        let d = lcg_clock_us(1, 20, 10);
        let t = d();
        assert!((10..=20).contains(&t));
    }

    #[test]
    fn wall_clock_moves_forward() {
        let c = wall_clock_us();
        let a = c();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c() > a);
    }
}
