//! The E-series timing helper, used by the `experiments` binary.
//!
//! One measurement shape for every row EXPERIMENTS.md cites: state is built
//! outside the timing, the routine is timed once per sample, and the figure
//! reported is the median sample. kbench (`benchmark/`, a package of its own
//! that this workspace cannot import from) is the basis for performance
//! claims; this is the least that lets the per-experiment rows be
//! regenerated, and nothing else in the workspace times a closure.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Samples per [`time_median`] figure.
pub const SAMPLES: usize = 15;

/// The middle element of `samples` once sorted (the upper middle of an even
/// count; zero when empty).
pub fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied().unwrap_or_default()
}

/// Median over [`SAMPLES`] runs of `routine`, each on state a fresh `setup`
/// call builds outside the timing, divided by the `per` operations the
/// caller says one `routine` call performs.
pub fn time_median<S>(
    per: u32,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(&mut S),
) -> Duration {
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            routine(&mut state);
            start.elapsed() / per
        })
        .collect();
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_of_the_sorted_samples() {
        let ms = Duration::from_millis;
        assert_eq!(median(&mut [ms(9), ms(1), ms(5)]), ms(5));
        assert_eq!(median(&mut [ms(7)]), ms(7));
        // One outlier on either side does not move it.
        assert_eq!(median(&mut [ms(3), ms(1000), ms(2), ms(0), ms(4)]), ms(3));
        // Even count: the upper middle.
        assert_eq!(median(&mut [ms(4), ms(1), ms(3), ms(2)]), ms(3));
        assert_eq!(median(&mut []), Duration::ZERO);
    }

    #[test]
    fn setup_and_routine_each_run_once_per_sample() {
        let mut setups = 0usize;
        let mut seen = Vec::new();
        time_median(
            8,
            || {
                setups += 1;
                setups
            },
            |state| seen.push(*state),
        );
        assert_eq!(setups, SAMPLES);
        // Each routine call got the state its own setup call built.
        assert_eq!(seen, (1..=SAMPLES).collect::<Vec<_>>());
    }
}
