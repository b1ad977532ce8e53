//! Percentiles, medians and the quiet-slice rule.

/// A percentile is reported only if at least this many samples lie beyond
/// it; otherwise the figure would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending-sorted sample,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort `samples` and take [`percentile`].
pub fn percentile_of(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    percentile(samples, p)
}

/// Median of a small set of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A figure read off many per-slice values, with a range as its spread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The figure.
    pub value: f64,
    /// Lower end of the range.
    pub min: f64,
    /// Upper end of the range.
    pub max: f64,
    /// Slices that contributed.
    pub n: usize,
}

/// The median of per-group values, with their quartiles as `min`/`max`.
///
/// This is how a 99th percentile is reported. A tail has no quiet level to
/// read: the interruptions of a shared box are themselves about one
/// exchange in a hundred, so every group's 99th percentile carries some,
/// and the luckiest group says more about luck than about the program.
pub fn median_of_groups(per_group: &[f64]) -> Option<Summary> {
    let value = median(per_group)?;
    let mut v = per_group.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |share: f64| v[((share * v.len() as f64) as usize).min(v.len() - 1)];
    Some(Summary {
        value,
        min: at(0.25),
        max: at(0.75),
        n: v.len(),
    })
}

/// Share of a run's slices that must be undisturbed for a quiet-slice
/// figure to read true.
pub const QUIET_SHARE: f64 = 0.01;

/// The quiet-slice figure: the value [`QUIET_SHARE`] of the way in from the
/// good end of the per-slice values (`higher_is_better` picks the end).
///
/// Interference on a shared box only ever slows a slice down, and it comes
/// in phases that can outlast a whole run, so a median over slices reads
/// the phase, not the program. The undisturbed slices are the ones that
/// repeat. Stepping in from the extreme keeps one freak slice from setting
/// the figure. `min`/`max` report the best slice and the one
/// `5 × QUIET_SHARE` in (the third best, with few slices): close together
/// when the quiet level is sharp.
pub fn quiet_level(per_slice: &[f64], higher_is_better: bool) -> Option<Summary> {
    if per_slice.is_empty() {
        return None;
    }
    let mut v = per_slice.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let at = |share: f64, floor: usize| {
        v[((share * v.len() as f64) as usize)
            .max(floor)
            .min(v.len() - 1)]
    };
    let (best, wide) = (v[0], at(5.0 * QUIET_SHARE, 2));
    Some(Summary {
        value: at(QUIET_SHARE, 0),
        min: best.min(wide),
        max: best.max(wide),
        n: v.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_level_reads_the_undisturbed_end() {
        // 1 000 slices: 300 quiet at ~10 µs, the rest disturbed at ~15 µs,
        // one freak reading of 5.
        let mut latency: Vec<f64> = (0..300).map(|i| 10.0 + i as f64 * 0.001).collect();
        latency.extend((0..699).map(|i| 15.0 + i as f64 * 0.001));
        latency.push(5.0);
        let s = quiet_level(&latency, false).expect("slices");
        assert!((10.0..10.1).contains(&s.value), "{s:?}");
        assert_eq!((s.min, s.n), (5.0, 1000));
        assert!((10.0..10.1).contains(&s.max), "the 50th of 1 000: {s:?}");
        // Throughput: the good end is the high one.
        let rate: Vec<f64> = latency.iter().map(|l| 1000.0 / l).collect();
        let r = quiet_level(&rate, true).expect("slices");
        assert!((99.0..100.1).contains(&r.value), "{r:?}");
        // A handful of slices: the best one, and the third best as range.
        let few = quiet_level(&[3.0, 1.0, 2.0, 4.0], false).expect("slices");
        assert_eq!((few.value, few.min, few.max), (1.0, 1.0, 3.0));
        assert_eq!(quiet_level(&[], false), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sample: Vec<u64> = (1..=20).collect();
        // p50 of 20 samples is rank 10, with exactly 10 beyond it.
        assert_eq!(percentile(&sample, 0.50), Some(10));
        // One sample fewer leaves only 9 beyond rank 10.
        assert_eq!(percentile(&sample[..19], 0.50), None);
        // p99 needs 1 000 samples: rank 990 leaves 10.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 0.99), Some(990));
        assert_eq!(percentile(&big[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_sorts_first() {
        let mut sample: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_of(&mut sample, 0.5), Some(50));
    }

    #[test]
    fn median_of_groups_takes_the_middle_and_keeps_the_quartiles() {
        let s = median_of_groups(&[5.0, 1.0, 9.0, 3.0, 4.0, 7.0, 8.0, 2.0]).expect("eight groups");
        assert_eq!(
            s,
            Summary {
                value: 4.5,
                min: 3.0,
                max: 8.0,
                n: 8
            }
        );
        assert_eq!(median_of_groups(&[]), None);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 4.0]), Some(4.0));
        // An even count averages the middle pair.
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
