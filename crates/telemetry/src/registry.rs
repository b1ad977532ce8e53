//! The metrics registry and its deterministic text exporter.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Components either ask the registry for a handle
/// ([`Registry::counter`] is get-or-create) or build a handle privately
/// and publish it under a name ([`Registry::adopt_counter`]) — the latter
/// lets a struct own its counters while still exporting them.
///
/// Wrapped in an `Arc`, one registry can serve a whole deployment;
/// [`Registry::render`] then exports every metric in sorted order, so the
/// output is a deterministic function of the recorded values.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry behind an `Arc`, ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        match self.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Get or create the counter `name`. If `name` is already registered
    /// as a different kind, a detached counter is returned (recorded
    /// values stay readable through the original handle) — misuse is
    /// survivable, never a panic.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get or create the gauge `name` (same kind-mismatch policy as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get or create the histogram `name` with the default latency
    /// buckets (same kind-mismatch policy as [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::latency_us()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::latency_us(),
        }
    }

    /// Publish an existing counter handle under `name` (replacing any
    /// previous metric of that name). The caller keeps its handle; both
    /// see the same value.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.lock()
            .insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// Value of counter `name`, 0 when absent (convenience for stats
    /// views).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.lock().get(name) {
            Some(Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Every registered counter as `(name, value)`, sorted by name — the
    /// enumeration the `MonService` `StatSnapshot` frame is built from.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Counter(c) => Some((name.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Every registered gauge as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.lock()
            .iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Gauge(g) => Some((name.clone(), g.get())),
                _ => None,
            })
            .collect()
    }

    /// Every registered histogram as `(name, handle)`, sorted by name.
    /// The handles share storage with the registered metrics.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.lock()
            .iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Histogram(h) => Some((name.clone(), h.clone())),
                _ => None,
            })
            .collect()
    }

    /// Export every metric as Prometheus-style text lines, sorted by
    /// name. Counters render as `name value`; histograms render
    /// cumulative `name_bucket{le="..."}` lines plus `_sum`, `_count`,
    /// and `_max`. The output is deterministic: equal recorded values
    /// produce byte-identical text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.lock().iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (bound, count) in h.buckets() {
                        cumulative += count;
                        match bound {
                            Some(b) => {
                                let _ =
                                    writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                            }
                            None => {
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{{le=\"+Inf\"}} {cumulative}"
                                );
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                    let _ = writeln!(out, "{name}_max {}", h.max());
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_get_or_create() {
        let r = Registry::new();
        r.counter("a_total").inc();
        r.counter("a_total").inc();
        assert_eq!(r.counter_value("a_total"), 2);
    }

    #[test]
    fn adopt_exports_a_private_handle() {
        let r = Registry::new();
        let mine = Counter::new();
        mine.add(3);
        r.adopt_counter("mine_total", &mine);
        mine.inc();
        assert_eq!(r.counter_value("mine_total"), 4);
        assert!(r.counter("mine_total").same_storage(&mine));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle_not_panic() {
        let r = Registry::new();
        r.counter("x").inc();
        let h = r.histogram("x");
        h.record(5);
        // The registered counter is untouched; the detached histogram
        // works but is not exported.
        assert_eq!(r.counter_value("x"), 1);
        assert!(!r.render().contains("x_bucket"));
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("zz_total").add(2);
            r.counter("aa_total").add(1);
            r.histogram("lat_us").record(7);
            r.gauge("depth").set(-3);
            r.render()
        };
        let a = build();
        assert_eq!(a, build());
        let aa = a.find("aa_total").expect("aa present");
        let zz = a.find("zz_total").expect("zz present");
        assert!(aa < zz, "sorted order");
        assert!(a.contains("depth -3"));
        assert!(a.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(a.contains("lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("lat_us_sum 7"));
        assert!(a.contains("lat_us_count 1"));
        assert!(a.contains("lat_us_max 7"));
    }

    #[test]
    fn enumerators_return_sorted_typed_views() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").add(1);
        r.gauge("depth").set(-3);
        r.histogram("lat_us").record(7);
        assert_eq!(
            r.counters(),
            vec![("a_total".to_string(), 1), ("b_total".to_string(), 2)]
        );
        assert_eq!(r.gauges(), vec![("depth".to_string(), -3)]);
        let hists = r.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "lat_us");
        // The enumerated handle shares storage with the registered one.
        hists[0].1.record(9);
        assert_eq!(r.histogram("lat_us").count(), 2);
    }

    #[test]
    fn histogram_bucket_lines_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("h");
        h.record(1);
        h.record(2);
        h.record(100_000_000); // overflow
        let text = r.render();
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"2\"} 2"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"));
    }
}
