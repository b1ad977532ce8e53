//! Spans recorded from outside the program: one around each call the
//! harness makes at a layer boundary, held in memory until the run ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One timed call: `(op id, name, parent, start_ns, end_ns)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// The operation this span belongs to (spans of one op share it).
    pub op: u32,
    /// Layer-qualified name, e.g. `netsim.rpc`.
    pub name: &'static str,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was switched on.
    pub start_ns: u64,
    /// End, same clock; 0 while the span is open.
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    op: u32,
}

struct Shared {
    /// Spans are recorded only while this is set, so that services wired
    /// up during set-up hold the handle but warm-up stays unrecorded.
    recording: AtomicBool,
    inner: Mutex<Inner>,
}

/// A handle onto the span buffer; clones share it. A tracer that is off
/// (every untraced run) or not yet started records nothing and costs one
/// branch per call.
///
/// The buffer is behind a mutex because the `udp_loopback` server handles
/// requests on `UdpServer`'s thread. The client blocks on every reply, so
/// the lock is never contended and the open-span stack stays well nested
/// across the two threads.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// A tracer that never records.
    pub fn off() -> Self {
        Tracer { shared: None }
    }

    /// A tracer with room for `capacity` spans; records from
    /// [`Tracer::start`] on.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                recording: AtomicBool::new(false),
                inner: Mutex::new(Inner {
                    origin: Instant::now(),
                    spans: Vec::with_capacity(capacity),
                    open: Vec::with_capacity(8),
                    op: 0,
                }),
            })),
        }
    }

    /// Whether this handle has a buffer at all (it may not have started).
    pub fn attached(&self) -> bool {
        self.shared.is_some()
    }

    /// Begin recording; span times count from now.
    pub fn start(&self) {
        if let Some(shared) = &self.shared {
            Self::lock(&shared.inner).origin = Instant::now();
            shared.recording.store(true, Ordering::SeqCst);
        }
    }

    /// The buffer, if spans are being recorded right now.
    fn recording(&self) -> Option<&Mutex<Inner>> {
        let shared = self.shared.as_ref()?;
        shared
            .recording
            .load(Ordering::SeqCst)
            .then_some(&shared.inner)
    }

    /// Whether spans are being recorded right now.
    pub fn enabled(&self) -> bool {
        self.recording().is_some()
    }

    fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
        // A panic while the lock is held aborts the run anyway; every
        // update leaves the buffer valid, so recover the guard.
        inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Tag subsequent spans with operation `op`.
    pub fn set_op(&self, op: u32) {
        if let Some(inner) = self.recording() {
            Self::lock(inner).op = op;
        }
    }

    /// Time `f` as a span called `name`, child of whichever span is open.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = self.recording() else {
            return f();
        };
        let index = {
            let mut g = Self::lock(inner);
            let index = g.spans.len() as u32;
            let rec = SpanRec {
                op: g.op,
                name,
                parent: g.open.last().copied(),
                start_ns: g.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            };
            g.spans.push(rec);
            g.open.push(index);
            index
        };
        let out = f();
        let mut g = Self::lock(inner);
        let end = g.origin.elapsed().as_nanos() as u64;
        g.spans[index as usize].end_ns = end;
        g.open.pop();
        out
    }

    /// Stop recording and take every span recorded so far.
    pub fn finish(&self) -> Vec<SpanRec> {
        match &self.shared {
            Some(shared) => {
                shared.recording.store(false, Ordering::SeqCst);
                std::mem::take(&mut Self::lock(&shared.inner).spans)
            }
            None => Vec::new(),
        }
    }
}

/// Self time of each span: its duration minus the part its children
/// cover. Children are nested inside their parent and do not overlap each
/// other (one client, blocking calls), so the covered part is their sum.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            op: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_the_children_cover() {
        let spans = vec![
            rec("client.tgs", None, 0, 100),
            rec("core.build_tgs_req", Some(0), 5, 25),
            rec("netsim.rpc", Some(0), 30, 80),
            rec("kdc.handle_tgs", Some(2), 40, 70),
        ];
        // root: 100 - (20 + 50); rpc: 50 - 30; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![30, 20, 20, 30]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_them_with_the_op() {
        let t = Tracer::new(8);
        assert_eq!(t.span("before start", || 0), 0);
        t.start();
        t.set_op(7);
        let out = t.span("outer", || {
            t.span("inner", || 1) + t.clone().span("sibling", || 2)
        });
        assert_eq!(out, 3);
        let spans = t.finish();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("sibling", Some(0), 7)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert!(
            !t.enabled() && t.finish().is_empty(),
            "finish stops and drains"
        );
    }

    #[test]
    fn a_disabled_tracer_runs_the_call_and_records_nothing() {
        let t = Tracer::off();
        assert!(!t.enabled());
        assert_eq!(t.span("anything", || 5), 5);
        assert!(t.finish().is_empty());
    }
}
