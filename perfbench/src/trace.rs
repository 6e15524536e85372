//! Outside-in spans: the benchmark wraps each call it makes into a
//! layer in a named span. Spans stay in memory and are written out as
//! JSON lines when the run ends.
//!
//! A disabled [`Tracer`] reads no clock and records nothing, so the
//! untraced run that yields the end-to-end metrics pays only a branch
//! per call site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run; parents have smaller ids than children.
    pub id: u64,
    /// The span this one was opened under.
    pub parent: Option<u64>,
    /// Layer call, e.g. `sim.launch`.
    pub name: &'static str,
    /// Kernel the call worked on.
    pub kernel: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans from any thread.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for the run `run_id`; `enabled = false` records nothing.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (`None` when disabled) to parent its children.
    pub fn span<T>(
        &self,
        name: &'static str,
        kernel: &str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            kernel: kernel.to_string(),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Seconds one empty span costs, measured over `n` spans recorded
    /// into a scratch tracer.
    pub fn cost_per_span(n: u32) -> f64 {
        let scratch = Tracer::new(true, 0);
        let t = Instant::now();
        for _ in 0..n {
            scratch.span("calibrate", "", None, |_| ());
        }
        t.elapsed().as_secs_f64() / f64::from(n.max(1))
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":\"{:016x}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"kernel\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                self.run_id, s.id, parent, s.name, s.kernel, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (which may overlap, as spans on parallel threads do).
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time in seconds: its duration minus the part of it
/// that its direct children (found among `all`) cover.
pub fn self_secs<'a>(span: &Span, all: impl IntoIterator<Item = &'a Span>) -> f64 {
    let children: Vec<(u64, u64)> = all
        .into_iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    let covered = covered_ns(span.start_ns, span.end_ns, &children);
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            kernel: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        // Overlapping intervals (parallel children) count once.
        assert_eq!(covered_ns(0, 100, &[(10, 50), (20, 60), (55, 70)]), 60);
        // Parts outside the parent are clipped away.
        assert_eq!(covered_ns(50, 100, &[(0, 60), (90, 200)]), 20);
        assert_eq!(covered_ns(0, 100, &[(0, 100), (10, 20)]), 100);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, 0, 1_000),
            span(2, Some(1), 100, 400),
            span(3, Some(1), 300, 600),
            // A grandchild: already inside span 2, must not count twice.
            span(4, Some(2), 150, 200),
        ];
        let parent_self = self_secs(&spans[0], &spans);
        assert!((parent_self - 500e-9).abs() < 1e-15, "{parent_self}");
        let child_self = self_secs(&spans[1], &spans);
        assert!((child_self - 250e-9).abs() < 1e-15, "{child_self}");
        assert!((self_secs(&spans[3], &spans) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 1);
        let got = t.span("x", "k", None, |id| id);
        assert_eq!(got, None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents() {
        let t = Tracer::new(true, 7);
        t.span("outer", "k", None, |outer| {
            t.span("inner", "k", outer, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let line = t.to_jsonl();
        assert!(line.contains("\"run\":\"0000000000000007\""));
        assert_eq!(line.lines().count(), 2);
    }
}
