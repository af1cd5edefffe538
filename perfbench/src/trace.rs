//! In-memory spans around the benchmark's calls into the engine.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! query or record it served. Spans stay in memory until the run ends; the
//! per-layer timings and self times are derived from them afterwards. A
//! disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer boundary the span times, e.g. `pipeline.search`.
    pub name: &'static str,
    /// The query index or record index the span served.
    pub key: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An open span; hand it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    start: Option<Instant>,
}

impl Open {
    /// The id children should name as their parent (`None` when tracing is
    /// off).
    pub fn id(&self) -> Option<u32> {
        self.start.map(|_| self.id)
    }
}

/// Span recorder shared by the benchmark's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span.
    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open { id: 0, start: None };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start: Some(Instant::now()),
        }
    }

    /// Ends a span. The name is given at the end so a caller can name the
    /// span after what the call turned out to do.
    pub fn close(&self, open: Open, name: &'static str, parent: Option<u32>, key: usize) {
        let Some(start) = open.start else {
            return;
        };
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent,
            name,
            key: key as u64,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Durations in seconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time of every span, in seconds, grouped by span name: each span's
/// duration minus the part of it that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            // Union of the child intervals, clipped to the parent.
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
        }
        by_name
            .entry(s.name)
            .or_insert_with(Vec::new)
            .push((s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9);
    }
    by_name
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.key, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "snapshot", 10, 20),
            span(2, Some(0), "search", 30, 90),
            // Overlaps the previous child: counted once.
            span(3, Some(0), "search", 80, 95),
        ];
        let t = self_times(&spans);
        let close = |got: &[f64], want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-15)
        };
        assert!(close(&t["query"], &[25e-9]), "{t:?}");
        assert!(close(&t["search"], &[60e-9, 15e-9]), "{t:?}");
        assert!(close(&t["snapshot"], &[10e-9]), "{t:?}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open();
        assert_eq!(s.id(), None);
        t.close(s, "x", None, 0);
        assert!(t.spans().is_empty());

        let t = Tracer::new(true);
        let outer = t.open();
        let inner = t.open();
        t.close(inner, "inner", outer.id(), 7);
        t.close(outer, "outer", None, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
