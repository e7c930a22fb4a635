//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Nothing here reaches inside the library: a span brackets a public
//! call, a replay of one, or a `ShardBackend` call the benchmark's own
//! wrapper forwards. Spans are written out when the run ends.

use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name, interval in nanoseconds since the tracer's origin,
/// the span that caused it (0 = none) and the request it served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id, for a parent whose interval is recorded after its
    /// children.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated id.
    pub fn close(&self, id: u64, name: &'static str, parent: u64, req: u64, start: u64) {
        let end = self.now();
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Runs `f` inside a new span.
    pub fn span<T>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open();
        let start = self.now();
        let out = f();
        self.close(id, name, parent, req, start);
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking recorder"),
        )
    }
}

/// Total length covered by a set of intervals (overlaps counted once).
pub fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Spans grouped by parent id.
pub fn children(spans: &[Span]) -> HashMap<u64, Vec<Span>> {
    let mut by_parent: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans {
        by_parent.entry(s.parent).or_default().push(*s);
    }
    by_parent
}

/// Self time of `span`: its duration minus the part its children cover,
/// children clipped to the parent's interval.
pub fn self_time(span: &Span, kids: &[Span]) -> u64 {
    let iv = kids
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    span.dur().saturating_sub(covered(iv))
}

/// Spans written out per run, in whole top-level trees taken in start
/// order; the analysis uses every span, the file stays bounded.
const WRITTEN_SPANS: usize = 100_000;

/// Writes one JSON object per span (`name`, `id`, `parent`, `req`,
/// `start_ns`, `end_ns`) of the first top-level trees, up to
/// [`WRITTEN_SPANS`] spans.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let parent: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let top_of = |mut id: u64| {
        while let Some(&p) = parent.get(&id).filter(|&&p| p != 0) {
            id = p;
        }
        id
    };
    let mut size: HashMap<u64, usize> = HashMap::new();
    for s in spans {
        *size.entry(top_of(s.id)).or_default() += 1;
    }
    let mut tops: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    tops.sort_by_key(|s| s.start);
    let mut keep = HashSet::new();
    let mut total = 0;
    for t in tops {
        total += size[&t.id];
        if total > WRITTEN_SPANS {
            break;
        }
        keep.insert(t.id);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    for s in spans.iter().filter(|s| keep.contains(&top_of(s.id))) {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered(vec![]), 0);
    }

    #[test]
    fn self_time_clips_children() {
        let s = |start, end| Span {
            id: 0,
            parent: 0,
            req: 0,
            name: "x",
            start,
            end,
        };
        assert_eq!(
            self_time(&s(10, 110), &[s(0, 30), s(20, 40), s(100, 200)]),
            60
        );
    }
}
