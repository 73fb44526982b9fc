//! In-memory spans and the counting allocator of the traced pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;

/// Where traces and child-run files go: `out/` beside the benchmark's
/// manifest (`cargo run` exports the directory; the compile-time value
/// serves a binary started by hand).
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("out")
}

/// One recorded span: a call into a layer, made from the benchmark's
/// own files.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`NO_PARENT`] if none).
    pub parent: u32,
    /// Negotiation the call served (organizer, seq), if any.
    pub nego: Option<(u32, u32)>,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ duration minus the part child spans cover, ns.
    pub self_ns: u64,
}

/// "No parent" in [`Span::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// Span recorder: spans stay in memory until [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    /// Span names, indexed by [`Span::name`].
    pub names: Vec<&'static str>,
    /// Every recorded span, in recording order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The tracer's clock, ns since its epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Registers a span name (once, ahead of the hot path); returns the
    /// index `record` takes.
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a finished span caused by span `parent`; returns its index.
    /// Adjacent spans may share a clock reading, so a callback and the
    /// dispatch work that follows it cost three readings, not four.
    pub fn record(
        &mut self,
        name: u16,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        nego: Option<(u32, u32)>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            nego,
        });
        (self.spans.len() - 1) as u32
    }

    /// Calls, total and self time per span name. A span's self time is
    /// its duration minus the part of that interval its child spans
    /// cover; a child that ran after its cause ended covers none of it.
    pub fn totals(&self) -> Vec<(&'static str, NameTotal)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let from = s.start_ns.max(p.start_ns);
                let to = s.end_ns.min(p.end_ns);
                child_ns[s.parent as usize] += to.saturating_sub(from);
            }
        }
        let mut totals = vec![NameTotal::default(); self.names.len()];
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let t = &mut totals[s.name as usize];
            let dur = s.end_ns.saturating_sub(s.start_ns);
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*children);
        }
        self.names.iter().copied().zip(totals).collect()
    }

    /// Wall of one `now_ns` + `record` pair, ns, measured here and now
    /// on a scratch recorder: what tracing adds per span.
    pub fn span_cost_ns() -> f64 {
        let mut scratch = Tracer::new();
        let n = 200_000u32;
        let name = scratch.name("calibration");
        scratch.spans.reserve(n as usize);
        let t0 = Instant::now();
        let mut last = scratch.now_ns();
        for i in 0..n {
            let now = scratch.now_ns();
            scratch.record(name, last, now, NO_PARENT, Some((i, i)));
            last = now;
        }
        std::hint::black_box(&scratch.spans);
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(n)
    }

    /// Writes the spans as `{"names": [...], "spans": [[name, start_ns,
    /// end_ns, parent, organizer, seq], ...]}` (−1 for "none").
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names = Json::Arr(self.names.iter().map(|n| Json::str(*n)).collect());
        writeln!(f, "{{\"names\": {names},")?;
        writeln!(
            f,
            "\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"nego_organizer\", \"nego_seq\"],"
        )?;
        writeln!(f, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let (org, seq) = s
                .nego
                .map_or((-1, -1), |(o, q)| (i64::from(o), i64::from(q)));
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "[{}, {}, {}, {parent}, {org}, {seq}]{comma}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Allocation counters read by the traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    /// Allocations (including the new block of every `realloc`).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live bytes seen.
    pub peak_live: u64,
}

impl AllocCounts {
    /// Adds another counted leg; the peak is the higher of the two.
    pub fn add(&mut self, other: &AllocCounts) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.peak_live = self.peak_live.max(other.peak_live);
    }
}

/// The system allocator with counters that are only updated while
/// switched on, so the untraced pass pays one relaxed load per call.
/// Switch it on only around single-threaded work.
pub struct CountingAlloc {
    on: AtomicBool,
    count: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak_live: AtomicU64,
}

impl CountingAlloc {
    /// Counters at zero, switched off.
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            on: AtomicBool::new(false),
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak_live: AtomicU64::new(0),
        }
    }

    /// Zeroes the counters and switches counting on.
    pub fn start(&self) {
        for c in [&self.count, &self.bytes, &self.live, &self.peak_live] {
            c.store(0, Ordering::Relaxed);
        }
        self.on.store(true, Ordering::Relaxed);
    }

    /// Switches counting off and returns the counters.
    pub fn stop(&self) -> AllocCounts {
        self.on.store(false, Ordering::Relaxed);
        AllocCounts {
            count: self.count.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            peak_live: self.peak_live.load(Ordering::Relaxed),
        }
    }

    // The counters are statistics that publish no other data: Relaxed.
    // They are updated by load-then-store, not by atomic read-modify-
    // write: the counted legs are single-threaded, where the two are the
    // same, and a locked instruction on every allocation would slow the
    // leg being counted by a fifth. Concurrent allocations while counting
    // is on could lose counts, never memory safety.
    fn grew(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            let add = |c: &AtomicU64, n: u64| {
                let v = c.load(Ordering::Relaxed) + n;
                c.store(v, Ordering::Relaxed);
                v
            };
            add(&self.count, 1);
            add(&self.bytes, size as u64);
            let live = add(&self.live, size as u64);
            if live > self.peak_live.load(Ordering::Relaxed) {
                self.peak_live.store(live, Ordering::Relaxed);
            }
        }
    }

    fn shrank(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            // Blocks allocated before `start` may be freed after it.
            let live = self.live.load(Ordering::Relaxed);
            self.live
                .store(live.saturating_sub(size as u64), Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrank(layout.size());
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.shrank(layout.size());
        self.grew(new_size);
        // SAFETY: `ptr` was returned by `System` for this `layout`, and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_the_interval_children_cover() {
        let mut t = Tracer::new();
        let (n_outer, n_inner, n_after) = (t.name("outer"), t.name("inner"), t.name("after"));
        assert_eq!(t.name("inner"), n_inner);
        let outer = t.record(n_outer, 0, 100, NO_PARENT, None);
        t.record(n_inner, 10, 30, outer, Some((3, 1)));
        t.record(n_inner, 40, 90, outer, None);
        // Caused by `outer` but run after it ended: covers none of it.
        t.record(n_after, 100, 150, outer, None);
        let find = |name: &str| {
            t.totals()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, total)| total)
                .unwrap()
        };
        let (o, i, a) = (find("outer"), find("inner"), find("after"));
        assert_eq!((o.calls, o.total_ns, o.self_ns), (1, 100, 30));
        assert_eq!((i.calls, i.total_ns, i.self_ns), (2, 70, 70));
        assert_eq!((a.calls, a.total_ns, a.self_ns), (1, 50, 50));
        assert_eq!(t.spans[1].nego, Some((3, 1)));
    }
}
