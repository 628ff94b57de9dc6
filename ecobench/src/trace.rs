//! In-memory spans, exact counters and the counting allocator of the
//! traced run.
//!
//! Nothing inside ecoDB is instrumented, so spans are recorded from
//! the benchmark's own files around calls into each layer. An *op*
//! span wraps one end-to-end call (`core.try_trace_sql`,
//! `server.serve`, `core.recover`); its children are *shadow* calls
//! into the inner layers, made on the same input next to it (see
//! `layers.rs`). A layer's self time is its span's duration minus the
//! durations of its children. With tracing off every method is a
//! branch on `enabled` and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The span and counter store of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans (and adopted parents), innermost last.
    stack: Vec<usize>,
    next_op: u64,
    /// Exact counters; they accumulate only while `counting` so that
    /// they cover a fixed set of rounds and repeat for a given seed.
    counts: BTreeMap<&'static str, f64>,
    counting: bool,
    /// Wall clock of the current round (tracing off) or the sum of its
    /// op spans (tracing on, which leaves the shadow calls out).
    round_start: Instant,
    round_op_ns: u64,
    /// The open top-level span is an aside, not an op.
    aside: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let now = Instant::now();
        Self {
            enabled,
            origin: now,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            counts: BTreeMap::new(),
            counting: false,
            round_start: now,
            round_op_ns: 0,
            aside: false,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span. A span opened with
    /// nothing open is an op: it gets a fresh `op_id` and the counting
    /// allocator runs for its duration.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let parent = self.stack.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p].op_id,
            None => {
                self.next_op += 1;
                ALLOC_ON.store(!self.aside, Relaxed);
                self.next_op
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        if self.stack.is_empty() {
            ALLOC_ON.store(false, Relaxed);
            if !std::mem::take(&mut self.aside) {
                self.round_op_ns += self.spans[id].duration_ns();
            }
        }
    }

    /// Open a top-level span that is not an op: shadow work with no
    /// end-to-end call to hang under. It counts neither as round time
    /// nor towards the allocation counters.
    pub fn begin_aside(&mut self, name: &'static str) -> SpanId {
        assert!(self.stack.is_empty(), "an aside is a top-level span");
        self.aside = self.enabled;
        self.begin(name)
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Make a closed span the parent of the spans opened until
    /// [`Self::release`] — how shadow calls attach to the op they
    /// explain. The allocator stays off: shadows are not the program.
    pub fn adopt(&mut self, parent: SpanId) {
        if let Some(p) = parent {
            self.stack.push(p);
        }
    }

    /// Undo [`Self::adopt`].
    pub fn release(&mut self, parent: SpanId) {
        if let Some(p) = parent {
            assert_eq!(self.stack.pop(), Some(p), "release matches adopt");
        }
    }

    /// Switch the exact counters on for the rounds that always run.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on && self.enabled;
    }

    /// Add to an exact counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.counting {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Record an exact value that does not depend on which rounds ran
    /// (last write wins).
    pub fn set(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.counts.insert(name, v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den` of two counters, 0 when the denominator is.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.counter(den);
        if d == 0.0 {
            0.0
        } else {
            self.counter(num) / d
        }
    }

    /// Start timing a round.
    pub fn round_begin(&mut self) {
        self.round_op_ns = 0;
        self.round_start = Instant::now();
    }

    /// Host nanoseconds of the round: wall clock with tracing off, the
    /// sum of its op spans with tracing on.
    pub fn round_end(&mut self) -> u64 {
        if self.enabled {
            self.round_op_ns
        } else {
            self.round_start.elapsed().as_nanos() as u64
        }
    }

    /// Mean duration in nanoseconds of the spans called `name`
    /// (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        mean(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration_ns),
        )
    }

    /// Mean self time in nanoseconds — duration minus children — of
    /// the spans called `name` that have children. A span nothing was
    /// recorded under (a cold scan has no warm shadow) says nothing
    /// about where its time went, so it is left out.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        // One pass to sum children per parent keeps this linear.
        let mut child_ns: Vec<Option<u64>> = vec![None; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns[p].get_or_insert(0) += s.duration_ns();
            }
        }
        mean(
            self.spans
                .iter()
                .zip(&child_ns)
                .filter_map(|(s, children)| {
                    let children = (*children)?;
                    (s.name == name).then(|| s.duration_ns().saturating_sub(children))
                }),
        )
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        out.flush()
    }
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (sum, n) = values.fold((0u64, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

static ALLOC_ON: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that run only inside traced
/// op spans. With tracing off it adds one relaxed load per call.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        if ALLOC_ON.load(Relaxed) {
            ALLOC_COUNT.fetch_add(1, Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`,
        // with this `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested inside traced op spans so far.
pub fn alloc_totals() -> (u64, u64) {
    (ALLOC_COUNT.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(t: &mut Tracer, id: usize, start: u64, end: u64) {
        t.spans[id].start_ns = start;
        t.spans[id].end_ns = end;
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.end(op);
        t.adopt(op);
        let a = t.begin("a");
        let inner = t.begin("a.inner");
        t.end(inner);
        t.end(a);
        let b = t.begin("b");
        t.end(b);
        t.release(op);
        let (op, a, inner, b) = (op.unwrap(), a.unwrap(), inner.unwrap(), b.unwrap());
        fixed(&mut t, op, 0, 1_000);
        fixed(&mut t, a, 2_000, 2_400);
        fixed(&mut t, inner, 2_100, 2_200);
        fixed(&mut t, b, 2_500, 2_750);
        assert_eq!(t.mean_self_ns("op"), (1_000 - 400 - 250) as f64);
        assert_eq!(t.mean_self_ns("a"), 300.0);
        // Self times and leaf durations of the subtree sum back to the
        // op's duration.
        let leaves = t.mean_ns("a.inner") + t.mean_ns("b");
        assert_eq!(t.mean_self_ns("op") + t.mean_self_ns("a") + leaves, 1_000.0);
        // A span without children has no self time to report.
        assert_eq!(t.mean_self_ns("b"), 0.0);
        assert_eq!(t.mean_ns("a"), 400.0);
        assert_eq!(t.mean_ns("missing"), 0.0);
        // Shadows share the op's identifier; a new op gets a new one.
        assert!(t.spans().iter().all(|s| s.op_id == 1));
        let next = t.begin("op");
        t.end(next);
        assert_eq!(t.spans()[next.unwrap()].op_id, 2);
        assert_eq!(t.spans()[a].parent, Some(op));
        assert_eq!(t.spans()[inner].parent, Some(a));
        // The childless second "op" does not dilute the mean.
        assert_eq!(t.mean_self_ns("op"), 350.0);
    }

    #[test]
    fn children_longer_than_their_parent_clamp_to_zero() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.end(op);
        t.adopt(op);
        let a = t.begin("a");
        t.end(a);
        t.release(op);
        fixed(&mut t, op.unwrap(), 0, 100);
        fixed(&mut t, a.unwrap(), 200, 500);
        assert_eq!(t.mean_self_ns("op"), 0.0);
    }

    #[test]
    fn an_aside_is_neither_round_time_nor_an_op() {
        let mut t = Tracer::new(true);
        t.round_begin();
        let op = t.begin("op");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(op);
        let aside = t.begin_aside("aside");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(aside);
        assert_eq!(t.spans()[inner.unwrap()].parent, aside);
        // The round is the op alone.
        assert_eq!(t.round_end(), t.spans()[op.unwrap()].duration_ns());
        // The span after an aside is an op again.
        let next = t.begin("op");
        t.end(next);
        assert!(t.round_end() > t.spans()[op.unwrap()].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.set_counting(true);
        let id = t.begin("op");
        t.count("n", 3.0);
        t.end(id);
        assert_eq!(id, None);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("n"), 0.0);
    }

    #[test]
    fn counters_cover_only_the_counting_rounds() {
        let mut t = Tracer::new(true);
        t.count("n", 1.0);
        t.set_counting(true);
        t.count("n", 2.0);
        t.count("d", 4.0);
        t.set_counting(false);
        t.count("n", 8.0);
        assert_eq!(t.counter("n"), 2.0);
        assert_eq!(t.ratio("n", "d"), 0.5);
        assert_eq!(t.ratio("n", "zero"), 0.0);
    }
}
