//! The benchmark's own instrumentation, entirely outside the program:
//! a timer around every call into a layer and, in a traced run, a span
//! per call with the obs-registry counter deltas and allocator bytes
//! taken at the same boundaries.
//!
//! Untraced calls cost one `Instant` pair. Traced calls also snapshot
//! the global registry — the same counters `/metrics` exports — and
//! keep the span in memory until [`write_spans`] runs at the end.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, unit id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Counts bytes allocated while tracing is on; otherwise a plain
/// pass-through to the system allocator.
pub struct CountingAlloc;

// SAFETY: every call defers to the system allocator with the caller's
// layout and pointer unchanged; the counter is a lock-free atomic that
// never allocates, and `Relaxed` suffices because it publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACING.load(Ordering::Relaxed) {
            // Only growth is new memory; shrinking allocates nothing.
            let grown = new_size.saturating_sub(layout.size());
            ALLOC_BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

fn clock() -> &'static Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now)
}

pub fn set_tracing(on: bool) {
    clock();
    TRACING.store(on, Ordering::Relaxed);
}

pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One recorded call. `name` is `layer:call`; the unit id is shared by
/// every span of one iteration, round or query walk.
struct Span {
    id: u64,
    parent: u64,
    unit: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counters: BTreeMap<&'static str, u64>,
    alloc_bytes: u64,
}

/// What one call cost, seen from outside.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    pub secs: f64,
    /// Registry counter increments over the call (traced runs only).
    pub counters: BTreeMap<&'static str, u64>,
    /// Bytes allocated during the call by any thread (traced runs only).
    pub alloc_bytes: u64,
}

impl Delta {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Every registry counter's current value.
pub fn counters() -> BTreeMap<&'static str, u64> {
    ariadne_obs::registry()
        .snapshot()
        .samples
        .into_iter()
        .filter_map(|s| match s.value {
            ariadne_obs::metrics::SampleValue::Counter(v) => Some((s.name, v)),
            _ => None,
        })
        .collect()
}

/// Bytes allocated while tracing was on, since the process started.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

/// Time `f` as one call of `name` (`layer:call`). In a traced run the
/// call becomes a span under the innermost open span of this thread.
pub fn call<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Delta) {
    if !tracing() {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        return (
            out,
            Delta {
                secs,
                ..Delta::default()
            },
        );
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, unit) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
    STACK.with(|s| s.borrow_mut().push((id, if unit == 0 { id } else { unit })));
    let before = counters();
    let alloc_before = ALLOC_BYTES.load(Ordering::Relaxed);
    let start_ns = now_ns();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let end_ns = now_ns();
    let alloc_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - alloc_before;
    let after = counters();
    STACK.with(|s| s.borrow_mut().pop());
    let counters: BTreeMap<&'static str, u64> = after
        .into_iter()
        .filter_map(|(k, v)| {
            let d = v.saturating_sub(before.get(k).copied().unwrap_or(0));
            (d > 0).then_some((k, d))
        })
        .collect();
    SPANS
        .lock()
        .expect("span sink poisoned by a panicking thread")
        .push(Span {
            id,
            parent,
            unit: if unit == 0 { id } else { unit },
            name,
            start_ns,
            end_ns,
            counters: counters.clone(),
            alloc_bytes,
        });
    (
        out,
        Delta {
            secs,
            counters,
            alloc_bytes,
        },
    )
}

/// Self time per layer and the unattributed remainder over the traced
/// units (spans named `bench:*` with no parent).
pub struct Attribution {
    /// Summed wall time of the traced units.
    pub wall_s: f64,
    /// Self time per layer (the part of `layer:call` spans not covered
    /// by child spans), summed over the traced units.
    pub layers: BTreeMap<String, f64>,
    /// Wall time of the units not covered by any layer span: the
    /// benchmark's own glue plus anything the layers did not account for.
    pub residual_s: f64,
}

pub fn attribution() -> Attribution {
    let spans = SPANS
        .lock()
        .expect("span sink poisoned by a panicking thread");
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 * 1e-9;
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_time.entry(s.parent).or_default() += dur(s);
    }
    let units: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with("bench:"))
        .map(|s| s.id)
        .collect();
    let mut out = Attribution {
        wall_s: 0.0,
        layers: BTreeMap::new(),
        residual_s: 0.0,
    };
    for s in spans.iter().filter(|s| units.contains(&s.unit)) {
        let self_s = (dur(s) - child_time.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        if s.parent == 0 {
            out.wall_s += dur(s);
            out.residual_s += self_s;
        } else {
            let layer = s.name.split(':').next().unwrap_or(s.name);
            *out.layers.entry(layer.to_string()).or_default() += self_s;
        }
    }
    out
}

/// Write every recorded span as one JSON object per line, after a first
/// line holding the run conditions.
pub fn write_spans(path: &Path, conditions: &str) -> std::io::Result<()> {
    let spans = SPANS
        .lock()
        .expect("span sink poisoned by a panicking thread");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"conditions\":{conditions}}}")?;
    for s in spans.iter() {
        let counters: Vec<String> = s
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"unit\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"alloc_bytes\":{},\"counters\":{{{}}}}}",
            s.id,
            s.parent,
            s.unit,
            s.name,
            s.start_ns,
            s.end_ns,
            s.alloc_bytes,
            counters.join(",")
        )?;
    }
    out.flush()
}
