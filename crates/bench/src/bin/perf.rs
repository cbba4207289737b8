//! Performance harness: engine message plane (baseline vs capture) plus
//! layered offline replay.
//!
//! **Engine section.** Runs PageRank, SSSP and WCC on seeded R-MAT
//! graphs at a sweep of thread counts, in both baseline mode (combiners honoured) and capture mode (combiners
//! disabled, as a provenance-capture run requires). Reported per run:
//! supersteps/sec, messages/sec, payload bytes moved, peak buffered
//! bytes, allocator traffic (calls + bytes, via a counting global
//! allocator) and the engine's per-phase wall-time breakdown.
//!
//! **Layered section.** Captures SSSP with the full Table-1 spec once,
//! then replays the paper's apt query (§7) through [`LayeredConfig`] at
//! every CLI thread count with predicate pruning on, plus one unpruned
//! run at the top thread count. The harness cross-checks every parallel
//! run bit-for-bit against the single-threaded reference (results and
//! all replay counters) and verifies the pruned/unpruned byte
//! partition, so a published JSON is itself evidence of determinism.
//!
//! **Segments section.** Captures PageRank and SSSP with the full
//! Table-1 spec under each segment format — v1 row-major, v2 columnar,
//! v3 columnar + per-record LZ — and reports bytes-on-disk,
//! layered-replay read bytes, and the column blocks the backward-lineage
//! query's column masks skipped. Before anything is written the harness
//! asserts the replay result sets are bit-identical across all formats
//! and across thread counts 1/2/3/7, and that v2 shrinks the
//! full-capture PageRank store by at least 30%.
//!
//! **Spool section.** The same full SSSP capture spilled to an on-disk
//! spool under each format, the v3 spool compacted into an indexed
//! generation file, then the backward-lineage replay measured at
//! threads 1/2/3/7 under both read backends (buffered and mmap). Every
//! cell is pinned bit-for-bit to the v1/buffered/t=1 reference, and the
//! harness asserts the compacted v3 spool serves the replay with
//! strictly fewer bytes read than the v2 spool.
//!
//! **Latency section.** Replays the apt query repeatedly at threads
//! 1/2/3/7 and reports the per-query end-to-end latency distribution —
//! p50/p90/p99/max interpolated from the obs crate's power-of-two
//! histogram buckets ([`HistogramSnapshot::quantile`]) — with every
//! sample's results pinned bit-for-bit to the t=1 reference first.
//!
//! **Serve section.** Stands up an in-process [`QueryService`] (the
//! `ariadne-serve` daemon core) over the same full SSSP capture and
//! issues a sweep of backward-lineage queries with distinct `$alpha`
//! roots — distinct fingerprints, so the cold pass replays the store
//! per query — then re-issues the identical sweep warm against the
//! layer-replay cache. Before anything is written the harness asserts
//! every warm response was a cache hit that read zero store bytes
//! (counter-verified via `serve_replay_bytes_total`), and that walking
//! a paginated cursor chain reproduces the un-paged row sequence
//! bit-for-bit.
//!
//! **Mutations section.** Chains three mutation barriers (insert-only,
//! delete-heavy, mixed) through a [`MutableSession`] per analytic and
//! measures both re-execution paths against their cold baselines: the
//! result-only frontier re-run ([`MutableSession::rerun_incremental`])
//! vs a cold run — values asserted bit-identical first — and the
//! capture-grade epoch append ([`MutableSession::capture_epoch`]) vs
//! the bytes a full re-capture would have written
//! ([`EpochStats::cold_bytes`]). After the final epoch the live store's
//! logical database is asserted equal, predicate by predicate in sorted
//! order, to a cold capture of the mutated graph — the published JSON
//! is itself evidence of the no-ghost-provenance contract.
//!
//! ```text
//! cargo run --release -p ariadne-bench --bin perf -- \
//!     [--scale N] [--threads 1,2,4,8] [--reps R] [--out BENCH_pr10.json] [--quick]
//! ```
//!
//! The output schema is documented in `EXPERIMENTS.md` ("BENCH_pr10.json").
//!
//! [`MutableSession`]: ariadne::MutableSession
//! [`MutableSession::rerun_incremental`]: ariadne::MutableSession::rerun_incremental
//! [`MutableSession::capture_epoch`]: ariadne::MutableSession::capture_epoch
//! [`EpochStats::cold_bytes`]: ariadne_provenance::EpochStats::cold_bytes
//!
//! [`QueryService`]: ariadne_serve::QueryService
//!
//! [`HistogramSnapshot::quantile`]: ariadne_obs::metrics::HistogramSnapshot::quantile

use ariadne::session::Ariadne;
use ariadne::{queries, CaptureSpec, CompiledQuery, LayeredConfig, LayeredRun, MutableSession};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::{Csr, GraphDelta, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::{ProvEncode, ProvStore};
use ariadne_vc::{Engine, EngineConfig, IncrementalMode, RunMetrics, VertexProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// Wraps the system allocator and counts every allocation. The counters
/// are monotonic; callers diff snapshots around a region of interest.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counters are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // Count only the growth so realloc chains aren't double-counted.
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// One measured engine run.
struct Measurement {
    analytic: &'static str,
    mode: &'static str, // "baseline" | "capture"
    threads: usize,
    supersteps: u32,
    messages: usize,
    messages_delivered: usize,
    message_bytes: usize,
    buffered_messages: usize,
    buffered_bytes: usize,
    peak_buffered_bytes: usize,
    /// Per-phase wall time (ns) of the measured repetition.
    phase_compute_ns: u128,
    phase_combine_ns: u128,
    phase_scatter_ns: u128,
    phase_barrier_ns: u128,
    /// Best-of-reps wall time, seconds.
    secs: f64,
    /// Allocator calls during the measured (last) repetition.
    alloc_calls: u64,
    /// Allocator bytes requested during the measured repetition.
    alloc_bytes: u64,
}

impl Measurement {
    fn supersteps_per_sec(&self) -> f64 {
        self.supersteps as f64 / self.secs.max(1e-9)
    }
    fn messages_per_sec(&self) -> f64 {
        self.messages as f64 / self.secs.max(1e-9)
    }
}

/// Run `program` `reps` times; keep the best wall time and the last
/// repetition's metrics + allocator deltas (steady-state behaviour).
fn measure<P: VertexProgram>(
    analytic: &'static str,
    program: &P,
    graph: &Csr,
    mode: &'static str,
    threads: usize,
    reps: usize,
) -> Measurement {
    let config = EngineConfig {
        threads,
        use_combiner: mode == "baseline",
        ..EngineConfig::default()
    };
    let engine = Engine::new(config);

    let mut best = f64::INFINITY;
    let mut last_metrics: Option<RunMetrics> = None;
    let mut alloc_calls = 0u64;
    let mut alloc_bytes = 0u64;
    for _ in 0..reps.max(1) {
        let before = alloc_snapshot();
        let start = Instant::now();
        let result = engine.run(program, graph);
        let secs = start.elapsed().as_secs_f64();
        let after = alloc_snapshot();
        best = best.min(secs);
        alloc_calls = after.0 - before.0;
        alloc_bytes = after.1 - before.1;
        last_metrics = Some(result.metrics);
    }
    let m = last_metrics.expect("at least one repetition");
    let phases = m.phase_totals();
    Measurement {
        analytic,
        mode,
        threads,
        supersteps: m.num_supersteps(),
        messages: m.total_messages(),
        messages_delivered: m.total_messages_delivered(),
        message_bytes: m.total_message_bytes(),
        buffered_messages: m.total_buffered_messages(),
        buffered_bytes: m.total_buffered_bytes(),
        peak_buffered_bytes: m.peak_buffered_bytes(),
        phase_compute_ns: phases.compute.as_nanos(),
        phase_combine_ns: phases.combine.as_nanos(),
        phase_scatter_ns: phases.scatter.as_nanos(),
        phase_barrier_ns: phases.barrier.as_nanos(),
        secs: best,
        alloc_calls,
        alloc_bytes,
    }
}

// ---------------------------------------------------------------------
// Layered replay measurement
// ---------------------------------------------------------------------

/// One measured layered replay of the apt query over a captured store.
struct LayeredMeasurement {
    threads: usize,
    prune: bool,
    layers: u32,
    flush_rounds: u32,
    shipped_tuples: usize,
    injected_tuples: usize,
    evaluated_vertices: usize,
    segments_read: usize,
    segments_skipped: usize,
    bytes_read: usize,
    bytes_skipped: usize,
    phase_inject_ns: u64,
    phase_eval_ns: u64,
    phase_merge_ns: u64,
    /// Best-of-reps wall time, seconds.
    secs: f64,
    alloc_calls: u64,
    alloc_bytes: u64,
}

impl LayeredMeasurement {
    fn layers_per_sec(&self) -> f64 {
        self.layers as f64 / self.secs.max(1e-9)
    }
}

/// Run the layered replay `reps` times; keep the best wall time, the
/// last repetition's counters/allocator deltas, and the last
/// [`LayeredRun`] so the caller can cross-check results across
/// configurations.
fn measure_layered(
    ariadne: &Ariadne,
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    config: &LayeredConfig,
    reps: usize,
) -> (LayeredMeasurement, LayeredRun) {
    let mut best = f64::INFINITY;
    let mut alloc_calls = 0u64;
    let mut alloc_bytes = 0u64;
    let mut last: Option<LayeredRun> = None;
    for _ in 0..reps.max(1) {
        let before = alloc_snapshot();
        let start = Instant::now();
        let run = ariadne
            .layered_with(graph, store, query, config)
            .expect("layered replay");
        let secs = start.elapsed().as_secs_f64();
        let after = alloc_snapshot();
        best = best.min(secs);
        alloc_calls = after.0 - before.0;
        alloc_bytes = after.1 - before.1;
        last = Some(run);
    }
    let run = last.expect("at least one repetition");
    let m = LayeredMeasurement {
        threads: config.threads,
        prune: config.prune,
        layers: run.layers,
        flush_rounds: run.flush_rounds,
        shipped_tuples: run.shipped_tuples,
        injected_tuples: run.injected_tuples,
        evaluated_vertices: run.evaluated_vertices,
        segments_read: run.segments_read,
        segments_skipped: run.segments_skipped,
        bytes_read: run.bytes_read,
        bytes_skipped: run.bytes_skipped,
        phase_inject_ns: run.phase_inject_ns,
        phase_eval_ns: run.phase_eval_ns,
        phase_merge_ns: run.phase_merge_ns,
        secs: best,
        alloc_calls,
        alloc_bytes,
    };
    (m, run)
}

/// One thread count's per-query replay latency distribution, measured
/// over repeated end-to-end replays into a private obs histogram and
/// summarized by interpolated quantiles.
struct LatencyRow {
    threads: usize,
    samples: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: u64,
}

fn latency_json(r: &LatencyRow) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"threads\":{},\"samples\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
         \"max_ns\":{},\"mean_ns\":{}}}",
        r.threads, r.samples, r.p50_ns, r.p90_ns, r.p99_ns, r.max_ns, r.mean_ns,
    );
    s
}

/// One serve-phase cell: a sweep of distinct queries through the
/// [`ariadne_serve::QueryService`], cold (every query replays) or warm
/// (every query must hit the layer-replay cache).
struct ServeRow {
    phase: &'static str,
    queries: usize,
    rows: usize,
    replay_bytes_read: u64,
    cache_hits: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: u64,
}

fn serve_json(r: &ServeRow) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"phase\":\"{}\",\"queries\":{},\"rows\":{},\"replay_bytes_read\":{},\
         \"cache_hits\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{},\
         \"mean_ns\":{}}}",
        r.phase,
        r.queries,
        r.rows,
        r.replay_bytes_read,
        r.cache_hits,
        r.p50_ns,
        r.p90_ns,
        r.p99_ns,
        r.max_ns,
        r.mean_ns,
    );
    s
}

// ---------------------------------------------------------------------
// Mutation measurement (incremental re-execution + epoch deltas)
// ---------------------------------------------------------------------

/// One (analytic, batch kind) cell of the mutations section: a mutation
/// barrier committed through a [`MutableSession`], then both
/// re-execution paths measured against their cold baselines.
struct MutationRow {
    analytic: &'static str,
    /// Batch shape: "insert" | "delete" | "mixed".
    batch: &'static str,
    threads: usize,
    /// Which path [`ariadne_vc::Engine::run_incremental`] actually took.
    mode: &'static str, // "frontier" | "full_rerun"
    /// Vertices the taint closure reset to `init`.
    reset_vertices: usize,
    /// Vertices in the superstep-0 reseed frontier.
    activated_vertices: usize,
    inc_supersteps: u32,
    cold_supersteps: u32,
    /// Best-of-reps wall time of the incremental re-run, seconds.
    inc_secs: f64,
    /// Best-of-reps wall time of the cold re-run, seconds.
    cold_secs: f64,
    /// The store's mutation epoch after the append.
    epoch: u64,
    /// (layer, predicate) pairs carried forward without writing a byte.
    carried: usize,
    /// Pairs whose sorted suffix was appended (`~add~pred`).
    appended: usize,
    /// Pairs rewritten in full.
    replaced: usize,
    /// Pairs tombstoned (`~del~pred`).
    tombstoned: usize,
    /// Encoded bytes the epoch appended to the live store.
    bytes_appended: usize,
    /// Encoded bytes a full re-capture would have written.
    cold_bytes: usize,
}

impl MutationRow {
    fn speedup(&self) -> f64 {
        self.cold_secs / self.inc_secs.max(1e-9)
    }
    fn bytes_ratio(&self) -> f64 {
        self.bytes_appended as f64 / self.cold_bytes.max(1) as f64
    }
}

fn mutation_json(r: &MutationRow) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"analytic\":\"{}\",\"batch\":\"{}\",\"threads\":{},\"mode\":\"{}\",\
         \"reset_vertices\":{},\"activated_vertices\":{},\
         \"inc_supersteps\":{},\"cold_supersteps\":{},\
         \"inc_secs\":{},\"cold_secs\":{},\"speedup\":{},\
         \"epoch\":{},\"carried\":{},\"appended\":{},\"replaced\":{},\"tombstoned\":{},\
         \"bytes_appended\":{},\"cold_bytes\":{},\"bytes_ratio\":{}}}",
        r.analytic,
        r.batch,
        r.threads,
        r.mode,
        r.reset_vertices,
        r.activated_vertices,
        r.inc_supersteps,
        r.cold_supersteps,
        json_f64(r.inc_secs),
        json_f64(r.cold_secs),
        json_f64(r.speedup()),
        r.epoch,
        r.carried,
        r.appended,
        r.replaced,
        r.tombstoned,
        r.bytes_appended,
        r.cold_bytes,
        json_f64(r.bytes_ratio()),
    );
    s
}

const MUTATION_BATCHES: [&str; 3] = ["insert", "delete", "mixed"];

/// A deterministic mutation batch of `kind` against `csr`, sized to the
/// graph (~1% of edges inserted, half that removed) so the frontier is
/// a real but small fraction of the graph at every scale.
fn mutation_batch(csr: &Csr, kind: &str, seed: u64) -> GraphDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = csr.num_vertices() as u64;
    let adds = (csr.num_edges() / 100).clamp(8, 256);
    let mut delta = GraphDelta::new();
    if kind != "delete" {
        for _ in 0..adds {
            delta.add_edge(
                VertexId(rng.gen_range(0..n)),
                VertexId(rng.gen_range(0..n)),
                0.001 + rng.gen::<f64>(),
            );
        }
    }
    if kind != "insert" {
        let existing: Vec<(VertexId, VertexId, f64)> = csr.edges().collect();
        for _ in 0..adds / 2 {
            let (s, d, _) = existing[rng.gen_range(0..existing.len())];
            delta.remove_edge(s, d);
        }
    }
    delta
}

/// Chain the three batch kinds as successive mutation barriers over one
/// [`MutableSession`] + live [`ProvStore`], measuring each barrier's
/// incremental re-run vs a cold re-run (values asserted bit-identical)
/// and its epoch-append storage stats. After the final epoch, the live
/// store's logical database is asserted equal — per predicate, in
/// sorted order — to a cold capture of the mutated graph.
fn measure_mutations<P>(
    analytic: &'static str,
    program: &P,
    base: &Csr,
    threads: usize,
    reps: usize,
    rows: &mut Vec<MutationRow>,
) where
    P: VertexProgram,
    P::V: ProvEncode + PartialEq + std::fmt::Debug + Sync,
    P::M: ProvEncode,
{
    let spec = CaptureSpec::full();
    let session = Ariadne::with_threads(threads);
    let mut store = session
        .capture(program, base, &spec)
        .expect("mutations: base capture")
        .store;
    let mut s = MutableSession::new(session, base.clone());
    for (i, batch) in MUTATION_BATCHES.into_iter().enumerate() {
        let prev = s.baseline(program);
        s.mutate(mutation_batch(s.csr(), batch, 0xA51A + i as u64));
        s.commit();

        let mut inc_secs = f64::INFINITY;
        let mut inc = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let run = s
                .rerun_incremental(program, &prev.values)
                .expect("mutations: incremental re-run");
            inc_secs = inc_secs.min(start.elapsed().as_secs_f64());
            inc = Some(run);
        }
        let inc = inc.expect("at least one repetition");
        let mut cold_secs = f64::INFINITY;
        let mut cold = None;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            let run = s.baseline(program);
            cold_secs = cold_secs.min(start.elapsed().as_secs_f64());
            cold = Some(run);
        }
        let cold = cold.expect("at least one repetition");
        assert_eq!(
            inc.result.values, cold.values,
            "mutations {analytic} {batch}: incremental values diverge from cold"
        );

        let (_, stats) = s
            .capture_epoch(program, &spec, &mut store)
            .expect("mutations: epoch capture");
        assert_eq!(stats.epoch, (i + 1) as u64, "mutations {analytic} {batch}");
        rows.push(MutationRow {
            analytic,
            batch,
            threads,
            mode: match inc.mode {
                IncrementalMode::Frontier => "frontier",
                IncrementalMode::FullRerun => "full_rerun",
            },
            reset_vertices: inc.reset_vertices,
            activated_vertices: inc.activated_vertices,
            inc_supersteps: inc.result.metrics.num_supersteps(),
            cold_supersteps: cold.metrics.num_supersteps(),
            inc_secs,
            cold_secs,
            epoch: stats.epoch,
            carried: stats.carried,
            appended: stats.appended,
            replaced: stats.replaced,
            tombstoned: stats.tombstoned,
            bytes_appended: stats.bytes_appended,
            cold_bytes: stats.cold_bytes,
        });
    }
    // No-ghost check: after three epochs the live store reads exactly
    // like a cold capture of the final graph. Sorted per predicate —
    // multi-threaded captures ingest per-chunk buffers in arrival
    // order, so equivalence is over canonical layer content.
    let cold_db = Ariadne::with_threads(threads)
        .capture(program, s.csr(), &spec)
        .expect("mutations: cold reference capture")
        .store
        .to_database()
        .expect("mutations: cold database");
    let live_db = store.to_database().expect("mutations: live database");
    let names = |db: &ariadne_pql::Database| {
        let mut v: Vec<String> = db.iter().map(|(n, _)| n.to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(
        names(&live_db),
        names(&cold_db),
        "mutations {analytic}: predicate sets diverge from cold capture"
    );
    for name in names(&cold_db) {
        assert_eq!(
            live_db.sorted(&name),
            cold_db.sorted(&name),
            "mutations {analytic}: ghost or missing provenance in {name:?}"
        );
    }
}

/// Assert two layered runs agree on everything pruning is allowed to
/// leave unchanged: sorted result sets per IDB predicate and the round
/// structure. (Injection/evaluation volume legitimately shrinks when
/// unreferenced predicates are filtered out.)
fn assert_layered_equivalent(tag: &str, query: &CompiledQuery, a: &LayeredRun, b: &LayeredRun) {
    for pred in query.query().idbs.keys() {
        assert_eq!(
            a.query_results.sorted(pred),
            b.query_results.sorted(pred),
            "{tag}: result sets diverge on {pred:?}"
        );
    }
    assert_eq!(
        (a.layers, a.flush_rounds, a.shipped_tuples),
        (b.layers, b.flush_rounds, b.shipped_tuples),
        "{tag}: round structure diverges"
    );
}

/// Assert two layered runs are bit-identical on every surface a user
/// can observe: sorted result sets per IDB predicate and all replay
/// counters. Used to pin parallel runs to the t=1 reference.
fn assert_layered_identical(tag: &str, query: &CompiledQuery, a: &LayeredRun, b: &LayeredRun) {
    assert_layered_equivalent(tag, query, a, b);
    assert_eq!(
        (a.injected_tuples, a.evaluated_vertices, a.query_stats),
        (b.injected_tuples, b.evaluated_vertices, b.query_stats),
        "{tag}: evaluation counters diverge"
    );
}

// ---------------------------------------------------------------------
// Segment-format measurement (v1 row-major vs v2 columnar)
// ---------------------------------------------------------------------

/// One (analytic, segment format) cell of the segments section.
struct SegmentMeasurement {
    analytic: &'static str,
    format: &'static str, // "v1" | "v2" | "v3"
    /// Encoded store bytes after capture (memory + spool).
    store_bytes: usize,
    /// Decoded tuple count (identical across formats by construction).
    store_tuples: usize,
    /// Number of (superstep, predicate) segments.
    segments: usize,
    /// Encoded bytes the t=1 replay decoded.
    replay_bytes_read: usize,
    /// Column runs the replay's column masks skipped.
    replay_cols_skipped: usize,
    /// Encoded bytes of skipped v2 column blocks.
    replay_col_bytes_skipped: usize,
    /// Best-of-reps t=1 replay wall time, seconds.
    replay_secs: f64,
}

fn segment_json(m: &SegmentMeasurement) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"analytic\":\"{}\",\"format\":\"{}\",\"store_bytes\":{},\"store_tuples\":{},\
         \"segments\":{},\"replay_bytes_read\":{},\"replay_cols_skipped\":{},\
         \"replay_col_bytes_skipped\":{},\"replay_secs\":{}}}",
        m.analytic,
        m.format,
        m.store_bytes,
        m.store_tuples,
        m.segments,
        m.replay_bytes_read,
        m.replay_cols_skipped,
        m.replay_col_bytes_skipped,
        json_f64(m.replay_secs),
    );
    s
}

/// One (record format, read backend) cell of the spool section: a full
/// capture spilled to disk, replayed through the backward-lineage
/// query. The v3 cell is measured after compaction.
struct SpoolMeasurement {
    format: &'static str,  // "v1" | "v2" | "v3"
    backend: &'static str, // "buffered" | "mmap"
    /// Whether the spool was compacted before replay (v3 only).
    compacted: bool,
    /// On-disk bytes of every spool file (segments + manifest).
    spool_bytes: u64,
    /// Encoded bytes the t=1 replay read from the spool.
    replay_bytes_read: usize,
    /// Best-of-reps t=1 replay wall time, seconds.
    replay_secs: f64,
}

fn spool_json(m: &SpoolMeasurement) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"format\":\"{}\",\"backend\":\"{}\",\"compacted\":{},\"spool_bytes\":{},\
         \"replay_bytes_read\":{},\"replay_secs\":{}}}",
        m.format,
        m.backend,
        m.compacted,
        m.spool_bytes,
        m.replay_bytes_read,
        json_f64(m.replay_secs),
    );
    s
}

// ---------------------------------------------------------------------
// JSON (hand-rolled; the workspace is offline and carries no serde)
// ---------------------------------------------------------------------

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

fn layered_json(m: &LayeredMeasurement) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"threads\":{},\"prune\":{},\"layers\":{},\"flush_rounds\":{},\
         \"shipped_tuples\":{},\"injected_tuples\":{},\"evaluated_vertices\":{},\
         \"segments_read\":{},\"segments_skipped\":{},\"bytes_read\":{},\"bytes_skipped\":{},\
         \"phase_inject_ns\":{},\"phase_eval_ns\":{},\"phase_merge_ns\":{},\
         \"secs\":{},\"layers_per_sec\":{},\"alloc_calls\":{},\"alloc_bytes\":{}}}",
        m.threads,
        m.prune,
        m.layers,
        m.flush_rounds,
        m.shipped_tuples,
        m.injected_tuples,
        m.evaluated_vertices,
        m.segments_read,
        m.segments_skipped,
        m.bytes_read,
        m.bytes_skipped,
        m.phase_inject_ns,
        m.phase_eval_ns,
        m.phase_merge_ns,
        json_f64(m.secs),
        json_f64(m.layers_per_sec()),
        m.alloc_calls,
        m.alloc_bytes,
    );
    s
}

fn measurement_json(m: &Measurement) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"analytic\":\"{}\",\"plane\":\"flat\",\"mode\":\"{}\",\"threads\":{},\
         \"supersteps\":{},\"messages\":{},\"messages_delivered\":{},\"message_bytes\":{},\
         \"buffered_messages\":{},\"buffered_bytes\":{},\"peak_buffered_bytes\":{},\
         \"phase_compute_ns\":{},\"phase_combine_ns\":{},\"phase_scatter_ns\":{},\
         \"phase_barrier_ns\":{},\
         \"secs\":{},\"supersteps_per_sec\":{},\"messages_per_sec\":{},\
         \"alloc_calls\":{},\"alloc_bytes\":{}}}",
        m.analytic,
        m.mode,
        m.threads,
        m.supersteps,
        m.messages,
        m.messages_delivered,
        m.message_bytes,
        m.buffered_messages,
        m.buffered_bytes,
        m.peak_buffered_bytes,
        m.phase_compute_ns,
        m.phase_combine_ns,
        m.phase_scatter_ns,
        m.phase_barrier_ns,
        json_f64(m.secs),
        json_f64(m.supersteps_per_sec()),
        json_f64(m.messages_per_sec()),
        m.alloc_calls,
        m.alloc_bytes,
    );
    s
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

struct Cli {
    scale: u32,
    edge_factor: usize,
    threads: Vec<usize>,
    reps: usize,
    out: String,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        scale: 13,
        edge_factor: 16,
        threads: vec![1, 2, 4, 8],
        reps: 3,
        out: "BENCH_pr10.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => cli.scale = value("--scale").parse().expect("--scale: integer"),
            "--edge-factor" => {
                cli.edge_factor = value("--edge-factor").parse().expect("--edge-factor: integer")
            }
            "--threads" => {
                cli.threads = value("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads: comma-separated integers"))
                    .collect()
            }
            "--reps" => cli.reps = value("--reps").parse().expect("--reps: integer"),
            "--out" => cli.out = value("--out"),
            "--quick" => {
                cli.scale = 9;
                cli.edge_factor = 8;
                cli.threads = vec![1, 2];
                cli.reps = 1;
            }
            other => panic!(
                "unknown argument {other} (expected --scale/--edge-factor/--threads/--reps/--out/--quick)"
            ),
        }
    }
    assert!(!cli.threads.is_empty(), "--threads must name at least one count");
    cli
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

fn main() {
    let cli = parse_cli();

    eprintln!(
        "perf: rmat scale={} edge_factor={} threads={:?} reps={}",
        cli.scale, cli.edge_factor, cli.threads, cli.reps
    );
    let graph = rmat(RmatConfig {
        scale: cli.scale,
        edge_factor: cli.edge_factor,
        seed: 0xBE2C4,
        ..RmatConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let weighted = graph.map_weights(|_, _, _| 0.001 + rng.gen::<f64>());
    eprintln!(
        "perf: graph has {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let pagerank = PageRank {
        supersteps: 10,
        ..PageRank::default()
    };
    let sssp = Sssp::new(VertexId(0));
    let wcc = Wcc;

    let mut runs: Vec<Measurement> = Vec::new();
    for &threads in &cli.threads {
        for &mode in &["baseline", "capture"] {
            eprintln!("perf: threads={threads} mode={mode}");
            runs.push(measure(
                "pagerank", &pagerank, &graph, mode, threads, cli.reps,
            ));
            runs.push(measure("sssp", &sssp, &weighted, mode, threads, cli.reps));
            runs.push(measure("wcc", &wcc, &graph, mode, threads, cli.reps));
        }
    }

    // Cross-check: logical message traffic must not depend on the
    // thread count.
    for a in &runs {
        for b in &runs {
            if a.analytic == b.analytic && a.mode == b.mode {
                assert_eq!(
                    (a.supersteps, a.messages, a.message_bytes),
                    (b.supersteps, b.messages, b.message_bytes),
                    "thread counts {} and {} disagree on logical traffic for {} {}",
                    a.threads,
                    b.threads,
                    a.analytic,
                    a.mode
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Layered replay: capture SSSP once with the full Table-1 spec, then
    // replay the apt query at each thread count (pruned) plus one
    // unpruned run at the top thread count. Every parallel run is pinned
    // bit-for-bit to the single-threaded reference before anything is
    // written out.
    // -----------------------------------------------------------------
    let layered_scale = cli.scale.saturating_sub(2).max(6);
    let layered_graph = rmat(RmatConfig {
        scale: layered_scale,
        edge_factor: cli.edge_factor,
        seed: 0xA51AD,
        ..RmatConfig::default()
    });
    let mut lrng = StdRng::seed_from_u64(0x1A7E5);
    let layered_weighted = layered_graph.map_weights(|_, _, _| 0.001 + lrng.gen::<f64>());
    eprintln!(
        "perf: layered capture on rmat scale={} ({} vertices, {} edges)",
        layered_scale,
        layered_graph.num_vertices(),
        layered_graph.num_edges()
    );
    let ariadne = Ariadne::default();
    let capture = ariadne
        .capture(
            &Sssp::new(VertexId(0)),
            &layered_weighted,
            &CaptureSpec::full(),
        )
        .expect("layered capture run");
    let apt = queries::apt("udf_diff", Value::Float(0.1)).expect("apt query compiles");

    let max_threads = *cli.threads.iter().max().unwrap();
    let mut layered_runs: Vec<LayeredMeasurement> = Vec::new();
    let mut reference: Option<LayeredRun> = None;
    // t=1 pruned reference first, then the CLI sweep in order.
    let mut layered_threads: Vec<usize> = vec![1];
    layered_threads.extend(cli.threads.iter().copied().filter(|&t| t != 1));
    for &threads in &layered_threads {
        eprintln!("perf: layered threads={threads} prune=true");
        let config = LayeredConfig {
            prune: true,
            ..LayeredConfig::parallel(threads)
        };
        let (m, run) = measure_layered(
            &ariadne,
            &layered_weighted,
            &capture.store,
            &apt,
            &config,
            cli.reps,
        );
        match &reference {
            None => reference = Some(run),
            Some(r) => assert_layered_identical(&format!("layered t={threads}"), &apt, &run, r),
        }
        layered_runs.push(m);
    }
    // Unpruned control at the top thread count: identical results, full
    // byte volume; pruning must partition it exactly.
    eprintln!("perf: layered threads={max_threads} prune=false");
    let (full_m, full_run) = measure_layered(
        &ariadne,
        &layered_weighted,
        &capture.store,
        &apt,
        &LayeredConfig {
            prune: false,
            ..LayeredConfig::parallel(max_threads)
        },
        cli.reps,
    );
    assert_layered_equivalent(
        "layered unpruned",
        &apt,
        &full_run,
        reference.as_ref().unwrap(),
    );
    let pruned_ref = &layered_runs[0];
    assert!(
        pruned_ref.segments_skipped > 0,
        "full capture must contain segments the apt query never joins"
    );
    assert_eq!(
        pruned_ref.bytes_read + pruned_ref.bytes_skipped,
        full_m.bytes_read,
        "pruning must partition the decoded byte volume"
    );
    let pruning_bytes_ratio = pruned_ref.bytes_read as f64 / full_m.bytes_read.max(1) as f64;
    let layered_t1_secs = pruned_ref.secs;
    layered_runs.push(full_m);

    // -----------------------------------------------------------------
    // Segments: full-capture PageRank and SSSP under both segment
    // formats (v1 row-major, v2 columnar). Replays the backward-lineage
    // query (whose `send_message` payload column is provably dead, so
    // the column masks have something to skip) at threads 1/2/3/7 and
    // asserts bit-identical result sets across formats and thread
    // counts before reporting byte volumes.
    // -----------------------------------------------------------------
    use ariadne_provenance::SegmentFormat;
    let seg_threads: [usize; 4] = [1, 2, 3, 7];
    let mut segment_rows: Vec<SegmentMeasurement> = Vec::new();
    let mut seg_reductions: Vec<(String, f64)> = Vec::new();
    let seg_cases: [(&'static str, &Csr); 2] =
        [("pagerank", &layered_graph), ("sssp", &layered_weighted)];
    for (analytic, seg_graph) in seg_cases {
        let alpha = seg_graph.max_out_degree_vertex().unwrap();
        let mut v1_bytes = 0usize;
        let mut cross_format_ref: Option<LayeredRun> = None;
        for format in [SegmentFormat::V1, SegmentFormat::V2, SegmentFormat::V3] {
            let fmt_name = match format {
                SegmentFormat::V1 => "v1",
                SegmentFormat::V2 => "v2",
                SegmentFormat::V3 => "v3",
            };
            eprintln!("perf: segments analytic={analytic} format={fmt_name}");
            let mut session = Ariadne::default();
            session.store = session.store.with_format(format);
            let capture = match analytic {
                "pagerank" => session
                    .capture(
                        &PageRank {
                            supersteps: 10,
                            ..PageRank::default()
                        },
                        seg_graph,
                        &CaptureSpec::full(),
                    )
                    .expect("segments capture"),
                _ => session
                    .capture(&Sssp::new(VertexId(0)), seg_graph, &CaptureSpec::full())
                    .expect("segments capture"),
            };
            let store = &capture.store;
            let sigma = store.max_superstep().unwrap_or(0);
            let query = queries::backward_lineage(alpha, sigma).expect("lineage query");
            // t=1 first: it becomes the reference every other thread
            // count (and the other segment format) is pinned to.
            let mut t1: Option<(LayeredMeasurement, LayeredRun)> = None;
            for &threads in &seg_threads {
                let config = LayeredConfig::parallel(threads);
                let (m, run) =
                    measure_layered(&session, seg_graph, store, &query, &config, cli.reps);
                match &t1 {
                    None => t1 = Some((m, run)),
                    Some((_, r)) => assert_layered_identical(
                        &format!("segments {analytic} {fmt_name} t={threads}"),
                        &query,
                        &run,
                        r,
                    ),
                }
            }
            let (m1, run1) = t1.expect("t=1 measured");
            if let Some(r) = &cross_format_ref {
                assert_layered_identical(
                    &format!("segments {analytic} v1-vs-v2"),
                    &query,
                    &run1,
                    r,
                );
            }
            let store_bytes = store.byte_size();
            if format == SegmentFormat::V1 {
                v1_bytes = store_bytes;
            } else {
                let reduction = 1.0 - store_bytes as f64 / v1_bytes.max(1) as f64;
                if analytic == "pagerank" {
                    assert!(
                        reduction >= 0.30,
                        "{fmt_name} must shrink the full-capture PageRank store by >= 30%, got {:.1}%",
                        reduction * 100.0
                    );
                }
                seg_reductions.push((format!("{analytic}_{fmt_name}"), reduction));
            }
            segment_rows.push(SegmentMeasurement {
                analytic,
                format: fmt_name,
                store_bytes,
                store_tuples: store.tuple_count(),
                segments: store.segment_index().count(),
                replay_bytes_read: m1.bytes_read,
                replay_cols_skipped: run1.cols_skipped,
                replay_col_bytes_skipped: run1.col_bytes_skipped,
                replay_secs: m1.secs,
            });
            if cross_format_ref.is_none() {
                cross_format_ref = Some(run1);
            }
        }
    }

    // -----------------------------------------------------------------
    // Spool: the same full SSSP capture spilled to an on-disk spool
    // under every record format, the v3 spool compacted into an
    // indexed generation file, then the backward-lineage replay at
    // threads 1/2/3/7 under both read backends. Every cell is pinned
    // bit-for-bit to the v1/buffered/t=1 reference, and the compacted
    // v3 spool must serve the replay with strictly fewer bytes read
    // than the v2 spool.
    // -----------------------------------------------------------------
    use ariadne::{CompactReport, ReadBackend, StoreConfig};
    let spool_root =
        std::env::temp_dir().join(format!("ariadne-perf-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_root);
    let spool_graph = &layered_weighted;
    let spool_alpha = spool_graph.max_out_degree_vertex().unwrap();
    let mut spool_rows: Vec<SpoolMeasurement> = Vec::new();
    let mut spool_ref: Option<LayeredRun> = None;
    let mut spool_lineage_bytes: Vec<(&'static str, usize)> = Vec::new();
    let mut v3_compaction: Option<CompactReport> = None;
    for format in [SegmentFormat::V1, SegmentFormat::V2, SegmentFormat::V3] {
        let fmt_name = match format {
            SegmentFormat::V1 => "v1",
            SegmentFormat::V2 => "v2",
            SegmentFormat::V3 => "v3",
        };
        eprintln!("perf: spool format={fmt_name}");
        let dir = spool_root.join(fmt_name);
        let session = Ariadne {
            store: StoreConfig::spilling(0, dir.clone()).with_format(format),
            ..Ariadne::default()
        };
        let mut capture = session
            .capture(&Sssp::new(VertexId(0)), spool_graph, &CaptureSpec::full())
            .expect("spool capture");
        if format == SegmentFormat::V3 {
            let report = capture.store.compact().expect("compact the v3 spool");
            assert!(report.generation >= 1, "compaction must publish a generation");
            assert!(report.tuples > 0, "compaction must carry the captured tuples");
            v3_compaction = Some(report);
        }
        let spool_bytes: u64 = std::fs::read_dir(&dir)
            .expect("spool dir")
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        let store = &mut capture.store;
        let sigma = store.max_superstep().unwrap_or(0);
        let query = queries::backward_lineage(spool_alpha, sigma).expect("lineage query");
        for backend in [ReadBackend::Buffered, ReadBackend::Mmap] {
            let backend_name = match backend {
                ReadBackend::Buffered => "buffered",
                ReadBackend::Mmap => "mmap",
            };
            store.set_read_backend(backend);
            let mut t1: Option<LayeredMeasurement> = None;
            for &threads in &seg_threads {
                let config = LayeredConfig::parallel(threads);
                let (m, run) =
                    measure_layered(&session, spool_graph, store, &query, &config, cli.reps);
                match &spool_ref {
                    None => spool_ref = Some(run),
                    Some(r) => assert_layered_identical(
                        &format!("spool {fmt_name} {backend_name} t={threads}"),
                        &query,
                        &run,
                        r,
                    ),
                }
                if t1.is_none() {
                    t1 = Some(m);
                }
            }
            let m1 = t1.expect("t=1 measured");
            if backend == ReadBackend::Buffered {
                spool_lineage_bytes.push((fmt_name, m1.bytes_read));
            }
            spool_rows.push(SpoolMeasurement {
                format: fmt_name,
                backend: backend_name,
                compacted: format == SegmentFormat::V3,
                spool_bytes,
                replay_bytes_read: m1.bytes_read,
                replay_secs: m1.secs,
            });
        }
    }
    let lineage_bytes = |fmt: &str| {
        spool_lineage_bytes
            .iter()
            .find(|(f, _)| *f == fmt)
            .map(|(_, b)| *b)
            .expect("measured format")
    };
    let (spool_v1_bytes, spool_v2_bytes, spool_v3_bytes) =
        (lineage_bytes("v1"), lineage_bytes("v2"), lineage_bytes("v3"));
    assert!(
        spool_v3_bytes < spool_v2_bytes,
        "the compacted v3 spool must serve the lineage replay with strictly fewer bytes read \
         (v3 {spool_v3_bytes} vs v2 {spool_v2_bytes})"
    );
    let _ = std::fs::remove_dir_all(&spool_root);

    // -----------------------------------------------------------------
    // Latency: per-query end-to-end apt-replay latency at threads
    // 1/2/3/7, each sample recorded into a private obs histogram and
    // summarized by interpolated p50/p90/p99/max. Every sample's
    // results are pinned bit-for-bit to the t=1 reference before the
    // distribution is written out, so the quantiles describe runs that
    // provably computed the same answer.
    // -----------------------------------------------------------------
    let latency_registry = ariadne_obs::metrics::Registry::new();
    let latency_cases: [(usize, &'static str); 4] = [
        (1, "perf_replay_latency_t1_ns"),
        (2, "perf_replay_latency_t2_ns"),
        (3, "perf_replay_latency_t3_ns"),
        (7, "perf_replay_latency_t7_ns"),
    ];
    let latency_samples = (cli.reps * 5).clamp(5, 20);
    let mut latency_rows: Vec<LatencyRow> = Vec::new();
    for (threads, hist_name) in latency_cases {
        eprintln!("perf: latency threads={threads} samples={latency_samples}");
        let hist = latency_registry.histogram(
            hist_name,
            "end-to-end apt replay latency per query",
            false,
        );
        let config = LayeredConfig {
            prune: true,
            ..LayeredConfig::parallel(threads)
        };
        for _ in 0..latency_samples {
            let start = Instant::now();
            let run = ariadne
                .layered_with(&layered_weighted, &capture.store, &apt, &config)
                .expect("latency replay");
            hist.record(start.elapsed().as_nanos() as u64);
            assert_layered_identical(
                &format!("latency t={threads}"),
                &apt,
                &run,
                reference.as_ref().unwrap(),
            );
        }
        let snap = hist.snapshot();
        latency_rows.push(LatencyRow {
            threads,
            samples: snap.count,
            p50_ns: snap.quantile(0.5).unwrap_or(0),
            p90_ns: snap.quantile(0.9).unwrap_or(0),
            p99_ns: snap.quantile(0.99).unwrap_or(0),
            max_ns: snap.max_bound().unwrap_or(0),
            mean_ns: snap.sum / snap.count.max(1),
        });
    }

    // -----------------------------------------------------------------
    // Serve: the long-lived query service over the same SSSP capture.
    // A sweep of backward-lineage queries with distinct $alpha roots
    // (distinct fingerprints) runs cold — each replays the store — then
    // the identical sweep runs warm against the layer-replay cache.
    // The warm pass is counter-verified to read zero store bytes, and a
    // cursor walk is asserted bit-identical to the un-paged sequence,
    // before anything is written out.
    // -----------------------------------------------------------------
    use ariadne_serve::{AdmissionConfig, QueryRequest, QueryService, ServeConfig};
    const SERVE_LINEAGE_PQL: &str = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";
    const SERVE_SCAN_PQL: &str = "active(x, i) :- superstep(x, i).";
    let serve_threads = max_threads;
    let serve_page_size = 64usize;
    let service = QueryService::new(
        layered_weighted.clone(),
        capture.store,
        ServeConfig {
            threads: serve_threads,
            // The scan query returns every evaluation; lift the page
            // ceiling so "un-paged" really is a single page.
            default_limit: 1 << 20,
            max_limit: 1 << 20,
            // Admission is benchmarked nowhere here: quotas off,
            // capacity at the worker count.
            admission: AdmissionConfig {
                max_in_flight: serve_threads.max(1),
                quota_burst: 1e9,
                quota_per_sec: 0.0,
            },
            ..ServeConfig::default()
        },
    );
    let serve_counter = |name: &str| {
        ariadne_obs::registry()
            .snapshot()
            .counter(name)
            .unwrap_or(0)
    };
    // Lineage roots that actually exist: stride-sample (vertex, layer)
    // evaluation pairs from a full scan through the service itself, so
    // every sweep query is guaranteed non-empty and roots span the
    // whole layer range. The scan also doubles as the pagination
    // reference below.
    let scan = service
        .execute(&QueryRequest {
            pql: Some(SERVE_SCAN_PQL),
            limit: Some(1 << 20),
            ..QueryRequest::default()
        })
        .expect("un-paged scan");
    let mut serve_roots: Vec<(String, String)> = Vec::new();
    for j in 0..latency_samples {
        let (_, tuple) = &scan.rows()[j * scan.total_rows / latency_samples];
        if let (Some(Value::Id(x)), Some(Value::Int(i))) = (tuple.first(), tuple.get(1)) {
            let pair = (format!("v{x}"), i.to_string());
            if !serve_roots.contains(&pair) {
                serve_roots.push(pair);
            }
        }
    }
    assert!(!serve_roots.is_empty(), "scan produced no evaluation pairs");
    let serve_queries = serve_roots.len();
    eprintln!("perf: serve threads={serve_threads} queries={serve_queries}");
    let mut serve_rows_out: Vec<ServeRow> = Vec::new();
    for (phase, hist_name) in [("cold", "perf_serve_cold_ns"), ("warm", "perf_serve_warm_ns")] {
        let hist = latency_registry.histogram(
            hist_name,
            "end-to-end /query service latency per request",
            false,
        );
        let bytes_before = serve_counter("serve_replay_bytes_total");
        let hits_before = serve_counter("serve_cache_hits_total");
        let mut rows_total = 0usize;
        for (alpha, sigma) in &serve_roots {
            let params = [("alpha", alpha.as_str()), ("sigma", sigma.as_str())];
            let request = QueryRequest {
                pql: Some(SERVE_LINEAGE_PQL),
                params: &params,
                limit: Some(1 << 20),
                ..QueryRequest::default()
            };
            let start = Instant::now();
            let page = service.execute(&request).expect("serve query");
            hist.record(start.elapsed().as_nanos() as u64);
            assert!(page.next_cursor.is_none(), "limit must cover the result");
            assert_eq!(
                page.cache_hit,
                phase == "warm",
                "serve {phase} pass: wrong cache disposition for {alpha}@{sigma}"
            );
            assert!(page.total_rows > 0, "lineage from {alpha}@{sigma} must be non-empty");
            rows_total += page.total_rows;
        }
        let bytes_delta = serve_counter("serve_replay_bytes_total") - bytes_before;
        let hits_delta = serve_counter("serve_cache_hits_total") - hits_before;
        if phase == "warm" {
            assert_eq!(bytes_delta, 0, "a warm pass must read zero store bytes");
            assert_eq!(hits_delta, serve_queries as u64, "every warm query must hit");
        } else {
            assert!(bytes_delta > 0, "a cold pass must replay the store");
        }
        let snap = hist.snapshot();
        serve_rows_out.push(ServeRow {
            phase,
            queries: serve_queries,
            rows: rows_total,
            replay_bytes_read: bytes_delta,
            cache_hits: hits_delta,
            p50_ns: snap.quantile(0.5).unwrap_or(0),
            p90_ns: snap.quantile(0.9).unwrap_or(0),
            p99_ns: snap.quantile(0.99).unwrap_or(0),
            max_ns: snap.max_bound().unwrap_or(0),
            mean_ns: snap.sum / snap.count.max(1),
        });
    }
    // Pagination identity: the full-scan query (thousands of rows,
    // already materialized above) walked through the cursor chain at a
    // small page size. The concatenation must reproduce the un-paged
    // page bit-for-bit.
    let serve_paginated_rows = {
        let whole = &scan;
        assert!(
            whole.total_rows > serve_page_size,
            "scan must span multiple pages ({} rows)",
            whole.total_rows
        );
        let mut paged: Vec<(String, ariadne_pql::Tuple)> = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let page = service
                .execute(&QueryRequest {
                    pql: Some(SERVE_SCAN_PQL),
                    cursor: cursor.as_deref(),
                    limit: Some(serve_page_size),
                    ..QueryRequest::default()
                })
                .expect("paged scan");
            paged.extend(page.rows().iter().cloned());
            match page.next_cursor {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        assert_eq!(paged.len(), whole.total_rows, "cursor walk must cover every row");
        assert!(
            paged.iter().eq(whole.rows().iter()),
            "paginated rows must be bit-identical to the un-paged sequence"
        );
        paged.len()
    };

    // -----------------------------------------------------------------
    // Mutations: three successive mutation barriers (insert / delete /
    // mixed) per analytic through a MutableSession, measuring the
    // frontier re-run vs a cold re-run (values asserted bit-identical)
    // and the epoch-append storage delta vs a full re-capture. The
    // final store is asserted ghost-free against a cold capture before
    // anything is written out.
    // -----------------------------------------------------------------
    let mutation_threads = max_threads;
    eprintln!("perf: mutations threads={mutation_threads} batches={MUTATION_BATCHES:?}");
    let mut mutation_rows: Vec<MutationRow> = Vec::new();
    measure_mutations(
        "pagerank",
        &PageRank {
            supersteps: 10,
            ..PageRank::default()
        },
        &layered_weighted,
        mutation_threads,
        cli.reps,
        &mut mutation_rows,
    );
    measure_mutations(
        "sssp",
        &Sssp::new(VertexId(0)),
        &layered_weighted,
        mutation_threads,
        cli.reps,
        &mut mutation_rows,
    );
    measure_mutations(
        "wcc",
        &Wcc,
        &layered_weighted,
        mutation_threads,
        cli.reps,
        &mut mutation_rows,
    );

    // Summary: the SSSP baseline run's allocation and buffering at the
    // top thread count.
    let sssp_baseline = runs
        .iter()
        .find(|m| m.analytic == "sssp" && m.mode == "baseline" && m.threads == max_threads)
        .expect("sssp baseline run at the top thread count");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"ariadne-bench-pr10/v1\",");
    let _ = writeln!(
        json,
        "  \"command\": \"cargo run --release -p ariadne-bench --bin perf\","
    );
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let _ = writeln!(json, "  \"host\": {{\"cores\": {host_cores}}},");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"generator\": \"rmat\", \"scale\": {}, \"edge_factor\": {}, \"vertices\": {}, \"edges\": {}}},",
        cli.scale,
        cli.edge_factor,
        graph.num_vertices(),
        graph.num_edges()
    );
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        cli.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(json, "  \"reps\": {},", cli.reps);
    json.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{}", measurement_json(m), sep);
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"layered\": {{\n    \"graph\": {{\"generator\": \"rmat\", \"scale\": {}, \"edge_factor\": {}, \"vertices\": {}, \"edges\": {}}},\n    \"analytic\": \"sssp\",\n    \"query\": \"apt(udf_diff, 0.1)\",\n    \"capture\": \"full\",\n    \"runs\": [",
        layered_scale,
        cli.edge_factor,
        layered_graph.num_vertices(),
        layered_graph.num_edges()
    );
    for (i, m) in layered_runs.iter().enumerate() {
        let sep = if i + 1 < layered_runs.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", layered_json(m), sep);
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"segments\": {{\n    \"graph\": {{\"generator\": \"rmat\", \"scale\": {}, \"edge_factor\": {}}},\n    \"query\": \"backward_lineage(max_out_degree_vertex, max_superstep)\",\n    \"capture\": \"full\",\n    \"replay_threads\": [1,2,3,7],\n    \"cases\": [",
        layered_scale, cli.edge_factor
    );
    for (i, m) in segment_rows.iter().enumerate() {
        let sep = if i + 1 < segment_rows.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", segment_json(m), sep);
    }
    json.push_str("    ],\n    \"summary\": {");
    for (i, (case, reduction)) in seg_reductions.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{case}_store_bytes_reduction\": {}",
            json_f64(*reduction)
        );
    }
    json.push_str("}\n  },\n");
    let _ = writeln!(
        json,
        "  \"spool\": {{\n    \"graph\": {{\"generator\": \"rmat\", \"scale\": {}, \"edge_factor\": {}}},\n    \"analytic\": \"sssp\",\n    \"query\": \"backward_lineage(max_out_degree_vertex, max_superstep)\",\n    \"capture\": \"full\",\n    \"replay_threads\": [1,2,3,7],\n    \"compaction\": {},\n    \"cases\": [",
        layered_scale,
        cli.edge_factor,
        v3_compaction.as_ref().map_or_else(|| "null".to_string(), |r| r.to_json()),
    );
    for (i, m) in spool_rows.iter().enumerate() {
        let sep = if i + 1 < spool_rows.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", spool_json(m), sep);
    }
    let _ = writeln!(
        json,
        "    ],\n    \"summary\": {{\"lineage_read_bytes\": {{\"v1\": {spool_v1_bytes}, \"v2\": {spool_v2_bytes}, \"v3\": {spool_v3_bytes}}}}}\n  }},"
    );
    let _ = writeln!(
        json,
        "  \"latency\": {{\n    \"analytic\": \"sssp\",\n    \"query\": \"apt(udf_diff, 0.1)\",\n    \"samples_per_cell\": {latency_samples},\n    \"quantile_source\": \"power-of-two bucket interpolation\",\n    \"cells\": ["
    );
    for (i, r) in latency_rows.iter().enumerate() {
        let sep = if i + 1 < latency_rows.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", latency_json(r), sep);
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"serve\": {{\n    \"analytic\": \"sssp\",\n    \"query\": \"backward_lineage($alpha sweep, max_superstep)\",\n    \"threads\": {serve_threads},\n    \"queries_per_phase\": {serve_queries},\n    \"page_size\": {serve_page_size},\n    \"paginated_rows\": {serve_paginated_rows},\n    \"cases\": ["
    );
    for (i, r) in serve_rows_out.iter().enumerate() {
        let sep = if i + 1 < serve_rows_out.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", serve_json(r), sep);
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"mutations\": {{\n    \"graph\": {{\"generator\": \"rmat\", \"scale\": {}, \"edge_factor\": {}, \"vertices\": {}, \"edges\": {}}},\n    \"capture\": \"full\",\n    \"batches\": [\"insert\",\"delete\",\"mixed\"],\n    \"threads\": {mutation_threads},\n    \"reps\": {},\n    \"cases\": [",
        layered_scale,
        cli.edge_factor,
        layered_weighted.num_vertices(),
        layered_weighted.num_edges(),
        cli.reps,
    );
    for (i, r) in mutation_rows.iter().enumerate() {
        let sep = if i + 1 < mutation_rows.len() { "," } else { "" };
        let _ = writeln!(json, "      {}{}", mutation_json(r), sep);
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(json, "  \"summary\": {{");
    {
        let mut speedups = String::from("{");
        for (i, m) in layered_runs.iter().filter(|m| m.prune).enumerate() {
            if i > 0 {
                speedups.push(',');
            }
            let _ = write!(
                speedups,
                "\"{}\":{}",
                m.threads,
                json_f64(layered_t1_secs / m.secs.max(1e-9))
            );
        }
        speedups.push('}');
        let _ = writeln!(
            json,
            "    \"layered_thread_speedup_over_t1\": {speedups},"
        );
    }
    let _ = writeln!(
        json,
        "    \"layered_pruning\": {{\"segments_skipped\": {}, \"bytes_read_pruned\": {}, \"bytes_read_full\": {}, \"bytes_ratio\": {}}},",
        layered_runs[0].segments_skipped,
        layered_runs[0].bytes_read,
        layered_runs.last().unwrap().bytes_read,
        json_f64(pruning_bytes_ratio)
    );
    let _ = writeln!(
        json,
        "    \"sssp_baseline_alloc_calls\": {{\"flat\": {}}},",
        sssp_baseline.alloc_calls
    );
    let _ = writeln!(
        json,
        "    \"sssp_baseline_buffered_bytes\": {{\"flat\": {}}}",
        sssp_baseline.buffered_bytes
    );
    json.push_str("  }\n}\n");

    std::fs::write(&cli.out, &json).expect("write output JSON");
    eprintln!("perf: wrote {}", cli.out);

    // Human-readable recap on stdout.
    println!(
        "{:<9} {:<9} {:>3} {:>6} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "analytic",
        "mode",
        "thr",
        "steps",
        "steps/s",
        "msgs/s",
        "bytes",
        "peak_buf",
        "allocs"
    );
    for m in &runs {
        println!(
            "{:<9} {:<9} {:>3} {:>6} {:>12.1} {:>14.0} {:>14} {:>12} {:>12}",
            m.analytic,
            m.mode,
            m.threads,
            m.supersteps,
            m.supersteps_per_sec(),
            m.messages_per_sec(),
            m.message_bytes,
            m.peak_buffered_bytes,
            m.alloc_calls
        );
    }
    println!();
    println!(
        "{:<9} {:>3} {:>6} {:>7} {:>6} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "layered", "thr", "prune", "layers", "flush", "layers/s", "seg_read", "seg_skip", "bytes_read", "allocs"
    );
    for m in &layered_runs {
        println!(
            "{:<9} {:>3} {:>6} {:>7} {:>6} {:>12.1} {:>10} {:>10} {:>12} {:>12}",
            "apt",
            m.threads,
            m.prune,
            m.layers,
            m.flush_rounds,
            m.layers_per_sec(),
            m.segments_read,
            m.segments_skipped,
            m.bytes_read,
            m.alloc_calls
        );
    }
    println!();
    println!(
        "{:<9} {:<4} {:>12} {:>10} {:>8} {:>12} {:>10} {:>14}",
        "segments", "fmt", "store_bytes", "tuples", "segs", "read_bytes", "col_skip", "col_skip_bytes"
    );
    for m in &segment_rows {
        println!(
            "{:<9} {:<4} {:>12} {:>10} {:>8} {:>12} {:>10} {:>14}",
            m.analytic,
            m.format,
            m.store_bytes,
            m.store_tuples,
            m.segments,
            m.replay_bytes_read,
            m.replay_cols_skipped,
            m.replay_col_bytes_skipped
        );
    }
    for (case, reduction) in &seg_reductions {
        println!("segments: {case} store bytes reduction over v1 {:.1}%", reduction * 100.0);
    }
    println!();
    println!(
        "{:<6} {:<9} {:>9} {:>12} {:>12} {:>10}",
        "spool", "backend", "compacted", "spool_bytes", "read_bytes", "secs"
    );
    for m in &spool_rows {
        println!(
            "{:<6} {:<9} {:>9} {:>12} {:>12} {:>10.4}",
            m.format, m.backend, m.compacted, m.spool_bytes, m.replay_bytes_read, m.replay_secs
        );
    }
    println!(
        "spool: lineage read bytes v3 {} < v2 {} ({:.1}% fewer)",
        spool_v3_bytes,
        spool_v2_bytes,
        (1.0 - spool_v3_bytes as f64 / spool_v2_bytes.max(1) as f64) * 100.0
    );
    println!();
    println!(
        "{:<8} {:>3} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "latency", "thr", "samples", "p50_ns", "p90_ns", "p99_ns", "max_ns"
    );
    for r in &latency_rows {
        println!(
            "{:<8} {:>3} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "apt", r.threads, r.samples, r.p50_ns, r.p90_ns, r.p99_ns, r.max_ns
        );
    }
    println!();
    println!(
        "{:<6} {:>7} {:>8} {:>14} {:>6} {:>12} {:>12} {:>12}",
        "serve", "queries", "rows", "replay_bytes", "hits", "p50_ns", "p99_ns", "max_ns"
    );
    for r in &serve_rows_out {
        println!(
            "{:<6} {:>7} {:>8} {:>14} {:>6} {:>12} {:>12} {:>12}",
            r.phase,
            r.queries,
            r.rows,
            r.replay_bytes_read,
            r.cache_hits,
            r.p50_ns,
            r.p99_ns,
            r.max_ns
        );
    }
    println!(
        "serve: cursor walk reproduced {} rows bit-for-bit at page size {}",
        serve_paginated_rows, serve_page_size
    );
    println!();
    println!(
        "{:<9} {:<7} {:<10} {:>7} {:>7} {:>9} {:>9} {:>8} {:>12} {:>12} {:>7}",
        "mutations", "batch", "mode", "reset", "active", "inc_steps", "speedup", "carried",
        "bytes_added", "cold_bytes", "ratio"
    );
    for r in &mutation_rows {
        println!(
            "{:<9} {:<7} {:<10} {:>7} {:>7} {:>9} {:>9.2} {:>8} {:>12} {:>12} {:>7.3}",
            r.analytic,
            r.batch,
            r.mode,
            r.reset_vertices,
            r.activated_vertices,
            r.inc_supersteps,
            r.speedup(),
            r.carried,
            r.bytes_appended,
            r.cold_bytes,
            r.bytes_ratio()
        );
    }
}
