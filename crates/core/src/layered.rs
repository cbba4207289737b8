//! Layered offline evaluation (§5.1), parallelized.
//!
//! Directed queries evaluate over the captured provenance one layer (=
//! superstep) at a time — ascending for forward queries, descending for
//! backward ones (Lemma 5.3: at most n+1 layer rounds). Each round:
//!
//! 1. the layer's stored tuples are injected into their owning vertices'
//!    partitions (and then dropped — only one layer is materialized).
//!    The store read is **predicate-filtered**: segments whose predicate
//!    the compiled query never references are skipped without a decode
//!    or (for spilled segments) a disk read
//!    ([`ProvStore::layer_filtered`]);
//! 2. every touched vertex runs its incremental local fixpoint;
//! 3. fresh tuples of shipped predicates travel one hop — to
//!    out-neighbours for forward queries, to in-neighbours for backward
//!    ones — and are joined by their receivers in the next round.
//!
//! After the last layer a **fixpoint flush** keeps evaluating and
//! shipping until no vertex holds an unprocessed replica: multi-hop
//! joins that close in the final layer still need their replicas to
//! travel the remaining hops. (The previous implementation ran exactly
//! one post-layer evaluation pass and silently dropped any shippable
//! tuples it derived, so such joins returned incomplete results.)
//!
//! # Parallelism and determinism
//!
//! Each round's touched set is partitioned into contiguous vertex-range
//! chunks by the degree-weighted [`ChunkTable`] (the same layout the
//! engine's flat message plane uses) and processed by a worker pool with
//! chunk-granular work stealing. Rounds are bulk-synchronous: workers
//! record the replicas a vertex ships into a per-chunk outbox, and the
//! merge step applies all outboxes *after* the round, in chunk order.
//! Because chunks are contiguous ascending ranges, chunk order **is**
//! ascending source-vertex order regardless of the chunk layout — so the
//! injection sequence into every receiving partition, and therefore
//! every relation's insertion order and every counter, is identical at
//! any thread count. The sequential path runs the same round protocol
//! (one worker, same outboxes), so `threads = 1` is the reference, not a
//! special case.
//!
//! Vertex states live in a sparse map keyed by the vertices actually
//! touched — replaying a small capture over a big graph no longer
//! allocates a [`QueryState`] per graph vertex.
//!
//! The driver is the same per-vertex machinery as online evaluation
//! ([`crate::state::QueryState`]); only the tuple source differs (replay
//! from the store instead of live generation).
//!
//! [`ProvStore::layer_filtered`]: ariadne_provenance::ProvStore::layer_filtered

use crate::columns::column_masks;
use crate::compile::CompiledQuery;
use crate::session::AriadneError;
use crate::state::QueryState;
use ariadne_graph::{ChunkTable, Csr, VertexId};
use ariadne_obs::trace::{self, Level};
use ariadne_pql::{Database, Direction, EvalStats, Evaluator, PqlError, Tuple};
use ariadne_provenance::{Degradation, LayerFilter, ProvStore, ReadPolicy};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Cached global-registry handles for layered-replay metrics. Round,
/// tuple and vertex counts are functions of the captured provenance and
/// the query alone (the BSP round protocol makes them thread-invariant),
/// so they are flagged deterministic; phase timings are wall-clock and
/// are not.
mod obs_handles {
    use ariadne_obs::metrics::{Counter, Histogram};
    use std::sync::OnceLock;

    macro_rules! layered_counter {
        ($fn_name:ident, $name:literal, $help:literal, $det:expr) => {
            pub fn $fn_name() -> &'static Counter {
                static H: OnceLock<Counter> = OnceLock::new();
                H.get_or_init(|| ariadne_obs::registry().counter($name, $help, $det))
            }
        };
    }

    macro_rules! layered_histogram {
        ($fn_name:ident, $name:literal, $help:literal) => {
            pub fn $fn_name() -> &'static Histogram {
                static H: OnceLock<Histogram> = OnceLock::new();
                H.get_or_init(|| ariadne_obs::registry().histogram($name, $help, false))
            }
        };
    }

    layered_histogram!(
        query_latency,
        "layered_query_latency_ns",
        "end-to-end wall-clock nanoseconds per layered query replay"
    );
    layered_histogram!(
        inject_latency,
        "layered_inject_latency_ns",
        "per-query wall-clock nanoseconds reading and injecting layers"
    );
    layered_histogram!(
        eval_latency,
        "layered_eval_latency_ns",
        "per-query wall-clock nanoseconds in evaluation rounds"
    );
    layered_histogram!(
        merge_latency,
        "layered_merge_latency_ns",
        "per-query wall-clock nanoseconds merging outboxes and results"
    );

    layered_counter!(
        rounds,
        "layered_rounds_total",
        "layer rounds replayed by layered evaluation",
        true
    );
    layered_counter!(
        flush_rounds,
        "layered_flush_rounds_total",
        "post-layer fixpoint flush rounds until shipped replicas drain",
        true
    );
    layered_counter!(
        injected_tuples,
        "layered_injected_tuples_total",
        "stored tuples injected into vertex partitions during replay",
        true
    );
    layered_counter!(
        evaluated_vertices,
        "layered_evaluated_vertices_total",
        "vertex-local fixpoint evaluations across all rounds",
        true
    );
    layered_counter!(
        shipped_tuples,
        "layered_shipped_tuples_total",
        "replica tuples shipped one hop between vertices",
        true
    );
    layered_counter!(
        phase_inject_ns,
        "layered_phase_inject_ns_total",
        "nanoseconds spent reading layers and injecting layer and shipped tuples (wall clock)",
        false
    );
    layered_counter!(
        phase_eval_ns,
        "layered_phase_eval_ns_total",
        "nanoseconds spent in per-vertex evaluation rounds (wall clock)",
        false
    );
    layered_counter!(
        phase_merge_ns,
        "layered_phase_merge_ns_total",
        "nanoseconds spent merging per-chunk outputs and final results (wall clock)",
        false
    );
}

/// Tuning knobs for layered evaluation. The defaults reproduce the
/// sequential reference; [`crate::session::Ariadne`] passes its engine
/// thread count through.
#[derive(Clone, Debug)]
pub struct LayeredConfig {
    /// Worker threads per round. `1` runs the same round protocol on
    /// the calling thread.
    pub threads: usize,
    /// Chunks per worker thread: more chunks give the work-stealing
    /// loop finer grains to balance skewed touched sets with.
    pub chunks_per_thread: usize,
    /// Restrict layer reads to the predicates the query references
    /// (EDBs plus IDB names, so replayed persisted derivations still
    /// inject). Skipped segments are never decoded or read from disk.
    pub prune: bool,
    /// Column-selective replay: derive per-predicate keep-masks from the
    /// query ([`crate::columns::column_masks`]) and skip stored columns
    /// the query provably never observes. v2 segments skip the encoded
    /// column blocks wholesale; v1 records skip per value. Result sets
    /// are unchanged (masked positions decode as `Unit`, which only
    /// singleton variables ever bind); intermediate [`EvalStats`] may
    /// differ from an unprojected run because dropped columns can
    /// collapse tuples that differed only there.
    pub project: bool,
    /// How layer reads treat damaged store data. The default
    /// [`ReadPolicy::Strict`] fails the replay typed on any corruption,
    /// quarantined segment, or poisoned store;
    /// [`ReadPolicy::Degraded`] replays what survives and reports the
    /// exact loss on [`LayeredRun::degradation`] — partial results,
    /// always labelled, never silently wrong.
    pub read_policy: ReadPolicy,
}

impl Default for LayeredConfig {
    fn default() -> Self {
        LayeredConfig {
            threads: 1,
            chunks_per_thread: 4,
            prune: true,
            project: true,
            read_policy: ReadPolicy::Strict,
        }
    }
}

impl LayeredConfig {
    /// A config for `threads` workers, other knobs at their defaults.
    pub fn parallel(threads: usize) -> Self {
        LayeredConfig {
            threads: threads.max(1),
            ..LayeredConfig::default()
        }
    }
}

/// The outcome of a layered evaluation.
#[derive(Debug)]
pub struct LayeredRun {
    /// Merged query tables across vertices.
    pub query_results: Database,
    /// Number of layer rounds replayed (Lemma 5.3 bound: `max_step + 1`;
    /// the fixpoint flush is counted separately).
    pub layers: u32,
    /// Post-layer fixpoint rounds until the pending set drained.
    pub flush_rounds: u32,
    /// Total replica tuples shipped between vertices.
    pub shipped_tuples: usize,
    /// Stored tuples injected into vertex partitions.
    pub injected_tuples: usize,
    /// Vertex-local fixpoint evaluations across all rounds.
    pub evaluated_vertices: usize,
    /// Store segments decoded for this replay.
    pub segments_read: usize,
    /// Store segments the predicate filter skipped (no decode, and for
    /// spilled segments no disk read).
    pub segments_skipped: usize,
    /// Encoded store bytes decoded.
    pub bytes_read: usize,
    /// Encoded store bytes the filter avoided touching.
    pub bytes_skipped: usize,
    /// Stored column blocks skipped by column-selective replay (their
    /// segments were decoded, the masked columns were not materialized).
    pub cols_skipped: usize,
    /// Encoded bytes of those skipped column blocks.
    pub col_bytes_skipped: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Query-evaluation counters summed in chunk order
    /// (thread-invariant).
    pub query_stats: EvalStats,
    /// Wall-clock nanoseconds injecting tuples into vertex states:
    /// reading each layer and inserting its tuples at their owners, plus
    /// delivering every round's shipped replicas to their neighbours.
    pub phase_inject_ns: u64,
    /// Wall-clock nanoseconds in evaluation rounds (workers included).
    pub phase_eval_ns: u64,
    /// Wall-clock nanoseconds merging: folding each round's per-chunk
    /// counters and evaluated states back into the driver, and the
    /// final ascending-vertex merge of IDB results. Ship delivery is
    /// not included (see `phase_inject_ns`).
    pub phase_merge_ns: u64,
    /// Damage a [`ReadPolicy::Degraded`] replay skipped over, summed
    /// across every layer read. Always clean under
    /// [`ReadPolicy::Strict`] (damage errors out instead).
    pub degradation: Degradation,
    /// The inclusive layer range this run actually replayed, after
    /// clamping any requested range to the store's layers. `(0, 0)` with
    /// `layers == 0` means nothing was replayed. Cache keys built over
    /// partial replays should use this, not the requested range, so
    /// `0..=u32::MAX` and the store's true extent share one key.
    pub layer_range: (u32, u32),
}

impl LayeredRun {
    fn empty(threads: usize) -> Self {
        LayeredRun {
            query_results: Database::new(),
            layers: 0,
            flush_rounds: 0,
            shipped_tuples: 0,
            injected_tuples: 0,
            evaluated_vertices: 0,
            segments_read: 0,
            segments_skipped: 0,
            bytes_read: 0,
            bytes_skipped: 0,
            cols_skipped: 0,
            col_bytes_skipped: 0,
            threads,
            query_stats: EvalStats::default(),
            phase_inject_ns: 0,
            phase_eval_ns: 0,
            phase_merge_ns: 0,
            degradation: Degradation::default(),
            layer_range: (0, 0),
        }
    }
}

/// What one vertex shipped in a round: its fresh tuples of shipped
/// predicates and the (sorted, deduplicated) neighbours they travel to.
struct ShipEntry {
    neighbors: Vec<VertexId>,
    fresh: Vec<(String, Vec<Tuple>)>,
}

/// Everything a worker produced for one chunk of the touched set, in
/// ascending vertex order. Merged strictly in chunk order.
struct ChunkOutput {
    states: Vec<(usize, QueryState)>,
    ship: Vec<ShipEntry>,
    evaluated: usize,
    shipped: usize,
    stats: EvalStats,
}

/// Evaluate `query` over the captured `store` in layered fashion with
/// the default (sequential) configuration.
pub fn run_layered(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
) -> Result<LayeredRun, AriadneError> {
    run_layered_with(graph, store, query, &LayeredConfig::default())
}

/// Evaluate `query` over the captured `store` in layered fashion:
/// parallel chunked replay with predicate-filtered layer reads. Results
/// are bit-identical at every thread count (see the module docs for the
/// argument).
pub fn run_layered_with(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    config: &LayeredConfig,
) -> Result<LayeredRun, AriadneError> {
    run_layered_range(graph, store, query, config, None)
}

/// Re-entrant layered evaluation over an inclusive layer sub-range.
///
/// `layers = Some((lo, hi))` restricts the replay to stored layers in
/// `lo..=hi` (clamped to the store's extent; an empty intersection
/// returns an empty run). `None` replays every layer —
/// [`run_layered_with`] is exactly that. This is the serving plane's
/// entry point: a long-lived daemon can resume a query from a layer
/// offset, and a replay cache can key results on the *effective* range
/// ([`LayeredRun::layer_range`]) rather than on whatever the client
/// asked for.
///
/// Within the range the round protocol is unchanged, so results remain
/// bit-identical at every thread count. A sub-range replay answers the
/// query *over that slice of the capture*: for backward queries the
/// layer-0 structural pre-injection only happens when layer 0 is inside
/// the range, so compact-representation captures should include layer 0
/// when they need their static relations.
pub fn run_layered_range(
    graph: &Csr,
    store: &ProvStore,
    query: &CompiledQuery,
    config: &LayeredConfig,
    layers: Option<(u32, u32)>,
) -> Result<LayeredRun, AriadneError> {
    let run_started = Instant::now();
    let direction = query.direction();
    if !direction.supports_layered() {
        return Err(AriadneError::UnsupportedMode {
            mode: "layered",
            direction,
        });
    }
    let threads = config.threads.max(1);
    let Some(max_step) = store.max_superstep() else {
        return Ok(LayeredRun::empty(threads));
    };
    let (layer_lo, layer_hi) = match layers {
        Some((lo, hi)) => (lo, hi.min(max_step)),
        None => (0, max_step),
    };
    if layer_lo > layer_hi {
        return Ok(LayeredRun::empty(threads));
    }

    let ascending = direction != Direction::Backward;
    let analyzed = query.query();
    // Prune to every predicate the query can join: its EDBs plus its
    // IDB names (a capture may have persisted derived tuples that a
    // recursive replay re-reads). Anything else in the store is dead
    // weight for this query and is skipped unread. On top of the
    // predicate allow-set, column-selective projection skips stored
    // columns the query provably never observes (see
    // [`crate::columns`]).
    let mut filter = if config.prune {
        let mut preds = analyzed.edbs.clone();
        preds.extend(analyzed.idbs.keys().cloned());
        LayerFilter::for_preds(preds)
    } else {
        LayerFilter::all()
    };
    if config.project {
        for (pred, mask) in column_masks(analyzed) {
            filter = filter.with_mask(&pred, mask);
        }
    }

    let chunks = threads.saturating_mul(config.chunks_per_thread.max(1)).max(1);
    let mut driver = Driver {
        graph,
        evaluator: query.evaluator().as_ref(),
        needed_statics: &analyzed.edbs,
        shipped_preds: analyzed.shipped.iter().cloned().collect(),
        table: ChunkTable::degree_weighted(graph, chunks, 1),
        threads,
        states: HashMap::new(),
        pending: BTreeSet::new(),
        run: LayeredRun::empty(threads),
    };

    driver.run.layer_range = (layer_lo, layer_hi);
    let span = trace::span(
        Level::Debug,
        "layered",
        "run",
        &[
            ("max_step", u64::from(max_step).into()),
            ("layer_lo", u64::from(layer_lo).into()),
            ("layer_hi", u64::from(layer_hi).into()),
            ("threads", threads.into()),
            ("ascending", ascending.into()),
        ],
    );

    // Descending replay visits layer 0 last, but layer 0 carries the
    // *structural* annotations of the compact representation (static
    // relations like Query 11's `prov_edges`, graph EDBs, initial
    // values) that backward rules join at every layer. Pre-inject it:
    // sound because derivations are monotone and directed backward
    // queries are negation-free over layer data.
    let mut layer0_owners: BTreeSet<usize> = BTreeSet::new();
    if !ascending && layer_lo == 0 {
        let t0 = Instant::now();
        let read = store
            .layer_read_with(0, &filter, config.read_policy)
            .map_err(AriadneError::Store)?;
        driver.account_read(&read);
        for (pred, tuples) in read.tuples {
            for t in tuples {
                if let Some(vi) = driver.owner(&t) {
                    driver.run.injected_tuples += 1;
                    driver.states.entry(vi).or_default().db.insert(&pred, t);
                    layer0_owners.insert(vi);
                }
            }
        }
        driver.run.phase_inject_ns += t0.elapsed().as_nanos() as u64;
    }

    let order: Box<dyn Iterator<Item = u32>> = if ascending {
        Box::new(layer_lo..=layer_hi)
    } else {
        Box::new((layer_lo..=layer_hi).rev())
    };
    for layer in order {
        driver.run.layers += 1;
        obs_handles::rounds().inc();
        let _layer_span = trace::span(
            Level::Trace,
            "layered",
            "layer",
            &[("layer", u64::from(layer).into())],
        );
        // 1. Inject this layer's tuples into their owners.
        let t0 = Instant::now();
        let mut touched = std::mem::take(&mut driver.pending);
        if !ascending && layer == 0 {
            // Already injected up front; just evaluate the owners.
            touched.extend(layer0_owners.iter().copied());
        } else {
            let read = store
                .layer_read_with(layer, &filter, config.read_policy)
                .map_err(AriadneError::Store)?;
            driver.account_read(&read);
            for (pred, tuples) in read.tuples {
                for t in tuples {
                    if let Some(vi) = driver.owner(&t) {
                        driver.run.injected_tuples += 1;
                        driver.states.entry(vi).or_default().db.insert(&pred, t);
                        touched.insert(vi);
                    }
                }
            }
        }
        driver.run.phase_inject_ns += t0.elapsed().as_nanos() as u64;

        // 2. Evaluate touched vertices; 3. ship their fresh tuples into
        // the next round's pending set.
        driver.round(touched)?;
    }

    // Fixpoint flush: vertices holding just-delivered replicas keep
    // evaluating *and shipping* until the pending set drains — a
    // multi-hop join closing in the last layer still needs its replicas
    // to travel the remaining hops. Terminates because shipping marks
    // advance monotonically: each (vertex, predicate, tuple) ships at
    // most once, so rounds without fresh derivations drain `pending`.
    while !driver.pending.is_empty() {
        driver.run.flush_rounds += 1;
        obs_handles::flush_rounds().inc();
        let touched = std::mem::take(&mut driver.pending);
        driver.round(touched)?;
    }

    // Merge IDB results in ascending vertex order.
    let _merge_span = trace::span(Level::Trace, "layered", "merge_results", &[]);
    let t0 = Instant::now();
    let mut merged = Database::new();
    let mut owners: Vec<&usize> = driver.states.keys().collect();
    owners.sort_unstable();
    for vi in owners {
        let state = &driver.states[vi];
        for (name, rel) in state.db.iter() {
            if analyzed.idbs.contains_key(name) {
                for t in rel.scan() {
                    merged.insert(name, t.clone());
                }
            }
        }
    }
    driver.run.phase_merge_ns += t0.elapsed().as_nanos() as u64;
    drop(_merge_span);

    let mut run = driver.run;
    run.query_results = merged;
    obs_handles::injected_tuples().add(run.injected_tuples as u64);
    obs_handles::evaluated_vertices().add(run.evaluated_vertices as u64);
    obs_handles::shipped_tuples().add(run.shipped_tuples as u64);
    obs_handles::phase_inject_ns().add(run.phase_inject_ns);
    obs_handles::phase_eval_ns().add(run.phase_eval_ns);
    obs_handles::phase_merge_ns().add(run.phase_merge_ns);
    obs_handles::inject_latency().record(run.phase_inject_ns);
    obs_handles::eval_latency().record(run.phase_eval_ns);
    obs_handles::merge_latency().record(run.phase_merge_ns);
    obs_handles::query_latency().record(run_started.elapsed().as_nanos() as u64);
    drop(span);
    trace::event(
        Level::Debug,
        "layered",
        "run_done",
        &[
            ("layers", u64::from(run.layers).into()),
            ("flush_rounds", u64::from(run.flush_rounds).into()),
            ("shipped_tuples", run.shipped_tuples.into()),
            ("evaluated_vertices", run.evaluated_vertices.into()),
            ("segments_read", run.segments_read.into()),
            ("segments_skipped", run.segments_skipped.into()),
        ],
    );
    Ok(run)
}

/// The per-run replay state shared by layer rounds and flush rounds.
struct Driver<'a> {
    graph: &'a Csr,
    evaluator: &'a Evaluator,
    needed_statics: &'a BTreeSet<String>,
    /// Shipped predicates in `BTreeSet` (sorted) order — fixed, so every
    /// vertex takes and injects them in the same predicate order.
    shipped_preds: Vec<String>,
    table: ChunkTable,
    threads: usize,
    /// Sparse vertex states, keyed by touched vertices only.
    states: HashMap<usize, QueryState>,
    /// Vertices holding replicas delivered this round, to evaluate next
    /// round.
    pending: BTreeSet<usize>,
    run: LayeredRun,
}

impl Driver<'_> {
    /// The in-range owning vertex of a stored tuple, if any (tuples for
    /// vertices outside the graph are skipped, not a panic).
    fn owner(&self, t: &[ariadne_pql::Value]) -> Option<usize> {
        let v = t.first().and_then(|v| v.as_id())?;
        let vi = v as usize;
        (vi < self.graph.num_vertices()).then_some(vi)
    }

    fn account_read(&mut self, read: &ariadne_provenance::LayerRead) {
        self.run.segments_read += read.segments_read;
        self.run.segments_skipped += read.segments_skipped;
        self.run.bytes_read += read.bytes_read;
        self.run.bytes_skipped += read.bytes_skipped;
        self.run.cols_skipped += read.cols_skipped;
        self.run.col_bytes_skipped += read.col_bytes_skipped;
        self.run.degradation.absorb(&read.degradation);
    }

    /// One bulk-synchronous evaluation round over `touched`: partition
    /// by chunk, evaluate chunks (in parallel when configured), then
    /// merge outboxes in chunk order — which is ascending source-vertex
    /// order, the determinism anchor.
    fn round(&mut self, touched: BTreeSet<usize>) -> Result<(), AriadneError> {
        if touched.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        // Group the (ascending) touched set by chunk; contiguous chunk
        // ranges make this a single linear sweep.
        let mut groups: Vec<Vec<(usize, QueryState)>> = Vec::new();
        let mut current_chunk = usize::MAX;
        for vi in touched {
            let c = self.table.chunk_of(vi);
            if c != current_chunk {
                current_chunk = c;
                groups.push(Vec::new());
            }
            let state = self.states.remove(&vi).unwrap_or_default();
            groups.last_mut().expect("group just pushed").push((vi, state));
        }

        let outputs = if self.threads <= 1 || groups.len() <= 1 {
            let mut outs = Vec::with_capacity(groups.len());
            for group in groups {
                outs.push(self.process_group(group).map_err(AriadneError::Pql)?);
            }
            outs
        } else {
            self.process_groups_parallel(groups)
                .map_err(AriadneError::Pql)?
        };
        self.run.phase_eval_ns += t0.elapsed().as_nanos() as u64;

        // Merge in chunk order = ascending source-vertex order. All
        // states go back into the map *before* any injection: a shipped
        // replica may target a vertex evaluated this round, and
        // injecting into a fresh default entry would lose its state when
        // the chunk re-insert arrived later.
        let t1 = Instant::now();
        for out in &outputs {
            self.run.evaluated_vertices += out.evaluated;
            self.run.shipped_tuples += out.shipped;
            self.run.query_stats.merge(&out.stats);
        }
        let mut ships = Vec::with_capacity(outputs.len());
        for out in outputs {
            for (vi, state) in out.states {
                self.states.insert(vi, state);
            }
            ships.push(out.ship);
        }
        self.run.phase_merge_ns += t1.elapsed().as_nanos() as u64;

        // Deliver the shipped replicas: injection into neighbour states.
        let t2 = Instant::now();
        for ship in ships {
            for entry in ship {
                for (pred, tuples) in &entry.fresh {
                    for &nb in &entry.neighbors {
                        self.states
                            .entry(nb.index())
                            .or_default()
                            .inject(pred, tuples.iter().cloned());
                        self.pending.insert(nb.index());
                    }
                }
            }
        }
        self.run.phase_inject_ns += t2.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Evaluate one chunk's vertices in ascending order, recording what
    /// each ships into the chunk outbox instead of injecting in place
    /// (rounds are bulk-synchronous).
    fn process_group(
        &self,
        group: Vec<(usize, QueryState)>,
    ) -> Result<ChunkOutput, PqlError> {
        process_group(
            self.graph,
            self.evaluator,
            self.needed_statics,
            &self.shipped_preds,
            group,
        )
    }

    /// Work-stealing worker pool over the chunk groups: each worker
    /// claims the next unprocessed group. Outputs land in per-group
    /// slots, so merge order is chunk order no matter which worker
    /// processed what.
    fn process_groups_parallel(
        &self,
        groups: Vec<Vec<(usize, QueryState)>>,
    ) -> Result<Vec<ChunkOutput>, PqlError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        /// A chunk group handed to whichever worker claims it.
        type GroupCell = Mutex<Option<Vec<(usize, QueryState)>>>;

        let inputs: Vec<GroupCell> = groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
        let outputs: Vec<Mutex<Option<Result<ChunkOutput, PqlError>>>> =
            (0..inputs.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(inputs.len());
        // Capture only `Sync` borrows in the worker closure: `Driver`
        // itself holds `QueryState`s (interior-mutable relation indexes),
        // which are `Send` — moved through the input cells — but not
        // `Sync`.
        let (graph, evaluator) = (self.graph, self.evaluator);
        let (needed_statics, shipped_preds) = (self.needed_statics, &self.shipped_preds);
        // Workers carry the caller's span context across the thread
        // boundary, so per-chunk spans hang off the enclosing layer
        // span in the drained trace tree.
        let ctx = trace::current_context();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _ctx = ctx.enter();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= inputs.len() {
                            break;
                        }
                        let group = inputs[idx]
                            .lock()
                            .expect("input lock")
                            .take()
                            .expect("group claimed once");
                        let _chunk_span = trace::span(
                            Level::Trace,
                            "layered",
                            "chunk",
                            &[("chunk", idx.into()), ("vertices", group.len().into())],
                        );
                        let result =
                            process_group(graph, evaluator, needed_statics, shipped_preds, group);
                        *outputs[idx].lock().expect("output lock") = Some(result);
                    }
                });
            }
        });
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("output lock")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }
}

/// The chunk evaluation kernel (free function so worker threads can call
/// it with only `Sync` borrows).
fn process_group(
    graph: &Csr,
    evaluator: &Evaluator,
    needed_statics: &BTreeSet<String>,
    shipped_preds: &[String],
    group: Vec<(usize, QueryState)>,
) -> Result<ChunkOutput, PqlError> {
    let mut out = ChunkOutput {
        states: Vec::with_capacity(group.len()),
        ship: Vec::new(),
        evaluated: 0,
        shipped: 0,
        stats: EvalStats::default(),
    };
    for (vi, mut state) in group {
        let vertex = VertexId(vi as u64);
        state.inject_statics(graph, vertex, needed_statics);
        state.evaluate_stats(evaluator, vertex, &mut out.stats)?;
        out.evaluated += 1;
        if !shipped_preds.is_empty() {
            let fresh = state.take_shippable(shipped_preds.iter(), vertex);
            if !fresh.is_empty() {
                // Route replicas over both edge directions: analytics
                // like WCC message their in-neighbours too, so the
                // communication graph is a superset of the
                // out-adjacency. Shipping to a superset of the true
                // routes is always sound (replicas are true tuples at
                // their true locations); receivers whose message
                // predicates don't join them simply ignore them.
                let mut neighbors: Vec<VertexId> = graph
                    .out_neighbors(vertex)
                    .iter()
                    .chain(graph.in_neighbors(vertex))
                    .copied()
                    .collect();
                neighbors.sort_unstable();
                neighbors.dedup();
                out.shipped += fresh
                    .iter()
                    .map(|(_, t)| t.len() * neighbors.len())
                    .sum::<usize>();
                out.ship.push(ShipEntry { neighbors, fresh });
            }
        }
        out.states.push((vi, state));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_with};
    use crate::session::AriadneError;
    use ariadne_graph::generators::regular::path;
    use ariadne_pql::{Catalog, Params, UdfRegistry, Value};
    use ariadne_provenance::{ProvStore, StoreConfig};

    /// The standard catalog plus a test-local EDB predicate.
    fn catalog_with(pred: &str, arity: usize) -> Catalog {
        let mut c = Catalog::standard();
        c.register(pred, arity);
        c
    }

    #[test]
    fn empty_store_returns_empty_results() {
        let g = path(3);
        let store = ProvStore::new(StoreConfig::in_memory());
        let q = compile("p(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered(&g, &store, &q).unwrap();
        assert_eq!(run.layers, 0);
        assert_eq!(run.flush_rounds, 0);
        assert_eq!(run.shipped_tuples, 0);
        assert!(run.query_results.is_empty());
    }

    #[test]
    fn mixed_query_rejected() {
        let g = path(3);
        let store = ProvStore::new(StoreConfig::in_memory());
        let q = compile(
            "t(y, i) :- superstep(y, i).
             s(z, i) :- superstep(z, i).
             r(x, i) :- t(y, j), receive_message(x, y, m, i), s(z, k), send_message(x, z, m, i).",
            Params::new(),
        )
        .unwrap();
        match run_layered(&g, &store, &q) {
            Err(AriadneError::UnsupportedMode { mode, .. }) => assert_eq!(mode, "layered"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn local_query_over_replayed_layers() {
        // Hand-build a store: vertex 1 active at supersteps 0 and 2.
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(0, "superstep", vec![vec![Value::Id(1), Value::Int(0)]]).unwrap();
        store.ingest(2, "superstep", vec![vec![Value::Id(1), Value::Int(2)]]).unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered(&g, &store, &q).unwrap();
        assert_eq!(run.layers, 3); // layers 0, 1 (empty), 2
        assert_eq!(run.query_results.len("active"), 2);
    }

    #[test]
    fn out_of_range_locations_skipped() {
        // Tuples for vertices outside the graph are ignored, not a panic.
        let g = path(2);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(0, "superstep", vec![vec![Value::Id(99), Value::Int(0)]]).unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();
        let run = run_layered(&g, &store, &q).unwrap();
        assert_eq!(run.query_results.len("active"), 0);
    }

    /// The re-entrant range entry point replays exactly the requested
    /// layer slice: a full-range call equals `run_layered_with`, a
    /// sub-range only sees that slice's tuples, an out-of-extent range
    /// clamps, and a disjoint range is an empty run.
    #[test]
    fn layer_range_replay_is_reentrant() {
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..4u32 {
            store
                .ingest(s, "superstep", vec![vec![Value::Id(1), Value::Int(s as i64)]])
                .unwrap();
        }
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();

        let full = run_layered(&g, &store, &q).unwrap();
        assert_eq!(full.layer_range, (0, 3));

        let also_full =
            run_layered_range(&g, &store, &q, &LayeredConfig::default(), Some((0, 99))).unwrap();
        assert_eq!(also_full.layer_range, (0, 3), "range clamps to the extent");
        assert_eq!(
            also_full.query_results.sorted("active"),
            full.query_results.sorted("active")
        );

        let slice =
            run_layered_range(&g, &store, &q, &LayeredConfig::default(), Some((1, 2))).unwrap();
        assert_eq!(slice.layer_range, (1, 2));
        assert_eq!(slice.layers, 2);
        assert_eq!(slice.query_results.len("active"), 2, "layers 1 and 2 only");

        let empty =
            run_layered_range(&g, &store, &q, &LayeredConfig::default(), Some((7, 9))).unwrap();
        assert_eq!(empty.layers, 0);
        assert!(empty.query_results.is_empty());
    }

    #[test]
    fn pruning_skips_unreferenced_predicates() {
        let g = path(3);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(0, "superstep", vec![vec![Value::Id(1), Value::Int(0)]]).unwrap();
        store
            .ingest(0, "value", vec![vec![Value::Id(1), Value::Float(0.5), Value::Int(0)]])
            .unwrap();
        store
            .ingest(
                0,
                "send_message",
                vec![vec![Value::Id(1), Value::Id(2), Value::Float(0.5), Value::Int(0)]],
            )
            .unwrap();
        let q = compile("active(x, i) :- superstep(x, i).", Params::new()).unwrap();

        let pruned = run_layered(&g, &store, &q).unwrap();
        assert_eq!(pruned.segments_read, 1, "only superstep decoded");
        assert_eq!(pruned.segments_skipped, 2);
        assert!(pruned.bytes_skipped > 0);

        let full = run_layered_with(
            &g,
            &store,
            &q,
            &LayeredConfig {
                prune: false,
                ..LayeredConfig::default()
            },
        )
        .unwrap();
        assert_eq!(full.segments_read, 3);
        assert_eq!(full.segments_skipped, 0);
        assert_eq!(
            pruned.query_results.sorted("active"),
            full.query_results.sorted("active"),
            "pruning must not change results"
        );
    }

    /// Regression (the PR's foregrounded bug): a 2-hop backward chain
    /// whose inputs land in the *last replayed* layer. Descending replay
    /// visits layer 0 last; `trace` must then propagate hop by hop
    /// through the flush — the old single-pass flush evaluated once,
    /// derived the first hop's replica, and dropped it, so the chain
    /// never closed.
    #[test]
    fn two_hop_chain_closing_in_last_layer_completes() {
        // path(4): 0 -> 1 -> 2 -> 3. Seed `mark` at vertex 3; trace
        // follows send_message edges backward: 2, then 1, then 0.
        let g = path(4);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for (src, dst) in [(0u64, 1u64), (1, 2), (2, 3)] {
            store
                .ingest(
                    0,
                    "send_message",
                    vec![vec![
                        Value::Id(src),
                        Value::Id(dst),
                        Value::Float(1.0),
                        Value::Int(0),
                    ]],
                )
                .unwrap();
        }
        store.ingest(0, "mark", vec![vec![Value::Id(3), Value::Int(0)]]).unwrap();
        // Something in a later layer so layer 0 is genuinely the last
        // round of a descending replay.
        store.ingest(1, "superstep", vec![vec![Value::Id(0), Value::Int(1)]]).unwrap();

        let q = compile_with(
            "trace(x, i) :- mark(x, i).
             trace(x, i) :- send_message(x, y, m, i), trace(y, i).",
            Params::new(),
            &catalog_with("mark", 2),
            UdfRegistry::standard(),
        )
        .unwrap();
        assert_eq!(q.direction(), Direction::Backward);
        let run = run_layered(&g, &store, &q).unwrap();
        let traced: BTreeSet<u64> = run
            .query_results
            .sorted("trace")
            .iter()
            .filter_map(|t| t.first().and_then(|v| v.as_id()))
            .collect();
        assert_eq!(
            traced,
            [0, 1, 2, 3].into_iter().collect(),
            "multi-hop chain closing in the last layer must complete \
             (flush_rounds = {})",
            run.flush_rounds
        );
        assert!(
            run.flush_rounds >= 2,
            "chain needs >= 2 flush rounds to close, got {}",
            run.flush_rounds
        );
    }

    /// The forward twin: a chain over the final layer's tuples that can
    /// only close after the last layer round.
    #[test]
    fn forward_chain_in_final_layer_completes() {
        let g = path(4);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        store.ingest(0, "superstep", vec![vec![Value::Id(0), Value::Int(0)]]).unwrap();
        // All chain inputs land in the FINAL forward layer (1).
        for (src, dst) in [(0u64, 1u64), (1, 2), (2, 3)] {
            store
                .ingest(
                    1,
                    "receive_message",
                    vec![vec![
                        Value::Id(dst),
                        Value::Id(src),
                        Value::Float(1.0),
                        Value::Int(1),
                    ]],
                )
                .unwrap();
        }
        store.ingest(1, "seed", vec![vec![Value::Id(0), Value::Int(1)]]).unwrap();
        let q = compile_with(
            "reach(x, i) :- seed(x, i).
             reach(x, i) :- receive_message(x, y, m, i), reach(y, i).",
            Params::new(),
            &catalog_with("seed", 2),
            UdfRegistry::standard(),
        )
        .unwrap();
        assert_eq!(q.direction(), Direction::Forward);
        let run = run_layered(&g, &store, &q).unwrap();
        let reached: BTreeSet<u64> = run
            .query_results
            .sorted("reach")
            .iter()
            .filter_map(|t| t.first().and_then(|v| v.as_id()))
            .collect();
        assert_eq!(
            reached,
            [0, 1, 2, 3].into_iter().collect(),
            "forward chain over the final layer must complete"
        );
        assert!(run.flush_rounds >= 2, "got {}", run.flush_rounds);
    }

    /// Column-selective replay skips stored payload columns the query
    /// never observes, without changing the result set — across every
    /// segment format.
    #[test]
    fn projection_skips_unobserved_columns() {
        use ariadne_provenance::SegmentFormat;
        let g = path(6);
        for format in [SegmentFormat::V1, SegmentFormat::V2, SegmentFormat::V3] {
            let mut store = ProvStore::new(StoreConfig::in_memory().with_format(format));
            for s in 0..3u32 {
                for v in 0..5u64 {
                    store
                        .ingest(
                            s,
                            "receive_message",
                            vec![vec![
                                Value::Id(v + 1),
                                Value::Id(v),
                                // A fat payload the query never looks at.
                                Value::floats(&[v as f64; 16]),
                                Value::Int(s as i64),
                            ]],
                        )
                        .unwrap();
                    store
                        .ingest(s, "superstep", vec![vec![Value::Id(v), Value::Int(s as i64)]])
                        .unwrap();
                }
            }
            store.pack_all();
            // `m` occurs once -> the payload column is provably dead.
            let q = compile(
                "hot(x, i) :- receive_message(x, y, m, i), superstep(y, i).",
                Params::new(),
            )
            .unwrap();
            let projected = run_layered(&g, &store, &q).unwrap();
            let full = run_layered_with(
                &g,
                &store,
                &q,
                &LayeredConfig {
                    project: false,
                    ..LayeredConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                projected.query_results.sorted("hot"),
                full.query_results.sorted("hot"),
                "projection must not change results ({format:?})"
            );
            assert!(
                projected.cols_skipped > 0,
                "expected skipped columns under {format:?}"
            );
            assert_eq!(full.cols_skipped, 0);
            if format == SegmentFormat::V2 {
                assert!(
                    projected.col_bytes_skipped > 0,
                    "v2 block skips must be byte-accounted"
                );
            }
        }
    }

    /// The parallel path is bit-identical to the sequential reference on
    /// every surface of the run, including at thread counts that do not
    /// divide the touched-set sizes.
    #[test]
    fn parallel_rounds_match_sequential() {
        use ariadne_graph::generators::erdos_renyi;
        let g = erdos_renyi(120, 600, 9);
        let mut store = ProvStore::new(StoreConfig::in_memory());
        for s in 0..4u32 {
            for v in 0..120u64 {
                if (v + u64::from(s)) % 3 == 0 {
                    store
                        .ingest(s, "superstep", vec![vec![Value::Id(v), Value::Int(s as i64)]])
                        .unwrap();
                    store
                        .ingest(
                            s,
                            "change",
                            vec![vec![Value::Id(v), Value::Float(s as f64), Value::Int(s as i64)]],
                        )
                        .unwrap();
                }
            }
        }
        let q = compile_with(
            "hot(x, i) :- change(x, d, i), superstep(x, i).
             warm(x, i) :- change(y, d, i), receive_message(x, y, m, i).",
            Params::new(),
            &catalog_with("change", 3),
            UdfRegistry::standard(),
        )
        .unwrap();
        let seq = run_layered_with(&g, &store, &q, &LayeredConfig::default()).unwrap();
        for t in [2usize, 3, 7] {
            let par = run_layered_with(&g, &store, &q, &LayeredConfig::parallel(t)).unwrap();
            assert_eq!(par.threads, t);
            for pred in ["hot", "warm"] {
                assert_eq!(
                    seq.query_results.sorted(pred),
                    par.query_results.sorted(pred),
                    "{pred} differs at {t} threads"
                );
            }
            assert_eq!(
                (seq.layers, seq.flush_rounds, seq.shipped_tuples),
                (par.layers, par.flush_rounds, par.shipped_tuples),
                "round/ship counters differ at {t} threads"
            );
            assert_eq!(
                (seq.injected_tuples, seq.evaluated_vertices),
                (par.injected_tuples, par.evaluated_vertices),
                "work counters differ at {t} threads"
            );
            assert_eq!(seq.query_stats, par.query_stats, "EvalStats differ at {t} threads");
        }
    }
}
