//! `lineage`: capture, then ask offline questions beside writes.
//!
//! A cycle captures SSSP and PageRank in full (Query 2) into spilling
//! spools with the default store format and durability, compacts both
//! and reopens them cold. Then come rounds: Query 10 backward-lineage
//! replays from seeded (α, σ) roots over the SSSP store, one Query 1
//! (apt) replay over the PageRank store, and a write barrier that
//! commits a seeded batch of about 1% of the edges and appends the SSSP
//! re-capture to the same store as a delta epoch. Cycles repeat from a
//! fresh capture, so every cycle reads through the same number of
//! epochs, and draw fresh roots, so a run samples many of them.
//!
//! The store (encode, spill, compact, extent reads, epochs) and layered
//! replay do most of the work; the engine runs only inside capture and
//! there is no cache. Reads go beside epoch writes, so a change that
//! speeds one side and slows the other shows here.

use crate::report::{self, Report};
use crate::stats::Samples;
use crate::{generate, probe, Run, Size};
use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::{CaptureSpec, CompiledQuery, LayeredConfig, LayeredRun, MutableSession, StoreConfig};
use ariadne_analytics::{PageRank, Sssp};
use ariadne_graph::{Csr, GraphDelta, VertexId};
use ariadne_pql::Value;
use ariadne_provenance::ProvStore;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up is cheap here, so it repeats often enough for its median to
/// clear the reporting floor.
const SETUP_REPS: usize = crate::stats::MIN_MEDIAN_SAMPLES + 1;
/// Query 10 replays per round.
const LINEAGE_PER_ROUND: usize = 4;
/// Rounds (write barriers, so epochs) per cycle.
const ROUNDS_PER_CYCLE: usize = 5;
/// Roots per round the gate replays over a cold capture after the barrier.
const GHOST_CHECKS: usize = 3;

struct Inputs {
    graph: Csr,
    source: VertexId,
    apt: CompiledQuery,
    pagerank: PageRank,
}

/// Registry counters the store exposes for the write path.
const INGEST_TUPLES: &str = "store_ingest_tuples_total";
const INGEST_BYTES: &str = "store_ingest_bytes_total";
const ENCODE_NS: &str = "store_encode_ns";
const FSYNC_NS: &str = "store_fsync_ns";
const SPILLED: &str = "store_spilled_bytes_total";
const EXTENT_READS: &str = "store_extent_reads_total";
/// PQL scan-scratch requests served from the pool / freshly allocated.
pub const SCRATCH_REUSE: &str = "pql_scratch_reuse_total";
pub const SCRATCH_ALLOC: &str = "pql_scratch_alloc_total";

fn setup(run: &Run, scale: u32, report: &mut Report) -> Result<Inputs, String> {
    let (graph, gen) = probe::call("graph:generate", || generate(run, scale));
    report.layer("graph.generate_s", gen.secs);
    let source = graph
        .max_out_degree_vertex()
        .ok_or("generated graph has no vertices")?;
    Ok(Inputs {
        graph,
        source,
        apt: queries::apt("udf_diff", Value::Float(0.1)).map_err(|e| e.to_string())?,
        pagerank: PageRank {
            supersteps: 10,
            ..PageRank::default()
        },
    })
}

/// About 1% of the edges: half inserted between seeded endpoints, half
/// removed from the current graph. Seeded by round, so every cycle
/// applies the same sequence of batches.
fn mutation_batch(run: &Run, csr: &Csr, round: usize) -> GraphDelta {
    let mut rng = run.rng(0x1000 + round as u64);
    let n = csr.num_vertices() as u64;
    let half = (csr.num_edges() / 200).max(1);
    let mut delta = GraphDelta::new();
    for _ in 0..half {
        delta.add_edge(
            VertexId(rng.gen_range(0..n)),
            VertexId(rng.gen_range(0..n)),
            1.0,
        );
    }
    let existing: Vec<(VertexId, VertexId, f64)> = csr.edges().collect();
    for _ in 0..half.min(existing.len()) {
        let (s, d, _) = existing[rng.gen_range(0..existing.len())];
        delta.remove_edge(s, d);
    }
    delta
}

/// Query 10 for each root of cycle `cycle`. Every cycle draws fresh
/// roots, so a run's replay latencies sample many roots rather than the
/// same few again.
fn pick_roots(
    run: &Run,
    layers: &crate::RootLayers,
    cycle: usize,
) -> Result<Vec<CompiledQuery>, String> {
    layers
        .draw(
            run,
            LINEAGE_PER_ROUND * ROUNDS_PER_CYCLE,
            0x2000 + cycle as u64,
        )
        .into_iter()
        .map(|(alpha, sigma)| {
            queries::backward_lineage(VertexId(alpha), sigma).map_err(|e| e.to_string())
        })
        .collect()
}

fn spool_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Equal answers: the same sorted tuples in every result relation.
fn same_results(query: &CompiledQuery, a: &LayeredRun, b: &LayeredRun) -> bool {
    query
        .query()
        .idbs
        .keys()
        .all(|p| a.query_results.sorted(p) == b.query_results.sorted(p))
}

/// Bit-for-bit replay identity: same answers and the same replay work.
fn identical(query: &CompiledQuery, a: &LayeredRun, b: &LayeredRun) -> bool {
    same_results(query, a, b)
        && (
            a.layers,
            a.flush_rounds,
            a.injected_tuples,
            a.shipped_tuples,
            a.evaluated_vertices,
        ) == (
            b.layers,
            b.flush_rounds,
            b.injected_tuples,
            b.shipped_tuples,
            b.evaluated_vertices,
        )
}

/// What a cycle measured.
#[derive(Default)]
struct Cycle {
    capture_s: f64,
    store_bytes: u64,
    lineage: Vec<f64>,
    apt: Vec<f64>,
    mutate: Vec<f64>,
    /// Result rows of each apt replay (checked against the gate cycle:
    /// the PageRank store and query are the same in every cycle).
    apt_rows: Vec<usize>,
    failed: usize,
    attempted: usize,
}

/// In-memory references the gate cycle compares against.
struct Gate {
    sssp: ProvStore,
    pagerank: ProvStore,
}

struct Ctx<'a> {
    run: &'a Run,
    inp: &'a Inputs,
    layered: LayeredConfig,
    session: Ariadne,
    /// Median bare-analytic times, the base of `core.capture.extra_s`.
    bare_sssp_s: f64,
    bare_pagerank_s: f64,
}

impl Ctx<'_> {
    fn spilling(&self, dir: PathBuf) -> Ariadne {
        Ariadne {
            store: StoreConfig::spilling(0, dir),
            ..self.session.clone()
        }
    }

    /// Capture into a spilling spool and compact it; per-layer figures
    /// from the store counters in a traced run.
    fn capture_into<A>(
        &self,
        dir: &Path,
        analytic: &A,
        graph: &Csr,
        bare_s: f64,
        report: &mut Report,
    ) -> Result<(), String>
    where
        A: ariadne_vc::VertexProgram,
        A::V: ariadne_provenance::ProvEncode,
        A::M: ariadne_provenance::ProvEncode,
    {
        let session = self.spilling(dir.to_path_buf());
        let (capture, d) = probe::call("core.capture:capture", || {
            session.capture(analytic, graph, &CaptureSpec::full())
        });
        let mut capture = capture.map_err(|e| e.to_string())?;
        let (compacted, c) = probe::call("provenance:compact", || capture.store.compact());
        let compacted = compacted.map_err(|e| e.to_string())?;
        if probe::tracing() {
            report.layer("core.capture.call_s", d.secs);
            report.layer("core.capture.extra_s", d.secs - bare_s);
            report.layer("provenance.ingest_tuples", d.counter(INGEST_TUPLES) as f64);
            report.layer("provenance.ingest_bytes", d.counter(INGEST_BYTES) as f64);
            report.layer("provenance.encode_s", d.counter(ENCODE_NS) as f64 * 1e-9);
            report.layer("provenance.fsync_s", d.counter(FSYNC_NS) as f64 * 1e-9);
            report.layer("provenance.spilled_bytes", d.counter(SPILLED) as f64);
            report.layer("provenance.compact_s", c.secs);
            report.layer("provenance.compact_bytes_in", compacted.bytes_in as f64);
            report.layer("provenance.compact_bytes_out", compacted.bytes_out as f64);
            record_vc(report, &capture.metrics);
        }
        Ok(())
    }

    fn reopen(&self, dir: &Path, report: &mut Report) -> Result<ProvStore, String> {
        let (store, d) = probe::call("provenance:reopen", || {
            ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.to_path_buf()))
        });
        if probe::tracing() {
            report.layer("provenance.reopen_s", d.secs);
        }
        store.map_err(|e| e.to_string())
    }

    fn replay(
        &self,
        graph: &Csr,
        store: &ProvStore,
        query: &CompiledQuery,
        report: &mut Report,
    ) -> (Option<LayeredRun>, f64) {
        let (out, d) = probe::call("core.layered:layered_with", || {
            self.session
                .layered_with(graph, store, query, &self.layered)
        });
        if probe::tracing() {
            if let Ok(r) = &out {
                record_replay(report, r, &d);
            }
        }
        (out.ok(), d.secs)
    }

    /// One cycle: capture, compact, reopen, then the rounds. With
    /// `gate`, every replay is also compared against in-memory
    /// references (outside the timings) and the round's answers after
    /// each write barrier against a cold capture of the mutated graph.
    fn cycle(
        &self,
        index: usize,
        roots: &[CompiledQuery],
        gate: Option<&Gate>,
        report: &mut Report,
    ) -> Result<Cycle, String> {
        let inp = self.inp;
        let dir = self.run.work_dir.join(format!("cycle-{index}"));
        let (sssp_dir, pr_dir) = (dir.join("sssp"), dir.join("pagerank"));
        let sssp = Sssp::new(inp.source);
        let mut out = Cycle::default();

        let (captured, unit) = probe::call("bench:lineage.capture", || -> Result<(), String> {
            self.capture_into(&sssp_dir, &sssp, &inp.graph, self.bare_sssp_s, report)?;
            self.capture_into(
                &pr_dir,
                &inp.pagerank,
                &inp.graph,
                self.bare_pagerank_s,
                report,
            )
        });
        captured?;
        out.capture_s = unit.secs;
        out.store_bytes = spool_bytes(&sssp_dir) + spool_bytes(&pr_dir);
        let (stores, _) = probe::call("bench:lineage.reopen", || {
            Ok::<_, String>((
                self.reopen(&sssp_dir, report)?,
                self.reopen(&pr_dir, report)?,
            ))
        });
        let (mut sssp_store, pr_store) = stores?;
        let mut mutable = MutableSession::new(self.session.clone(), inp.graph.clone());

        for round in 0..ROUNDS_PER_CYCLE {
            let batch = &roots[round * LINEAGE_PER_ROUND..(round + 1) * LINEAGE_PER_ROUND];
            let mut checks: Vec<(CompiledQuery, LayeredRun)> = Vec::new();
            let (res, _) = probe::call("bench:lineage.round", || -> Result<(), String> {
                for query in batch {
                    out.attempted += 1;
                    let (run, secs) = self.replay(mutable.csr(), &sssp_store, query, report);
                    match run {
                        Some(r) => {
                            out.lineage.push(secs);
                            if gate.is_some() {
                                checks.push((query.clone(), r));
                            }
                        }
                        None => out.failed += 1,
                    }
                }
                out.attempted += 1;
                let (run, secs) = self.replay(&inp.graph, &pr_store, &inp.apt, report);
                match run {
                    Some(r) => {
                        out.apt.push(secs);
                        out.apt_rows
                            .push(r.query_results.iter().map(|(_, rel)| rel.len()).sum());
                        if gate.is_some() {
                            checks.push((inp.apt.clone(), r));
                        }
                    }
                    None => out.failed += 1,
                }
                out.attempted += 1;
                let delta = mutation_batch(self.run, mutable.csr(), round);
                mutable.mutate(delta);
                let (_, commit) = probe::call("graph:commit", || mutable.commit());
                let (epoch, append) = probe::call("core.mutable:capture_epoch", || {
                    mutable.capture_epoch(&sssp, &CaptureSpec::full(), &mut sssp_store)
                });
                match epoch {
                    Ok((capture, stats)) => {
                        out.mutate.push(commit.secs + append.secs);
                        if probe::tracing() {
                            report.layer("graph.commit_s", commit.secs);
                            report.layer("core.mutable.capture_epoch_s", append.secs);
                            report.layer(
                                "provenance.epoch_bytes_appended",
                                stats.bytes_appended as f64,
                            );
                            report.layer("provenance.epoch_carried", stats.carried as f64);
                            record_vc(report, &capture.metrics);
                        }
                    }
                    Err(_) => out.failed += 1,
                }
                Ok(())
            });
            res?;
            if let Some(gate) = gate {
                self.check_round(gate, round, batch, &checks, &mutable, &sssp_store)?;
            }
        }
        drop((sssp_store, pr_store));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(out)
    }

    fn check_round(
        &self,
        gate: &Gate,
        round: usize,
        batch: &[CompiledQuery],
        checks: &[(CompiledQuery, LayeredRun)],
        mutable: &MutableSession,
        epoch_store: &ProvStore,
    ) -> Result<(), String> {
        let fail = |e: ariadne::AriadneError| e.to_string();
        // Before the first barrier the reopened spools must replay
        // exactly like the in-memory captures.
        for (i, (query, spooled)) in checks.iter().enumerate().filter(|_| round == 0) {
            let reference = if i == checks.len() - 1 {
                &gate.pagerank
            } else {
                &gate.sssp
            };
            let direct = self
                .session
                .layered_with(&self.inp.graph, reference, query, &self.layered)
                .map_err(fail)?;
            if !identical(query, spooled, &direct) {
                return Err(format!(
                    "round {round}: replay over the reopened spool differs from the in-memory capture"
                ));
            }
        }
        // No ghost provenance: after the barrier, the epoch store answers
        // like a cold capture of the mutated graph.
        let cold = self
            .session
            .capture(
                &Sssp::new(self.inp.source),
                mutable.csr(),
                &CaptureSpec::full(),
            )
            .map_err(fail)?;
        for query in batch.iter().take(GHOST_CHECKS) {
            let epoch = self
                .session
                .layered_with(mutable.csr(), epoch_store, query, &self.layered)
                .map_err(fail)?;
            let fresh = self
                .session
                .layered_with(mutable.csr(), &cold.store, query, &self.layered)
                .map_err(fail)?;
            if !same_results(query, &epoch, &fresh) {
                return Err(format!(
                    "round {round}: epoch store answers differently from a cold capture of the mutated graph"
                ));
            }
        }
        Ok(())
    }
}

fn record_vc(report: &mut Report, m: &ariadne_vc::RunMetrics) {
    let p = m.phase_totals();
    report.layer("vc.compute_s", p.compute.as_secs_f64());
    report.layer("vc.combine_s", p.combine.as_secs_f64());
    report.layer("vc.scatter_s", p.scatter.as_secs_f64());
    report.layer("vc.barrier_s", p.barrier.as_secs_f64());
    report.layer("vc.supersteps", m.num_supersteps() as f64);
    report.layer("vc.messages", m.total_messages() as f64);
    report.layer("vc.message_bytes", m.total_message_bytes() as f64);
}

/// Per-replay figures: the replay's own counters, the store's extent
/// reads and the allocator bytes over the call.
pub fn record_replay(report: &mut Report, r: &LayeredRun, d: &probe::Delta) {
    let (inject, eval, merge) = (
        r.phase_inject_ns as f64 * 1e-9,
        r.phase_eval_ns as f64 * 1e-9,
        r.phase_merge_ns as f64 * 1e-9,
    );
    report.layer("core.layered.inject_s", inject);
    report.layer("core.layered.eval_s", eval);
    report.layer("core.layered.merge_s", merge);
    report.layer("core.layered.residual_s", d.secs - inject - eval - merge);
    report.layer("core.layered.injected_tuples", r.injected_tuples as f64);
    report.layer("core.layered.shipped_tuples", r.shipped_tuples as f64);
    report.layer(
        "core.layered.evaluated_vertices",
        r.evaluated_vertices as f64,
    );
    report.layer("core.layered.layers", r.layers as f64);
    report.layer("core.layered.flush_rounds", r.flush_rounds as f64);
    report.layer("core.layered.alloc_bytes", d.alloc_bytes as f64);
    report.layer("provenance.segments_read", r.segments_read as f64);
    report.layer("provenance.segments_skipped", r.segments_skipped as f64);
    report.layer("provenance.bytes_read", r.bytes_read as f64);
    report.layer("provenance.bytes_skipped", r.bytes_skipped as f64);
    report.layer("provenance.col_bytes_skipped", r.col_bytes_skipped as f64);
    report.layer("provenance.extent_reads", d.counter(EXTENT_READS) as f64);
    let s = &r.query_stats;
    report.layer("pql.rule_firings", s.rule_firings as f64);
    report.layer("pql.derived_tuples", s.derived_tuples as f64);
    report.layer("pql.delta_tuples", s.delta_tuples as f64);
    report.layer("pql.fixpoint_rounds", s.fixpoint_rounds as f64);
    let (reuse, alloc) = (d.counter(SCRATCH_REUSE), d.counter(SCRATCH_ALLOC));
    if reuse + alloc > 0 {
        report.layer(
            "pql.scratch_reuse_ratio",
            reuse as f64 / (reuse + alloc) as f64,
        );
    }
}

pub fn run(run: &Run, report: &mut Report) -> Result<String, String> {
    let scale = if run.size == Size::Smoke { 5 } else { 10 };
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(setup(run, scale, report)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("at least one setup repetition");
    run.record_graph(scale, &inp.graph);
    let session = Ariadne::with_threads(run.threads);
    let sssp = Sssp::new(inp.source);
    let bare = |f: &dyn Fn()| {
        let times = (0..3).map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        });
        Samples::new(times.collect()).median_unchecked()
    };
    let ctx = Ctx {
        run,
        inp: &inp,
        layered: LayeredConfig::parallel(run.threads),
        session: session.clone(),
        bare_sssp_s: bare(&|| drop(session.baseline(&sssp, &inp.graph))),
        bare_pagerank_s: bare(&|| drop(session.baseline(&inp.pagerank, &inp.graph))),
    };

    // Gate cycle: in-memory references, and the apt answer sizes every
    // timed cycle must reproduce.
    let fail = |e: ariadne::AriadneError| e.to_string();
    let gate = Gate {
        sssp: session
            .capture(&sssp, &inp.graph, &CaptureSpec::full())
            .map_err(fail)?
            .store,
        pagerank: session
            .capture(&inp.pagerank, &inp.graph, &CaptureSpec::full())
            .map_err(fail)?
            .store,
    };
    let layers = crate::RootLayers::of(&gate.sssp)?;
    let mut scratch = Report::default();
    let reference = ctx.cycle(0, &pick_roots(run, &layers, 0)?, Some(&gate), &mut scratch)?;
    if reference.failed > 0 {
        return Err(format!(
            "{} operations failed in the gate cycle",
            reference.failed
        ));
    }
    drop(gate);

    let mut all = Cycle::default();
    let mut unit_time = [Vec::new(), Vec::new()];
    let (mut captures, mut bytes) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut unit = 0;
    while run.keep_measuring(started, unit, all.mutate.len(), 0) {
        let traced = run.trace_unit(unit);
        unit += 1;
        let t = Instant::now();
        let c = ctx.cycle(unit, &pick_roots(run, &layers, unit)?, None, report)?;
        probe::set_tracing(false);
        unit_time[traced as usize].push(t.elapsed().as_secs_f64());
        for i in 0..c.attempted {
            report.op(i >= c.failed);
        }
        if c.failed == 0 && c.apt_rows != reference.apt_rows {
            return Err("apt replay answers changed between cycles".into());
        }
        if !traced {
            captures.push(c.capture_s);
            bytes.push(c.store_bytes as f64);
            all.lineage.extend(c.lineage);
            all.apt.extend(c.apt);
            all.mutate.extend(c.mutate);
        }
    }
    let measured = started.elapsed().as_secs_f64();

    if run.traced {
        report.layer_fixed("trace.overhead_ratio", crate::monitor::overhead(&unit_time));
        return Ok(crate::store_conditions());
    }
    let setups = Samples::new(setups);
    let lineage = Samples::new(all.lineage);
    let apt = Samples::new(all.apt);
    let mutate = Samples::new(all.mutate);
    report::print_figure("setup_s", "s", 1.0, &setups);
    report::print_figure("capture_s", "s", 1.0, &Samples::new(captures));
    let edges = inp.graph.num_edges().max(1) as f64;
    report::print_value(
        "store_bytes_per_edge",
        "bytes",
        Samples::new(bytes).mean() / edges,
    );
    report::print_figure("lineage_p50_s", "s", 1.0, &lineage);
    report::print_figure("apt_replay_s", "s", 1.0, &apt);
    report::print_figure("mutate_s", "s", 1.0, &mutate);
    report::print_value(
        "error_rate",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set_e2e("setup_s", setups.median_unchecked());
    report.set_e2e("query_p50_ms", lineage.median_unchecked() * 1e3);
    report.set_e2e("aux_p50_ms", mutate.median_unchecked() * 1e3);
    report.set_e2e("queries_per_s", lineage.len() as f64 / measured);
    Ok(crate::store_conditions())
}
