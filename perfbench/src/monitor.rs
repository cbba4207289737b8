//! `monitor`: online evaluation, the series of the paper's Figs 8 and 11.
//!
//! One iteration runs each analytic bare and then with its online
//! query: PageRank (10 supersteps) + Query 4, PageRank + Query 1 (apt),
//! SSSP + Query 1, WCC + Query 6. The engine, the online wrapper and
//! per-vertex PQL evaluation do all the work; the store, layered replay
//! and serve do none, so a change there should leave this workload
//! unchanged.

use crate::report::{self, Report};
use crate::stats::Samples;
use crate::{generate, probe, Run, Size};
use ariadne::queries;
use ariadne::session::Ariadne;
use ariadne::{CaptureSpec, CompiledQuery, LayeredConfig};
use ariadne_analytics::{PageRank, Sssp, Wcc};
use ariadne_graph::{Csr, VertexId};
use ariadne_pql::{EvalStats, Value};
use ariadne_provenance::ProvEncode;
use ariadne_vc::{RunMetrics, VertexProgram};
use std::time::Instant;

/// Set-up is cheap here, so it repeats often enough for its median to
/// clear the reporting floor.
const SETUP_REPS: usize = crate::stats::MIN_MEDIAN_SAMPLES + 1;

struct Inputs {
    graph: Csr,
    source: VertexId,
    pagerank_check: CompiledQuery,
    apt: CompiledQuery,
    no_message_no_change: CompiledQuery,
}

fn setup(run: &Run, scale: u32, report: &mut Report) -> Result<Inputs, String> {
    let (graph, gen) = probe::call("graph:generate", || generate(run, scale));
    report.layer("graph.generate_s", gen.secs);
    let source = graph
        .max_out_degree_vertex()
        .ok_or("generated graph has no vertices")?;
    let compile = |q: Result<CompiledQuery, ariadne_pql::PqlError>| q.map_err(|e| e.to_string());
    Ok(Inputs {
        graph,
        source,
        pagerank_check: compile(queries::pagerank_check())?,
        apt: compile(queries::apt("udf_diff", Value::Float(0.1)))?,
        no_message_no_change: compile(queries::sssp_wcc_no_message_no_change())?,
    })
}

/// Bare runs per analytic per iteration. A bare run takes milliseconds,
/// so one sample per iteration would leave its median at the mercy of
/// scheduler noise; three cost little next to the online run.
const BARE_REPS: usize = 3;

/// Iterations an untraced run measures at least (about 40 s on the
/// reference host). The host's speed drifts in phases tens of seconds
/// long; a run that spans more of them varies less from run to run.
const MIN_ITERATIONS: usize = 36;

/// Totals of one iteration, bare and online, as seen from outside.
#[derive(Default)]
struct Iteration {
    /// The bare mix's total, once per repetition.
    bare_s: [f64; BARE_REPS],
    online_s: f64,
    metrics: Vec<RunMetrics>,
    query: EvalStats,
    /// PQL scratch requests (reused, allocated) from registry deltas.
    scratch: (u64, u64),
    rows: Vec<usize>,
    failed: usize,
}

impl Iteration {
    fn bare_median(&self) -> f64 {
        Samples::new(self.bare_s.to_vec()).median_unchecked()
    }
}

/// Run `analytic` bare and with `query` online, adding to `it`.
fn pair<A>(ariadne: &Ariadne, it: &mut Iteration, analytic: &A, graph: &Csr, query: &CompiledQuery)
where
    A: VertexProgram,
    A::V: ProvEncode,
    A::M: ProvEncode,
{
    for rep in 0..BARE_REPS {
        let (bare, d) = probe::call("vc:baseline", || ariadne.baseline(analytic, graph));
        it.bare_s[rep] += d.secs;
        if rep == 0 {
            it.metrics.push(bare.metrics);
        }
    }
    let (online, d) = probe::call("core.online:online", || {
        ariadne.online(analytic, graph, query)
    });
    it.online_s += d.secs;
    // The online path leaves `EvalStats`' scratch fields at zero; the
    // registry counters (traced runs only) carry them.
    it.scratch.0 += d.counter(crate::lineage::SCRATCH_REUSE);
    it.scratch.1 += d.counter(crate::lineage::SCRATCH_ALLOC);
    match online {
        Ok(o) => {
            it.metrics.push(o.metrics);
            it.query.merge(&o.query_stats);
            it.rows
                .push(o.query_results.iter().map(|(_, r)| r.len()).sum());
        }
        Err(_) => it.failed += 1,
    }
}

fn iteration(ariadne: &Ariadne, inp: &Inputs, pagerank: &PageRank) -> Iteration {
    let mut it = Iteration::default();
    pair(ariadne, &mut it, pagerank, &inp.graph, &inp.pagerank_check);
    pair(ariadne, &mut it, pagerank, &inp.graph, &inp.apt);
    pair(
        ariadne,
        &mut it,
        &Sssp::new(inp.source),
        &inp.graph,
        &inp.apt,
    );
    pair(
        ariadne,
        &mut it,
        &Wcc,
        &inp.graph,
        &inp.no_message_no_change,
    );
    it
}

/// The online theorem for one pair: the analytic's values are
/// untouched by the online query, and the online result equals a
/// layered replay of the query over a full capture of the same run.
fn gate<A>(
    ariadne: &Ariadne,
    threads: usize,
    analytic: &A,
    graph: &Csr,
    query: &CompiledQuery,
) -> Result<usize, String>
where
    A: VertexProgram,
    A::V: ProvEncode + PartialEq,
    A::M: ProvEncode,
{
    let bare = ariadne.baseline(analytic, graph);
    let online = ariadne
        .online(analytic, graph, query)
        .map_err(|e| e.to_string())?;
    if online.values != bare.values {
        return Err("online evaluation changed the analytic's values".into());
    }
    let capture = ariadne
        .capture(analytic, graph, &CaptureSpec::full())
        .map_err(|e| e.to_string())?;
    let layered = ariadne
        .layered_with(
            graph,
            &capture.store,
            query,
            &LayeredConfig::parallel(threads),
        )
        .map_err(|e| e.to_string())?;
    for pred in query.query().idbs.keys() {
        if online.query_results.sorted(pred) != layered.query_results.sorted(pred) {
            return Err(format!("online and layered results differ on {pred:?}"));
        }
    }
    Ok(online.query_results.iter().map(|(_, r)| r.len()).sum())
}

pub fn run(run: &Run, report: &mut Report) -> Result<String, String> {
    let scale = if run.size == Size::Smoke { 6 } else { 10 };
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(setup(run, scale, report)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("at least one setup repetition");
    run.record_graph(scale, &inp.graph);
    let ariadne = Ariadne::with_threads(run.threads);
    let pagerank = PageRank {
        supersteps: 10,
        ..PageRank::default()
    };

    let t = run.threads;
    let expected_rows = [
        gate(&ariadne, t, &pagerank, &inp.graph, &inp.pagerank_check)?,
        gate(&ariadne, t, &pagerank, &inp.graph, &inp.apt)?,
        gate(&ariadne, t, &Sssp::new(inp.source), &inp.graph, &inp.apt)?,
        gate(&ariadne, t, &Wcc, &inp.graph, &inp.no_message_no_change)?,
    ];

    let mut bare = Vec::new();
    let mut online = Vec::new();
    let mut unit_time = [Vec::new(), Vec::new()];
    let (mut sum_bare, mut sum_online, mut reuse, mut alloc) = (0.0, 0.0, 0u64, 0u64);
    let started = Instant::now();
    let mut unit = 0;
    while run.keep_measuring(started, unit, online.len(), MIN_ITERATIONS) {
        let traced = run.trace_unit(unit);
        unit += 1;
        let (it, d) = probe::call("bench:monitor.iteration", || {
            iteration(&ariadne, &inp, &pagerank)
        });
        probe::set_tracing(false);
        unit_time[traced as usize].push(d.secs);
        let ops = 4 * (BARE_REPS + 1);
        for i in 0..ops {
            report.op(i < ops - it.failed);
        }
        if it.failed > 0 {
            continue;
        }
        if it.rows != expected_rows {
            return Err(format!(
                "online result sizes changed between runs: {:?} vs {expected_rows:?}",
                it.rows
            ));
        }
        if traced {
            record_layers(report, &it);
            sum_bare += it.bare_median();
            sum_online += it.online_s;
            reuse += it.scratch.0;
            alloc += it.scratch.1;
        } else {
            bare.extend(it.bare_s);
            online.push(it.online_s);
        }
    }
    let measured = started.elapsed().as_secs_f64();

    if run.traced {
        report.layer_fixed(
            "core.online.overhead_x",
            sum_online / sum_bare.max(f64::MIN_POSITIVE),
        );
        if reuse + alloc > 0 {
            report.layer_fixed(
                "pql.scratch_reuse_ratio",
                reuse as f64 / (reuse + alloc) as f64,
            );
        }
        report.layer_fixed("trace.overhead_ratio", overhead(&unit_time));
        return Ok(String::new());
    }
    let setups = Samples::new(setups);
    let bare = Samples::new(bare);
    let online = Samples::new(online);
    report::print_figure("setup_s", "s", 1.0, &setups);
    report::print_figure("analytic_s", "s", 1.0, &bare);
    report::print_figure("online_s", "s", 1.0, &online);
    report::print_value(
        "online_over_bare",
        "ratio",
        online.median_unchecked() / bare.median_unchecked(),
    );
    report::print_value(
        "error_rate",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set_e2e("setup_s", setups.median_unchecked());
    report.set_e2e("query_p50_ms", online.median_unchecked() * 1e3);
    report.set_e2e("aux_p50_ms", bare.median_unchecked() * 1e3);
    report.set_e2e("queries_per_s", 4.0 * online.len() as f64 / measured);
    Ok(String::new())
}

/// Traced-over-untraced mean unit time, minus one.
pub fn overhead(unit_time: &[Vec<f64>; 2]) -> f64 {
    let (plain, traced) = (
        Samples::new(unit_time[0].clone()),
        Samples::new(unit_time[1].clone()),
    );
    if plain.len() == 0 || traced.len() == 0 {
        return 0.0;
    }
    traced.mean() / plain.mean() - 1.0
}

fn record_layers(report: &mut Report, it: &Iteration) {
    let mut phases = ariadne_vc::PhaseTimes::default();
    let (mut supersteps, mut messages, mut bytes) = (0, 0, 0);
    for m in &it.metrics {
        phases += m.phase_totals();
        supersteps += m.num_supersteps() as usize;
        messages += m.total_messages();
        bytes += m.total_message_bytes();
    }
    report.layer("vc.compute_s", phases.compute.as_secs_f64());
    report.layer("vc.combine_s", phases.combine.as_secs_f64());
    report.layer("vc.scatter_s", phases.scatter.as_secs_f64());
    report.layer("vc.barrier_s", phases.barrier.as_secs_f64());
    report.layer("vc.supersteps", supersteps as f64);
    report.layer("vc.messages", messages as f64);
    report.layer("vc.message_bytes", bytes as f64);
    report.layer("core.online.extra_s", it.online_s - it.bare_median());
    report.layer("pql.rule_firings", it.query.rule_firings as f64);
    report.layer("pql.derived_tuples", it.query.derived_tuples as f64);
    report.layer("pql.delta_tuples", it.query.delta_tuples as f64);
    report.layer("pql.fixpoint_rounds", it.query.fixpoint_rounds as f64);
}
