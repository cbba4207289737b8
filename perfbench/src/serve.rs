//! `serve`: the query service under two closed-loop clients.
//!
//! A `QueryService` runs over the compacted spool of a full SSSP
//! capture, with `ServeConfig` at its defaults apart from one replay
//! thread per request and lifted tenant quotas (a closed-loop client
//! exhausts the default 32-token burst within its first second, after
//! which the run would measure the quota, not the service). Each client
//! sends a backward-lineage query, walks its cursor chain to the end,
//! and only then sends the next. Roots come from a seeded Zipf-like
//! distribution over a root set drawn per cycle, so some queries repeat
//! (cache hits) and the rest replay cold. A cycle starts a fresh service
//! over the reopened spool, so every cycle starts with a cold cache.
//!
//! This is the only workload where the replay cache, cursors and
//! admission do work, and where two callers contend for the cores.
//! There is no write barrier: `QueryService::append_epoch` swaps the
//! store but keeps the pre-mutation graph, which layered replay reads
//! for ship routes, so served answers after a mutation can be short.

use crate::report::{self, Report};
use crate::stats::Samples;
use crate::{generate, probe, Run, Size};
use ariadne::session::Ariadne;
use ariadne::{compile, CaptureSpec, LayeredConfig, StoreConfig};
use ariadne_analytics::Sssp;
use ariadne_graph::Csr;
use ariadne_pql::{Params, Tuple, Value};
use ariadne_provenance::ProvStore;
use ariadne_serve::{AdmissionConfig, QueryRequest, QueryService, ServeConfig};
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Each set-up captures and compacts a spool, so it repeats only a few
/// times; its median is flagged as below the reporting floor.
const SETUP_REPS: usize = 5;
/// Query 10 with its root as parameters, as a client would send it.
const LINEAGE_PQL: &str = "back_trace(x, i) :- superstep(x, i), i = $sigma, x = $alpha.
back_trace(x, i) :- send_message(x, y, m, i), back_trace(y, j), j = i + 1.
back_lineage(x, d) :- back_trace(x, i), value(x, d, i), i = 0.";
/// Roots drawn per cycle, shared out evenly over the clients.
const ROOTS: usize = 64;
/// Zipf exponent of root popularity. With 16 queries per client over
/// its 32 roots it gives about a third of first pages from the cache:
/// far from both 10% and 50%, so the median first page is a cold
/// replay and does not flip between the two paths.
const SKEW: f64 = 0.8;
/// Queries per cycle, split evenly over the clients.
const QUERIES_PER_CYCLE: usize = 32;
/// Roots whose cursor walk the gate compares with a direct replay.
const GATE_ROOTS: usize = 8;
/// Rows per page the clients ask for. Most lineage answers here fit the
/// service's default 256-row page; 32-row pages make the larger ones
/// follow a cursor chain.
const PAGE_ROWS: usize = 32;

/// (α, σ) as the request parameters spell them.
#[derive(Clone)]
struct Root {
    alpha: String,
    sigma: String,
    params: Params,
}

fn roots(run: &Run, layers: &crate::RootLayers, count: usize, stream: u64) -> Vec<Root> {
    layers
        .draw(run, count, stream)
        .into_iter()
        .map(|(x, i)| Root {
            alpha: format!("v{x}"),
            sigma: i.to_string(),
            params: Params::new()
                .with("alpha", Value::Id(x))
                .with("sigma", Value::Int(i as i64)),
        })
        .collect()
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        admission: AdmissionConfig {
            quota_burst: 1e15,
            quota_per_sec: 0.0,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn reopen(dir: &Path) -> Result<(ProvStore, f64), String> {
    let (store, d) = probe::call("provenance:reopen", || {
        ProvStore::resume_from_spool(StoreConfig::spilling(0, dir.to_path_buf()))
    });
    Ok((store.map_err(|e| e.to_string())?, d.secs))
}

/// Capture SSSP into a spilling spool, compact it, reopen it cold and
/// stand a service up over it: what an operator waits for.
fn setup(
    run: &Run,
    scale: u32,
    dir: &Path,
    report: &mut Report,
) -> Result<(Csr, QueryService), String> {
    let (graph, gen) = probe::call("graph:generate", || generate(run, scale));
    report.layer("graph.generate_s", gen.secs);
    let source = graph
        .max_out_degree_vertex()
        .ok_or("generated graph has no vertices")?;
    let _ = std::fs::remove_dir_all(dir);
    let session = Ariadne {
        store: StoreConfig::spilling(0, dir.to_path_buf()),
        ..Ariadne::with_threads(run.threads)
    };
    let (capture, d) = probe::call("core.capture:capture", || {
        session.capture(&Sssp::new(source), &graph, &CaptureSpec::full())
    });
    let mut capture = capture.map_err(|e| e.to_string())?;
    let (compacted, c) = probe::call("provenance:compact", || capture.store.compact());
    let compacted = compacted.map_err(|e| e.to_string())?;
    drop(capture);
    let (store, reopen_s) = reopen(dir)?;
    let service = probe::call("serve:construct", || {
        QueryService::new(graph.clone(), store, config(run.threads))
    })
    .0;
    report.layer("core.capture.call_s", d.secs);
    report.layer("provenance.compact_s", c.secs);
    report.layer("provenance.compact_bytes_in", compacted.bytes_in as f64);
    report.layer("provenance.compact_bytes_out", compacted.bytes_out as f64);
    report.layer("provenance.reopen_s", reopen_s);
    Ok((graph, service))
}

/// Walk `root`'s cursor chain to the end: every page's rows in order.
fn walk_rows(
    service: &QueryService,
    root: &Root,
    tenant: &str,
) -> Result<Vec<(String, Tuple)>, String> {
    let params = [
        ("alpha", root.alpha.as_str()),
        ("sigma", root.sigma.as_str()),
    ];
    let mut rows = Vec::new();
    let mut cursor: Option<String> = None;
    loop {
        let page = service
            .execute(&QueryRequest {
                pql: Some(LINEAGE_PQL),
                params: &params,
                cursor: cursor.as_deref(),
                limit: Some(PAGE_ROWS),
                tenant,
                ..QueryRequest::default()
            })
            .map_err(|e| e.to_string())?;
        rows.extend(page.rows().iter().cloned());
        match page.next_cursor {
            Some(next) => cursor = Some(next),
            None => return Ok(rows),
        }
    }
}

/// The concatenated pages equal a direct `layered_with` replay's rows,
/// flattened the way the service orders them (relations by name, tuples
/// sorted).
fn gate(run: &Run, graph: &Csr, service: &QueryService, roots: &[Root]) -> Result<(), String> {
    let session = Ariadne::with_threads(run.threads);
    let layered = LayeredConfig {
        threads: run.threads,
        read_policy: service.config().read_policy,
        ..LayeredConfig::default()
    };
    for root in roots {
        let query = compile(LINEAGE_PQL, root.params.clone()).map_err(|e| e.to_string())?;
        let direct = service
            .with_store(|store| session.layered_with(graph, store, &query, &layered))
            .map_err(|e| e.to_string())?;
        let mut expected = Vec::new();
        for (pred, _) in direct.query_results.iter() {
            for t in direct.query_results.sorted(pred) {
                expected.push((pred.to_string(), t));
            }
        }
        let paged = walk_rows(service, root, "gate")?;
        if paged != expected {
            return Err(format!(
                "cursor pages for {}@{} differ from a direct replay ({} vs {} rows)",
                root.alpha,
                root.sigma,
                paged.len(),
                expected.len()
            ));
        }
    }
    Ok(())
}

/// Seeded root indices for one client in one cycle. Each client draws
/// from its own share of the root set, so its hits come from its own
/// earlier queries and the hit share does not depend on how the
/// clients' requests interleave. Zipf-like ranks map onto that share
/// through a permutation drawn per cycle: popularity rotates over every
/// root from cycle to cycle, so the cold replays average over all of
/// them rather than repeating the same few popular ones.
fn sequence(run: &Run, cycle: usize, client: usize, len: usize) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (client..ROOTS).step_by(run.clients).collect();
    let share = by_rank.len();
    let mut rng = run.rng(0x4000 + ((cycle as u64) << 8) + client as u64);
    for i in (1..share).rev() {
        by_rank.swap(i, rng.gen_range(0..i + 1));
    }
    let weights: Vec<f64> = (0..share)
        .map(|k| 1.0 / ((k + 1) as f64).powf(SKEW))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut u = rng.gen::<f64>() * total;
            let rank = weights
                .iter()
                .position(|w| {
                    u -= w;
                    u < 0.0
                })
                .unwrap_or(share - 1);
            by_rank[rank]
        })
        .collect()
}

/// What the clients observed in one cycle.
#[derive(Default)]
struct Observed {
    first_s: Vec<f64>,
    page_s: Vec<f64>,
    /// First-page latency of cache misses (the cold replays).
    miss_first_s: Vec<f64>,
    hits: usize,
    walks: usize,
    attempted: usize,
    failed: usize,
    /// `(root, total rows)` per completed walk: every walk of a root must
    /// return the same number of rows.
    rows: Vec<(String, usize)>,
}

fn client(
    service: &QueryService,
    roots: &[Root],
    seq: &[usize],
    tenant: &str,
    obs: &Mutex<Observed>,
) {
    let mut mine = Observed::default();
    for &k in seq {
        let root = &roots[k];
        let params = [
            ("alpha", root.alpha.as_str()),
            ("sigma", root.sigma.as_str()),
        ];
        probe::call("bench:serve.walk", || {
            let mut cursor: Option<String> = None;
            let mut rows = 0;
            loop {
                let request = QueryRequest {
                    pql: Some(LINEAGE_PQL),
                    params: &params,
                    cursor: cursor.as_deref(),
                    limit: Some(PAGE_ROWS),
                    tenant,
                    ..QueryRequest::default()
                };
                mine.attempted += 1;
                let (page, d) = probe::call("serve:execute", || service.execute(&request));
                let Ok(page) = page else {
                    mine.failed += 1;
                    return;
                };
                rows += page.rows().len();
                if cursor.is_none() {
                    mine.first_s.push(d.secs);
                    if page.cache_hit {
                        mine.hits += 1;
                    } else {
                        mine.miss_first_s.push(d.secs);
                    }
                } else {
                    mine.page_s.push(d.secs);
                }
                match page.next_cursor {
                    Some(next) => cursor = Some(next),
                    None => break,
                }
            }
            mine.walks += 1;
            mine.rows
                .push((format!("{}@{}", root.alpha, root.sigma), rows));
        });
    }
    let mut all = obs
        .lock()
        .expect("observation sink poisoned by a panicking client");
    all.first_s.extend(mine.first_s);
    all.page_s.extend(mine.page_s);
    all.miss_first_s.extend(mine.miss_first_s);
    all.hits += mine.hits;
    all.walks += mine.walks;
    all.attempted += mine.attempted;
    all.failed += mine.failed;
    all.rows.extend(mine.rows);
}

/// Registry counters read as deltas over each traced cycle: with two
/// concurrent clients they are attributed per phase, not per call.
const PHASE_COUNTERS: &[&str] = &[
    "serve_cache_hits_total",
    "serve_cache_misses_total",
    "serve_replay_bytes_total",
    "serve_rows_returned_total",
    "serve_rejected_quota_total",
    "serve_rejected_busy_total",
    "layered_phase_inject_ns_total",
    "layered_phase_eval_ns_total",
    "layered_phase_merge_ns_total",
    "layered_injected_tuples_total",
    "layered_shipped_tuples_total",
    "layered_evaluated_vertices_total",
    "layered_rounds_total",
    "layered_flush_rounds_total",
    "store_segments_read_total",
    "store_segments_skipped_total",
    "store_col_bytes_skipped_total",
    "store_extent_reads_total",
    "pql_rule_firings_total",
    "pql_derived_tuples_total",
    "pql_delta_tuples_total",
    "pql_fixpoint_rounds_total",
    "pql_scratch_reuse_total",
    "pql_scratch_alloc_total",
];

pub fn run(run: &Run, report: &mut Report) -> Result<String, String> {
    let scale = if run.size == Size::Smoke { 6 } else { 10 };
    let spool = run.work_dir.join("spool");
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        built = Some(setup(run, scale, &spool, report)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (graph, service) = built.expect("at least one setup repetition");
    run.record_graph(scale, &graph);
    let layers = service.with_store(crate::RootLayers::of)?;
    gate(
        run,
        &graph,
        &service,
        &roots(run, &layers, GATE_ROOTS, 0x3000),
    )?;
    drop(service);

    let mut walked: BTreeMap<String, usize> = BTreeMap::new();
    let mut observed = Observed::default();
    let mut unit_time = [Vec::new(), Vec::new()];
    let mut traced_obs = Observed::default();
    let mut deltas: BTreeMap<&str, u64> = BTreeMap::new();
    let mut traced_alloc = 0u64;
    let mut measured = 0.0;
    let per_client = QUERIES_PER_CYCLE / run.clients;
    let started = Instant::now();
    let mut cycle = 0;
    while run.keep_measuring(started, cycle, observed.first_s.len(), 0) {
        let (store, reopen_s) = reopen(&spool)?;
        let service = QueryService::new(graph.clone(), store, config(run.threads));
        let traced = run.trace_unit(cycle);
        let before = traced.then(probe::counters);
        let alloc_before = probe::alloc_bytes();
        let obs = Mutex::new(Observed::default());
        let roots = roots(run, &layers, ROOTS, 0x3100 + cycle as u64);
        let seqs: Vec<Vec<usize>> = (0..run.clients)
            .map(|c| sequence(run, cycle, c, per_client))
            .collect();
        let t = Instant::now();
        std::thread::scope(|s| {
            for (c, seq) in seqs.iter().enumerate() {
                let (service, roots, obs) = (&service, &roots, &obs);
                s.spawn(move || client(service, roots, seq, &format!("client-{c}"), obs));
            }
        });
        let wall = t.elapsed().as_secs_f64();
        probe::set_tracing(false);
        cycle += 1;
        unit_time[traced as usize].push(wall);
        let obs = obs
            .into_inner()
            .expect("observation sink poisoned by a panicking client");
        for (root, n) in &obs.rows {
            if *walked.entry(root.clone()).or_insert(*n) != *n {
                return Err(format!(
                    "cursor walks of {root} returned different row counts"
                ));
            }
        }
        for i in 0..obs.attempted {
            report.op(i >= obs.failed);
        }
        if let Some(before) = before {
            let after = probe::counters();
            for name in PHASE_COUNTERS {
                let d =
                    after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);
                *deltas.entry(name).or_default() += d;
            }
            traced_alloc += probe::alloc_bytes() - alloc_before;
            report.layer("provenance.reopen_s", reopen_s);
            traced_obs.first_s.extend(obs.first_s);
            traced_obs.miss_first_s.extend(obs.miss_first_s);
            traced_obs.page_s.extend(obs.page_s);
            traced_obs.walks += obs.walks;
        } else {
            measured += wall;
            observed.first_s.extend(obs.first_s);
            observed.miss_first_s.extend(obs.miss_first_s);
            observed.page_s.extend(obs.page_s);
            observed.hits += obs.hits;
            observed.walks += obs.walks;
        }
    }

    let hit_share = observed.hits as f64 / observed.first_s.len().max(1) as f64;
    let conditions = format!(
        "{},\"serve_threads\":{},\"roots\":{ROOTS},\"skew\":{SKEW},\"queries_per_cycle\":{QUERIES_PER_CYCLE},\
         \"first_page_hit_share\":{}",
        crate::store_conditions(),
        run.threads,
        report::json_num(hit_share)
    );
    if run.traced {
        record_layers(report, &deltas, &traced_obs, traced_alloc);
        report.layer_fixed("trace.overhead_ratio", crate::monitor::overhead(&unit_time));
        return Ok(conditions);
    }
    let setups = Samples::new(setups);
    let first = Samples::new(observed.first_s);
    let cold = Samples::new(observed.miss_first_s);
    let pages = Samples::new(observed.page_s);
    report::print_figure("setup_s", "s", 1.0, &setups);
    report::print_figure("serve_first_ms", "ms", 1e3, &first);
    report::print_figure("serve_cold_first_ms", "ms", 1e3, &cold);
    report::print_figure("serve_page_ms", "ms", 1e3, &pages);
    report::print_value("serve_qps", "1/s", observed.walks as f64 / measured);
    report::print_value("serve_first_page_hit_share", "ratio", hit_share);
    report::print_value(
        "error_rate",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set_e2e("setup_s", setups.median_unchecked());
    report.set_e2e("query_p50_ms", first.median_unchecked() * 1e3);
    report.set_e2e("aux_p50_ms", cold.median_unchecked() * 1e3);
    report.set_e2e("queries_per_s", observed.walks as f64 / measured);
    Ok(conditions)
}

/// Serve's per-layer figures: phase deltas of the registry counters,
/// per cold replay for the replay layers and per walk for serve itself.
fn record_layers(report: &mut Report, d: &BTreeMap<&str, u64>, obs: &Observed, alloc: u64) {
    let get = |n: &str| d.get(n).copied().unwrap_or(0) as f64;
    let misses = get("serve_cache_misses_total").max(1.0);
    let walks = (obs.walks as f64).max(1.0);
    let hits = get("serve_cache_hits_total");
    let (inject, eval, merge) = (
        get("layered_phase_inject_ns_total") * 1e-9,
        get("layered_phase_eval_ns_total") * 1e-9,
        get("layered_phase_merge_ns_total") * 1e-9,
    );
    let miss_first: f64 = obs.miss_first_s.iter().sum();
    let per_replay: [(&'static str, f64); 18] = [
        ("core.layered.inject_s", inject),
        ("core.layered.eval_s", eval),
        ("core.layered.merge_s", merge),
        (
            "core.layered.residual_s",
            miss_first - inject - eval - merge,
        ),
        (
            "core.layered.injected_tuples",
            get("layered_injected_tuples_total"),
        ),
        (
            "core.layered.shipped_tuples",
            get("layered_shipped_tuples_total"),
        ),
        (
            "core.layered.evaluated_vertices",
            get("layered_evaluated_vertices_total"),
        ),
        ("core.layered.layers", get("layered_rounds_total")),
        (
            "core.layered.flush_rounds",
            get("layered_flush_rounds_total"),
        ),
        ("core.layered.alloc_bytes", alloc as f64),
        ("provenance.segments_read", get("store_segments_read_total")),
        (
            "provenance.segments_skipped",
            get("store_segments_skipped_total"),
        ),
        (
            "provenance.col_bytes_skipped",
            get("store_col_bytes_skipped_total"),
        ),
        ("provenance.extent_reads", get("store_extent_reads_total")),
        ("pql.rule_firings", get("pql_rule_firings_total")),
        ("pql.derived_tuples", get("pql_derived_tuples_total")),
        ("pql.delta_tuples", get("pql_delta_tuples_total")),
        ("pql.fixpoint_rounds", get("pql_fixpoint_rounds_total")),
    ];
    for (name, total) in per_replay {
        report.layer_fixed(name, total / misses);
    }
    report.layer_fixed(
        "provenance.bytes_read",
        get("serve_replay_bytes_total") / misses,
    );
    let (reuse, fresh) = (
        get("pql_scratch_reuse_total"),
        get("pql_scratch_alloc_total"),
    );
    if reuse + fresh > 0.0 {
        report.layer_fixed("pql.scratch_reuse_ratio", reuse / (reuse + fresh));
    }
    report.layer_fixed(
        "serve.cache_hit_ratio",
        hits / (hits + get("serve_cache_misses_total")).max(1.0),
    );
    report.layer_fixed(
        "serve.replay_bytes",
        get("serve_replay_bytes_total") / walks,
    );
    report.layer_fixed("serve.rows", get("serve_rows_returned_total") / walks);
    report.layer_fixed(
        "serve.rejected",
        get("serve_rejected_quota_total") + get("serve_rejected_busy_total"),
    );
    let pages = Samples::new(obs.page_s.clone());
    report.layer_fixed(
        "serve.page_p50_ms",
        pages
            .quantile(0.5)
            .unwrap_or_else(|| pages.median_unchecked())
            * 1e3,
    );
}
