//! Metric names, units and the result line.
//!
//! Every workload emits every end-to-end metric (untraced runs) and
//! every per-layer metric (traced runs), so the two tables below are
//! the whole metric surface; `BENCHMARK.json` names the same metrics and
//! the smoke test checks the two agree.

use crate::stats::Samples;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. What each means on each workload
/// is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("aux_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.commit_s", "s"),
    ("vc.compute_s", "s"),
    ("vc.combine_s", "s"),
    ("vc.scatter_s", "s"),
    ("vc.barrier_s", "s"),
    ("vc.supersteps", "count"),
    ("vc.messages", "count"),
    ("vc.message_bytes", "bytes"),
    ("core.online.extra_s", "s"),
    ("core.online.overhead_x", "ratio"),
    ("pql.rule_firings", "count"),
    ("pql.derived_tuples", "count"),
    ("pql.delta_tuples", "count"),
    ("pql.fixpoint_rounds", "count"),
    ("pql.scratch_reuse_ratio", "ratio"),
    ("core.capture.call_s", "s"),
    ("core.capture.extra_s", "s"),
    ("provenance.ingest_tuples", "count"),
    ("provenance.ingest_bytes", "bytes"),
    ("provenance.encode_s", "s"),
    ("provenance.fsync_s", "s"),
    ("provenance.spilled_bytes", "bytes"),
    ("provenance.compact_s", "s"),
    ("provenance.compact_bytes_in", "bytes"),
    ("provenance.compact_bytes_out", "bytes"),
    ("provenance.reopen_s", "s"),
    ("provenance.segments_read", "count"),
    ("provenance.segments_skipped", "count"),
    ("provenance.bytes_read", "bytes"),
    ("provenance.bytes_skipped", "bytes"),
    ("provenance.col_bytes_skipped", "bytes"),
    ("provenance.extent_reads", "count"),
    ("provenance.epoch_bytes_appended", "bytes"),
    ("provenance.epoch_carried", "count"),
    ("core.layered.inject_s", "s"),
    ("core.layered.eval_s", "s"),
    ("core.layered.merge_s", "s"),
    ("core.layered.residual_s", "s"),
    ("core.layered.injected_tuples", "count"),
    ("core.layered.shipped_tuples", "count"),
    ("core.layered.evaluated_vertices", "count"),
    ("core.layered.layers", "count"),
    ("core.layered.flush_rounds", "count"),
    ("core.layered.alloc_bytes", "bytes"),
    ("core.mutable.capture_epoch_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.replay_bytes", "bytes"),
    ("serve.page_p50_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.rows", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    /// Per-layer samples; the reported value is their mean.
    layer: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values computed whole (ratios, medians).
    layer_fixed: BTreeMap<&'static str, f64>,
}

fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the metric tables"))
}

impl Report {
    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        unit_of(END_TO_END, name);
        self.e2e.insert(name, value);
    }

    /// Add one per-layer observation (one call, unit or occurrence).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        self.layer.entry(name).or_default().push(value);
    }

    pub fn layer_fixed(&mut self, name: &'static str, value: f64) {
        unit_of(PER_LAYER, name);
        self.layer_fixed.insert(name, value);
    }

    /// Count one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced). Layers a workload does not exercise
    /// report 0 — they did no work.
    pub fn result_line(&self, correct: bool, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = if traced {
                    self.layer_fixed.get(name).copied().unwrap_or_else(|| {
                        self.layer
                            .get(name)
                            .map(|v| Samples::new(v.clone()).mean())
                            .unwrap_or(0.0)
                    })
                } else {
                    *self
                        .e2e
                        .get(name)
                        .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"))
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Print one figure with its unit, sample count and tail percentile
/// (the one-line-per-metric listing that precedes the result line).
pub fn print_figure(name: &str, unit: &str, scale: f64, samples: &Samples) {
    let n = samples.len();
    match samples.quantile(0.5) {
        Some(p50) => {
            let tail = samples
                .tail()
                .filter(|(q, _)| *q > 0.5)
                .map(|(q, v)| {
                    format!(
                        " p{}={} (beyond={})",
                        q * 100.0,
                        json_num(v * scale),
                        samples.beyond(q)
                    )
                })
                .unwrap_or_default();
            println!(
                "figure {name} p50={} {unit} n={n}{tail}",
                json_num(p50 * scale)
            );
        }
        None => println!(
            "figure {name} p50={} {unit} n={n} (below the {}-sample reporting floor)",
            json_num(samples.median_unchecked() * scale),
            crate::stats::MIN_MEDIAN_SAMPLES
        ),
    }
}

/// Print a single-valued figure (a count, ratio or one-off time).
pub fn print_value(name: &str, unit: &str, value: f64) {
    println!("figure {name} {} {unit}", json_num(value));
}
