//! End-to-end and per-layer benchmark of the Ariadne pipeline.
//!
//! ```text
//! perfbench --workload monitor|lineage|serve --seed N --seconds S --trace 0|1
//!           [--size full|smoke] [--threads T] [--clients C] [--work-dir DIR]
//! ```
//!
//! Each workload generates its inputs from `--seed`, runs its
//! correctness gates (outside every timed region; a failed gate exits
//! non-zero before any figure is printed), measures for `--seconds`
//! and prints one `figure` line per measured quantity, a `conditions`
//! line, and finally the result line. `--trace 1` alternates untraced
//! and traced units and reports the per-layer metrics instead of the
//! end-to-end ones. See `README.md` for the workloads and metrics.

mod lineage;
mod monitor;
mod probe;
mod report;
mod serve;
mod stats;

use ariadne_graph::generators::rmat::{rmat, RmatConfig};
use ariadne_graph::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

/// Wall-clock cap on the measured phase, whatever `--seconds` and the
/// sample floors ask for, so a run always ends well inside 180 s.
const MEASURE_CAP: Duration = Duration::from_secs(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Run settings after validation and clipping.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Engine / replay workers per call.
    pub threads: usize,
    /// Concurrent client threads (serve only; 1 elsewhere).
    pub clients: usize,
    pub nproc: usize,
    pub threads_clipped: bool,
    pub clients_clipped: bool,
    pub work_dir: PathBuf,
    /// Graph the workload ran on, for the conditions line.
    pub graph_desc: std::cell::RefCell<String>,
}

impl Run {
    /// Whether the measured phase goes on: until `--seconds` have passed
    /// and, in an untraced run, the headline quantity has `floor`
    /// samples (at least enough for its median to be reported), or in a
    /// traced run at least one untraced and one traced unit have run;
    /// within [`MEASURE_CAP`] either way.
    pub fn keep_measuring(
        &self,
        started: Instant,
        units: usize,
        samples: usize,
        floor: usize,
    ) -> bool {
        let elapsed = started.elapsed();
        if elapsed >= MEASURE_CAP {
            return false;
        }
        let short = if self.traced {
            units < 2
        } else {
            samples < floor.max(crate::stats::MIN_MEDIAN_SAMPLES)
        };
        elapsed.as_secs_f64() < self.seconds || short
    }

    /// In a traced run, odd units are traced and even ones are not, so
    /// the tracing overhead is measured on interleaved work.
    pub fn trace_unit(&self, unit: usize) -> bool {
        let on = self.traced && unit % 2 == 1;
        probe::set_tracing(on);
        on
    }

    /// A seeded RNG for one named input stream.
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    pub fn record_graph(&self, scale: u32, g: &Csr) {
        *self.graph_desc.borrow_mut() = format!(
            "{{\"generator\":\"rmat\",\"scale\":{scale},\"edge_factor\":{EDGE_FACTOR},\"vertices\":{},\"edges\":{}}}",
            g.num_vertices(),
            g.num_edges()
        );
    }

    fn conditions(&self, extra: &str) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":\"{:?}\",\
             \"nproc\":{},\"threads\":{},\"threads_clipped\":{},\"clients\":{},\"clients_clipped\":{},\
             \"graph\":{}{extra}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.traced as u8,
            self.size,
            self.nproc,
            self.threads,
            self.threads_clipped,
            self.clients,
            self.clients_clipped,
            self.graph_desc.borrow(),
        )
    }
}

/// R-MAT edge factor for every workload (Graph500's 16).
pub const EDGE_FACTOR: usize = 16;

/// The seeded R-MAT graph. Its edges keep the generator's unit weight,
/// as in the paper's unweighted web crawls, so SSSP runs a handful of
/// supersteps on every seed; random weights made the superstep count,
/// and with it every SSSP figure, swing from graph to graph.
pub fn generate(run: &Run, scale: u32) -> Csr {
    rmat(RmatConfig {
        scale,
        edge_factor: EDGE_FACTOR,
        seed: run.rng(1).gen(),
        ..RmatConfig::default()
    })
}

/// Supersteps lineage roots are taken from. A Query 10 replay costs more
/// the deeper its root, and SSSP's last supersteps activate only a few
/// vertices on some graphs, so roots come from a fixed band of layers
/// that every seed's capture fills rather than from all of them.
const ROOT_LAYERS: std::ops::RangeInclusive<u32> = 1..=4;

/// The vertex activations a capture recorded (its `superstep` tuples)
/// in [`ROOT_LAYERS`]: where lineage roots (α, σ) are drawn from.
pub struct RootLayers(Vec<(u32, Vec<u64>)>);

impl RootLayers {
    pub fn of(store: &ariadne_provenance::ProvStore) -> Result<RootLayers, String> {
        let max = store
            .max_superstep()
            .ok_or("the capture recorded no supersteps")?;
        let mut layers = Vec::new();
        for step in ROOT_LAYERS.filter(|s| *s <= max) {
            let mut active = Vec::new();
            for (pred, tuples) in store.layer(step).map_err(|e| e.to_string())? {
                if pred == "superstep" {
                    active.extend(tuples.iter().filter_map(|t| match t.first() {
                        Some(ariadne_pql::Value::Id(x)) => Some(*x),
                        _ => None,
                    }));
                }
            }
            if !active.is_empty() {
                layers.push((step, active));
            }
        }
        if layers.is_empty() {
            return Err("the capture recorded no activations in the root layers".into());
        }
        Ok(RootLayers(layers))
    }

    /// `count` seeded roots, stratified by layer: σ cycles through the
    /// layers, and α is drawn uniformly from the vertices active there.
    pub fn draw(&self, run: &Run, count: usize, stream: u64) -> Vec<(u64, u32)> {
        let mut rng = run.rng(stream);
        (0..count)
            .map(|j| {
                let (step, active) = &self.0[j % self.0.len()];
                (active[rng.gen_range(0..active.len())], *step)
            })
            .collect()
    }
}

/// The spool settings of the store workloads, for the conditions line:
/// `StoreConfig`'s default format and durability, spilling from byte 0.
pub fn store_conditions() -> String {
    let defaults = ariadne::StoreConfig::default();
    format!(
        ",\"store_format\":\"{:?}\",\"durability\":\"{:?}\",\"spill_budget_bytes\":0",
        defaults.format, defaults.durability
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload monitor|lineage|serve --seed N --seconds S --trace 0|1 \
         [--size full|smoke] [--threads T] [--clients C] [--work-dir DIR]"
    );
    std::process::exit(2)
}

fn parse() -> Run {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !["monitor", "lineage", "serve"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let num = |v: Option<String>, what: &str, default: Option<u64>| -> u64 {
        match v {
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| usage(&format!("{what} must be a whole number"))),
            None => default.unwrap_or_else(|| usage(&format!("{what} is required"))),
        }
    };
    let seed = num(get("--seed"), "--seed", None);
    let seconds = num(get("--seconds"), "--seconds", None) as f64;
    let traced = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace must be 0 or 1"),
    };
    let size = match get("--size").as_deref() {
        None | Some("full") => Size::Full,
        Some("smoke") => Size::Smoke,
        Some(_) => usage("--size must be full or smoke"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let default_clients = if workload == "serve" { 2 } else { 1 };
    let want_clients = num(get("--clients"), "--clients", Some(default_clients)).max(1) as usize;
    let clients = want_clients.min(nproc);
    // Serve replays run on the client threads (one worker each); the
    // other workloads have one blocked client and `threads` workers. One
    // worker by default: on a small host whose cores are descheduled now
    // and then, every barrier of a multi-worker run waits for the
    // slowest core, which turned host noise into 2-3x swings in the
    // bare analytics; at these graph sizes one worker is also faster.
    let want_threads = num(get("--threads"), "--threads", Some(1)).max(1) as usize;
    let thread_room = if workload == "serve" {
        nproc / clients
    } else {
        nproc
    };
    let threads = want_threads.min(thread_room.max(1));
    let work_dir = get("--work-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_work"))
        .join(format!("{workload}-{}", std::process::id()));
    Run {
        workload,
        seed,
        seconds,
        traced,
        size,
        threads,
        clients,
        nproc,
        threads_clipped: threads < want_threads,
        clients_clipped: clients < want_clients,
        work_dir,
        graph_desc: std::cell::RefCell::new("null".into()),
    }
}

fn main() {
    let run = parse();
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.work_dir.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let outcome = match run.workload.as_str() {
        "monitor" => monitor::run(&run, &mut report),
        "lineage" => lineage::run(&run, &mut report),
        _ => serve::run(&run, &mut report),
    };
    probe::set_tracing(false);
    let extra = match outcome {
        Ok(extra) => extra,
        Err(gate) => {
            let _ = std::fs::remove_dir_all(&run.work_dir);
            eprintln!("perfbench: correctness gate failed: {gate}");
            std::process::exit(1);
        }
    };
    report.set_e2e("peak_rss_mb", peak_rss_mb());
    let conditions = run.conditions(&extra);
    println!("conditions {conditions}");
    if run.traced {
        let att = probe::attribution();
        let attributed: f64 = att.layers.values().sum();
        for (layer, secs) in &att.layers {
            report::print_value(&format!("self_time.{layer}"), "s", *secs);
        }
        report::print_value("attribution.wall", "s", att.wall_s);
        report::print_value("attribution.layers", "s", attributed);
        report::print_value("attribution.unattributed", "s", att.residual_s);
        let share = if att.wall_s > 0.0 {
            att.residual_s / att.wall_s
        } else {
            0.0
        };
        report::print_value("attribution.unattributed_share", "ratio", share);
        report.layer_fixed("trace.unattributed_share", share);
        let trace_file = run
            .work_dir
            .parent()
            .map(|d| d.join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed)))
            .expect("work dir has a parent");
        match probe::write_spans(&trace_file, &conditions) {
            Ok(()) => println!("trace {}", trace_file.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                trace_file.display()
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&run.work_dir);
    println!("{}", report.result_line(true, run.traced));
}
