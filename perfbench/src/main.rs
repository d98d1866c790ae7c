//! The repository benchmark: three workloads, each run in one process.
//!
//! ```text
//! planp-perfbench --workload asp_router|cluster_flash|asp_download
//!                 --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it times the calls into each crate from here (wrapped
//! hooks and apps, the download stages called one by one, dispatches
//! replayed through the VM) and prints the per-layer metrics. The last
//! line of standard output is one JSON object; the exit code is 1 when
//! an output check failed. See `README.md` for what each number means.

mod alloc;
mod cluster;
mod download;
mod replay;
mod router;
mod stages;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics (`--trace 0`), printed for every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not exercise
/// a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.typecheck_us", "us"),
    ("analysis.verify_us", "us"),
    ("analysis.summary_us", "us"),
    ("analysis.cost_us", "us"),
    ("analysis.state_us", "us"),
    ("analysis.modelcheck_us", "us"),
    ("analysis.lint_us", "us"),
    ("analysis.plan_us", "us"),
    ("analysis.modelcheck_states", "count"),
    ("vm.codegen_us", "us"),
    ("vm.jit_ns_per_dispatch", "ns"),
    ("vm.interp_ns_per_dispatch", "ns"),
    ("vm.steps_per_dispatch", "count"),
    ("vm.allocs_per_dispatch", "count"),
    ("vm.alloc_bytes_per_dispatch", "B"),
    ("vm.replay_drift", "ratio"),
    ("runtime.hook_ns_p50", "ns"),
    ("runtime.hook_ns_p99", "ns"),
    ("runtime.self_ns_per_dispatch", "ns"),
    ("runtime.allocs_per_dispatch", "count"),
    ("runtime.alloc_bytes_per_dispatch", "B"),
    ("runtime.native_hook_ns_p50", "ns"),
    ("runtime.install_us", "us"),
    ("runtime.dispatches", "count"),
    ("runtime.shed", "count"),
    ("runtime.errors", "count"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events_per_op", "count"),
    ("netsim.allocs_per_event", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.link_drops", "count"),
    ("netsim.node_drops", "count"),
    ("telemetry.profile_ns_per_dispatch", "ns"),
    ("telemetry.snapshot_us", "us"),
    ("apps.admitted_ratio", "ratio"),
    ("apps.gateway_shed", "count"),
    ("apps.breaker_opens", "count"),
    ("apps.timeouts", "count"),
    ("lang.self_ms", "ms"),
    ("analysis.self_ms", "ms"),
    ("vm.self_ms", "ms"),
    ("runtime.self_ms", "ms"),
    ("netsim.self_ms", "ms"),
    ("telemetry.self_ms", "ms"),
    ("apps.self_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
];

/// Command-line options.
pub struct Opts {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// How long the timed phase runs, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output check failed (or that never completed).
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    /// Kept spans, as JSON lines (traced runs).
    pub spans: Option<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    /// Records a line for the human-readable part of the output.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

const USAGE: &str = "usage: planp-perfbench --workload asp_router|cluster_flash|asp_download \
                     --seed N --seconds S --trace 0|1 [--out DIR]";

fn fail(msg: &str) -> ! {
    eprintln!("planp-perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| fail("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| fail("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    let opts = Opts {
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or(false),
    };
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let mut report = match workload.as_str() {
        "asp_router" => router::run(&opts),
        "cluster_flash" => cluster::run(&opts),
        "asp_download" => download::run(&opts),
        w => fail(&format!("unknown workload {w}")),
    };
    if opts.trace && report.get("failed_frac").is_none() {
        report.set(
            "failed_frac",
            trace::ratio(report.failed as f64, report.attempted as f64),
        );
    }

    for n in &report.notes {
        println!("# {n}");
    }
    if let (Some(dir), Some(spans)) = (&out, &report.spans) {
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", opts.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => report.problem(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match report.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                report.problem(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None if opts.trace => 0.0,
            None => {
                report.problem(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("{name:<36} {value:>16.4} {unit}");
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
