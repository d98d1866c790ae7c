//! `cluster_flash`: `run_cluster(&ClusterConfig::standard())` at the
//! run's seed — 1M Zipf requests from 8 open-loop clients over 24
//! backends, with a flash crowd and 6 rolling crashes.
//!
//! `run_cluster` builds and owns its simulator, so from outside it is
//! one call: the timed phase repeats whole runs until the run's time is
//! up, and set-up time is `run_cluster` itself stopped at simulated
//! time 0, repeated before the first timed run and after each one.

use crate::alloc::{self, Mark};
use crate::stages::{analyze, load_staged, stage, Stages};
use crate::trace::{median, quantile, ratio, Tracer};
use crate::{Opts, Report};
use netsim::packet::addr;
use planp_analysis::Policy;
use planp_apps::cluster::{run_cluster, ClusterConfig, ClusterResult};
use planp_runtime::{Admission, LayerConfig, PlanpLayer};
use planp_telemetry::Telemetry;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The pinned verdict block of `planp_cluster` at seed 11.
const BASELINE: &str = include_str!("../../asps/CLUSTER_BASELINE.txt");
/// The forwarder `run_cluster` installs on its `agg` tier (the
/// constant is private to the scenario).
const FORWARDER_ASP: &str = "channel network(ps : unit, ss : unit, p : ip*udp*blob) is
   (OnRemote(network, p); (ps, ss))";
/// Seed the baseline was pinned at.
const BASELINE_SEED: u64 = 11;
/// Set-ups in each block, one block before the first timed run and one
/// after each (the median of all of them is `setup_s`). A set-up's time
/// follows the host's second-to-second phases far more than a run's
/// does, so the blocks sample as many phases as the runs leave room for.
const SETUP_REPS: usize = 1_000;
/// Staged forwarder downloads in a traced run.
const STAGED_REPS: usize = 100;

/// Times one `run_cluster` call that ends at simulated time 0: the
/// scenario's whole set-up (topology, Zipf table, client and backend
/// applications, forwarder load and install, gateway, fault plan,
/// health monitor, brownout controller) and the result it assembles.
fn setup_s(cfg: &ClusterConfig) -> f64 {
    let cfg = ClusterConfig {
        duration_s: 0,
        ..cfg.clone()
    };
    let t0 = Instant::now();
    let res = run_cluster(&cfg);
    let s = t0.elapsed().as_secs_f64();
    drop(res);
    s
}

/// The forwarder's download, stage by stage, installed as `run_cluster`
/// installs it (on a telemetry of its own: the scenario's is private).
fn download_forwarder(cfg: &ClusterConfig, t: &mut Tracer, s: &mut Stages) {
    let image = load_staged(FORWARDER_ASP, Policy::strict(), t, s).expect("forwarder verifies");
    let config = LayerConfig {
        engine: cfg.engine,
        admission: Some(Admission {
            max_in_flight: 0,
            window_ns: 0,
            priority_byte: Some(0),
            enforce_deadline: true,
        }),
        ..LayerConfig::default()
    };
    let mut tel = Telemetry::default();
    stage(t, "runtime.install", &mut s.install, || {
        PlanpLayer::new(&image, config, addr(10, 0, 0, 254), "agg", &mut tel)
    })
    .expect("forwarder installs");
}

/// `planp_cluster`'s verdict block, line for line.
fn verdict(cfg: &ClusterConfig, res: &ClusterResult) -> String {
    let mut v = String::new();
    let _ = writeln!(
        v,
        "cluster seed={} clients={} backends={} requests={}",
        cfg.seed,
        cfg.clients,
        cfg.backends,
        cfg.requests_per_client * u64::from(cfg.clients),
    );
    let _ = writeln!(
        v,
        "sent={} admitted={} completed={} delivery_admitted={:.4}",
        res.sent, res.admitted, res.completed, res.delivery_admitted
    );
    let _ = writeln!(
        v,
        "shed agg={} gw_brownout={} gw_saturated={} gw_queue={} expired_agg={} expired_gw={}",
        res.agg_shed,
        res.shed_brownout,
        res.shed_saturated,
        res.shed_queue,
        res.agg_expired,
        res.gw_expired
    );
    let _ = writeln!(
        v,
        "breakers opens={} probes={} sent_while_broken={} timeouts={} transitions={}",
        res.opens,
        res.probes,
        res.sent_while_broken,
        res.timeouts,
        res.transitions_log.lines().count()
    );
    let _ = writeln!(
        v,
        "brownout max={} final={} steps={}",
        res.max_brownout,
        res.final_brownout,
        res.brownout_log.lines().count()
    );
    let _ = writeln!(
        v,
        "latency_ns p50={} p99={} p999={}",
        res.latency_p50_ns, res.latency_p99_ns, res.latency_p999_ns
    );
    let _ = writeln!(
        v,
        "drops corpse={} node_total={} link_total={} crashes={} breaches={}",
        res.corpse_drops, res.total_node_drops, res.total_link_drops, res.crashes, res.breaches
    );
    let c = &res.completed_by_class;
    let _ = writeln!(
        v,
        "completed_by_class c0={} c1={} c2={} c3={}",
        c[0], c[1], c[2], c[3]
    );
    v.push_str("--- breaker transitions ---\n");
    v.push_str(&res.transitions_log);
    v.push_str("--- brownout transitions ---\n");
    v.push_str(&res.brownout_log);
    v
}

/// The `planp_cluster` invariants; returns the ones that fail.
fn invariants(cfg: &ClusterConfig, res: &ClusterResult) -> Vec<String> {
    let requests = cfg.requests_per_client * u64::from(cfg.clients);
    let checks = [
        (
            res.sent == requests,
            "every client drains its request trace",
        ),
        (
            res.delivery_admitted >= 0.99,
            "admitted-delivery floor 0.99",
        ),
        (res.latency_p99_ns <= 1 << 26, "p99 latency ceiling 2^26 ns"),
        (
            res.corpse_traffic_probe_only(),
            "corpse traffic is probe-only",
        ),
        (
            res.opens >= u64::from(cfg.crashes),
            "every crash opens its breaker",
        ),
        (
            res.corpse_drops <= res.admitted / 500,
            "breakers keep traffic off corpses",
        ),
        (
            res.max_brownout >= 1,
            "the flash crowd engages the brownout controller",
        ),
        (
            res.final_brownout == 0,
            "service is fully restored by the end",
        ),
        (res.node_drop_identity_holds(), "node drop identity"),
        (res.link_drop_identity_holds(), "link drop identity"),
    ];
    checks
        .iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| what.to_string())
        .collect()
}

/// Checks one run; returns its failed requests (all of them when a
/// check fails).
fn check(cfg: &ClusterConfig, res: &ClusterResult, report: &mut Report) -> u64 {
    let mut failures = invariants(cfg, res);
    if cfg.seed == BASELINE_SEED && verdict(cfg, res).trim_end() != BASELINE.trim_end() {
        failures.push("verdict block differs from asps/CLUSTER_BASELINE.txt".into());
    }
    if failures.is_empty() {
        return 0;
    }
    report.problem(format!(
        "cluster_flash seed {}: {}",
        cfg.seed,
        failures.join("; ")
    ));
    res.sent.max(1)
}

/// Sum of the PLAN-P layer's per-channel counters ending in `suffix`.
fn chan_counter(res: &ClusterResult, suffix: &str) -> u64 {
    res.snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("node.") && k.contains(".chan.") && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// What one `run_cluster` call measured.
struct Run {
    wall_s: f64,
    alloc: Mark,
    res: ClusterResult,
}

fn timed_run(cfg: &ClusterConfig, tracer: Option<&mut Tracer>) -> Run {
    let a0 = Mark::now();
    let (res, wall_s) = match tracer {
        None => {
            let t0 = Instant::now();
            let res = run_cluster(cfg);
            (res, t0.elapsed().as_secs_f64())
        }
        Some(t) => {
            let root = t.begin();
            let inner = t.begin();
            let res = run_cluster(cfg);
            t.end(inner, "netsim.run_cluster");
            let ns = t.end(root, "bench.run");
            (res, ns as f64 / 1e9)
        }
    };
    Run {
        wall_s,
        alloc: a0.since(),
        res,
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let cfg = ClusterConfig {
        seed: opts.seed,
        ..ClusterConfig::standard()
    };
    let mut tracer = Tracer::new(1_000);
    let set_up = |setup: &mut Vec<f64>| {
        if !opts.trace {
            setup.extend((0..SETUP_REPS).map(|_| setup_s(&cfg)));
        }
    };
    let mut setup = Vec::new();
    set_up(&mut setup);
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut plain, mut traced, mut heap) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let (r, mb) = alloc::peak_mb(|| timed_run(&cfg, None));
        heap.push(mb);
        report.attempted += r.res.sent;
        report.failed += check(&cfg, &r.res, &mut report);
        plain.push(r);
        if opts.trace {
            let r = timed_run(&cfg, Some(&mut tracer));
            report.attempted += r.res.sent;
            report.failed += check(&cfg, &r.res, &mut report);
            traced.push(r);
        }
        set_up(&mut setup);
        if Instant::now() >= deadline {
            break;
        }
    }
    let mut walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall = median(&mut walls);
    let res = &plain[0].res;
    if !opts.trace {
        let mut rates: Vec<f64> = plain
            .iter()
            .map(|r| r.res.completed as f64 / r.wall_s)
            .collect();
        let mut per_op: Vec<f64> = plain
            .iter()
            .map(|r| r.wall_s * 1e6 / r.res.sent as f64)
            .collect();
        report.note(format!(
            "cluster_flash: {} runs of {} requests ({} completed); op_p50_us and op_p99_us are \
             wall µs per request sent, one sample per run (not a request latency); setup_s over \
             {} set-ups",
            plain.len(),
            res.sent,
            res.completed,
            setup.len()
        ));
        report.set("setup_s", median(&mut setup));
        report.set("wall_s", wall);
        report.set("ops_per_s", median(&mut rates));
        report.set("op_p50_us", quantile(&mut per_op, 0.50));
        report.set("op_p99_us", quantile(&mut per_op, 0.99));
        report.set("peak_heap_mb", median(&mut heap));
        return report;
    }

    let mut twalls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    let twall = median(&mut twalls);
    let events = res
        .snapshot
        .counters
        .get("sim.events_processed")
        .copied()
        .unwrap_or(0) as f64;
    let mut stages = Stages::default();
    for _ in 0..STAGED_REPS {
        download_forwarder(&cfg, &mut tracer, &mut stages);
        stages.states = analyze(FORWARDER_ASP, Policy::strict(), &mut tracer, &mut stages);
    }
    stages.report(&mut report);
    let root = tracer.total("bench.run");
    let inner = tracer.total("netsim.run_cluster");
    let nb = traced.len() as f64;
    report.note(format!(
        "cluster_flash: {} plain and {} traced runs; run_cluster is opaque, so netsim numbers \
         include the hooks and apps, and its snapshots are not timed",
        plain.len(),
        traced.len()
    ));
    report.set("runtime.dispatches", chan_counter(res, ".dispatch") as f64);
    report.set("runtime.shed", res.agg_shed as f64);
    report.set("runtime.errors", chan_counter(res, ".errors") as f64);
    report.set("netsim.ns_per_event", wall * 1e9 / events);
    report.set("netsim.events_per_op", events / res.sent as f64);
    report.set(
        "netsim.allocs_per_event",
        plain[0].alloc.allocs as f64 / events,
    );
    report.set(
        "allocs_per_op",
        plain[0].alloc.allocs as f64 / res.sent as f64,
    );
    report.set(
        "alloc_bytes_per_op",
        plain[0].alloc.bytes as f64 / res.sent as f64,
    );
    report.set("netsim.events_per_s", events / wall);
    report.set("netsim.link_drops", res.total_link_drops as f64);
    report.set("netsim.node_drops", res.total_node_drops as f64);
    report.set(
        "apps.admitted_ratio",
        ratio(res.admitted as f64, res.sent as f64),
    );
    report.set(
        "apps.gateway_shed",
        (res.shed_brownout + res.shed_saturated + res.shed_queue) as f64,
    );
    report.set("apps.breaker_opens", res.opens as f64);
    report.set("apps.timeouts", res.timeouts as f64);
    report.set("netsim.self_ms", inner.ns as f64 / nb / 1e6);
    report.set(
        "trace.unattributed_frac",
        ratio((root.ns - inner.ns) as f64, root.ns as f64),
    );
    report.set("trace_overhead_frac", twall / wall - 1.0);
    report.spans = Some(tracer.to_jsonl());
    // Requests that did not complete: shed, dropped or unfinished, plus
    // any run whose output check failed.
    let unserved: u64 = plain
        .iter()
        .chain(&traced)
        .map(|r| r.res.sent - r.res.completed)
        .sum();
    report.set(
        "failed_frac",
        ratio((unserved + report.failed) as f64, report.attempted as f64).min(1.0),
    );
    report
}
