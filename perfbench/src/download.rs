//! `asp_download`: one operator downloads programs one at a time
//! (closed loop). Each op runs the full download path a router runs
//! when a program arrives — `compile_front` → `verify` → `jit::compile`
//! (together, `planp_runtime::load`) → `PlanpLayer::new` — or, for a
//! plan, `load_plan`.
//!
//! A round is every bundled ASP under its `bundled_asps` policy, the
//! standalone-rejected programs of `asps/buggy/`, and every bundled plan
//! under `resolve_asp`, in an order shuffled by the seed each round.

use crate::alloc::{self, Mark};
use crate::stages::{analyze, load_staged, stage, Refused, Stages};
use crate::trace::{median, quantile, ratio, Tracer};
use crate::{Opts, Report};
use netsim::rng::SplitMix64;
use netsim::TopoSpec;
use planp_analysis::plan::{PlanAsp, PlanCheck};
use planp_analysis::Policy;
use planp_apps::plans::{bundled_plans, resolve_asp};
use planp_lang::{compile_front, parse_plan};
use planp_runtime::{
    load, load_plan, plan_topology, LayerConfig, LoadError, LoadedProgram, PlanpLayer,
};
use planp_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Warm-up rounds before the timed phase (not timed).
const WARMUP_ROUNDS: usize = 20;
/// Set-ups after each timed round (the median of all of them is
/// `setup_s`; spread over the run, they see the same host as the
/// rounds).
const SETUP_REPS: usize = 4;

/// Programs under `asps/buggy/` that a router must refuse on their own,
/// with the policy that refuses them. (The other buggy programs verify
/// alone and are refused as pairs, through the `buggy_*` plans.)
const BUGGY: &[(&str, &str)] = &[
    (
        "buggy/bounce_pingpong",
        include_str!("../../asps/buggy/bounce_pingpong.planp"),
    ),
    (
        "buggy/neighbor_pingpong",
        include_str!("../../asps/buggy/neighbor_pingpong.planp"),
    ),
    (
        "buggy/silent_drop",
        include_str!("../../asps/buggy/silent_drop.planp"),
    ),
    (
        "buggy/state_leak",
        include_str!("../../asps/buggy/state_leak.planp"),
    ),
];

#[derive(Clone, Copy)]
enum Kind {
    Asp(Policy),
    Plan,
}

/// One input of a round.
struct Item {
    name: String,
    src: &'static str,
    kind: Kind,
    /// Whether a router must refuse it.
    reject: bool,
}

fn inputs() -> Vec<Item> {
    let mut items: Vec<Item> = planp_bench::bundled_asps()
        .into_iter()
        .map(|(name, src, policy)| Item {
            name: name.to_string(),
            src,
            kind: Kind::Asp(policy),
            reject: false,
        })
        .collect();
    for &(name, src) in BUGGY {
        let policy = if name.ends_with("state_leak") {
            Policy::strict().with_bounded_state()
        } else {
            Policy::strict()
        };
        items.push(Item {
            name: name.to_string(),
            src,
            kind: Kind::Asp(policy),
            reject: true,
        });
    }
    for (name, src) in bundled_plans() {
        items.push(Item {
            name: format!("plan/{name}"),
            src,
            kind: Kind::Plan,
            reject: name.starts_with("buggy"),
        });
    }
    items
}

/// Times what comes before the first download: building the inputs
/// (the bundled ASP and plan tables) and the router's telemetry.
fn setup_s() -> f64 {
    let t0 = Instant::now();
    let set_up = (inputs(), Telemetry::default());
    let s = t0.elapsed().as_secs_f64();
    drop(set_up);
    s
}

/// A download's outcome: accepted, or refused with the code of its
/// first diagnostic ("" when it was refused without one).
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Accepted,
    Rejected(&'static str),
    Broken(String),
}

/// Installs an accepted program on a fresh node of `tel`.
fn install(image: &LoadedProgram, index: usize, tel: &mut Telemetry) -> Verdict {
    let node = format!("r{index}");
    match PlanpLayer::new(image, LayerConfig::default(), index as u32 + 1, &node, tel) {
        Ok(_) => Verdict::Accepted,
        Err(e) => Verdict::Broken(format!("install: {e:?}")),
    }
}

/// The untraced op: the library's own entry points.
fn download(item: &Item, index: usize, tel: &mut Telemetry) -> Verdict {
    match item.kind {
        Kind::Asp(policy) => match load(item.src, policy) {
            Ok(image) => install(&image, index, tel),
            Err(LoadError::Rejected(r)) => {
                Verdict::Rejected(r.errors().first().map_or("", |d| d.code))
            }
            Err(e) => Verdict::Broken(e.to_string()),
        },
        Kind::Plan => match load_plan(item.src, &resolve_asp) {
            Ok(image) if image.report.accepted() => Verdict::Accepted,
            Ok(image) => Verdict::Rejected(image.report.errors().first().map_or("", |d| d.code)),
            Err(e) => Verdict::Broken(e.to_string()),
        },
    }
}

/// The traced op: the same download, its stages called one by one.
fn download_traced(
    item: &Item,
    index: usize,
    tel: &mut Telemetry,
    t: &mut Tracer,
    s: &mut Stages,
) -> Verdict {
    match item.kind {
        Kind::Asp(policy) => match load_staged(item.src, policy, t, s) {
            Ok(image) => stage(t, "runtime.install", &mut s.install, || {
                install(&image, index, tel)
            }),
            Err(Refused::Rejected(code)) => Verdict::Rejected(code),
            Err(Refused::Broken(e)) => Verdict::Broken(e),
        },
        Kind::Plan => {
            // `load_plan`'s steps, as it takes them.
            let ast = match stage(t, "lang.parse", &mut s.parse, || parse_plan(item.src)) {
                Ok(a) => a,
                Err(e) => return Verdict::Broken(e.to_string()),
            };
            let mut ignored = Vec::new();
            let Some(topo) = stage(t, "runtime.topology", &mut ignored, || {
                TopoSpec::named(&ast.topology)
            }) else {
                return Verdict::Broken(format!("unknown topology {}", ast.topology));
            };
            let mut asps = Vec::new();
            for d in &ast.deploys {
                let Some((src, _)) = resolve_asp(&d.asp) else {
                    return Verdict::Broken(format!("unknown ASP {}", d.asp));
                };
                match stage(t, "lang.front", &mut ignored, || compile_front(&src)) {
                    Ok(prog) => asps.push(PlanAsp::from_program(&d.asp, &prog)),
                    Err(e) => return Verdict::Broken(e.to_string()),
                }
            }
            let report = stage(t, "analysis.plan", &mut s.plan, || {
                PlanCheck::new(ast, plan_topology(&topo), asps).map(|c| c.verify())
            });
            match report {
                Ok(r) if r.accepted() => Verdict::Accepted,
                Ok(r) => Verdict::Rejected(r.errors().first().map_or("", |d| d.code)),
                Err(e) => Verdict::Broken(e.to_string()),
            }
        }
    }
}

/// One round: every input once, in a seeded order. Returns the round's
/// wall seconds; pushes each op's µs onto `lat` and its verdict into
/// `verdicts` (indexed like `items`).
fn round(
    items: &[Item],
    rng: &mut SplitMix64,
    lat: &mut Vec<f64>,
    verdicts: &mut [Verdict],
    mut traced: Option<(&mut Tracer, &mut Stages)>,
) -> f64 {
    let mut order: Vec<usize> = (0..items.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    // A router's telemetry outlives every download; one per round keeps
    // rounds alike.
    let mut tel = Telemetry::default();
    let root = traced.as_mut().map(|(t, _)| t.begin());
    let start = Instant::now();
    for &i in &order {
        let t0 = Instant::now();
        verdicts[i] = match traced.as_mut() {
            None => download(&items[i], i, &mut tel),
            Some((t, s)) => {
                let open = t.begin();
                let v = download_traced(&items[i], i, &mut tel, t, s);
                t.end(open, "bench.op");
                v
            }
        };
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall = start.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(open)) = (traced, root) {
        t.end(open, "bench.round");
    }
    wall
}

/// Checks a round's verdicts against what each input must get and what
/// it got in the first warm-up round; returns the failed ops.
fn check(items: &[Item], got: &[Verdict], first: &[Verdict], report: &mut Report) -> u64 {
    let mut failed = 0;
    for ((item, v), v0) in items.iter().zip(got).zip(first) {
        let why = match v {
            Verdict::Broken(e) => Some(format!("failed to load: {e}")),
            Verdict::Accepted if item.reject => Some("accepted, must be refused".to_string()),
            Verdict::Rejected(_) if !item.reject => Some("refused, must be accepted".to_string()),
            Verdict::Rejected("") => Some("refused without a diagnostic".to_string()),
            _ if v != v0 => Some(format!("verdict changed from {v0:?} to {v:?}")),
            _ => None,
        };
        if let Some(why) = why {
            report.problem(format!("asp_download: {}: {why}", item.name));
            failed += 1;
        }
    }
    failed
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let items = inputs();
    let n = items.len();
    let mut rng = SplitMix64::new(opts.seed ^ 0x646f_776e_6c6f_6164);
    let none = || vec![Verdict::Broken("not run".into()); n];

    // Warm-up rounds; the first pins every input's verdict.
    let mut first = none();
    let mut verdicts = none();
    let mut scratch = Vec::new();
    for r in 0..WARMUP_ROUNDS {
        let target = if r == 0 { &mut first } else { &mut verdicts };
        round(&items, &mut rng, &mut scratch, target, None);
    }
    report.failed += check(&items, &first, &first, &mut report);
    report.attempted += n as u64;

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut lat = Vec::new();
    let mut walls = Vec::new();
    let mut tracer = Tracer::new(20_000);
    let mut stages = Stages::default();
    let (mut traced_lat, mut twalls) = (Vec::new(), Vec::new());
    // A traced run spends 70% of its time on traced downloads and the
    // rest calling each analysis on its own.
    let download_until = if opts.trace {
        Instant::now() + Duration::from_secs_f64(opts.seconds * 0.7)
    } else {
        deadline
    };
    let mut heap = Vec::new();
    let mut setup = Vec::new();
    let mut allocs;
    loop {
        let a0 = Mark::now();
        let (wall, mb) = alloc::peak_mb(|| round(&items, &mut rng, &mut lat, &mut verdicts, None));
        walls.push(wall);
        heap.push(mb);
        allocs = a0.since();
        report.failed += check(&items, &verdicts, &first, &mut report);
        report.attempted += n as u64;
        if opts.trace {
            twalls.push(round(
                &items,
                &mut rng,
                &mut traced_lat,
                &mut verdicts,
                Some((&mut tracer, &mut stages)),
            ));
            report.failed += check(&items, &verdicts, &first, &mut report);
            report.attempted += n as u64;
        } else {
            setup.extend((0..SETUP_REPS).map(|_| setup_s()));
        }
        if Instant::now() >= download_until {
            break;
        }
    }
    let rounds = walls.len();
    let mut rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
    let wall = median(&mut walls);
    if !opts.trace {
        let samples = lat.len();
        report.note(format!(
            "asp_download: {rounds} rounds of {n} downloads ({} ASPs + {} plans); op latency over \
             {samples} downloads; setup_s over {} set-ups",
            items
                .iter()
                .filter(|i| matches!(i.kind, Kind::Asp(_)))
                .count(),
            items
                .iter()
                .filter(|i| matches!(i.kind, Kind::Plan))
                .count(),
            setup.len(),
        ));
        report.set("setup_s", median(&mut setup));
        report.set("wall_s", wall);
        report.set("ops_per_s", median(&mut rates));
        report.set("op_p50_us", quantile(&mut lat, 0.50));
        report.set("op_p99_us", quantile(&mut lat, 0.99));
        report.set("peak_heap_mb", median(&mut heap));
        return report;
    }

    let mut atracer = Tracer::new(0);
    loop {
        stages.states = 0;
        for item in &items {
            if let Kind::Asp(policy) = item.kind {
                stages.states += analyze(item.src, policy, &mut atracer, &mut stages);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let twall = median(&mut twalls);
    let nr = twalls.len() as f64;
    let ms = |name: &str| tracer.total(name).ns as f64 / nr / 1e6;
    let lang = ms("lang.parse") + ms("lang.typecheck") + ms("lang.front");
    let analysis = ms("analysis.verify") + ms("analysis.plan");
    let runtime = ms("runtime.install") + ms("runtime.topology");
    let vm = ms("vm.codegen");
    let round_ms = ms("bench.round");
    report.note(format!(
        "asp_download: {} traced rounds; {} samples per analysis",
        twalls.len(),
        stages.analyses[0].len()
    ));
    stages.report(&mut report);
    report.set("allocs_per_op", allocs.allocs as f64 / n as f64);
    report.set("alloc_bytes_per_op", allocs.bytes as f64 / n as f64);
    report.set("lang.self_ms", lang);
    report.set("analysis.self_ms", analysis);
    report.set("vm.self_ms", vm);
    report.set("runtime.self_ms", runtime);
    report.set(
        "trace.unattributed_frac",
        ratio(round_ms - lang - analysis - runtime - vm, round_ms),
    );
    report.set("trace_overhead_frac", twall / wall - 1.0);
    report.spans = Some(tracer.to_jsonl());
    report
}
