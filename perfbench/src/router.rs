//! `asp_router`: a seeded packet stream through two PLAN-P routers.
//!
//! One generator host sends, open-loop in simulated time, 11-byte HTTP
//! segments to the virtual server behind a router running the paper's
//! `http_gateway` ASP under the JIT, and full 1.1 kB audio frames
//! through a second router running `audio_router`. HTTP flows are drawn
//! from a Zipf population over source ports, so new flows insert into
//! the gateway's table and later packets hit it; the two servers echo
//! each segment back, and the replies take the gateway's
//! source-rewrite branch.
//!
//! In wall time one batch is a fresh simulation of [`REQUESTS`]
//! requests; the run repeats batches until its time is up.

use crate::alloc::{self, Mark};
use crate::replay::{self, Capture};
use crate::stages::{analyze, load_staged, stage, Stages};
use crate::trace::{median, quantile, ratio, Tracer};
use crate::{Opts, Report};
use bytes::Bytes;
use netsim::packet::{addr, Packet, TcpHdr};
use netsim::rng::SplitMix64;
use netsim::{App, ArrivalMeta, HookVerdict, LinkSpec, NodeApi, PacketHook, Sim, SimTime};
use planp_analysis::Policy;
use planp_apps::audio::{AUDIO_PORT, AUDIO_ROUTER_ASP};
use planp_apps::http::{
    NativeHttpGateway, HTTP_GATEWAY_ASP, SERVER0_ADDR, SERVER1_ADDR, VIRTUAL_ADDR,
};
use planp_runtime::{install_planp, load, LayerConfig, LoadedProgram, PlanpHandle, PlanpLayer};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// HTTP requests per batch (each also produces one reply).
pub const REQUESTS: usize = 100_000;
/// Mean gap between requests in simulated time (Poisson arrivals,
/// 100k requests/s).
const REQ_GAP_NS: f64 = 10_000.0;
/// One 1.1 kB audio frame after every this many requests (≈ 93 Mb/s,
/// about 9% of the audio router's outgoing link, so frames leave at
/// full quality).
const AUDIO_EVERY: usize = 10;
/// PCM bytes per audio frame (16-bit stereo, the largest packet).
const PCM_BYTES: usize = 1100;
/// Zipf flow population and skew.
const FLOWS: usize = 4096;
const ZIPF_S: f64 = 1.1;
/// Simulated time per measured slice of a batch.
const SLICE_US: u64 = 1_000;
/// Simulated time after the last send for the network to drain.
const DRAIN_US: u64 = 5_000;
/// Packets captured per hook for the VM replay.
const CAPTURE: usize = 50_000;
/// JIT and interpreter passes over the capture.
const JIT_PASSES: usize = 10;
const INTERP_PASSES: usize = 3;
/// Passes of each analysis over the two ASPs in a traced run.
const ANALYSIS_PASSES: usize = 50;
/// Set-ups after each batch (the median of all of them is `setup_s`;
/// spread over the run, they see the same host as the batches).
const SETUP_REPS: usize = 10;

const GEN_ADDR: u32 = addr(10, 0, 1, 10);
const GW_ADDR: u32 = addr(10, 0, 1, 254);
const AUDIO_ROUTER_ADDR: u32 = addr(10, 0, 6, 254);
const SINK_ADDR: u32 = addr(10, 0, 7, 1);
const REQUEST: &[u8] = b"GET /doc/1\n";

#[derive(Clone, Copy)]
enum Item {
    Req { seq: u32, sport: u16 },
    Audio { seq: u32 },
}

/// The generated send schedule, identical for every batch of a run.
pub struct Input {
    at_ns: Vec<u64>,
    items: Vec<Item>,
    frames: usize,
    pcm: Bytes,
}

impl Input {
    /// Builds the schedule from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x6173_705f_726f_7574);
        let weights: Vec<f64> = (1..=FLOWS).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Which source port each popularity rank gets.
        let mut ports: Vec<u16> = (0..FLOWS).map(|i| 1024 + i as u16).collect();
        for i in (1..FLOWS).rev() {
            ports.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut input = Input {
            at_ns: Vec::new(),
            items: Vec::new(),
            frames: 0,
            pcm: (0..PCM_BYTES)
                .map(|_| rng.next_u64() as u8)
                .collect::<Vec<u8>>()
                .into(),
        };
        let mut t = 0.0;
        for seq in 0..REQUESTS {
            t += rng.next_exp(REQ_GAP_NS);
            let u = rng.next_f64();
            let rank = cdf.partition_point(|&c| c < u).min(FLOWS - 1);
            input.at_ns.push(t as u64);
            input.items.push(Item::Req {
                seq: seq as u32,
                sport: ports[rank],
            });
            if seq % AUDIO_EVERY == AUDIO_EVERY - 1 {
                input.at_ns.push(t as u64);
                input.items.push(Item::Audio {
                    seq: input.frames as u32,
                });
                input.frames += 1;
            }
        }
        input
    }

    /// Deliveries one batch should make: each request, its reply, and
    /// each audio frame, exactly once.
    pub fn ops(&self) -> u64 {
        2 * REQUESTS as u64 + self.frames as u64
    }

    fn end_ns(&self) -> u64 {
        self.at_ns.last().copied().unwrap_or(0) + DRAIN_US * 1_000
    }
}

/// What the receivers saw in one batch.
#[derive(Default)]
struct Tally {
    /// Deliveries per request at the servers.
    req: Vec<u8>,
    /// Which server (0 or 1) got each request.
    server_of: Vec<u8>,
    /// Deliveries per reply at the generator.
    reply: Vec<u8>,
    /// Deliveries per audio frame at the sink.
    audio: Vec<u8>,
    /// Total deliveries.
    delivered: u64,
    /// Packets that arrived somewhere they should not have.
    stray: u64,
}

fn bump(v: &mut [u8], seq: usize) -> bool {
    match v.get_mut(seq) {
        Some(n) => {
            *n = n.saturating_add(1);
            true
        }
        None => false,
    }
}

/// The generator host: sends the schedule and counts the replies.
struct Client {
    input: Rc<Input>,
    next: usize,
    tally: Rc<RefCell<Tally>>,
}

impl Client {
    fn arm(&mut self, api: &mut NodeApi<'_>) {
        if let Some(&at) = self.input.at_ns.get(self.next) {
            let now = api.now().as_nanos();
            api.set_timer(Duration::from_nanos(at.saturating_sub(now)), 0);
        }
    }
}

impl App for Client {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.arm(api);
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, _key: u64) {
        let now = api.now().as_nanos();
        while self.next < self.input.items.len() && self.input.at_ns[self.next] <= now {
            let pkt = match self.input.items[self.next] {
                Item::Req { seq, sport } => Packet::tcp(
                    GEN_ADDR,
                    VIRTUAL_ADDR,
                    TcpHdr::data(sport, 80, seq),
                    Bytes::from_static(REQUEST),
                ),
                Item::Audio { seq } => {
                    let mut body = Vec::with_capacity(9 + PCM_BYTES);
                    body.push(0); // 16-bit stereo
                    body.extend_from_slice(&i64::from(seq).to_be_bytes());
                    body.extend_from_slice(&self.input.pcm);
                    Packet::udp(GEN_ADDR, SINK_ADDR, AUDIO_PORT, AUDIO_PORT, body.into())
                }
            };
            api.send(pkt);
            self.next += 1;
        }
        self.arm(api);
    }

    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
        let mut t = self.tally.borrow_mut();
        match pkt.tcp_hdr() {
            Some(h) if h.sport == 80 && pkt.ip.src == VIRTUAL_ADDR => {
                if bump(&mut t.reply, h.seq as usize) {
                    t.delivered += 1;
                    return;
                }
                t.stray += 1;
            }
            _ => t.stray += 1,
        }
    }
}

/// A web server: records the request and echoes it back.
struct Server {
    index: u8,
    tally: Rc<RefCell<Tally>>,
}

impl App for Server {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        let mut t = self.tally.borrow_mut();
        let Some(h) = pkt.tcp_hdr().copied().filter(|h| h.dport == 80) else {
            t.stray += 1;
            return;
        };
        if !bump(&mut t.req, h.seq as usize) {
            t.stray += 1;
            return;
        }
        t.server_of[h.seq as usize] = self.index;
        t.delivered += 1;
        drop(t);
        let me = api.addr();
        api.send(Packet::tcp(
            me,
            pkt.ip.src,
            TcpHdr::data(80, h.sport, h.seq),
            pkt.payload,
        ));
    }
}

/// The audio receiver: counts frames by the sequence number in their
/// header (bytes 1..9, kept by every degradation level).
struct AudioSink {
    tally: Rc<RefCell<Tally>>,
}

impl App for AudioSink {
    fn on_packet(&mut self, _api: &mut NodeApi<'_>, pkt: Packet) {
        let mut t = self.tally.borrow_mut();
        let seq = pkt
            .udp_hdr()
            .filter(|u| u.dport == AUDIO_PORT && pkt.payload.len() >= 9)
            .map(|_| i64::from_be_bytes(pkt.payload[1..9].try_into().expect("8 bytes")));
        match seq {
            Some(s) if s >= 0 && bump(&mut t.audio, s as usize) => t.delivered += 1,
            _ => t.stray += 1,
        }
    }
}

/// Per-call hook timings and the packets captured for the replay.
#[derive(Default)]
struct HookLog {
    ns: Vec<u32>,
    capture: Vec<Packet>,
    capture_cap: usize,
}

/// Times every call into a packet hook as a span named `name`.
struct TimedHook {
    inner: Box<dyn PacketHook>,
    name: &'static str,
    tracer: Rc<RefCell<Tracer>>,
    log: Rc<RefCell<HookLog>>,
}

impl PacketHook for TimedHook {
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet, meta: &ArrivalMeta) -> HookVerdict {
        {
            let mut log = self.log.borrow_mut();
            if log.capture.len() < log.capture_cap {
                log.capture.push(pkt.clone());
            }
        }
        let open = self.tracer.borrow_mut().begin();
        let verdict = self.inner.on_packet(api, pkt, meta);
        let ns = self.tracer.borrow_mut().end(open, self.name);
        self.log.borrow_mut().ns.push(ns as u32);
        verdict
    }

    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        let open = self.tracer.borrow_mut().begin();
        self.inner.on_timer(api, key);
        self.tracer.borrow_mut().end(open, self.name);
    }
}

/// Times every call into an application as an `apps.app` span.
struct TimedApp {
    inner: Box<dyn App>,
    tracer: Rc<RefCell<Tracer>>,
}

impl TimedApp {
    fn span(&mut self, f: impl FnOnce(&mut dyn App)) {
        let open = self.tracer.borrow_mut().begin();
        f(self.inner.as_mut());
        self.tracer.borrow_mut().end(open, "apps.app");
    }
}

impl App for TimedApp {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.span(|a| a.on_start(api));
    }
    fn on_packet(&mut self, api: &mut NodeApi<'_>, pkt: Packet) {
        self.span(|a| a.on_packet(api, pkt));
    }
    fn on_timer(&mut self, api: &mut NodeApi<'_>, key: u64) {
        self.span(|a| a.on_timer(api, key));
    }
    fn on_restart(&mut self, api: &mut NodeApi<'_>) {
        self.span(|a| a.on_restart(api));
    }
}

/// Which gateway the HTTP router runs.
#[derive(Clone, Copy, PartialEq)]
enum Gateway {
    Asp,
    Native,
}

/// How a batch is traced: not at all, or into `tracer`, with the
/// profiler sampling 1 in `profile_n` dispatches.
struct Tracing {
    tracer: Rc<RefCell<Tracer>>,
    /// The ASP loads of each batch's set-up, stage by stage.
    stages: RefCell<Stages>,
    profile_n: u32,
    capture: usize,
}

/// A simulation ready to run.
struct Built {
    sim: Sim,
    tally: Rc<RefCell<Tally>>,
    handles: Vec<PlanpHandle>,
    /// Per-call timings of each timed hook, in install order (the HTTP
    /// router first).
    logs: Vec<Rc<RefCell<HookLog>>>,
    /// The ASPs behind the timed hooks, with their node addresses.
    asps: Vec<(Rc<LoadedProgram>, u32)>,
}

/// Loads both ASPs and builds the topology: generator — gateway —
/// two servers, and generator — audio router — audio sink.
fn build(input: &Rc<Input>, seed: u64, gateway: Gateway, tracing: Option<&Tracing>) -> Built {
    let load_asp = |src: &str| {
        let image = match tracing {
            None => load(src, Policy::strict()).ok(),
            Some(t) => load_staged(
                src,
                Policy::strict(),
                &mut t.tracer.borrow_mut(),
                &mut t.stages.borrow_mut(),
            )
            .ok(),
        };
        Rc::new(image.expect("bundled ASP verifies"))
    };
    let http = load_asp(HTTP_GATEWAY_ASP);
    let audio = load_asp(AUDIO_ROUTER_ASP);
    let topology = tracing.map(|t| t.tracer.borrow_mut().begin());
    let mut sim = Sim::new(seed);
    let gen = sim.add_host("gen", GEN_ADDR);
    let gw = sim.add_router("gateway", GW_ADDR);
    let s0 = sim.add_host("server0", SERVER0_ADDR);
    let s1 = sim.add_host("server1", SERVER1_ADDR);
    let ar = sim.add_router("audio_router", AUDIO_ROUTER_ADDR);
    let sink = sim.add_host("audio_sink", SINK_ADDR);
    let fast = LinkSpec {
        kbps: 1_000_000,
        delay: Duration::from_micros(10),
        queue_pkts: 1 << 16,
    };
    sim.add_link(fast, &[gen, gw]);
    sim.add_link(fast, &[gw, s0]);
    sim.add_link(fast, &[gw, s1]);
    sim.add_link(fast, &[gen, ar]);
    sim.add_link(fast, &[ar, sink]);
    sim.compute_routes();
    sim.add_route(gen, VIRTUAL_ADDR, gw);
    if let (Some(t), Some(open)) = (tracing, topology) {
        t.tracer.borrow_mut().end(open, "netsim.topology");
    }

    let tally = Rc::new(RefCell::new(Tally {
        req: vec![0; REQUESTS],
        server_of: vec![u8::MAX; REQUESTS],
        reply: vec![0; REQUESTS],
        audio: vec![0; input.frames],
        ..Tally::default()
    }));
    let mut built = Built {
        sim,
        tally: tally.clone(),
        handles: Vec::new(),
        logs: Vec::new(),
        asps: Vec::new(),
    };
    let sim = &mut built.sim;
    let mut asps = vec![(ar, AUDIO_ROUTER_ADDR, audio)];
    if gateway == Gateway::Asp {
        asps.insert(0, (gw, GW_ADDR, http));
    }
    let mut hooks: Vec<(netsim::NodeId, Box<dyn PacketHook>, &'static str)> = Vec::new();
    if gateway == Gateway::Native {
        hooks.push((
            gw,
            Box::new(NativeHttpGateway::new()),
            "runtime.native_hook",
        ));
    }
    for (node, node_addr, image) in asps {
        let Some(t) = tracing else {
            let h = install_planp(sim, node, &image, LayerConfig::default()).expect("installs");
            built.handles.push(h);
            continue;
        };
        let name = sim.node(node).name.clone();
        let layer = stage(
            &mut t.tracer.borrow_mut(),
            "runtime.install",
            &mut t.stages.borrow_mut().install,
            || {
                PlanpLayer::new(
                    &image,
                    LayerConfig::default(),
                    node_addr,
                    &name,
                    &mut sim.telemetry,
                )
            },
        )
        .expect("installs");
        built.handles.push(layer.handle());
        hooks.push((node, Box::new(layer), "runtime.hook"));
        if t.capture > 0 {
            built.asps.push((image, node_addr));
        }
    }
    if let Some(t) = tracing {
        for (node, hook, name) in hooks {
            let log = Rc::new(RefCell::new(HookLog {
                capture_cap: if name == "runtime.hook" { t.capture } else { 0 },
                ..HookLog::default()
            }));
            let timed = TimedHook {
                inner: hook,
                name,
                tracer: t.tracer.clone(),
                log: log.clone(),
            };
            sim.install_hook(node, Box::new(timed));
            built.logs.push(log);
        }
        sim.telemetry.profile.set_sample(t.profile_n);
    } else {
        for (node, hook, _) in hooks {
            sim.install_hook(node, hook);
        }
    }
    let apps: Vec<(netsim::NodeId, Box<dyn App>)> = vec![
        (
            gen,
            Box::new(Client {
                input: input.clone(),
                next: 0,
                tally: tally.clone(),
            }),
        ),
        (
            s0,
            Box::new(Server {
                index: 0,
                tally: tally.clone(),
            }),
        ),
        (
            s1,
            Box::new(Server {
                index: 1,
                tally: tally.clone(),
            }),
        ),
        (sink, Box::new(AudioSink { tally })),
    ];
    for (node, app) in apps {
        match tracing {
            None => sim.add_app(node, app),
            Some(t) => sim.add_app(
                node,
                Box::new(TimedApp {
                    inner: app,
                    tracer: t.tracer.clone(),
                }),
            ),
        };
    }
    built
}

/// What one batch measured.
struct Batch {
    wall_s: f64,
    /// Wall µs per delivered packet, one entry per slice.
    per_op_us: Vec<f64>,
    events: u64,
    /// Allocations in the timed phase.
    alloc: Mark,
    snapshot_us: f64,
    link_drops: u64,
    node_drops: u64,
}

/// One batch: set-up, then the timed phase in [`SLICE_US`] slices,
/// then a metrics snapshot. A traced batch is one `bench.batch` span.
fn run_batch(
    input: &Rc<Input>,
    seed: u64,
    gateway: Gateway,
    tracing: Option<&Tracing>,
) -> (Batch, Built) {
    let root = tracing.map(|t| t.tracer.borrow_mut().begin());
    let mut built = build(input, seed, gateway, tracing);
    let end_us = input.end_ns().div_ceil(1_000);
    let mut per_op_us = Vec::with_capacity((end_us / SLICE_US) as usize + 1);
    let a0 = Mark::now();
    let start = Instant::now();
    let mut last = 0;
    let mut until = 0;
    while until < end_us {
        until = (until + SLICE_US).min(end_us);
        let slice = tracing.map(|t| t.tracer.borrow_mut().begin());
        let s0 = Instant::now();
        built.sim.run_until(SimTime::from_us(until));
        let dt = s0.elapsed().as_secs_f64();
        if let (Some(t), Some(open)) = (tracing, slice) {
            t.tracer.borrow_mut().end(open, "netsim.run_until");
        }
        let delivered = built.tally.borrow().delivered;
        if delivered > last {
            per_op_us.push(dt * 1e6 / (delivered - last) as f64);
        }
        last = delivered;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let alloc = a0.since();
    let snapshot = tracing.map(|t| t.tracer.borrow_mut().begin());
    let s0 = Instant::now();
    let snap = built.sim.metrics_snapshot();
    let snapshot_us = s0.elapsed().as_secs_f64() * 1e6;
    if let (Some(t), Some(open)) = (tracing, snapshot) {
        t.tracer.borrow_mut().end(open, "telemetry.snapshot");
    }
    let batch = Batch {
        wall_s,
        per_op_us,
        events: snap
            .counters
            .get("sim.events_processed")
            .copied()
            .unwrap_or(0),
        alloc,
        snapshot_us,
        link_drops: built.sim.total_link_drops,
        node_drops: built.sim.total_node_drops,
    };
    if let (Some(t), Some(open)) = (tracing, root) {
        t.tracer.borrow_mut().end(open, "bench.batch");
    }
    (batch, built)
}

/// Output checks for one batch: every packet delivered exactly once,
/// nothing stray, and the same server per request as `reference` (the
/// native gateway's split on the same packets). Returns failed ops.
fn check(built: &Built, reference: &[u8], report: &mut Report) -> u64 {
    let t = built.tally.borrow();
    let not_once = |v: &[u8]| v.iter().filter(|&&n| n != 1).count() as u64;
    let (req, reply, audio) = (not_once(&t.req), not_once(&t.reply), not_once(&t.audio));
    let split = t
        .server_of
        .iter()
        .zip(reference)
        .filter(|(a, b)| a != b)
        .count() as u64;
    let failed = req + reply + audio + t.stray + split;
    if failed > 0 {
        report.problem(format!(
            "asp_router: not delivered exactly once: requests={req} replies={reply} audio={audio}; \
             stray={}; requests sent to another server than the native gateway chose={split}",
            t.stray
        ));
    }
    failed
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let input = Rc::new(Input::generate(opts.seed));
    // Set-up of an ASP batch: both loads, the topology, the installs.
    let set_up = || {
        let t0 = Instant::now();
        let built = build(&input, opts.seed, Gateway::Asp, None);
        let s = t0.elapsed().as_secs_f64();
        drop(built);
        s
    };
    // The native gateway's split on the same packets is the reference
    // every ASP batch is checked against; its own deliveries are checked
    // against a reference that always agrees with it.
    let (_, native) = run_batch(&input, opts.seed, Gateway::Native, None);
    let reference = native.tally.borrow().server_of.clone();
    let mut failed = check(&native, &reference, &mut report);
    drop(native);
    let s0 = reference.iter().filter(|&&s| s == 0).count();
    report.note(format!(
        "asp_router: {REQUESTS} requests + {REQUESTS} replies + {} audio frames per batch; \
         native split {s0}/{}",
        input.frames,
        REQUESTS - s0
    ));

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let tracer = Rc::new(RefCell::new(Tracer::new(20_000)));
    let tracing = Tracing {
        tracer: tracer.clone(),
        stages: RefCell::default(),
        profile_n: 1,
        capture: CAPTURE,
    };
    let mut plain = Vec::new();
    let mut setup = Vec::new();
    let mut heap = Vec::new();
    let mut traced = Vec::new();
    let mut first_traced = None;
    let mut attempted = 0;
    loop {
        let ((b, built), mb) = alloc::peak_mb(|| run_batch(&input, opts.seed, Gateway::Asp, None));
        heap.push(mb);
        failed += check(&built, &reference, &mut report);
        attempted += input.ops();
        plain.push(b);
        drop(built);
        if opts.trace {
            let (b, built) = run_batch(&input, opts.seed, Gateway::Asp, Some(&tracing));
            failed += check(&built, &reference, &mut report);
            attempted += input.ops();
            traced.push(b);
            if first_traced.is_none() {
                first_traced = Some(built);
            }
        } else {
            setup.extend((0..SETUP_REPS).map(|_| set_up()));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    report.attempted = attempted;
    report.failed = failed;

    let ops = input.ops() as f64;
    let mut walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
    let wall = median(&mut walls);
    if !opts.trace {
        let mut rates: Vec<f64> = plain.iter().map(|b| ops / b.wall_s).collect();
        // Per-batch quantiles, then their median over batches: a burst of
        // host noise moves one batch's tail, not the reported tail.
        let batch_q = |q: f64| -> Vec<f64> {
            plain
                .iter()
                .map(|b| quantile(&mut b.per_op_us.clone(), q))
                .collect()
        };
        let (mut p50, mut p99) = (batch_q(0.50), batch_q(0.99));
        report.note(format!(
            "asp_router: {} batches of {ops} delivered packets, wall {:.4}..{:.4} s; op latency = \
             wall µs per delivered packet in each of {} slices of {SLICE_US} simulated µs, \
             median over batches of each batch's p50 and p99; setup_s over {} set-ups",
            plain.len(),
            quantile(&mut walls, 0.0),
            quantile(&mut walls, 1.0),
            plain[0].per_op_us.len(),
            setup.len()
        ));
        report.set("setup_s", median(&mut setup));
        report.set("wall_s", wall);
        report.set("ops_per_s", median(&mut rates));
        report.set("op_p50_us", median(&mut p50));
        report.set("op_p99_us", median(&mut p99));
        report.set("peak_heap_mb", median(&mut heap));
        return report;
    }

    // ---- traced run: per-layer numbers --------------------------------
    let first = first_traced.expect("at least one traced batch");
    let mut twalls: Vec<f64> = traced.iter().map(|b| b.wall_s).collect();
    let twall = median(&mut twalls);
    let nb = traced.len() as f64;

    // Each analysis on its own over the two ASPs.
    let mut stages = tracing.stages.take();
    for _ in 0..ANALYSIS_PASSES {
        stages.states = [HTTP_GATEWAY_ASP, AUDIO_ROUTER_ASP]
            .iter()
            .map(|src| analyze(src, Policy::strict(), &mut tracer.borrow_mut(), &mut stages))
            .sum();
    }
    stages.report(&mut report);
    let t = tracer.borrow();
    let batch_ns = t.total("bench.batch").ns as f64;
    let run_until = t.total("netsim.run_until");
    let hook = t.total("runtime.hook");
    let app = t.total("apps.app");
    let mut hook_ns: Vec<u32> = first
        .logs
        .iter()
        .flat_map(|l| l.borrow().ns.clone())
        .collect();
    let hook_mean = ratio(hook.ns as f64, hook.count as f64);

    // Replay the first traced batch's captured dispatches through the VM,
    // weighting each program by its live dispatch count.
    let caps: Vec<Capture> = first
        .asps
        .iter()
        .zip(&first.logs)
        .map(|((image, host), log)| Capture {
            image: image.clone(),
            host: *host,
            packets: std::mem::take(&mut log.borrow_mut().capture),
        })
        .collect();
    let rp = replay::replay(&caps, JIT_PASSES, INTERP_PASSES);
    drop(caps);
    let stats: Vec<_> = first
        .handles
        .iter()
        .map(|h| h.stats.borrow().clone())
        .collect();
    let live: Vec<u64> = stats.iter().map(|s| s.matched).collect();
    let vm = rp.weighted(&live);
    let drift = rp.drift();
    if drift > 0.25 {
        report.problem(format!(
            "asp_router: VM replay slowed by {:.1}% from the first to the last tenth of its passes",
            drift * 100.0
        ));
    }
    if rp.errors > 0 {
        report.problem(format!(
            "asp_router: {} replayed dispatches raised VM errors",
            rp.errors
        ));
    }

    // The native gateway, and the profiler sampling 1 in 64, on the
    // same packets: (per-call ns of the HTTP router's hook, totals of
    // the named span).
    let side = |gateway: Gateway, profile_n: u32, name: &str| {
        let tr = Tracing {
            tracer: Rc::new(RefCell::new(Tracer::new(0))),
            stages: RefCell::default(),
            profile_n,
            capture: 0,
        };
        let (_, built) = run_batch(&input, opts.seed, gateway, Some(&tr));
        let ns = built.logs[0].borrow().ns.clone();
        let total = tr.tracer.borrow().total(name);
        (ns, total)
    };
    let (mut native_ns, _) = side(Gateway::Native, 1, "runtime.native_hook");
    let (_, sampled) = side(Gateway::Asp, 64, "runtime.hook");

    let dispatches: u64 = live.iter().sum();
    let hook_total = hook.ns as f64;
    let vm_ns = (nb * dispatches as f64 * vm.jit_ns).min(hook_total);
    let netsim_self = run_until.ns as f64 - hook_total - app.ns as f64;
    // Each layer's self time over the traced batches: the download
    // stages and the topology of each batch's set-up, the slices, and
    // the snapshot. What is left is the benchmark's own work.
    let ns = |name: &str| t.total(name).ns as f64;
    let lang_ns = ns("lang.parse") + ns("lang.typecheck");
    let analysis_ns = ns("analysis.verify");
    let vm_self = vm_ns + ns("vm.codegen");
    let runtime_ns = hook_total - vm_ns + ns("runtime.install");
    let netsim_ns = netsim_self + ns("netsim.topology");
    let telemetry_ns = ns("telemetry.snapshot");
    let attributed =
        lang_ns + analysis_ns + vm_self + runtime_ns + netsim_ns + telemetry_ns + app.ns as f64;
    let unattributed = ratio(batch_ns - attributed, batch_ns);
    if unattributed > 0.05 {
        report.problem(format!(
            "asp_router: layer self times leave {:.1}% of the traced wall time unaccounted",
            unattributed * 100.0
        ));
    }
    let tb = &traced[0];
    let ev = tb.events as f64;
    report.note(format!(
        "asp_router: {} hook calls timed over {} traced batches; {} dispatches replayed \
         x{JIT_PASSES} (JIT) and x{INTERP_PASSES} (interpreter); {} native hook calls timed",
        hook.count,
        traced.len(),
        rp.dispatches.iter().sum::<u64>(),
        native_ns.len()
    ));
    report.set("vm.jit_ns_per_dispatch", vm.jit_ns);
    report.set("vm.interp_ns_per_dispatch", vm.interp_ns);
    report.set("vm.steps_per_dispatch", vm.steps);
    report.set("vm.allocs_per_dispatch", vm.allocs);
    report.set("vm.alloc_bytes_per_dispatch", vm.bytes);
    report.set("vm.replay_drift", drift);
    report.set("runtime.hook_ns_p50", quantile(&mut hook_ns, 0.50));
    report.set("runtime.hook_ns_p99", quantile(&mut hook_ns, 0.99));
    report.set("runtime.self_ns_per_dispatch", hook_mean - vm.jit_ns);
    report.set(
        "runtime.allocs_per_dispatch",
        ratio(hook.allocs as f64, hook.count as f64),
    );
    report.set(
        "runtime.alloc_bytes_per_dispatch",
        ratio(hook.bytes as f64, hook.count as f64),
    );
    report.set("allocs_per_op", plain[0].alloc.allocs as f64 / ops);
    report.set("alloc_bytes_per_op", plain[0].alloc.bytes as f64 / ops);
    report.set("runtime.native_hook_ns_p50", quantile(&mut native_ns, 0.50));
    report.set("runtime.dispatches", dispatches as f64);
    report.set(
        "runtime.shed",
        stats.iter().map(|s| s.shed).sum::<u64>() as f64,
    );
    report.set(
        "runtime.errors",
        stats.iter().map(|s| s.errors).sum::<u64>() as f64,
    );
    report.set("netsim.self_ns_per_event", ratio(netsim_self / nb, ev));
    report.set("netsim.ns_per_event", ratio(run_until.ns as f64 / nb, ev));
    report.set("netsim.events_per_op", ev / ops);
    report.set(
        "netsim.allocs_per_event",
        ratio(
            (run_until.allocs - hook.allocs - app.allocs) as f64 / nb,
            ev,
        ),
    );
    report.set("netsim.events_per_s", plain[0].events as f64 / wall);
    report.set("netsim.link_drops", tb.link_drops as f64);
    report.set("netsim.node_drops", tb.node_drops as f64);
    report.set(
        "telemetry.profile_ns_per_dispatch",
        hook_mean - ratio(sampled.ns as f64, sampled.count as f64),
    );
    report.set("telemetry.snapshot_us", tb.snapshot_us);
    report.set("lang.self_ms", lang_ns / nb / 1e6);
    report.set("analysis.self_ms", analysis_ns / nb / 1e6);
    report.set("vm.self_ms", vm_self / nb / 1e6);
    report.set("runtime.self_ms", runtime_ns / nb / 1e6);
    report.set("netsim.self_ms", netsim_ns / nb / 1e6);
    report.set("telemetry.self_ms", telemetry_ns / nb / 1e6);
    report.set("apps.self_ms", app.ns as f64 / nb / 1e6);
    report.set("trace.unattributed_frac", unattributed);
    report.set("trace_overhead_frac", twall / wall - 1.0);
    report.spans = Some(t.to_jsonl());
    report
}
