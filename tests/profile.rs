//! Soundness of the per-site execution profiler (PR: always-on VM
//! profiler).
//!
//! The profiler claims that every charged VM step is attributed to
//! exactly one source site, identically on both engines, and that no
//! site ever observes more steps than its static per-site bound allows.
//! Three independent checks:
//!
//! * **Attribution identity** — on every dispatch of a seeded
//!   200-packet run, the per-site charges recorded through
//!   `NetEnv::charge_site` sum to exactly the aggregate
//!   `charge_steps` total, on both the interpreter and the JIT.
//! * **Engine agreement** — the interpreter's and the JIT's per-site
//!   charge trails are identical per dispatch (order included), so the
//!   merged site profiles of the two engines are byte-identical.
//! * **Scenario utilization** — across the three traced paper
//!   scenarios, every observed site stays at or under `static bound ×
//!   dispatches` (utilization ≤ 1000‰), no dispatch miscounts
//!   (`mismatches = 0`), and the profile exports are byte-stable
//!   across a double run.

use std::collections::BTreeMap;

use planp::analysis::{cost_bounds, site_bounds, superinstruction_candidates, Policy};
use planp::lang::compile_front;
use planp::runtime::{load, LayerConfig, PlanpLayer};
use planp::telemetry::ProfileRegistry;
use planp::telemetry::Telemetry;
use planp::vm::cost::STEPS_PER_NODE;
use planp::vm::env::MockEnv;
use planp::vm::interp::Interp;
use planp::vm::jit;
use planp::vm::pkthdr::{addr, IpHdr, TcpHdr, UdpHdr};
use planp::vm::value::Value;
use planp_apps::audio::{run_audio_traced, Adaptation, AudioConfig};
use planp_apps::http::{run_http_traced, ClusterMode, HttpConfig};
use planp_apps::mpeg::{run_mpeg_traced, MpegConfig};
use planp_telemetry::TraceConfig;

/// SplitMix64 — a tiny deterministic generator for the property tests.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One engine's threaded execution state during the property test.
struct Run {
    env: MockEnv,
    ps: Value,
    ss: Value,
}

/// A channel run on either engine: (env, ps, ss, pkt) → (ps', ss').
type ChanExec<'a> = dyn Fn(&mut MockEnv, Value, Value, Value) -> Result<(Value, Value), planp::vm::value::VmError>
    + 'a;

/// Runs one packet, returning (steps charged, per-site charge trail).
fn step(run: &mut Run, exec: &ChanExec<'_>, pkt: Value) -> (u64, Vec<(u32, u64)>) {
    let steps_before = run.env.steps;
    let sites_before = run.env.site_steps.len();
    let (ps, ss) = exec(&mut run.env, run.ps.clone(), run.ss.clone(), pkt).expect("channel run");
    run.ps = ps;
    run.ss = ss;
    let trail = run.env.site_steps[sites_before..].to_vec();
    (run.env.steps - steps_before, trail)
}

/// Property: for `packets` random packets on channel `idx` of `src`,
/// every dispatch's per-site charges sum to its aggregate on both
/// engines, the two engines' charge trails are identical, and the
/// merged profile never exceeds `static per-site bound × dispatches`.
fn check_attribution(src: &str, idx: usize, mut make_pkt: impl FnMut(&mut SplitMix64) -> Value) {
    let prog = std::rc::Rc::new(compile_front(src).expect("front end"));
    let report = site_bounds(&prog, src);
    let bounds: BTreeMap<u32, u64> = report.channels[idx]
        .sites
        .iter()
        .map(|s| (s.site, s.bound_steps))
        .collect();
    let (compiled, _) = jit::compile(prog.clone());
    let interp = Interp::new(&prog);

    let mut irun = {
        let mut env = MockEnv::new(addr(10, 0, 0, 254));
        let g = interp.eval_globals(&mut env).unwrap();
        let ps = interp.init_proto(&g, &mut env).unwrap();
        let ss = interp.init_channel_state(idx, &g, &mut env).unwrap();
        env.steps = 0;
        env.site_steps.clear();
        (g, Run { env, ps, ss })
    };
    let mut jrun = {
        let mut env = MockEnv::new(addr(10, 0, 0, 254));
        let g = compiled.eval_globals(&mut env).unwrap();
        let ps = compiled.init_proto(&g, &mut env).unwrap();
        let ss = compiled.init_channel_state(idx, &g, &mut env).unwrap();
        env.steps = 0;
        env.site_steps.clear();
        (g, Run { env, ps, ss })
    };

    let mut profile: BTreeMap<u32, u64> = BTreeMap::new();
    let mut rng = SplitMix64(0x0C05_7B07);
    let packets = 200u64;
    for i in 0..packets {
        let pkt = make_pkt(&mut rng);
        let (ig, run) = &mut irun;
        let (isteps, itrail) = step(
            run,
            &|env, ps, ss, p| interp.run_channel(idx, ig, ps, ss, p, env),
            pkt.clone(),
        );
        let (jg, run) = &mut jrun;
        let (jsteps, jtrail) = step(
            run,
            &|env, ps, ss, p| compiled.run_channel(idx, jg, ps, ss, p, env),
            pkt,
        );
        let attributed: u64 = itrail.iter().map(|(_, n)| n).sum();
        assert_eq!(
            attributed, isteps,
            "packet {i}: interpreter per-site charges do not sum to its aggregate"
        );
        assert_eq!(
            itrail, jtrail,
            "packet {i}: engines attribute steps to different sites"
        );
        assert_eq!(jsteps, isteps, "packet {i}: engines disagree on steps");
        for (site, n) in itrail {
            *profile.entry(site).or_insert(0) += n;
        }
    }

    // The merged observation against the static per-site bounds: every
    // observed site is known, and utilization never exceeds 1.0.
    assert_eq!(irun.1.env.site_profile(), jrun.1.env.site_profile());
    for (site, observed) in &profile {
        let bound = *bounds
            .get(site)
            .unwrap_or_else(|| panic!("site {site} observed but not statically known"));
        assert!(
            *observed <= bound * packets,
            "site {site}: observed {observed} > bound {bound} x {packets} dispatches"
        );
    }
}

fn random_blob(rng: &mut SplitMix64) -> Value {
    let r = rng.next();
    let len = (r % 48) as usize;
    Value::Blob(bytes::Bytes::from(vec![(r >> 32) as u8; len]))
}

#[test]
fn forwarder_attribution_is_exact_and_engine_identical() {
    let src = std::fs::read_to_string("asps/forwarder.planp").expect("asp source");
    check_attribution(&src, 0, |rng| {
        let r = rng.next();
        let blob = random_blob(rng);
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, (r % 200) as u8 + 1),
                addr(10, 0, 1, ((r >> 8) % 200) as u8 + 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new((r >> 16) as u16, (r >> 32) as u16)),
            blob,
        ])
    });
}

#[test]
fn http_gateway_attribution_is_exact_and_engine_identical() {
    let src = std::fs::read_to_string("asps/http_gateway.planp").expect("asp source");
    let prog = compile_front(&src).expect("front end");
    let network = prog.chan_groups["network"][0];
    let (srv0, srv1, virt) = (addr(10, 0, 2, 1), addr(10, 0, 3, 1), addr(10, 9, 9, 9));
    check_attribution(&src, network, move |rng| {
        let r = rng.next();
        // Mix request, result, and pass-through traffic to cover every
        // branch of the gateway.
        let (sip, dip, sport, dport) = match r % 4 {
            0 => (
                addr(10, 0, 0, (r >> 8) as u8 % 8 + 1),
                virt,
                1024 + (r >> 16) as u16 % 64,
                80,
            ),
            1 => (srv0, addr(10, 0, 0, 5), 80, 5000),
            2 => (srv1, addr(10, 0, 0, 6), 80, 6000),
            _ => (
                addr(10, 0, 0, 7),
                addr(10, 0, 1, 7),
                (r >> 16) as u16,
                (r >> 24) as u16,
            ),
        };
        let blob = random_blob(rng);
        Value::tuple(vec![
            Value::Ip(IpHdr::new(sip, dip, IpHdr::PROTO_TCP)),
            Value::Tcp(TcpHdr::data(sport, dport, (r >> 40) as u32)),
            blob,
        ])
    });
}

/// The doubling call chain `f_k(x) = f_{k-1}(x) + f_{k-1}(x)`: `f0`'s
/// body runs `2^depth` times per dispatch. It has no branches, so every
/// bound is exact, and `f0`'s body is the single node `x`.
fn doubling_chain(depth: u32) -> String {
    let mut src = String::from("fun f0(x : int) : int = x\n");
    for k in 1..=depth {
        src += &format!("fun f{k}(x : int) : int = f{j}(x) + f{j}(x)\n", j = k - 1);
    }
    src +=
        &format!("channel network(ps : int, ss : unit, p : ip*udp*blob) is (f{depth}(ps), ss)\n");
    src
}

#[test]
fn doubling_chain_attribution_is_exact_and_engine_identical() {
    check_attribution(&doubling_chain(6), 0, |rng| {
        let r = rng.next();
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, 1),
                addr(10, 0, 1, 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new(r as u16, (r >> 16) as u16)),
            random_blob(rng),
        ])
    });
}

#[test]
fn doubling_chain_site_bounds_are_exact_and_install_is_fast() {
    let depth = 22;
    let src = doubling_chain(depth);
    let image = load(&src, Policy::no_delivery()).expect("the chain verifies");
    let prog = &image.prog;

    // Each function's sites and candidates are found once, not once per
    // call path: the 2^22 paths into `f0` cost nothing extra.
    let start = std::time::Instant::now();
    let report = site_bounds(prog, &src);
    let candidates = superinstruction_candidates(prog, &src);
    let mut tel = Telemetry::default();
    PlanpLayer::new(&image, LayerConfig::default(), 1, "r1", &mut tel).expect("install");
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "site bounds, candidates and install took {elapsed:?}"
    );
    assert!(candidates.is_empty());

    let sites = &report.channels[0];
    let f0 = prog.funs[0].body.span.start;
    let f0_bound = sites
        .sites
        .iter()
        .find(|s| s.site == f0)
        .expect("f0's body is reachable")
        .bound_steps;
    assert_eq!(f0_bound, (1u64 << depth) * STEPS_PER_NODE);
    // Branch-free: the per-site decomposition adds up to the whole-body
    // bound exactly.
    assert_eq!(sites.total_bound(), cost_bounds(prog).max_steps());
}

/// Asserts a whole run's profile registry honored the profiler's
/// soundness invariants.
fn assert_profile_sound(reg: &ProfileRegistry, scenario: &str) {
    assert_eq!(
        reg.mismatches(),
        0,
        "{scenario}: some dispatch's per-site charges did not sum to its aggregate"
    );
    let mut dispatched = 0u64;
    for sc in reg.scopes() {
        assert_eq!(
            sc.unknown_sites(),
            0,
            "{scenario}: scope {} observed sites without a static bound",
            sc.key()
        );
        assert_eq!(
            sc.steps,
            sc.sites.values().sum::<u64>(),
            "{scenario}: scope {} totals drifted from its site profile",
            sc.key()
        );
        dispatched += sc.dispatches;
    }
    assert!(dispatched > 0, "{scenario}: nothing was profiled");
    for row in reg.heatmap() {
        assert!(
            row.permille <= 1000,
            "{scenario}: site {} of {} at {}‰ of its static bound",
            row.site,
            row.scope,
            row.permille
        );
    }
}

#[test]
fn audio_scenario_profile_is_sound() {
    let cfg = AudioConfig::constant_load(Adaptation::AspJit, 9450, 5);
    let (_, t, _) = run_audio_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t.profile, "audio");
}

#[test]
fn http_scenario_profile_is_sound() {
    let mut cfg = HttpConfig::new(ClusterMode::AspGateway, 8);
    cfg.duration_s = 5;
    let (_, t, _) = run_http_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t.profile, "http");
}

#[test]
fn mpeg_scenario_profile_is_sound_and_byte_stable() {
    let cfg = MpegConfig::new(2, true);
    let (_, t1, _) = run_mpeg_traced(&cfg, TraceConfig::default());
    assert_profile_sound(&t1.profile, "mpeg");
    // Same seed ⇒ identical profile exports, byte for byte.
    let (_, t2, _) = run_mpeg_traced(&cfg, TraceConfig::default());
    assert_eq!(t1.profile.to_json(), t2.profile.to_json());
    assert_eq!(t1.profile.collapsed_flame(), t2.profile.collapsed_flame());
    assert_eq!(
        t1.profile.superinstruction_report(),
        t2.profile.superinstruction_report()
    );
}
