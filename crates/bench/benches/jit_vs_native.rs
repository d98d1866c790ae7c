//! The paper's performance claims (§1, §2.4 and [36]): a JIT-compiled
//! ASP processes packets as fast as the equivalent built-in C code,
//! and far faster than the portable interpreter.
//!
//! Three engines run the same two packet-processing workloads:
//!
//! * the audio-degradation router on a full-quality audio frame;
//! * the HTTP load-balancing gateway on a port-80 TCP segment.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use netsim::packet::{addr, IpHdr, TcpHdr, UdpHdr};
use planp_analysis::Policy;
use planp_apps::audio::AUDIO_ROUTER_ASP;
use planp_apps::http::HTTP_GATEWAY_ASP;
use planp_runtime::load;
use planp_vm::interp::Interp;
use planp_vm::{audio, MockEnv, Value};
use std::hint::black_box;

fn audio_packet() -> Value {
    let mut payload = vec![0u8]; // format: 16-bit stereo
    payload.extend_from_slice(&5i64.to_be_bytes());
    payload.extend_from_slice(&vec![0x11u8; 1100]);
    Value::tuple(vec![
        Value::Ip(IpHdr::new(
            addr(10, 0, 0, 1),
            addr(224, 1, 2, 3),
            IpHdr::PROTO_UDP,
        )),
        Value::Udp(UdpHdr::new(7777, 7777)),
        Value::Blob(Bytes::from(payload)),
    ])
}

fn http_packet() -> Value {
    Value::tuple(vec![
        Value::Ip(IpHdr::new(
            addr(10, 0, 1, 10),
            addr(10, 9, 9, 9),
            IpHdr::PROTO_TCP,
        )),
        Value::Tcp(TcpHdr::data(12345, 80, 7)),
        Value::Blob(Bytes::from_static(b"GET /doc/1\n")),
    ])
}

/// The native ("built-in C") audio degradation, equivalent to the ASP
/// body under high load.
fn native_audio(pkt: &Value, env: &mut MockEnv) -> Value {
    let Value::Tuple(parts) = pkt else {
        unreachable!()
    };
    let Value::Blob(body) = &parts[2] else {
        unreachable!()
    };
    let util = env.load * 100 / (env.capacity + 1);
    if util > 80 && body.len() > 9 && body[0] == 0 {
        let pcm = audio::pcm16_to_8(&audio::stereo_to_mono(&body[9..]));
        let mut out = Vec::with_capacity(9 + pcm.len());
        out.push(2u8);
        out.extend_from_slice(&body[1..9]);
        out.extend_from_slice(&pcm);
        Value::tuple(vec![
            parts[0].clone(),
            parts[1].clone(),
            Value::Blob(Bytes::from(out)),
        ])
    } else {
        pkt.clone()
    }
}

/// Clears every trail the mock environment records, so each iteration
/// times one dispatch and not the growth of the previous ones'.
fn reset(env: &mut MockEnv) {
    env.effects.clear();
    env.output.clear();
    env.steps = 0;
    env.site_steps.clear();
    env.send_sites.clear();
    env.timers.clear();
    env.table_writes.clear();
}

fn bench_engines(c: &mut Criterion) {
    // --- audio router -------------------------------------------------
    let lp = load(AUDIO_ROUTER_ASP, Policy::strict()).expect("audio ASP");
    let mut env = MockEnv::new(addr(10, 0, 0, 254));
    env.load = 9500;
    env.capacity = 10_000;
    let globals = lp.compiled.eval_globals(&mut env).expect("globals");
    let pkt = audio_packet();

    let mut group = c.benchmark_group("audio_router");
    group.bench_function("jit", |b| {
        b.iter(|| {
            reset(&mut env);
            let r = lp
                .compiled
                .run_channel(
                    0,
                    &globals,
                    Value::Int(0),
                    Value::Unit,
                    black_box(pkt.clone()),
                    &mut env,
                )
                .expect("runs");
            black_box(r)
        })
    });
    let interp = Interp::new(&lp.prog);
    group.bench_function("interp", |b| {
        b.iter(|| {
            reset(&mut env);
            let r = interp
                .run_channel(
                    0,
                    &globals,
                    Value::Int(0),
                    Value::Unit,
                    black_box(pkt.clone()),
                    &mut env,
                )
                .expect("runs");
            black_box(r)
        })
    });
    group.bench_function("native", |b| {
        b.iter(|| black_box(native_audio(black_box(&pkt), &mut env)))
    });
    group.finish();

    // --- HTTP gateway ----------------------------------------------------
    let lp = load(HTTP_GATEWAY_ASP, Policy::strict()).expect("gateway ASP");
    let mut env = MockEnv::new(addr(10, 0, 1, 254));
    let globals = lp.compiled.eval_globals(&mut env).expect("globals");
    // Channel 1 is `network` (0 is `relay`).
    let net_idx = lp
        .prog
        .channels
        .iter()
        .position(|ch| ch.name == "network")
        .expect("network channel");
    let ss0 = lp
        .compiled
        .init_channel_state(net_idx, &globals, &mut env)
        .expect("state");
    let pkt = http_packet();

    let mut group = c.benchmark_group("http_gateway");
    group.bench_function("jit", |b| {
        b.iter(|| {
            reset(&mut env);
            let r = lp
                .compiled
                .run_channel(
                    net_idx,
                    &globals,
                    Value::Int(0),
                    ss0.clone(),
                    black_box(pkt.clone()),
                    &mut env,
                )
                .expect("runs");
            black_box(r)
        })
    });
    let interp = Interp::new(&lp.prog);
    group.bench_function("interp", |b| {
        b.iter(|| {
            reset(&mut env);
            let r = interp
                .run_channel(
                    net_idx,
                    &globals,
                    Value::Int(0),
                    ss0.clone(),
                    black_box(pkt.clone()),
                    &mut env,
                )
                .expect("runs");
            black_box(r)
        })
    });
    // Native: hash-map lookup + header rewrite.
    let mut table: std::collections::HashMap<(u32, u16), u32> = std::collections::HashMap::new();
    group.bench_function("native", |b| {
        b.iter(|| {
            let Value::Tuple(parts) = black_box(&pkt) else {
                unreachable!()
            };
            let (Value::Ip(ip), Value::Tcp(tcp)) = (&parts[0], &parts[1]) else {
                unreachable!()
            };
            let chosen = *table
                .entry((ip.src, tcp.sport))
                .or_insert(netsim::packet::addr(10, 0, 2, 1));
            let mut ip2 = *ip;
            ip2.dst = chosen;
            black_box(Value::tuple(vec![
                Value::Ip(ip2),
                parts[1].clone(),
                parts[2].clone(),
            ]))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(50)
        .warm_up_time(std::time::Duration::from_secs(5));
    targets = bench_engines
}
criterion_main!(benches);
