//! Property-based tests over the language front end and the two
//! execution engines.
//!
//! The central property is **interpreter ≡ JIT**: for generated
//! well-typed programs, the portable interpreter and its specialization
//! must agree on results, printed output, and emitted effects — the
//! paper's whole implementation story rests on this equivalence.
//!
//! Generation uses the workspace's own deterministic RNG
//! (`netsim::rng::SplitMix64`) instead of an external property-testing
//! crate: each test derives its cases from fixed seeds, so failures are
//! reproducible by case index alone.

use netsim::rng::SplitMix64;
use planp::analysis::{verify, Policy};
use planp::lang::{parse_expr, parse_program, pretty};
use planp::vm::pkthdr::{addr, IpHdr, UdpHdr};
use planp::vm::{Interp, MockEnv, Value};
use std::rc::Rc;

// ---- generators --------------------------------------------------------

/// Well-typed integer expressions over the channel scope
/// (`ps : int`, `p : ip*udp*blob`), mirroring the old proptest strategy:
/// leaves are constants and scope references, interior nodes arithmetic,
/// comparisons, `let`, and `handle` forms.
fn gen_int_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.next_below(4) == 0 {
        return match rng.next_below(6) {
            0 => rng.next_below(100).to_string(),
            1 => format!("(0 - {})", 1 + rng.next_below(49)),
            2 => "ps".to_string(),
            3 => "blobLen(#3 p)".to_string(),
            4 => "charPos(#\"A\")".to_string(),
            _ => "strLen(\"hello\")".to_string(),
        };
    }
    let d = depth - 1;
    match rng.next_below(11) {
        0 => format!("({} + {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        1 => format!("({} - {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        2 => format!("({} * {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        3 => format!("({} div {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        4 => format!("({} mod {})", gen_int_expr(rng, d), gen_int_expr(rng, d)),
        5 => {
            let (c, a, b) = (
                gen_int_expr(rng, d),
                gen_int_expr(rng, d),
                gen_int_expr(rng, d),
            );
            format!("(if {c} < {a} then {a} else {b})")
        }
        6 => {
            let (c, a) = (gen_int_expr(rng, d), gen_int_expr(rng, d));
            format!("(if {c} = {a} then {c} else {a})")
        }
        7 => format!(
            "(let val x : int = {} in (x + x) end)",
            gen_int_expr(rng, d)
        ),
        8 => format!(
            "(let val x : int = {} val y : int = {} in (x - y) end)",
            gen_int_expr(rng, d),
            gen_int_expr(rng, d)
        ),
        9 => format!("(({}) handle Div => 777)", gen_int_expr(rng, d)),
        _ => {
            let (a, b) = (gen_int_expr(rng, d), gen_int_expr(rng, d));
            format!("(if {a} < 5 andalso {b} > 2 then {a} else {b})")
        }
    }
}

fn channel_program(body_expr: &str) -> String {
    format!(
        "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
         ((println({body_expr}); ({body_expr}, ss)) handle _ => (0 - 99, ss))"
    )
}

fn udp_packet() -> Value {
    Value::tuple(vec![
        Value::Ip(IpHdr::new(
            addr(10, 0, 0, 1),
            addr(10, 0, 0, 2),
            IpHdr::PROTO_UDP,
        )),
        Value::Udp(UdpHdr::new(1, 2)),
        Value::Blob(bytes::Bytes::from_static(b"twelve bytes")),
    ])
}

/// Arbitrary (possibly non-ASCII, possibly garbage) source text.
fn gen_fuzz_string(rng: &mut SplitMix64) -> String {
    let len = rng.next_below(200) as usize;
    (0..len)
        .map(|_| match rng.next_below(10) {
            // Printable ASCII, biased toward language punctuation.
            0..=5 => (0x20 + rng.next_below(0x5f) as u8) as char,
            6 => "(){}[]<>=*#\"\\;,."
                .chars()
                .nth(rng.next_below(16) as usize)
                .unwrap(),
            7 => char::from_u32(0xA0 + rng.next_below(0x2000) as u32).unwrap_or('ü'),
            8 => '\n',
            _ => '\t',
        })
        .collect()
}

// ---- properties --------------------------------------------------------

/// The lexer and parser never panic, whatever the input.
#[test]
fn frontend_never_panics() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_0000 + case);
        let src = gen_fuzz_string(&mut rng);
        let _ = planp::lang::lexer::lex(&src);
        let _ = parse_program(&src);
    }
}

/// The pretty-printer is a fixed point under reparsing.
#[test]
fn pretty_print_round_trips() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_1000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let ast = parse_expr(&e).expect("generated expressions parse");
        let printed = pretty::expr(&ast);
        let reparsed =
            parse_expr(&printed).unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        assert_eq!(printed, pretty::expr(&reparsed), "case {case}");
    }
}

/// Interpreter and JIT agree on every generated program: same result
/// (or same exception), same printed output.
#[test]
fn interp_equals_jit() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_2000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let ps = rng.next_below(2000) as i64 - 1000;
        let src = channel_program(&e);
        let prog = Rc::new(
            planp::lang::compile_front(&src)
                .unwrap_or_else(|err| panic!("front end rejected {src}: {err}")),
        );
        let (compiled, _) = planp::vm::jit::compile(prog.clone());
        let interp = Interp::new(&prog);

        let mut env_i = MockEnv::new(7);
        let mut env_j = MockEnv::new(7);
        let ri = interp.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_i,
        );
        let rj = compiled.run_channel(
            0,
            &[],
            Value::Int(ps),
            Value::Unit,
            udp_packet(),
            &mut env_j,
        );
        match (ri, rj) {
            (Ok((pi, _)), Ok((pj, _))) => assert_eq!(pi.display(), pj.display(), "case {case}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "case {case}"),
            (a, b) => panic!("divergence: interp={a:?} jit={b:?} for {e}"),
        }
        assert_eq!(env_i.output, env_j.output, "case {case}");
    }
}

/// Generated single-channel programs without sends never upset the
/// verifier's termination/duplication analyses (no sends = nothing to
/// prove wrong), and the verdict is deterministic.
#[test]
fn verifier_is_deterministic() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_3000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let src = channel_program(&e);
        let prog = planp::lang::compile_front(&src).expect("front end");
        let r1 = verify(&prog, Policy::no_delivery());
        let r2 = verify(&prog, Policy::no_delivery());
        assert!(r1.termination.is_proved(), "case {case}");
        assert!(r1.duplication.is_proved(), "case {case}");
        assert_eq!(r1.accepted(), r2.accepted(), "case {case}");
    }
}

/// Stateful programs (hash-table channel state, protocol-state
/// threading) stay equivalent across engines over a whole packet
/// sequence.
#[test]
fn interp_equals_jit_stateful() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0x5EED_4000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let n_pkts = 1 + rng.next_below(11) as usize;
        let srcs: Vec<u32> = (0..n_pkts).map(|_| 1 + rng.next_below(5) as u32).collect();
        let src_prog = format!(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob)\n\
             initstate mkTable(8) is\n\
             let\n\
               val k : host = ipSrc(#1 p)\n\
               val n : int = (tblGet(ss, k) handle NotFound => 0) + (({e}) handle _ => 3)\n\
             in\n\
               (tblSet(ss, k, n); println(n); (ps + n, ss))\n\
             end"
        );
        let prog = Rc::new(planp::lang::compile_front(&src_prog).expect("front end"));
        let (compiled, _) = planp::vm::jit::compile(prog.clone());
        let interp = Interp::new(&prog);

        let mut env_i = MockEnv::new(7);
        let mut env_j = MockEnv::new(7);
        let mut ps_i = Value::Int(0);
        let mut ps_j = Value::Int(0);
        let mut ss_i = compiled
            .init_channel_state(0, &[], &mut env_i)
            .expect("state");
        let mut ss_j = interp
            .init_channel_state(0, &[], &mut env_j)
            .expect("state");
        for &src_host in &srcs {
            let pkt = |h: u32| {
                Value::tuple(vec![
                    Value::Ip(IpHdr::new(h, 99, IpHdr::PROTO_UDP)),
                    Value::Udp(UdpHdr::new(1, 2)),
                    Value::Blob(bytes::Bytes::from_static(b"abcdefgh")),
                ])
            };
            let ri = interp.run_channel(
                0,
                &[],
                ps_i.clone(),
                ss_i.clone(),
                pkt(src_host),
                &mut env_i,
            );
            let rj = compiled.run_channel(
                0,
                &[],
                ps_j.clone(),
                ss_j.clone(),
                pkt(src_host),
                &mut env_j,
            );
            match (ri, rj) {
                (Ok((pi, si)), Ok((pj, sj))) => {
                    assert_eq!(pi.display(), pj.display(), "case {case}");
                    ps_i = pi;
                    ss_i = si;
                    ps_j = pj;
                    ss_j = sj;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "case {case}");
                    break;
                }
                (a, b) => panic!("divergence: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(env_i.output, env_j.output, "case {case}");
    }
}

/// The verifier never panics on generated programs *with sends*, and its
/// easy implications hold: a program whose only sends keep the
/// destination unchanged, or pin it to one fixed address (a constant or
/// the intact original source), always proves termination; a program
/// that swaps source and destination on every hop never does.
#[test]
fn verifier_fuzz_with_sends() {
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_5000 + case);
        let e = gen_int_expr(&mut rng, 4);
        let pattern = rng.next_below(5) as u8;
        let send = match pattern {
            0 => "OnRemote(network, p)",
            1 => "OnRemote(network, (ipSrcSet(#1 p, 10.0.0.9), #2 p, #3 p))",
            2 => "OnRemote(network, (ipDestSet(#1 p, 10.0.0.9), #2 p, #3 p))",
            3 => "OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p))",
            _ => "OnRemote(network, (ipDestSet(ipSrcSet(#1 p, ipDst(#1 p)), ipSrc(#1 p)), #2 p, #3 p))",
        };
        let src = format!(
            "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             (if (({e}) handle _ => 0) > 0 then {send} else {send}; (ps, ss))"
        );
        let prog = planp::lang::compile_front(&src).expect("front end");
        let report = verify(&prog, Policy::strict());
        let fixed_destination = pattern <= 3;
        assert_eq!(
            report.termination.is_proved(),
            fixed_destination,
            "pattern {pattern} gave {:?}",
            report.termination
        );
        // One send per path: always linear.
        assert!(report.duplication.is_proved(), "case {case}");
        assert!(report.stats.send_sites >= 2, "case {case}");
    }
}

/// Payload codec round-trips for arbitrary scalar payloads.
#[test]
fn payload_codec_round_trips() {
    use planp::lang::types::Type;
    use planp::vm::pkthdr::{decode_payload, encode_payload};
    for case in 0..96u64 {
        let mut rng = SplitMix64::new(0x5EED_6000 + case);
        let c = (b'a' + rng.next_below(26) as u8) as char;
        let n = rng.next_u64() as i64;
        let h = rng.next_u64() as u32;
        let b = rng.next_below(2) == 1;
        let s: String = (0..rng.next_below(41))
            .map(|_| {
                const POOL: &[u8] =
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
                POOL[rng.next_below(POOL.len() as u64) as usize] as char
            })
            .collect();
        let vals = vec![
            Value::Char(c),
            Value::Int(n),
            Value::Host(h),
            Value::Bool(b),
            Value::Str(s.as_str().into()),
        ];
        let types = vec![Type::Char, Type::Int, Type::Host, Type::Bool, Type::Str];
        let bytes = encode_payload(&vals);
        let decoded = decode_payload(&types, &bytes).expect("decodes");
        assert_eq!(decoded, vals, "case {case}");
    }
}
