//! Integration tests for the explicit-state model checker, the
//! verifier's one termination/delivery tier: precision, witness
//! determinism and cost, and simulator replay of counterexamples.

use planp::analysis::modelcheck::{model_check, Verdict, DEFAULT_STATE_BUDGET};
use planp::analysis::summary::{summarize, ProgramSummary};
use planp::analysis::{verify, Policy};
use planp::runtime::replay_asp;
use std::time::{Duration, Instant};

fn asp_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/asps"))
}

fn read_asp(name: &str) -> String {
    let path = asp_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The checked-in precision regression: every hop of the relay re-pins
/// the same constant destination, which the model checker proves, so
/// the strictest download policy accepts it.
#[test]
fn relay_pin_accepted_under_strict() {
    let src = read_asp("relay_pin.planp");
    let prog = planp::lang::compile_front(&src).expect("relay_pin compiles");
    let sum = summarize(&prog);
    assert!(
        !channel_screen_proves(&sum),
        "the channel-level screen cannot tell a re-pin from a restart"
    );

    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    assert_eq!(mc.termination, Verdict::Proved);
    assert_eq!(mc.delivery, Verdict::Proved);
    assert!(mc.witnesses.is_empty());

    let report = verify(&prog, Policy::strict());
    assert!(report.accepted(), "{report}");
    assert!(report.errors().is_empty());
}

/// `f_0(q) = OnRemote(network, q)`, `f_k(q) = (f_{k-1}(q); f_{k-1}(q))`:
/// `2^depth` send sites, each closing a violating edge into the same
/// state.
fn doubling_send_chain(depth: usize) -> String {
    let mut src = String::from("fun f0(q : ip*udp*blob) : unit = OnRemote(network, q)\n");
    for k in 1..=depth {
        src.push_str(&format!(
            "fun f{k}(q : ip*udp*blob) : unit = (f{}(q); f{}(q))\n",
            k - 1,
            k - 1
        ));
    }
    src.push_str(&format!(
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (f{depth}(p); (ps, ss))\n"
    ));
    src
}

/// The loop witness search runs one BFS per distinct cycle-closing
/// state, not one per violating edge, so a hostile download of 16 384
/// sends is judged in well under a second — with the same minimal
/// witness as the per-edge search.
#[test]
fn doubling_send_chain_witness_is_fast_and_minimal() {
    let src = doubling_send_chain(14);
    let prog = planp::lang::compile_front(&src).expect("chain compiles");
    let sum = summarize(&prog);
    let t0 = Instant::now();
    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "model check took {took:?} on 16 384 sends"
    );
    let mut json = String::new();
    mc.write_json(&src, &mut json);
    let hop = r#"{"from":"network#0","to":"network#0","kind":"OnRemote","dest":"an unknown address","progress":false,"line":1,"col":34,"start":33,"end":53}"#;
    let want = format!(
        r#"{{"termination":"violated","delivery":"violated","states":2,"transitions":32768,"budget":65536,"exhausted":false,"witnesses":[{{"code":"E005","kind":"loop","channel":"network#0","cycle_start":1,"message":"possible packet loop: 1 hop(s) return the packet to channel `network#0` with destination an unknown address and no net progress","line":1,"col":34,"start":33,"end":53,"hops":[{hop},{hop}]}}]}}"#
    );
    assert_eq!(json, want);
}

/// One channel whose `k` sends each re-address the packet to its own
/// constant: `k + 1` states, `k²` transitions, and a violating edge into
/// every pinned state.
fn distinct_redirects(k: usize) -> String {
    let sends: Vec<String> = (0..k)
        .map(|i| {
            format!(
                "OnRemote(network, (ipDestSet(#1 p, 10.0.{}.{}), #2 p, #3 p))",
                i / 250,
                i % 250 + 1
            )
        })
        .collect();
    format!(
        "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n ({}; (ps, ss))\n",
        sends.join("; ")
    )
}

/// The witness search visits cycle-closing states in lower-bound order
/// and stops at the first that cannot win, so the largest such program
/// inside the budget keeps the per-edge search's minimal witness
/// without one BFS per pinned state.
#[test]
fn distinct_redirects_witness_is_fast_and_minimal() {
    let src = distinct_redirects(250);
    let prog = planp::lang::compile_front(&src).expect("redirects compile");
    let sum = summarize(&prog);
    let t0 = Instant::now();
    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "model check took {took:?}");
    let mut json = String::new();
    mc.write_json(&src, &mut json);
    let hop = |dest: &str, col: u32, start: u32| {
        format!(
            r#"{{"from":"network#0","to":"network#0","kind":"OnRemote","dest":"{dest}","progress":false,"line":2,"col":{col},"start":{start},"end":{}}}"#,
            start + 58
        )
    };
    let want = format!(
        r#"{{"termination":"violated","delivery":"violated","states":251,"transitions":62750,"budget":65536,"exhausted":false,"witnesses":[{{"code":"E005","kind":"loop","channel":"network#0","cycle_start":1,"message":"possible packet loop: 2 hop(s) return the packet to channel `network#0` with destination 10.0.0.1 and no net progress","line":2,"col":63,"start":120,"end":178,"hops":[{},{},{}]}}]}}"#,
        hop("10.0.0.1", 3, 60),
        hop("10.0.0.2", 63, 120),
        hop("10.0.0.1", 3, 60)
    );
    assert_eq!(json, want);
}

/// Transitions count against the budget too: a thousand distinct
/// redirects would need a million of them, so the exploration stops
/// at the budget and `verify` rejects the download as unprovable
/// without building the rest.
#[test]
fn distinct_redirects_past_the_budget_reject_fast() {
    let src = distinct_redirects(1000);
    let prog = planp::lang::compile_front(&src).expect("redirects compile");
    let t0 = Instant::now();
    let report = verify(&prog, Policy::strict());
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "verify took {took:?}");
    let mc = &report.exhaustive;
    assert!(mc.exhausted);
    assert_eq!(mc.states + mc.transitions, DEFAULT_STATE_BUDGET);
    let codes: Vec<&str> = report.errors().iter().map(|d| d.code).collect();
    assert!(
        codes.contains(&"E001") && codes.contains(&"E002"),
        "{codes:?}"
    );
    assert!(!codes.contains(&"E005"), "{codes:?}");
}

/// Witness JSON is byte-identical across two independent runs
/// (front end + summary + exploration + reconstruction repeated from
/// scratch).
#[test]
fn witness_json_is_deterministic_across_runs() {
    for name in [
        "buggy/bounce_pingpong.planp",
        "buggy/neighbor_pingpong.planp",
        "buggy/silent_drop.planp",
    ] {
        let src = read_asp(name);
        let render = || {
            let prog = planp::lang::compile_front(&src).expect("buggy ASP compiles");
            let sum = summarize(&prog);
            let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
            assert!(!mc.witnesses.is_empty(), "{name} must have witnesses");
            let mut out = String::new();
            mc.write_json(&src, &mut out);
            out
        };
        assert_eq!(render(), render(), "{name} witness JSON must be stable");
    }
}

/// Every counterexample the checker predicts for the buggy ASPs is
/// exhibited by concrete traffic in the simulator.
#[test]
fn buggy_asp_witnesses_replay_in_simulator() {
    // Loop confirmation is exact; drops are asserted only positively —
    // a looping packet that dies at TTL also registers a router drop.
    for (name, want_loop, want_drop) in [
        ("buggy/bounce_pingpong.planp", true, None),
        ("buggy/neighbor_pingpong.planp", true, None),
        ("buggy/silent_drop.planp", false, Some(true)),
    ] {
        let src = read_asp(name);
        let prog = planp::lang::compile_front(&src).expect("buggy ASP compiles");
        let sum = summarize(&prog);
        let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
        let rep = replay_asp(&src).expect("buggy ASP replays");
        for w in &mc.witnesses {
            assert!(
                rep.confirms(&w.kind),
                "{name}: witness {} did not replay: {rep:?}",
                w.code
            );
        }
        assert_eq!(rep.confirmed_loop, want_loop, "{name}: {rep:?}");
        if let Some(want) = want_drop {
            assert_eq!(rep.confirmed_drop, want, "{name}: {rep:?}");
        }
    }
}

/// The reliable relay's Violated verdict is a conservative
/// over-approximation: the predicted NACK/retransmit loop needs the
/// network to keep losing the retransmission, so it does *not* replay
/// on a clean topology — and the baseline must carry the
/// `witness=abstract` marker that tells the CI gate exactly that. If
/// the checker ever learns to prove this cycle, or the replay starts
/// confirming it, this pin flags the change.
#[test]
fn reliable_relay_witness_is_abstract() {
    let src = read_asp("reliable_relay.planp");
    let prog = planp::lang::compile_front(&src).expect("reliable_relay compiles");
    let sum = summarize(&prog);
    let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
    assert_eq!(mc.termination, Verdict::Violated);
    assert!(!mc.witnesses.is_empty());

    let rep = replay_asp(&src).expect("reliable_relay replays cleanly");
    assert!(
        !rep.confirmed_loop,
        "the NACK cycle must not loop on a lossless network: {rep:?}"
    );

    let baseline = read_asp("MODELCHECK_BASELINE.txt");
    let line = baseline
        .lines()
        .find(|l| l.starts_with("asps/reliable_relay.planp"))
        .expect("reliable_relay is pinned in the baseline");
    assert!(
        line.ends_with("witness=abstract"),
        "baseline must waive replay confirmation: {line}"
    );
}

/// The channel-level screen the model checker replaced, kept as a test
/// oracle: channels are nodes, send sites are edges, and termination is
/// proved iff no destination-changing edge lies on a cycle (its target
/// reaches its source).
fn channel_screen_proves(sum: &ProgramSummary) -> bool {
    let reaches = |from: usize, to: usize| {
        let mut seen = vec![false; sum.channels.len()];
        let mut stack = vec![from];
        while let Some(c) = stack.pop() {
            if c == to {
                return true;
            }
            if !std::mem::replace(&mut seen[c], true) {
                stack.extend(sum.channels[c].sites.iter().map(|s| s.target));
            }
        }
        false
    };
    sum.channels.iter().enumerate().all(|(c, ch)| {
        ch.sites
            .iter()
            .all(|site| site.is_progress() || !reaches(site.target, c))
    })
}

/// Refinement, cross-validated: on every bundled ASP, an accept by the
/// channel-level screen implies a model-check accept — tracking
/// destination values only ever proves more.
#[test]
fn exhaustive_agrees_with_every_screen_accept() {
    let mut checked = 0;
    for entry in std::fs::read_dir(asp_dir()).expect("asps/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("planp") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let prog =
            planp::lang::compile_front(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let sum = summarize(&prog);
        let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
        assert!(
            !mc.exhausted,
            "{}: bundled ASPs fit the budget",
            path.display()
        );
        if channel_screen_proves(&sum) {
            assert_eq!(
                mc.termination,
                Verdict::Proved,
                "{}: screen accepted but the checker did not",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(checked >= 13, "expected the bundled corpus, saw {checked}");
}

/// The baseline file in the repository matches what the checker
/// produces today (same check CI runs, without spawning the binary).
#[test]
fn modelcheck_baseline_is_current() {
    let baseline = read_asp("MODELCHECK_BASELINE.txt");
    for line in baseline.lines() {
        let mut parts = line.split_whitespace();
        let path = parts.next().expect("baseline line has a path");
        let want_term = parts
            .next()
            .and_then(|s| s.strip_prefix("termination="))
            .expect("termination field");
        let want_del = parts
            .next()
            .and_then(|s| s.strip_prefix("delivery="))
            .expect("delivery field");
        let src = std::fs::read_to_string(
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path),
        )
        .unwrap_or_else(|e| panic!("read {path}: {e}"));
        let prog = planp::lang::compile_front(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let sum = summarize(&prog);
        let mc = model_check(&prog, &sum, DEFAULT_STATE_BUDGET);
        assert_eq!(mc.termination.as_str(), want_term, "{path}");
        assert_eq!(mc.delivery.as_str(), want_del, "{path}");
    }
    assert_eq!(baseline.lines().count(), 25, "one line per checked ASP");
}
