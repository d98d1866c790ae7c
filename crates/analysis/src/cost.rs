//! Static per-packet cost bounds.
//!
//! Local termination (no recursion, no unbounded loops) makes the
//! worst-case cost of one packet *computable*. This module computes, for
//! every channel overload, an upper bound on
//!
//! * the VM **steps** one packet can cost (the same step-charging model
//!   the engines report through `NetEnv::charge_steps`; see
//!   [`planp_vm::cost`]), and
//! * the number of **send sites** (`OnRemote`/`OnNeighbor`) one packet
//!   can execute.
//!
//! It is an instance of the path-bound recurrence (`crate::path`; its
//! composition rules and soundness argument are stated there and in
//! DESIGN.md): every node charges [`STEPS_PER_NODE`], every send node
//! one send.
//!
//! The runtime layer cross-checks the step bound on every dispatch (the
//! `cost_bound_exceeded` counter), and the soundness test suite asserts
//! the counter stays zero across all traced scenarios.

use crate::path::{path_bounds, PathMeasure};
use planp_lang::tast::{TExprKind, TProgram};
use planp_vm::cost::STEPS_PER_NODE;
use std::fmt;

/// Worst-case per-packet cost of one channel or function body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostBound {
    /// Upper bound on VM steps charged per invocation.
    pub steps: u64,
    /// Upper bound on executed send sites (`OnRemote` + `OnNeighbor`)
    /// per invocation.
    pub sends: u64,
}

/// Component-wise: a sound upper bound even when the step-heaviest and
/// send-heaviest paths differ.
impl PathMeasure for CostBound {
    fn then(&mut self, next: &Self) {
        self.steps.then(&next.steps);
        self.sends.then(&next.sends);
    }

    fn or(&mut self, other: &Self) {
        self.steps.or(&other.steps);
        self.sends.or(&other.sends);
    }
}

impl fmt::Display for CostBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<= {} steps, <= {} send(s)", self.steps, self.sends)
    }
}

/// The bound of one channel overload.
#[derive(Debug, Clone)]
pub struct ChannelCost {
    /// Channel name.
    pub name: String,
    /// Overload index within the name group.
    pub overload: u32,
    /// Worst-case per-packet cost of the body.
    pub bound: CostBound,
}

/// Cost bounds for a whole program.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    /// Per-function bounds, parallel to `TProgram::funs`.
    pub funs: Vec<CostBound>,
    /// Per-channel bounds, parallel to `TProgram::channels`.
    pub channels: Vec<ChannelCost>,
}

impl CostReport {
    /// The worst per-packet step bound over all channels (0 when the
    /// program has no channels).
    pub fn max_steps(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.bound.steps)
            .max()
            .unwrap_or(0)
    }

    /// The bound of the channel at `index` in `TProgram::channels`.
    pub fn bound_for(&self, index: usize) -> CostBound {
        self.channels
            .get(index)
            .map(|c| c.bound)
            .unwrap_or_default()
    }
}

/// Computes worst-case per-packet cost bounds for every function and
/// channel of `prog`.
pub fn cost_bounds(prog: &TProgram) -> CostReport {
    let bounds = path_bounds(prog, |e, acc: &mut CostBound| {
        acc.steps.then(&STEPS_PER_NODE);
        if matches!(
            e.kind,
            TExprKind::OnRemote { .. } | TExprKind::OnNeighbor { .. }
        ) {
            acc.sends.then(&1);
        }
    });
    let channels = prog
        .channels
        .iter()
        .zip(bounds.channels)
        .map(|(ch, bound)| ChannelCost {
            name: ch.name.clone(),
            overload: ch.overload,
            bound,
        })
        .collect();
    CostReport {
        funs: bounds.funs,
        channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;
    use planp_vm::env::MockEnv;
    use planp_vm::interp::Interp;
    use planp_vm::pkthdr::{addr, IpHdr, UdpHdr};
    use planp_vm::value::Value;

    fn bounds(src: &str) -> (TProgram, CostReport) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let report = cost_bounds(&tp);
        (tp, report)
    }

    fn udp_packet() -> Value {
        Value::tuple(vec![
            Value::Ip(IpHdr::new(
                addr(10, 0, 0, 2),
                addr(10, 0, 1, 1),
                IpHdr::PROTO_UDP,
            )),
            Value::Udp(UdpHdr::new(1000, 2000)),
            Value::Blob(bytes::Bytes::from_static(b"abcd")),
        ])
    }

    /// Runs channel 0 under the interpreter and returns observed
    /// (steps, sends).
    fn observe(tp: &TProgram, ps: Value) -> (u64, u64) {
        let interp = Interp::new(tp);
        let mut env = MockEnv::new(addr(10, 0, 0, 1));
        let globals = interp.eval_globals(&mut env).unwrap();
        env.steps = 0;
        interp
            .run_channel(0, &globals, ps, Value::Unit, udp_packet(), &mut env)
            .unwrap();
        let sends = env
            .effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    planp_vm::env::Effect::Remote { .. } | planp_vm::env::Effect::Neighbor { .. }
                )
            })
            .count() as u64;
        (env.steps, sends)
    }

    #[test]
    fn straight_line_bound_is_exact() {
        // No branches: the interpreter visits every node, so the bound
        // is tight.
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (ps + 1, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        let (steps, sends) = observe(&tp, Value::Int(0));
        assert_eq!(b.steps, steps, "structural count equals executed nodes");
        assert_eq!(b.sends, 1);
        assert_eq!(sends, 1);
    }

    #[test]
    fn branch_takes_worst_arm() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   if ps > 0 then (OnRemote(network, p); (ps, ss))\n\
                   else (OnRemote(network, p); OnRemote(network, p); (ps, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        assert_eq!(b.sends, 2, "worst arm executes two sends");
        for ps in [Value::Int(0), Value::Int(1)] {
            let (steps, sends) = observe(&tp, ps);
            assert!(steps <= b.steps, "observed {steps} > bound {}", b.steps);
            assert!(sends <= b.sends);
        }
    }

    #[test]
    fn handle_sums_body_and_handler() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((ps div 0, ss) handle Div => (0, ss))";
        let (tp, report) = bounds(src);
        let b = report.bound_for(0);
        let (steps, _) = observe(&tp, Value::Int(1));
        assert!(steps <= b.steps, "raise+handle path within bound");
    }

    #[test]
    fn function_calls_add_callee_bound() {
        let src = "fun double(x : int) : int = x + x\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(network, p); (double(double(ps)), ss))";
        let (tp, report) = bounds(src);
        // Two calls, each costing the callee bound on top of the call
        // node and argument.
        assert!(report.funs[0].steps > 0);
        let (steps, _) = observe(&tp, Value::Int(3));
        assert_eq!(
            report.bound_for(0).steps,
            steps,
            "straight-line with calls is exact"
        );
    }

    #[test]
    fn report_max_and_names() {
        let src = "channel relay(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)\n\
                   channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                   (OnRemote(relay, p); (ps, ss))";
        let (_, report) = bounds(src);
        assert_eq!(report.channels.len(), 2);
        assert_eq!(report.channels[0].name, "relay");
        assert_eq!(report.channels[1].name, "network");
        assert_eq!(
            report.max_steps(),
            report.bound_for(1).steps,
            "network body is the heavier channel"
        );
        assert_eq!(report.bound_for(99), CostBound::default());
    }
}
