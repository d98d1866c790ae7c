//! Replays captured dispatches straight through the VM, without the
//! simulator or the PLAN-P layer around it.
//!
//! [`ReplayEnv`] is the benchmark's own [`NetEnv`]: it counts steps and
//! sends and keeps nothing else, so the cost of a dispatch cannot grow
//! with the number of dispatches before it (the `MockEnv` trails do).

use crate::alloc;
use crate::trace::median;
use netsim::packet::Packet;
use planp_lang::TProgram;
use planp_runtime::convert::packet_to_value;
use planp_runtime::LoadedProgram;
use planp_vm::env::NetEnv;
use planp_vm::interp::Interp;
use planp_vm::value::Value;
use std::rc::Rc;
use std::time::Instant;

/// A `NetEnv` that keeps no trail between dispatches. Links read as
/// idle, as the audio router's outgoing link is in `asp_router` (≈ 9%
/// load), so the audio router forwards frames undegraded there and here.
pub struct ReplayEnv {
    host: u32,
    /// Steps charged since the env was made.
    pub steps: u64,
    /// Sends and deliveries since the env was made.
    pub sends: u64,
    rand: u64,
}

impl ReplayEnv {
    /// An env for a program running on `host`.
    pub fn new(host: u32) -> Self {
        ReplayEnv {
            host,
            steps: 0,
            sends: 0,
            rand: 0,
        }
    }
}

impl NetEnv for ReplayEnv {
    fn this_host(&self) -> u32 {
        self.host
    }
    fn time_ms(&mut self) -> i64 {
        0
    }
    fn link_load(&mut self, _dst: u32) -> i64 {
        0
    }
    fn link_capacity(&mut self, _dst: u32) -> i64 {
        1_000_000
    }
    fn queue_len(&mut self, _dst: u32) -> i64 {
        0
    }
    fn rand_int(&mut self, bound: i64) -> i64 {
        self.rand = self.rand.wrapping_add(1);
        if bound <= 0 {
            0
        } else {
            (self.rand % bound as u64) as i64
        }
    }
    fn send_remote(&mut self, _chan: &str, _overload: u32, _pkt: Value) {
        self.sends += 1;
    }
    fn send_neighbor(&mut self, _chan: &str, _overload: u32, _host: u32, _pkt: Value) {
        self.sends += 1;
    }
    fn deliver(&mut self, _pkt: Value) {
        self.sends += 1;
    }
    fn print(&mut self, _text: &str) {}
    fn charge_steps(&mut self, n: u64) {
        self.steps += n;
    }
}

/// Packets one installed program saw, in arrival order.
pub struct Capture {
    /// The program.
    pub image: Rc<LoadedProgram>,
    /// Address of the node it ran on.
    pub host: u32,
    /// The packets its hook was called with.
    pub packets: Vec<Packet>,
}

/// The channel a packet dispatches to and its decoded value — the same
/// rule the PLAN-P layer applies (tagged packets go to their overload,
/// untagged ones to the first matching `network` overload).
fn decode(prog: &TProgram, pkt: &Packet) -> Option<(usize, Value)> {
    let group = match &pkt.tag {
        Some(tag) => {
            let &idx = prog
                .chan_groups
                .get(tag.chan.as_ref())?
                .get(tag.overload as usize)?;
            return packet_to_value(pkt, &prog.channels[idx].shape).map(|v| (idx, v));
        }
        None => prog.chan_groups.get("network")?,
    };
    group
        .iter()
        .find_map(|&idx| packet_to_value(pkt, &prog.channels[idx].shape).map(|v| (idx, v)))
}

/// Per-dispatch figures of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct PerDispatch {
    /// JIT ns (median over passes).
    pub jit_ns: f64,
    /// Interpreter ns (median over passes).
    pub interp_ns: f64,
    /// VM steps.
    pub steps: f64,
    /// Allocations on the JIT passes.
    pub allocs: f64,
    /// Bytes those allocations requested.
    pub bytes: f64,
}

/// What the replay measured, per capture.
#[derive(Debug, Default)]
pub struct Replay {
    /// Dispatches per pass, per capture.
    pub dispatches: Vec<u64>,
    /// Per capture: the figures per dispatch.
    per: Vec<PerDispatch>,
    /// JIT ns spent on the first and on the last tenth of each
    /// capture's dispatches, summed over captures and passes.
    first_tenth_ns: u64,
    last_tenth_ns: u64,
    /// Dispatches that ended in a VM error, per pass.
    pub errors: u64,
}

impl Replay {
    /// The per-dispatch figures with each capture weighted by
    /// `weights` (the live dispatch counts, so the replay's mix of
    /// programs matches the run's).
    pub fn weighted(&self, weights: &[u64]) -> PerDispatch {
        let total: u64 = weights.iter().sum();
        let mut out = PerDispatch::default();
        for (p, &w) in self.per.iter().zip(weights) {
            let w = w as f64 / total.max(1) as f64;
            out.jit_ns += w * p.jit_ns;
            out.interp_ns += w * p.interp_ns;
            out.steps += w * p.steps;
            out.allocs += w * p.allocs;
            out.bytes += w * p.bytes;
        }
        out
    }

    /// JIT time of the last tenth of each pass's dispatches over the
    /// first tenth, minus one: how much a dispatch slowed as a pass went
    /// on. Both tenths are summed over every pass, so host noise
    /// between passes cancels.
    pub fn drift(&self) -> f64 {
        self.last_tenth_ns as f64 / self.first_tenth_ns.max(1) as f64 - 1.0
    }
}

#[derive(Clone, Copy)]
enum Engine<'a> {
    Jit,
    Interp(&'a [Interp<'a>]),
}

/// What one pass over one capture took.
struct Pass {
    ns: u64,
    first_tenth_ns: u64,
    last_tenth_ns: u64,
    steps: u64,
    alloc: alloc::Mark,
    errors: u64,
}

/// One pass over every capture, each from fresh program state.
fn pass(caps: &[Capture], decoded: &[Vec<(usize, Value)>], engine: Engine<'_>) -> Vec<Pass> {
    let mut out = Vec::with_capacity(caps.len());
    for (ci, c) in caps.iter().enumerate() {
        let mut env = ReplayEnv::new(c.host);
        let compiled = &c.image.compiled;
        let globals = compiled.eval_globals(&mut env).expect("globals evaluate");
        let mut proto = compiled
            .init_proto(&globals, &mut env)
            .expect("proto evaluates");
        let mut chans: Vec<Value> = (0..c.image.prog.channels.len())
            .map(|i| {
                compiled
                    .init_channel_state(i, &globals, &mut env)
                    .expect("state")
            })
            .collect();
        let mut env = ReplayEnv::new(c.host);
        let mut errors = 0;
        let n = decoded[ci].len();
        let (tenth, mut first_tenth_ns, mut last_from) = (n / 10, 0, None);
        let a0 = alloc::Mark::now();
        let t0 = Instant::now();
        for (i, (idx, value)) in decoded[ci].iter().enumerate() {
            if i == tenth {
                first_tenth_ns = t0.elapsed().as_nanos() as u64;
            }
            if i == n - tenth {
                last_from = Some(t0.elapsed().as_nanos() as u64);
            }
            let (ps, ss) = (proto.clone(), chans[*idx].clone());
            let r = match engine {
                Engine::Jit => {
                    compiled.run_channel(*idx, &globals, ps, ss, value.clone(), &mut env)
                }
                Engine::Interp(interps) => {
                    interps[ci].run_channel(*idx, &globals, ps, ss, value.clone(), &mut env)
                }
            };
            match r {
                Ok((ps, ss)) => {
                    proto = ps;
                    chans[*idx] = ss;
                }
                Err(_) => errors += 1,
            }
        }
        let ns = t0.elapsed().as_nanos() as u64;
        out.push(Pass {
            ns,
            first_tenth_ns,
            last_tenth_ns: last_from.map_or(0, |from| ns - from),
            steps: env.steps,
            alloc: a0.since(),
            errors,
        });
    }
    out
}

/// Replays every capture `jit_passes` times through the JIT and
/// `interp_passes` times through the interpreter.
pub fn replay(caps: &[Capture], jit_passes: usize, interp_passes: usize) -> Replay {
    let decoded: Vec<Vec<(usize, Value)>> = caps
        .iter()
        .map(|c| {
            c.packets
                .iter()
                .filter_map(|p| decode(&c.image.prog, p))
                .collect()
        })
        .collect();
    let dispatches: Vec<u64> = decoded.iter().map(|d| d.len() as u64).collect();
    let jit: Vec<Vec<Pass>> = (0..jit_passes)
        .map(|_| pass(caps, &decoded, Engine::Jit))
        .collect();
    let interps: Vec<Interp<'_>> = caps.iter().map(|c| Interp::new(&c.image.prog)).collect();
    let interp: Vec<Vec<Pass>> = (0..interp_passes)
        .map(|_| pass(caps, &decoded, Engine::Interp(&interps)))
        .collect();
    let per_dispatch = |passes: &[Vec<Pass>], ci: usize| {
        let n = dispatches[ci].max(1) as f64;
        median(
            &mut passes
                .iter()
                .map(|p| p[ci].ns as f64 / n)
                .collect::<Vec<_>>(),
        )
    };
    let per = (0..caps.len())
        .map(|ci| {
            let n = dispatches[ci].max(1) as f64;
            let last = jit.last().map(|p| &p[ci]);
            PerDispatch {
                jit_ns: per_dispatch(&jit, ci),
                interp_ns: per_dispatch(&interp, ci),
                steps: last.map_or(0.0, |p| p.steps as f64 / n),
                allocs: last.map_or(0.0, |p| p.alloc.allocs as f64 / n),
                bytes: last.map_or(0.0, |p| p.alloc.bytes as f64 / n),
            }
        })
        .collect();
    Replay {
        per,
        first_tenth_ns: jit.iter().flatten().map(|c| c.first_tenth_ns).sum(),
        last_tenth_ns: jit.iter().flatten().map(|c| c.last_tenth_ns).sum(),
        errors: jit.last().map_or(0, |p| p.iter().map(|c| c.errors).sum()),
        dispatches,
    }
}
