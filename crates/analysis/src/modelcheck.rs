//! Explicit-state safety model checker (paper section 2.1, the
//! `r·d·2^d` exploration made literal) — the verifier's one tier for
//! global termination and guaranteed delivery.
//!
//! Local termination holds by construction (no recursion, no unbounded
//! loops). Global termination is about packets cycling *through the
//! network*: every `OnRemote` is a recursive call on a remote machine.
//! Following the paper, assume IP routing tables are acyclic: then an
//! `OnRemote` whose destination cannot change makes progress — each hop
//! strictly approaches a fixed address, and on arrival the packet is
//! delivered rather than re-forwarded. The checker enumerates the
//! states such an argument ranges over:
//!
//! * a **state** is (channel overload, abstract destination value,
//!   source-still-original), seeded with every channel receiving a
//!   fresh packet;
//! * a **transition** applies one send site's destination transfer:
//!   `Unchanged` keeps the state's value, `Const(a)` pins it, `OrigSrc`
//!   resolves to the original source *iff* the source field is provably
//!   untouched, anything else widens to `Unknown`;
//! * a transition is a **progress hop** iff it is an `OnRemote` whose
//!   concrete destination value cannot differ from the pre-state's
//!   (same constant, same original address, or literally unchanged) —
//!   such hops strictly approach a fixed address under the
//!   acyclic-routing assumption and deliver on arrival;
//! * **termination is violated** iff the reachable state graph has a
//!   cycle containing a non-progress hop (found by SCC over states);
//!   **delivery** additionally requires no droppable path and no
//!   escaping exception on any reachable channel.
//!
//! The exploration runs a frontier worklist with visited-state hashing
//! under a budget on states plus transitions; exceeding it yields
//! [`Verdict::Inconclusive`], which the verifier rejects as unprovable
//! (`E001`/`E002`). Send sites with the same transfer fire one edge per
//! state, so a channel's repeated sends cost one transition each, not
//! one per copy. On a violation the checker reconstructs a *minimal*
//! counterexample [`Witness`] — shortest entry prefix plus shortest
//! cycle, by BFS over the explored graph — for rendering (codes
//! `E005`/`E006`) and for concrete replay through the simulator.

use crate::summary::{DestAbs, ProgramSummary, SendKind, SendSite};
use crate::witness::{Witness, WitnessHop, WitnessKind};
use planp_lang::prims;
use planp_lang::span::Span;
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use std::collections::{HashMap, VecDeque};

/// Default cap on explored states plus distinct transitions; the bundled
/// ASPs need well under a hundred, so the default leaves room for
/// generated programs while bounding a hostile download's verification
/// cost.
pub const DEFAULT_STATE_BUDGET: usize = 1 << 16;

/// Abstract value of the in-flight packet's destination field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DestVal {
    /// Still the destination the packet entered the network with.
    OrigDst,
    /// The packet's original source address (a fixed address).
    OrigSrc,
    /// A program constant.
    Const(u32),
    /// Not statically bounded.
    Unknown,
}

impl DestVal {
    /// Human rendering (`the original destination`, `10.0.0.2`, …).
    pub fn describe(self) -> String {
        match self {
            DestVal::OrigDst => "the original destination".to_string(),
            DestVal::OrigSrc => "the original source".to_string(),
            DestVal::Const(a) => format!(
                "{}.{}.{}.{}",
                (a >> 24) & 255,
                (a >> 16) & 255,
                (a >> 8) & 255,
                a & 255
            ),
            DestVal::Unknown => "an unknown address".to_string(),
        }
    }
}

/// One explored state of the packet's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    /// Channel overload index the packet is dispatched on.
    pub channel: usize,
    /// Abstract destination of the arriving packet.
    pub dest: DestVal,
    /// True while the packet's IP source field provably still holds the
    /// original sender.
    pub src_orig: bool,
}

/// Verdict of one property under exhaustive checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds on every reachable state.
    Proved,
    /// A counterexample exists (see [`ModelCheckReport::witnesses`]).
    Violated,
    /// The budget of states plus transitions was exhausted before the
    /// exploration finished; the property is unproved.
    Inconclusive,
}

impl Verdict {
    /// Stable machine name (`proved`, `violated`, `inconclusive`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Violated => "violated",
            Verdict::Inconclusive => "inconclusive",
        }
    }

    /// True if the property was proved.
    pub fn is_proved(self) -> bool {
        self == Verdict::Proved
    }
}

/// One explored transition: send site `site` of channel `chan` firing.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    chan: usize,
    site: usize,
    progress: bool,
}

/// What the exhaustive exploration found.
#[derive(Debug, Clone)]
pub struct ModelCheckReport {
    /// Global-termination verdict.
    pub termination: Verdict,
    /// Guaranteed-delivery verdict.
    pub delivery: Verdict,
    /// States explored (the paper's `r·d·2^d`, reachable part only).
    pub states: usize,
    /// Transitions explored, counting every send site that fired.
    pub transitions: usize,
    /// The budget the exploration ran under: a cap on states plus
    /// distinct transitions (the edges stored).
    pub budget: usize,
    /// True if the budget stopped the exploration early.
    pub exhausted: bool,
    /// Counterexamples: at most one minimal `E005` loop witness, then
    /// one `E006` witness per droppable or exception-escaping channel.
    pub witnesses: Vec<Witness>,
}

impl ModelCheckReport {
    /// The termination (`E005`) witnesses.
    pub fn loop_witnesses(&self) -> impl Iterator<Item = &Witness> {
        self.witnesses.iter().filter(|w| w.code == "E005")
    }

    /// The delivery-only (`E006`) witnesses.
    pub fn delivery_witnesses(&self) -> impl Iterator<Item = &Witness> {
        self.witnesses.iter().filter(|w| w.code == "E006")
    }

    /// Appends the byte-stable JSON form to `out`: fixed key order
    /// `termination`, `delivery`, `states`, `transitions`, `budget`,
    /// `exhausted`, `witnesses`.
    pub fn write_json(&self, src: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"termination\":\"{}\",\"delivery\":\"{}\",\"states\":{},\"transitions\":{},\"budget\":{},\"exhausted\":{},\"witnesses\":[",
            self.termination.as_str(),
            self.delivery.as_str(),
            self.states,
            self.transitions,
            self.budget,
            self.exhausted
        );
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            w.write_json(src, out);
        }
        out.push_str("]}");
    }
}

/// Runs the exhaustive exploration over `prog`'s send sites.
pub fn model_check(prog: &TProgram, sum: &ProgramSummary, budget: usize) -> ModelCheckReport {
    let n = prog.channels.len();
    let chan_label = |c: usize| format!("{}#{}", prog.channels[c].name, prog.channels[c].overload);

    // Frontier worklist with visited-state hashing. States are interned
    // in discovery order; all iteration below follows vector order, so
    // the exploration (and every witness) is deterministic.
    let mut states: Vec<State> = Vec::new();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut transitions = 0;
    let mut exhausted = false;
    let classes: Vec<Vec<(usize, usize)>> = sum
        .channels
        .iter()
        .map(|ch| transfer_classes(&ch.sites))
        .collect();

    // Every channel can receive a fresh packet: destination untouched,
    // source untouched.
    for c in 0..n {
        if states.len() >= budget {
            exhausted = true;
            break;
        }
        let s = State {
            channel: c,
            dest: DestVal::OrigDst,
            src_orig: true,
        };
        index.insert(s, states.len());
        states.push(s);
    }

    let mut head = 0;
    while head < states.len() && !exhausted {
        let u = head;
        head += 1;
        let s = states[u];
        for &(si, copies) in &classes[s.channel] {
            if states.len() + edges.len() >= budget {
                exhausted = true;
                break;
            }
            let site = &sum.channels[s.channel].sites[si];
            let dest2 = match site.pkt_dest {
                DestAbs::Unchanged => s.dest,
                DestAbs::OrigSrc => {
                    if s.src_orig {
                        DestVal::OrigSrc
                    } else {
                        DestVal::Unknown
                    }
                }
                DestAbs::Const(a) => DestVal::Const(a),
                DestAbs::Unknown => DestVal::Unknown,
            };
            let src2 = site.src_orig && s.src_orig;
            // Progress: an OnRemote whose concrete destination value
            // cannot differ from the pre-state's. `Unchanged` keeps the
            // in-flight header even when its value is unknown; otherwise
            // the abstract values must agree and be a *fixed* address
            // (two Unknowns may be different concrete addresses).
            let progress = site.kind == SendKind::Remote
                && (site.pkt_dest == DestAbs::Unchanged
                    || (dest2 == s.dest && dest2 != DestVal::Unknown));
            let t = State {
                channel: site.target,
                dest: dest2,
                src_orig: src2,
            };
            let v = match index.get(&t) {
                Some(&v) => v,
                None => {
                    index.insert(t, states.len());
                    states.push(t);
                    states.len() - 1
                }
            };
            edges.push(Edge {
                from: u,
                to: v,
                chan: s.channel,
                site: si,
                progress,
            });
            transitions += copies;
        }
    }

    let mut witnesses = Vec::new();
    let termination = if exhausted {
        Verdict::Inconclusive
    } else {
        // A loop needs a cycle through at least one non-progress hop:
        // SCC over the explored graph, then test each such edge.
        let mut adj = vec![Vec::new(); states.len()];
        for e in &edges {
            adj[e.from].push(e.to);
        }
        let comp = scc(&adj);
        let violating: Vec<usize> = (0..edges.len())
            .filter(|&i| !edges[i].progress && comp[edges[i].from] == comp[edges[i].to])
            .collect();
        if violating.is_empty() {
            Verdict::Proved
        } else {
            witnesses.push(loop_witness(
                &states,
                &edges,
                &violating,
                n,
                budget,
                sum,
                &chan_label,
            ));
            Verdict::Violated
        }
    };

    // Delivery: a loop breaks it, and so does any droppable path or
    // escaping exception on a reachable channel (every channel is an
    // entry point, so these hold regardless of the budget).
    let mut definite_delivery_violation = false;
    for (c, s) in sum.channels.iter().enumerate() {
        let ch = &prog.channels[c];
        if !s.raises.is_empty() {
            let names: Vec<&str> = s
                .raises
                .iter()
                .map(|&i| prog.exns[i as usize].as_str())
                .collect();
            definite_delivery_violation = true;
            witnesses.push(Witness {
                code: "E006",
                kind: WitnessKind::Exception,
                channel: chan_label(c),
                message: format!(
                    "channel `{}` may terminate with unhandled exception(s): {}",
                    ch.name,
                    names.join(", ")
                ),
                span: ch.span,
                hops: Vec::new(),
            });
        }
        if s.min_out == 0 {
            definite_delivery_violation = true;
            witnesses.push(Witness {
                code: "E006",
                kind: WitnessKind::Drop,
                channel: chan_label(c),
                message: format!(
                    "channel `{}` has an execution path that neither forwards nor delivers the packet",
                    ch.name
                ),
                span: find_drop_span(prog, c),
                hops: Vec::new(),
            });
        }
    }
    let delivery = if definite_delivery_violation {
        Verdict::Violated
    } else {
        termination
    };

    ModelCheckReport {
        termination,
        delivery,
        states: states.len(),
        transitions,
        budget,
        exhausted,
        witnesses,
    }
}

/// Groups a channel's send sites by transfer — target, kind, packet
/// destination and source abstraction — which fixes the edge a site
/// fires from any state. Returns `(first site, copies)` per class in
/// site order; the first site is the one a witness shows, since a
/// later copy's edge never shortens a path.
fn transfer_classes(sites: &[SendSite]) -> Vec<(usize, usize)> {
    let mut class_of = HashMap::new();
    let mut classes: Vec<(usize, usize)> = Vec::new();
    for (si, s) in sites.iter().enumerate() {
        let k = *class_of
            .entry((s.target, s.kind, s.pkt_dest, s.src_orig))
            .or_insert(classes.len());
        if k == classes.len() {
            classes.push((si, 0));
        }
        classes[k].1 += 1;
    }
    classes
}

/// BFS over the explored graph from `sources`, following edges in
/// insertion order. Returns per-state `(distance, incoming edge)` with
/// `usize::MAX` marking unreached states.
fn bfs(
    n_states: usize,
    edges: &[Edge],
    out_edges: &[Vec<usize>],
    sources: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut dist = vec![usize::MAX; n_states];
    let mut parent = vec![usize::MAX; n_states];
    let mut q = VecDeque::new();
    for &s in sources {
        if dist[s] == usize::MAX {
            dist[s] = 0;
            q.push_back(s);
        }
    }
    while let Some(u) = q.pop_front() {
        for &ei in &out_edges[u] {
            let v = edges[ei].to;
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = ei;
                q.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Follows `parent` pointers back from `target` collecting the edge
/// chain, in forward order.
fn path_to(parent: &[usize], edges: &[Edge], target: usize) -> Vec<usize> {
    let mut path = Vec::new();
    let mut at = target;
    while parent[at] != usize::MAX {
        let ei = parent[at];
        path.push(ei);
        at = edges[ei].from;
    }
    path.reverse();
    path
}

/// Builds the minimal loop witness: over all violating edges, the one
/// minimizing (entry prefix) + 1 + (cycle back to the edge source),
/// ties broken by exploration order. Each BFS from a cycle-closing
/// state costs one pass over the graph; once those passes have spent
/// `budget` steps the search keeps the shortest witness found so far.
fn loop_witness(
    states: &[State],
    edges: &[Edge],
    violating: &[usize],
    n_channels: usize,
    budget: usize,
    sum: &ProgramSummary,
    chan_label: &dyn Fn(usize) -> String,
) -> Witness {
    let mut out_edges = vec![Vec::new(); states.len()];
    for (i, e) in edges.iter().enumerate() {
        out_edges[e.from].push(i);
    }
    let initials: Vec<usize> = (0..n_channels.min(states.len())).collect();
    let (dist0, parent0) = bfs(states.len(), edges, &out_edges, &initials);

    // One BFS per distinct target state, not per violating edge. Each
    // target's lower bound counts one hop back unless its edge is a
    // self-loop; visiting targets in lower-bound order lets the search
    // stop at the first one that cannot beat the best (score, edge
    // index), which keeps the first minimal edge in exploration order.
    // Every state is reachable and the SCC guarantees a path back.
    let mut by_target: Vec<(usize, usize)> =
        violating.iter().map(|&ei| (edges[ei].to, ei)).collect();
    by_target.sort_unstable();
    let mut groups: Vec<_> = by_target
        .chunk_by(|a, b| a.0 == b.0)
        .map(|g| {
            let lower = g
                .iter()
                .map(|&(to, ei)| {
                    (
                        dist0[edges[ei].from] + 1 + usize::from(edges[ei].from != to),
                        ei,
                    )
                })
                .min()
                .expect("groups are non-empty");
            (lower, g)
        })
        .collect();
    groups.sort_unstable_by_key(|&(lower, _)| lower);
    let mut best: Option<((usize, usize), Vec<usize>)> = None;
    let mut spent = 0;
    for (lower, group) in groups {
        if best
            .as_ref()
            .is_some_and(|(b, _)| lower >= *b || spent >= budget)
        {
            break;
        }
        let (db, pb) = bfs(states.len(), edges, &out_edges, &[group[0].0]);
        spent += states.len() + edges.len();
        let candidate = group
            .iter()
            .map(|&(_, ei)| (dist0[edges[ei].from] + 1 + db[edges[ei].from], ei))
            .min()
            .expect("groups are non-empty");
        if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
            best = Some((candidate, pb));
        }
    }
    let ((_, chosen), pb) = best.expect("a violation has a violating edge");
    let prefix = path_to(&parent0, edges, edges[chosen].from);
    let back = path_to(&pb, edges, edges[chosen].from);

    let hop = |ei: usize| -> WitnessHop {
        let e = &edges[ei];
        let site = &sum.channels[e.chan].sites[e.site];
        WitnessHop {
            from: chan_label(e.chan),
            to: chan_label(site.target),
            kind: site.kind,
            dest: states[e.to].dest.describe(),
            progress: e.progress,
            span: site.span,
        }
    };
    let cycle_start = prefix.len();
    let mut hops: Vec<WitnessHop> = prefix.iter().copied().map(hop).collect();
    hops.push(hop(chosen));
    hops.extend(back.iter().copied().map(hop));
    let cycle_len = hops.len() - cycle_start;
    let head = states[edges[chosen].from];
    let message = format!(
        "possible packet loop: {cycle_len} hop(s) return the packet to channel `{}` with destination {} and no net progress",
        chan_label(head.channel),
        head.dest.describe()
    );
    Witness {
        code: "E005",
        kind: WitnessKind::Loop { cycle_start },
        channel: chan_label(head.channel),
        message,
        span: hops[cycle_start].span,
        hops,
    }
}

/// Kosaraju strongly-connected components; returns the component id of
/// each node. A node is in the same component as another iff they lie on
/// a common cycle (or are the same node), so an edge `u → v` lies on a
/// cycle iff `comp[u] == comp[v]` — self-loops included. Shared with the
/// plan-level [product check](crate::compose).
pub(crate) fn scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(s, 0usize)];
        seen[s] = true;
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < adj[u].len() {
                let v = adj[u][*i];
                *i += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    // Transpose.
    let mut radj = vec![Vec::new(); n];
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            radj[v].push(u);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut c = 0;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        comp[s] = c;
        while let Some(u) = stack.pop() {
            for &v in &radj[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    stack.push(v);
                }
            }
        }
        c += 1;
    }
    comp
}

/// True if `e` contains any network output (send or `deliver`),
/// including through called functions.
fn contains_output(e: &TExpr, fun_out: &[bool]) -> bool {
    let mut any = false;
    e.walk(&mut |x| match &x.kind {
        TExprKind::OnRemote { .. } | TExprKind::OnNeighbor { .. } => any = true,
        TExprKind::CallPrim { prim, .. } if prims::table().sig(*prim).name == "deliver" => {
            any = true
        }
        TExprKind::CallFun { index, .. }
            if fun_out.get(*index as usize).copied().unwrap_or(false) =>
        {
            any = true
        }
        _ => {}
    });
    any
}

/// Locates the branch arm responsible for a droppable path: the first
/// `if` whose one arm produces an output while the other produces none.
/// Falls back to the channel declaration span.
fn find_drop_span(prog: &TProgram, c: usize) -> Span {
    let mut fun_out = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        let o = contains_output(&f.body, &fun_out);
        fun_out.push(o);
    }
    let ch = &prog.channels[c];
    let mut found: Option<Span> = None;
    ch.body.walk(&mut |e| {
        if found.is_some() {
            return;
        }
        if let TExprKind::If(_, t, f) = &e.kind {
            let to = contains_output(t, &fun_out);
            let fo = contains_output(f, &fun_out);
            if to && !fo {
                found = Some(f.span);
            } else if fo && !to {
                found = Some(t.span);
            }
        }
    });
    found.unwrap_or(ch.span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::summarize;
    use planp_lang::compile_front;

    fn run(src: &str) -> ModelCheckReport {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let sum = summarize(&tp);
        model_check(&tp, &sum, DEFAULT_STATE_BUDGET)
    }

    const PINNED_RELAY: &str = "channel relay(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(relay, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))\n\
         channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
         (OnRemote(relay, (ipDestSet(#1 p, 10.0.3.1), #2 p, #3 p)); (ps, ss))";

    #[test]
    fn plain_forwarding_proved() {
        let r = run(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(network, p); (ps, ss))",
        );
        assert!(r.termination.is_proved(), "{r:?}");
        assert!(r.delivery.is_proved(), "{r:?}");
        assert!(r.witnesses.is_empty());
        // One channel, entry state plus nothing new: the self-send
        // reproduces (network, OrigDst).
        assert_eq!(r.states, 1);
        assert_eq!(r.transitions, 1);
    }

    #[test]
    fn destination_repinning_proved() {
        // Every relay→relay hop sets the destination to the same
        // constant: tracking the destination VALUE shows it is progress
        // toward one fixed address, not a restart.
        let r = run(PINNED_RELAY);
        assert!(r.termination.is_proved(), "{r:?}");
        assert!(r.delivery.is_proved(), "{r:?}");
    }

    /// Cases carried over from the channel-level screen the checker
    /// replaced: (source, termination, delivery).
    #[test]
    fn screen_cases_on_one_tier() {
        use Verdict::{Proved, Violated};
        let cases = [
            // One-shot redirect to a relay that forwards unchanged.
            (
                "channel relay(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
                 (OnRemote(relay, p); (ps, ss))\n\
                 channel network(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
                 (OnRemote(relay, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))",
                Proved,
                Proved,
            ),
            // Self-redirect to a constant: every hop re-pins the same
            // address. The screen rejected it; the packet terminates.
            (
                "channel network(ps : unit, ss : unit, p : ip*tcp*blob) is\n\
                 (OnRemote(network, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))",
                Proved,
                Proved,
            ),
            // Redirect chain: a --change--> b --unchanged--> b.
            (
                "channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                 (OnRemote(b, p); (ps, ss))\n\
                 channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                 (OnRemote(b, (ipDestSet(#1 p, 10.0.0.7), #2 p, #3 p)); (ps, ss))",
                Proved,
                Proved,
            ),
            // OnNeighbor to a channel that only delivers.
            (
                "channel mon(ps : unit, ss : unit, p : ip*udp*blob) is (deliver(p); (ps, ss))\n\
                 channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                 (OnNeighbor(mon, 10.0.0.3, p); (ps, ss))",
                Proved,
                Proved,
            ),
            // No sends: terminates, but drops every packet.
            (
                "channel network(ps : unit, ss : unit, p : ip*udp*blob) is (ps, ss)",
                Proved,
                Violated,
            ),
            // Forwards or delivers on every path.
            (
                "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                 if ps > 0 then (OnRemote(network, p); (ps, ss))\n\
                 else (deliver(p); (ps, ss))",
                Proved,
                Proved,
            ),
            // A handled exception does not escape.
            (
                "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
                 (print(tblGet(ss, ipSrc(#1 p)) handle NotFound => 0);\n\
                  OnRemote(network, p); (ps, ss))",
                Proved,
                Proved,
            ),
            // Bounce to the intact original source: one fixed address,
            // so delivery holds too. The screen rejected both.
            (
                "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                 (OnRemote(network, (ipDestSet(#1 p, ipSrc(#1 p)), #2 p, #3 p)); (ps, ss))",
                Proved,
                Proved,
            ),
            // Delivering alone satisfies delivery.
            (
                "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
                 (deliver(p); (ps, ss))",
                Proved,
                Proved,
            ),
        ];
        for (src, termination, delivery) in cases {
            let r = run(src);
            assert_eq!(
                (r.termination, r.delivery),
                (termination, delivery),
                "{src}"
            );
            assert_eq!(r.witnesses.is_empty(), delivery == Proved, "{src}");
        }
    }

    #[test]
    fn const_ping_pong_violated_with_minimal_witness() {
        let r = run("channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(b, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))\n\
             channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(a, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))");
        assert_eq!(r.termination, Verdict::Violated);
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.loop_witnesses().next().expect("loop witness");
        let WitnessKind::Loop { cycle_start } = w.kind else {
            panic!("loop kind")
        };
        // Minimal: the entry state (a, original dest) is not on the
        // cycle — one prefix hop pins the destination, then the packet
        // ping-pongs between the two pinned states.
        assert_eq!(cycle_start, 1);
        assert_eq!(w.hops.len(), 3);
        assert_eq!(w.hops[0].from, "a#0");
        assert_eq!(w.hops[0].to, "b#0");
        assert_eq!(w.hops[1].from, "b#0");
        assert_eq!(w.hops[1].to, "a#0");
        assert_eq!(w.hops[1].dest, "10.0.0.1");
        assert_eq!(w.hops[2].to, "b#0");
        assert!(w.hops.iter().all(|h| !h.progress));
    }

    #[test]
    fn neighbor_self_loop_violated() {
        let r = run(
            "channel network(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnNeighbor(network, 10.0.0.2, p); (ps, ss))",
        );
        assert_eq!(r.termination, Verdict::Violated);
        let w = r.loop_witnesses().next().unwrap();
        assert_eq!(w.hops.len(), 1);
        assert_eq!(w.hops[0].kind, SendKind::Neighbor);
    }

    #[test]
    fn silent_drop_gets_e006_with_branch_span() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
             if ps > 0 then (OnRemote(network, p); (ps, ss)) else (ps, ss)";
        let r = run(src);
        assert!(r.termination.is_proved());
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.delivery_witnesses().next().unwrap();
        assert_eq!(w.kind, WitnessKind::Drop);
        // The witness anchors on the else arm, not the whole channel.
        let arm = &src[w.span.start as usize..w.span.end as usize];
        assert_eq!(arm, "(ps, ss)");
    }

    #[test]
    fn escaping_exception_gets_e006() {
        let r = run(
            "channel network(ps : int, ss : (host, int) hash_table, p : ip*udp*blob) is\n\
             (print(tblGet(ss, ipSrc(#1 p))); OnRemote(network, p); (ps, ss))",
        );
        assert_eq!(r.delivery, Verdict::Violated);
        let w = r.delivery_witnesses().next().unwrap();
        assert_eq!(w.kind, WitnessKind::Exception);
        assert!(w.message.contains("NotFound"), "{}", w.message);
    }

    #[test]
    fn budget_exhaustion_is_inconclusive() {
        let tp = compile_front(PINNED_RELAY).unwrap();
        let sum = summarize(&tp);
        let r = model_check(&tp, &sum, 1);
        assert!(r.exhausted);
        assert_eq!(r.termination, Verdict::Inconclusive);
        assert_eq!(r.delivery, Verdict::Inconclusive);
        assert_eq!(r.budget, 1);
    }

    #[test]
    fn witness_json_is_byte_stable_across_runs() {
        let src = "channel a(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(b, (ipDestSet(#1 p, 10.0.0.2), #2 p, #3 p)); (ps, ss))\n\
             channel b(ps : unit, ss : unit, p : ip*udp*blob) is\n\
             (OnRemote(a, (ipDestSet(#1 p, 10.0.0.1), #2 p, #3 p)); (ps, ss))";
        let render = || {
            let tp = compile_front(src).unwrap();
            let sum = summarize(&tp);
            let r = model_check(&tp, &sum, DEFAULT_STATE_BUDGET);
            let mut out = String::new();
            r.write_json(src, &mut out);
            out
        };
        let a = render();
        let b = render();
        assert_eq!(a, b);
        assert!(a.contains("\"termination\":\"violated\""), "{a}");
    }
}
