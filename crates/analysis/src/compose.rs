//! Cross-ASP product model check for deployment plans.
//!
//! The per-program [model checker](crate::modelcheck) explores
//! (channel × destination) states of *one* program, assuming acyclic
//! routing underneath. Two individually-proved ASPs can still form a
//! joint forwarding loop once they share a network — each one's
//! "progress" send feeding the other's restart. This module explores
//! the *product* of a deployment: states are
//!
//! ```text
//! (node, channel tag, destination value, source value)
//! ```
//!
//! over a concrete [`PlanTopology`], seeded with one in-flight packet
//! per plan path (entering at the ingress's first hop — a node's own
//! hook never sees the traffic it originates). A transition either
//! *dispatches* the packet into a co-resident ASP channel whose name
//! matches the tag — applying that channel's send-site transfers, one
//! successor per site, routed hop-by-hop — or, when nothing matches,
//! *transits* it one IP hop toward its destination. Destination and
//! source values are concrete addresses here (or `Unknown`), so the
//! progress labelling of the single-program checker carries over
//! exactly: an `OnRemote` hop makes progress iff it keeps the packet's
//! destination (or re-pins the same fixed address), and plain IP
//! transit always makes progress.
//!
//! A joint loop is a reachable state-graph cycle containing a
//! non-progress hop (SCC test, as in the single checker); the minimal
//! counterexample is reconstructed the same way and reported as an
//! `E007` [`Witness`] whose hops name nodes as well as channels
//! (`r1/network#0`) and whose spans point at the responsible `deploy`
//! lines of the plan source.

use crate::modelcheck::{scc, Verdict};
use crate::plan::{Install, PlanAsp, PlanTopology};
use crate::summary::{DestAbs, SendKind};
use crate::witness::{Witness, WitnessHop, WitnessKind};
use planp_lang::span::Span;
use std::collections::{HashMap, VecDeque};

/// Concrete-or-unknown value of an in-flight packet's address field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PVal {
    /// A fixed IPv4 address.
    Addr(u32),
    /// Not statically bounded.
    Unknown,
}

impl PVal {
    fn describe(self) -> String {
        match self {
            PVal::Addr(a) => format!(
                "{}.{}.{}.{}",
                (a >> 24) & 255,
                (a >> 16) & 255,
                (a >> 8) & 255,
                a & 255
            ),
            PVal::Unknown => "an unknown address".to_string(),
        }
    }
}

/// One explored product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PState {
    node: usize,
    tag: u32,
    dest: PVal,
    src: PVal,
}

#[derive(Debug, Clone, Copy)]
enum EdgeLabel {
    /// Send site `site` of channel `chan` of `installs[install]`.
    Dispatch {
        install: usize,
        chan: usize,
        site: usize,
    },
    /// Plain IP forwarding at a node with no matching channel.
    Transit,
}

#[derive(Debug, Clone, Copy)]
struct PEdge {
    from: usize,
    to: usize,
    label: EdgeLabel,
    progress: bool,
}

/// What the product exploration found.
#[derive(Debug, Clone)]
pub struct ComposeResult {
    /// Joint-termination verdict over the whole deployment.
    pub verdict: Verdict,
    /// Product states explored.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// True if the state budget stopped the exploration early.
    pub exhausted: bool,
    /// At most one minimal `E007` joint-loop witness.
    pub witnesses: Vec<Witness>,
}

/// Runs the product exploration of `asps` installed per `installs`
/// over `topo`, seeded from the topology's plan paths.
/// `install_spans` (parallel to `installs`) anchor witness hops at the
/// responsible plan-source `deploy` lines.
pub fn product_check(
    topo: &PlanTopology,
    asps: &[PlanAsp],
    installs: &[Install],
    install_spans: &[Span],
    budget: usize,
) -> ComposeResult {
    let n_nodes = topo.nodes.len();
    let mut tags: Vec<String> = vec!["network".to_string()];
    let mut tag_ix: HashMap<String, u32> = HashMap::new();
    tag_ix.insert("network".to_string(), 0);

    let mut at_node: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    for (i, ins) in installs.iter().enumerate() {
        at_node[ins.node].push(i);
    }

    // Next-hop tables toward each routed-to node, computed on demand.
    let mut toward_cache: HashMap<usize, Vec<Option<usize>>> = HashMap::new();
    let mut hop_toward = |from: usize, target: usize| -> Option<usize> {
        toward_cache
            .entry(target)
            .or_insert_with(|| topo.toward(target))[from]
    };

    let mut states: Vec<PState> = Vec::new();
    let mut index: HashMap<PState, usize> = HashMap::new();
    let mut edges: Vec<PEdge> = Vec::new();
    let mut exhausted = false;

    // One in-flight packet per plan path, entering at the ingress's
    // next hop with the path endpoints as concrete dest/src.
    for &(ingress, egress) in &topo.paths {
        if states.len() >= budget {
            exhausted = true;
            break;
        }
        let Some(entry) = hop_toward(ingress, egress) else {
            continue;
        };
        let s = PState {
            node: entry,
            tag: 0,
            dest: PVal::Addr(topo.nodes[egress].addr),
            src: PVal::Addr(topo.nodes[ingress].addr),
        };
        if let std::collections::hash_map::Entry::Vacant(e) = index.entry(s) {
            e.insert(states.len());
            states.push(s);
        }
    }

    let mut head = 0;
    while head < states.len() && !exhausted {
        let u = head;
        head += 1;
        let s = states[u];
        let node_addr = topo.nodes[s.node].addr;
        let tag_name = tags[s.tag as usize].clone();

        // Successor states this state steps to, with edge labels.
        let mut succs: Vec<(PState, EdgeLabel, bool)> = Vec::new();
        let mut dispatched = false;
        for &ii in &at_node[s.node] {
            let asp = &asps[installs[ii].deploy];
            for (ci, (cname, _)) in asp.channels.iter().enumerate() {
                if cname != &tag_name {
                    continue;
                }
                dispatched = true;
                for (si, site) in asp.summary.channels[ci].sites.iter().enumerate() {
                    let dest2 = match site.pkt_dest {
                        DestAbs::Unchanged => s.dest,
                        DestAbs::OrigSrc => s.src,
                        DestAbs::Const(a) => PVal::Addr(a),
                        DestAbs::Unknown => PVal::Unknown,
                    };
                    let src2 = if site.src_orig { s.src } else { PVal::Unknown };
                    // Same progress rule as the single-program checker,
                    // over concretized values.
                    let progress = site.kind == SendKind::Remote
                        && (site.pkt_dest == DestAbs::Unchanged
                            || (dest2 == s.dest && dest2 != PVal::Unknown));
                    let tag2 = match tag_ix.get(&site.chan) {
                        Some(&t) => t,
                        None => {
                            let t = tags.len() as u32;
                            tags.push(site.chan.clone());
                            tag_ix.insert(site.chan.clone(), t);
                            t
                        }
                    };
                    let label = EdgeLabel::Dispatch {
                        install: ii,
                        chan: ci,
                        site: si,
                    };
                    let nexts: Vec<usize> = match site.kind {
                        SendKind::Remote => match dest2 {
                            // Addressed to this very node: delivered.
                            PVal::Addr(a) if a == node_addr => Vec::new(),
                            PVal::Addr(a) => match topo.node_by_addr(a) {
                                Some(t) => hop_toward(s.node, t).into_iter().collect(),
                                None => Vec::new(), // undeliverable
                            },
                            PVal::Unknown => topo.adj[s.node].clone(),
                        },
                        SendKind::Neighbor => match site.dest {
                            DestAbs::Const(a) => match topo.node_by_addr(a) {
                                Some(m) if topo.adj[s.node].contains(&m) => vec![m],
                                _ => topo.adj[s.node].clone(),
                            },
                            _ => topo.adj[s.node].clone(),
                        },
                    };
                    for t in nexts {
                        succs.push((
                            PState {
                                node: t,
                                tag: tag2,
                                dest: dest2,
                                src: src2,
                            },
                            label,
                            progress,
                        ));
                    }
                }
            }
        }
        if !dispatched {
            // No matching channel: plain IP forwarding, which is
            // loop-free — always a progress hop.
            match s.dest {
                PVal::Addr(a) if a == node_addr => {} // delivered
                PVal::Addr(a) => {
                    if let Some(t) = topo.node_by_addr(a) {
                        if let Some(h) = hop_toward(s.node, t) {
                            succs.push((PState { node: h, ..s }, EdgeLabel::Transit, true));
                        }
                    }
                }
                PVal::Unknown => {
                    for &m in &topo.adj[s.node] {
                        succs.push((PState { node: m, ..s }, EdgeLabel::Transit, true));
                    }
                }
            }
        }

        for (t, label, progress) in succs {
            let v = match index.get(&t) {
                Some(&v) => v,
                None => {
                    if states.len() >= budget {
                        exhausted = true;
                        break;
                    }
                    index.insert(t, states.len());
                    states.push(t);
                    states.len() - 1
                }
            };
            edges.push(PEdge {
                from: u,
                to: v,
                label,
                progress,
            });
        }
    }

    let mut witnesses = Vec::new();
    let verdict = if exhausted {
        Verdict::Inconclusive
    } else {
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
            witnesses.push(joint_loop_witness(
                topo,
                asps,
                installs,
                install_spans,
                &tags,
                &states,
                &edges,
                &violating,
            ));
            Verdict::Violated
        }
    };

    ComposeResult {
        verdict,
        states: states.len(),
        transitions: edges.len(),
        exhausted,
        witnesses,
    }
}

/// BFS over the explored graph from `sources`, following edges in
/// insertion order (deterministic minimal witnesses).
fn bfs(
    n_states: usize,
    edges: &[PEdge],
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

fn path_to(parent: &[usize], edges: &[PEdge], target: usize) -> Vec<usize> {
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

/// Minimal `E007` witness: over all violating edges, the one
/// minimizing (entry prefix) + 1 + (cycle back), mirroring the
/// single-program checker's reconstruction.
#[allow(clippy::too_many_arguments)]
fn joint_loop_witness(
    topo: &PlanTopology,
    asps: &[PlanAsp],
    installs: &[Install],
    install_spans: &[Span],
    tags: &[String],
    states: &[PState],
    edges: &[PEdge],
    violating: &[usize],
) -> Witness {
    let mut out_edges = vec![Vec::new(); states.len()];
    for (i, e) in edges.iter().enumerate() {
        out_edges[e.from].push(i);
    }
    // Entry states are the first-interned ones: every state with no
    // incoming BFS need is seeded; using all path entries (distance 0)
    // reproduces the single checker's "shortest prefix from an entry".
    let entries: Vec<usize> = {
        let mut has_in = vec![false; states.len()];
        for e in edges {
            has_in[e.to] = true;
        }
        let roots: Vec<usize> = (0..states.len()).filter(|&i| !has_in[i]).collect();
        if roots.is_empty() {
            vec![0]
        } else {
            roots
        }
    };
    let (dist0, parent0) = bfs(states.len(), edges, &out_edges, &entries);

    let mut best: Option<(usize, usize, Vec<usize>, Vec<usize>)> = None;
    for &ei in violating {
        let e = edges[ei];
        if dist0[e.from] == usize::MAX {
            continue;
        }
        let (db, pb) = bfs(states.len(), edges, &out_edges, &[e.to]);
        if db[e.from] == usize::MAX {
            continue;
        }
        let score = dist0[e.from] + 1 + db[e.from];
        if best.as_ref().is_none_or(|(s, _, _, _)| score < *s) {
            let prefix = path_to(&parent0, edges, e.from);
            let back = path_to(&pb, edges, e.from);
            best = Some((score, ei, prefix, back));
        }
    }
    let (_, chosen, prefix, back) = best.expect("a violating edge is always reachable");

    let state_label = |i: usize| {
        format!(
            "{}/{}",
            topo.nodes[states[i].node].name, tags[states[i].tag as usize]
        )
    };
    let hop = |ei: usize| -> WitnessHop {
        let e = &edges[ei];
        match e.label {
            EdgeLabel::Dispatch {
                install,
                chan,
                site,
            } => {
                let asp = &asps[installs[install].deploy];
                let (cname, ov) = &asp.channels[chan];
                let st = &asp.summary.channels[chan].sites[site];
                WitnessHop {
                    from: format!("{}/{}#{}", topo.nodes[states[e.from].node].name, cname, ov),
                    to: state_label(e.to),
                    kind: st.kind,
                    dest: states[e.to].dest.describe(),
                    progress: e.progress,
                    span: install_spans[install],
                }
            }
            EdgeLabel::Transit => WitnessHop {
                from: format!("{}/transit", topo.nodes[states[e.from].node].name),
                to: state_label(e.to),
                kind: SendKind::Remote,
                dest: states[e.to].dest.describe(),
                progress: e.progress,
                span: Span::dummy(),
            },
        }
    };
    let cycle_start = prefix.len();
    let mut hops: Vec<WitnessHop> = prefix.iter().copied().map(hop).collect();
    hops.push(hop(chosen));
    hops.extend(back.iter().copied().map(hop));
    let cycle_len = hops.len() - cycle_start;
    let head = edges[chosen].from;
    let message = format!(
        "possible cross-ASP packet loop: {cycle_len} hop(s) return the packet to `{}` with destination {} and no net progress",
        state_label(head),
        states[head].dest.describe()
    );
    Witness {
        code: "E007",
        kind: WitnessKind::Loop { cycle_start },
        channel: state_label(head),
        message,
        span: hops[cycle_start].span,
        hops,
    }
}
