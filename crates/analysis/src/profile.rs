//! Static per-**site** cost bounds and superinstruction candidates.
//!
//! The [cost](crate::cost) analysis bounds a whole channel invocation;
//! this module refines that to individual expression *sites* so the
//! profiler (`planp-telemetry::profile`) can join what the engines
//! observe against what the analysis promised. A site id is the node's
//! source span start offset — the same identity both engines report
//! through `NetEnv::charge_site`, stable across engines, runs, and
//! recompiles of the same source.
//!
//! [`site_bounds`] is an instance of the path-bound recurrence
//! (`crate::path`, stated in DESIGN.md) whose measure is a table of
//! per-site steps: every node charges [`STEPS_PER_NODE`] at its own
//! site, and a call adds the callee's table, computed once per function,
//! so a body reached on `k` call paths carries `k ×` its sites. Unlike
//! the whole-body bound, the table keeps the sites of *both* `if` arms
//! (summing where a callee is shared), which is what makes it
//! decomposable: for every site, `observed_steps ≤ bound_steps ×
//! dispatches` — the utilization-heatmap invariant the profiler
//! enforces.
//!
//! [`superinstruction_candidates`] additionally detects the adjacent
//! hot-site shapes ROADMAP item 2 wants fused into superinstructions:
//!
//! * `hdr_compare_branch` — an `if` whose condition loads a packet
//!   header field and compares it (the classic dispatch shape:
//!   `if tcpDst(h) = 80 then … else …`);
//! * `table_forward` — a table lookup (`tblGet`/`tblHas`) feeding a
//!   send (`OnRemote`/`OnNeighbor`) through a `let` or an `if`.
//!
//! Candidates are found by the same recurrence (a function's candidates
//! are found once and added at each call site) and listed once per
//! channel overload. They are static; the profiler ranks them by
//! observed steps.

use crate::path::{path_bounds, PathMeasure};
use planp_lang::span::{line_col, LineCols};
use planp_lang::tast::{TExpr, TExprKind, TProgram};
use planp_vm::cost::STEPS_PER_NODE;
use std::collections::BTreeMap;

/// One expression site of a channel body (or of a function body
/// reachable from it), with its static per-dispatch step bound.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Site id: the node's span start offset.
    pub site: u32,
    /// Human label, `line:col:kind` (e.g. `3:12:prim.tcpDst`) — no
    /// spaces or semicolons, so it can serve as a flamegraph frame.
    pub label: String,
    /// Upper bound on steps this site charges per dispatch.
    pub bound_steps: u64,
}

/// The sites of one channel overload.
#[derive(Debug, Clone)]
pub struct ChannelSites {
    /// Channel name.
    pub name: String,
    /// Overload index within the name group.
    pub overload: u32,
    /// All sites reachable from the body, ordered by site id.
    pub sites: Vec<SiteInfo>,
}

impl ChannelSites {
    /// Sum of the per-site bounds. This is ≥ the whole-body
    /// [`crate::CostBound::steps`] (which maxes over `if` arms where
    /// this sums them) — both are sound, this one site-decomposable.
    pub fn total_bound(&self) -> u64 {
        self.sites.iter().map(|s| s.bound_steps).sum()
    }
}

/// Per-site bounds for a whole program.
#[derive(Debug, Clone, Default)]
pub struct SiteReport {
    /// Per-channel site tables, parallel to `TProgram::channels`.
    pub channels: Vec<ChannelSites>,
}

/// Per-site steps of one body, by site id, with the node that names
/// the site: its first pre-order visitor. Distinct nodes desugared onto
/// the same span merge by summing (still sound: the merged bound covers
/// the merged observation).
#[derive(Default)]
struct SiteSteps<'p>(BTreeMap<u32, (u64, &'p TExpr)>);

impl PathMeasure for SiteSteps<'_> {
    fn then(&mut self, next: &Self) {
        for (&site, &(steps, node)) in &next.0 {
            self.0.entry(site).or_insert((0, node)).0.then(&steps);
        }
    }

    /// Keeps every site of both arms: an `if` charges one arm, the table
    /// covers either.
    fn or(&mut self, other: &Self) {
        self.then(other);
    }
}

/// Computes per-site step bounds for every channel overload of `prog`.
/// `src` is the program source, used only for `line:col` labels.
pub fn site_bounds(prog: &TProgram, src: &str) -> SiteReport {
    let tables = path_bounds(prog, |e, acc: &mut SiteSteps| {
        let (steps, _) = acc.0.entry(e.span.start).or_insert((0, e));
        steps.then(&STEPS_PER_NODE);
    });
    let channels = prog
        .channels
        .iter()
        .zip(tables.channels)
        .map(|(ch, table)| {
            // Sites ascend, so one cursor labels a whole table.
            let mut at = LineCols::new(src);
            ChannelSites {
                name: ch.name.clone(),
                overload: ch.overload,
                sites: table
                    .0
                    .into_iter()
                    .map(|(site, (bound_steps, node))| SiteInfo {
                        site,
                        label: format!("{}:{}", at.at(site), kind_label(node, prog)),
                        bound_steps,
                    })
                    .collect(),
            }
        })
        .collect();
    SiteReport { channels }
}

/// A short node-kind tag for site labels (no spaces or semicolons).
fn kind_label(e: &TExpr, prog: &TProgram) -> String {
    use TExprKind::*;
    match &e.kind {
        Int(_) => "int".into(),
        Bool(_) => "bool".into(),
        Str(_) => "str".into(),
        Char(_) => "char".into(),
        Unit => "unit".into(),
        Host(_) => "host".into(),
        Local { name, .. } => format!("local.{name}"),
        Global { .. } => "global".into(),
        Tuple(_) => "tuple".into(),
        Proj(i, _) => format!("proj.{i}"),
        CallFun { index, args: _ } => match prog.funs.get(*index as usize) {
            Some(f) => format!("call.{}", f.name),
            None => "call".into(),
        },
        CallPrim { prim, .. } => format!("prim.{}", planp_lang::prims::table().sig(*prim).name),
        If(..) => "if".into(),
        Let { name, .. } => format!("let.{name}"),
        Seq(_) => "seq".into(),
        Binop(op, ..) => format!("binop.{op:?}").to_lowercase(),
        Unop(op, _) => format!("unop.{op:?}").to_lowercase(),
        Raise(_) => "raise".into(),
        Handle(..) => "handle".into(),
        List(_) => "list".into(),
        OnRemote { chan, .. } => format!("send.{chan}"),
        OnNeighbor { chan, .. } => format!("sendn.{chan}"),
    }
}

/// An adjacent hot-site sequence worth fusing into a superinstruction
/// in a future compilation tier (ROADMAP item 2).
#[derive(Debug, Clone)]
pub struct SuperinstructionCandidate {
    /// Pattern tag: `hdr_compare_branch` or `table_forward`.
    pub pattern: &'static str,
    /// Channel the sequence executes under.
    pub chan: String,
    /// Overload index of that channel.
    pub overload: u32,
    /// Participating site ids, ascending.
    pub sites: Vec<u32>,
    /// `line:col` of the anchoring node.
    pub label: String,
}

/// Header-field read primitives (the "load" of the dispatch shape).
fn is_header_read(name: &str) -> bool {
    matches!(
        name,
        "ipSrc"
            | "ipDst"
            | "ipTtl"
            | "ipProto"
            | "tcpSrc"
            | "tcpDst"
            | "tcpSeq"
            | "tcpAck"
            | "tcpIsSyn"
            | "tcpIsFin"
            | "tcpIsAck"
            | "tcpIsRst"
            | "udpSrc"
            | "udpDst"
            | "blobLen"
    )
}

/// The first site (pre-order) under `e` whose node satisfies `pred`.
fn find_site(e: &TExpr, pred: &dyn Fn(&TExprKind) -> bool) -> Option<u32> {
    if pred(&e.kind) {
        return Some(e.span.start);
    }
    e.children().find_map(|c| find_site(c, pred))
}

fn is_table_read(k: &TExprKind) -> bool {
    matches!(k, TExprKind::CallPrim { prim, .. }
        if matches!(planp_lang::prims::table().sig(*prim).name, "tblGet" | "tblHas"))
}

fn is_send(k: &TExprKind) -> bool {
    matches!(k, TExprKind::OnRemote { .. } | TExprKind::OnNeighbor { .. })
}

/// A candidate found in one body: its pattern, participating sites
/// (ascending), and anchoring node.
struct Found {
    pattern: &'static str,
    sites: Vec<u32>,
    anchor: u32,
}

/// The candidates of one body, in evaluation order (a call's argument
/// candidates before its callee's), each `(pattern, sites)` listed once.
#[derive(Default)]
struct Candidates(Vec<Found>);

impl Candidates {
    fn add(&mut self, pattern: &'static str, anchor: u32, mut sites: Vec<u32>) {
        sites.sort_unstable();
        sites.dedup();
        if !self
            .0
            .iter()
            .any(|f| f.pattern == pattern && f.sites == sites)
        {
            self.0.push(Found {
                pattern,
                sites,
                anchor,
            });
        }
    }
}

impl PathMeasure for Candidates {
    fn then(&mut self, next: &Self) {
        for f in &next.0 {
            self.add(f.pattern, f.anchor, f.sites.clone());
        }
    }

    fn or(&mut self, other: &Self) {
        self.then(other);
    }
}

/// Adds the candidates anchored at node `e` itself.
fn anchored_at(e: &TExpr, acc: &mut Candidates) {
    let anchor = e.span.start;
    match &e.kind {
        // `if <hdr-read … compare …> then … else …` — the dispatch shape.
        TExprKind::If(c, t, f) => {
            let hdr = find_site(c, &|k| {
                matches!(k, TExprKind::CallPrim { prim, .. }
                    if is_header_read(planp_lang::prims::table().sig(*prim).name))
            });
            let cmp = find_site(c, &|k| {
                use planp_lang::ast::BinOp::*;
                matches!(k, TExprKind::Binop(op, ..) if matches!(op, Eq | Ne | Lt | Le | Gt | Ge))
            });
            if let (Some(h), Some(cm)) = (hdr, cmp) {
                acc.add("hdr_compare_branch", anchor, vec![anchor, h, cm]);
            }
            // `if <table-read …> then <send …>` — lookup-then-forward.
            if let Some(tr) = find_site(c, &is_table_read) {
                if let Some(s) = find_site(t, &is_send).or_else(|| find_site(f, &is_send)) {
                    acc.add("table_forward", anchor, vec![anchor, tr, s]);
                }
            }
        }
        // `let val x = tblGet(…) … in … OnRemote(…) …` — lookup feeding
        // a forward through a binding.
        TExprKind::Let { init, body, .. } => {
            if let Some(tr) = find_site(init, &is_table_read) {
                if let Some(s) = find_site(body, &is_send) {
                    acc.add("table_forward", anchor, vec![anchor, tr, s]);
                }
            }
        }
        _ => {}
    }
}

/// Detects superinstruction candidates in every channel overload of
/// `prog` (including called functions), in evaluation order: a call
/// lists its arguments' candidates, then its callee's.
pub fn superinstruction_candidates(prog: &TProgram, src: &str) -> Vec<SuperinstructionCandidate> {
    let found = path_bounds(prog, anchored_at);
    prog.channels
        .iter()
        .zip(found.channels)
        .flat_map(|(ch, cands)| {
            cands.0.into_iter().map(|f| SuperinstructionCandidate {
                pattern: f.pattern,
                chan: ch.name.clone(),
                overload: ch.overload,
                sites: f.sites,
                label: line_col(src, f.anchor).to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use planp_lang::compile_front;
    use planp_vm::env::MockEnv;
    use planp_vm::interp::Interp;
    use planp_vm::pkthdr::{addr, IpHdr, UdpHdr};
    use planp_vm::value::Value;

    fn setup(src: &str) -> (TProgram, SiteReport) {
        let tp = compile_front(src).unwrap_or_else(|e| panic!("front: {e}\n{src}"));
        let report = site_bounds(&tp, src);
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

    #[test]
    fn observed_per_site_within_per_site_bound() {
        let src = "fun dbl(x : int) : int = x * 2\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (if ps > 0 then (dbl(ps), ss) else (dbl(dbl(ps)), ss))";
        let (tp, report) = setup(src);
        let bounds: BTreeMap<u32, u64> = report.channels[0]
            .sites
            .iter()
            .map(|s| (s.site, s.bound_steps))
            .collect();
        let interp = Interp::new(&tp);
        for ps in [0, 5] {
            let mut env = MockEnv::new(addr(10, 0, 0, 1));
            interp
                .run_channel(0, &[], Value::Int(ps), Value::Unit, udp_packet(), &mut env)
                .unwrap();
            for (site, n) in env.site_profile() {
                let b = bounds
                    .get(&site)
                    .unwrap_or_else(|| panic!("site {site} not in static table"));
                assert!(n <= *b, "site {site}: observed {n} > bound {b} (ps={ps})");
            }
        }
    }

    #[test]
    fn call_multiplicity_scales_function_body_bounds() {
        // `dbl` is called twice, so its body sites must carry exactly
        // twice the single-call bound.
        let once = "fun dbl(x : int) : int = x * 2\n\
                    channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                    ((dbl(ps), ss))";
        let twice = "fun dbl(x : int) : int = x * 2\n\
                     channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                     ((dbl(ps) + dbl(ps), ss))";
        let (tp1, r1) = setup(once);
        let (tp2, r2) = setup(twice);
        let site1 = tp1.funs[0].body.span.start;
        let site2 = tp2.funs[0].body.span.start;
        let bound = |r: &SiteReport, site: u32| {
            r.channels[0]
                .sites
                .iter()
                .find(|s| s.site == site)
                .expect("function body site present")
                .bound_steps
        };
        assert_eq!(bound(&r2, site2), 2 * bound(&r1, site1));
    }

    #[test]
    fn labels_are_flame_safe_and_positioned() {
        let src = "channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 80 then (ps + 1, ss) else (ps, ss))";
        let (_, report) = setup(src);
        let sites = &report.channels[0].sites;
        assert!(!sites.is_empty());
        for s in sites {
            assert!(
                !s.label.contains(' ') && !s.label.contains(';'),
                "label {:?} not flame-safe",
                s.label
            );
        }
        // Nodes desugared or parsed onto the same start offset merge
        // (the condition's `=` starts at the `udpDst` token); the first
        // pre-order visitor names the merged site.
        assert!(sites.iter().any(|s| s.label.ends_with("binop.eq")));
        assert!(sites.iter().any(|s| s.label.ends_with(":if")));
    }

    #[test]
    fn detects_hdr_compare_branch_and_table_forward() {
        let src = "channel network(ps : int, ss : (host, host) hash_table, p : ip*udp*blob) is\n\
                   (if udpDst(#2 p) = 80 then\n\
                      let val nh : host = tblGet(ss, ipDst(#1 p)) handle NotFound => ipDst(#1 p) in\n\
                        (OnRemote(network, p); (ps, ss))\n\
                      end\n\
                    else (ps, ss))";
        let tp = compile_front(src).unwrap();
        let cands = superinstruction_candidates(&tp, src);
        assert!(cands.iter().any(|c| c.pattern == "hdr_compare_branch"));
        assert!(cands.iter().any(|c| c.pattern == "table_forward"));
        for c in &cands {
            assert_eq!(c.chan, "network");
            assert!(c.sites.len() >= 2);
            assert!(c.sites.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn call_site_candidates_are_listed_in_evaluation_order() {
        // A call runs its arguments, then the callee's body: the
        // argument's candidate is listed before the callee's.
        let src = "fun g(p : ip*udp*blob) : int = if udpDst(#2 p) = 80 then 1 else 0\n\
                   channel network(ps : int, ss : unit, p : ip*udp*blob) is\n\
                   ((ps + g(if udpSrc(#2 p) = 7 then p else p), ss))";
        let tp = compile_front(src).unwrap();
        let cands = superinstruction_candidates(&tp, src);
        let labels: Vec<_> = cands
            .iter()
            .map(|c| (c.pattern, c.label.as_str()))
            .collect();
        assert_eq!(
            labels,
            [
                ("hdr_compare_branch", "3:10"),
                ("hdr_compare_branch", "1:32")
            ]
        );
    }
}
