//! The path-bound recurrence: the one structural induction behind every
//! per-dispatch bound in this crate.
//!
//! Paper section 2.1 argues bounded per-packet work and linear
//! duplication from the shape of the language: no recursion, no
//! unbounded loops. That makes any quantity that accrues along an
//! execution path computable by induction over the typed AST. Each
//! analysis supplies only a [`PathMeasure`] (how two paths compose) and
//! a node's own charge; [`path_bounds`] does the rest:
//!
//! | node | bound |
//! |------|-------|
//! | any node | its own charge, then its children in evaluation order ([`TExpr::children`]) |
//! | sequence (`let`, tuples, arguments, `;`, operands) | [`then`](PathMeasure::then): the children's bounds accrue |
//! | `if c then t else f` | `c`, then [`or`](PathMeasure::or) of the arms |
//! | `e handle x => h` | `e`, then `h` |
//! | `f(args)` | the arguments, then `f`'s bound |
//!
//! **Soundness.** An executed path visits the node, then some of its
//! children in evaluation order, each at most once. Branches only skip:
//! an `if` runs its condition and exactly one arm (so `or`, an upper
//! bound of either arm, covers it), and `andalso`/`orelse` may skip
//! their right operand (the sum still covers it). A `handle` body may
//! run all the way to its deepest `raise` before the handler runs, so
//! the two accrue. A call runs its arguments and then the callee's body
//! once, so it adds the callee's bound, computed beforehand: functions
//! are bounded in declaration order, which terminates and is complete
//! because a body may call only earlier functions (PLAN-P has no
//! recursion). Every bound is therefore an upper bound on what one
//! dispatch of the channel can accrue, for both engines — the JIT's
//! folded constant templates charge exactly the nodes the interpreter
//! visits. Each function body is walked once, however many call paths
//! reach it.
//!
//! The instances: [`crate::cost`] (steps and sends), [`crate::state`]
//! (inserts and evictions), [`crate::duplication`] (weighted copying
//! sends), and [`crate::profile`] (per-site steps and superinstruction
//! candidates).

use planp_lang::tast::{TExpr, TExprKind, TProgram};

/// A quantity that accrues along an execution path.
pub(crate) trait PathMeasure: Default {
    /// Sequential composition: `self`, then `next` on the same path.
    fn then(&mut self, next: &Self);
    /// Branch merge: a bound on whichever of `self` and `other` runs.
    fn or(&mut self, other: &Self);
}

/// Bounds of every function and channel body, parallel to
/// `TProgram::funs` and `TProgram::channels`.
pub(crate) struct PathBounds<M> {
    /// Per-function bounds.
    pub funs: Vec<M>,
    /// Per-channel bounds.
    pub channels: Vec<M>,
}

/// Bounds every function and channel body of `prog`. `charge(e, acc)`
/// adds node `e`'s own charge (not its children's) to the path `acc`.
pub(crate) fn path_bounds<'p, M: PathMeasure>(
    prog: &'p TProgram,
    mut charge: impl FnMut(&'p TExpr, &mut M),
) -> PathBounds<M> {
    let mut funs = Vec::with_capacity(prog.funs.len());
    for f in &prog.funs {
        let mut m = M::default();
        bound(&f.body, &funs, &mut charge, &mut m);
        funs.push(m);
    }
    let channels = prog
        .channels
        .iter()
        .map(|ch| {
            let mut m = M::default();
            bound(&ch.body, &funs, &mut charge, &mut m);
            m
        })
        .collect();
    PathBounds { funs, channels }
}

/// Extends `acc` by the bound of `e`; `funs` holds the bounds of all
/// earlier function declarations.
fn bound<'p, M: PathMeasure>(
    e: &'p TExpr,
    funs: &[M],
    charge: &mut impl FnMut(&'p TExpr, &mut M),
    acc: &mut M,
) {
    charge(e, acc);
    match &e.kind {
        TExprKind::If(c, t, f) => {
            bound(c, funs, charge, acc);
            let mut arm = M::default();
            bound(t, funs, charge, &mut arm);
            let mut other = M::default();
            bound(f, funs, charge, &mut other);
            arm.or(&other);
            acc.then(&arm);
        }
        TExprKind::CallFun { index, args } => {
            for a in args {
                bound(a, funs, charge, acc);
            }
            acc.then(&funs[*index as usize]);
        }
        _ => {
            for c in e.children() {
                bound(c, funs, charge, acc);
            }
        }
    }
}

/// A saturating count: sequence sums, branches take the maximum.
impl PathMeasure for u64 {
    fn then(&mut self, next: &Self) {
        *self = self.saturating_add(*next);
    }

    fn or(&mut self, other: &Self) {
        *self = (*self).max(*other);
    }
}
