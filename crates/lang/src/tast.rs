//! Typed abstract syntax — the output of the type checker and the input to
//! the safety analyses, the portable interpreter, and the JIT specializer.
//!
//! Compared with the untyped AST, every expression carries its [`Type`],
//! variable references are resolved to local slots or global indices,
//! calls are resolved to user functions or [`PrimId`]s, multi-binding
//! `let`s are desugared into nested single bindings, and `OnRemote`
//! targets are resolved to a specific channel overload.

use crate::ast::{BinOp, UnOp};
use crate::prims::PrimId;
use crate::span::Span;
use crate::types::{PacketShape, Type};
use std::collections::HashMap;

/// Identifies an exception: an index into [`TProgram::exns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExnId(pub u32);

/// A fully type-checked program.
#[derive(Debug, Clone)]
pub struct TProgram {
    /// `val` globals in declaration order.
    pub globals: Vec<TGlobal>,
    /// `fun` definitions in declaration order (bodies may call only earlier
    /// functions, which is what guarantees local termination).
    pub funs: Vec<TFun>,
    /// Exception names; predeclared exceptions first, then user
    /// declarations. Index = [`ExnId`].
    pub exns: Vec<String>,
    /// The protocol-state type shared by all channels.
    pub proto_ty: Type,
    /// Initial protocol state; `None` means default-initialize from
    /// `proto_ty`.
    pub proto_init: Option<TExpr>,
    /// Channel overload instances in declaration order.
    pub channels: Vec<TChannel>,
    /// Channel name → indices into `channels`, in declaration order.
    pub chan_groups: HashMap<String, Vec<usize>>,
}

impl TProgram {
    /// Returns the channel at `index`.
    pub fn channel(&self, index: usize) -> &TChannel {
        &self.channels[index]
    }

    /// Resolves an exception name to its id.
    pub fn exn_id(&self, name: &str) -> Option<ExnId> {
        self.exns
            .iter()
            .position(|n| n == name)
            .map(|i| ExnId(i as u32))
    }
}

/// A `val` global.
#[derive(Debug, Clone)]
pub struct TGlobal {
    /// Name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Load-time initializer (pure).
    pub init: TExpr,
    /// Source span of the declaration.
    pub span: Span,
}

/// A `fun` definition.
#[derive(Debug, Clone)]
pub struct TFun {
    /// Name.
    pub name: String,
    /// Parameter names and types; parameters occupy local slots `0..n`.
    pub params: Vec<(String, Type)>,
    /// Declared return type.
    pub ret: Type,
    /// Body.
    pub body: TExpr,
    /// Total number of local slots the body needs (params + lets).
    pub nlocals: u32,
    /// Source span of the declaration.
    pub span: Span,
}

/// One channel overload instance.
#[derive(Debug, Clone)]
pub struct TChannel {
    /// Channel name (`network` matches untagged traffic).
    pub name: String,
    /// Index of this overload within its name group (declaration order).
    pub overload: u32,
    /// Protocol-state parameter name (slot 0).
    pub ps_name: String,
    /// Channel-state parameter name (slot 1).
    pub ss_name: String,
    /// Packet parameter name (slot 2).
    pub pkt_name: String,
    /// Channel-state type.
    pub ss_ty: Type,
    /// Packet type this overload matches.
    pub pkt_ty: Type,
    /// Decomposition of `pkt_ty` (validated by the checker).
    pub shape: PacketShape,
    /// Initial channel state; `None` means default-initialize from `ss_ty`.
    pub initstate: Option<TExpr>,
    /// Body; evaluates to `(ps', ss')`.
    pub body: TExpr,
    /// Total number of local slots the body needs (3 params + lets).
    pub nlocals: u32,
    /// Source span of the declaration.
    pub span: Span,
}

/// A typed expression.
#[derive(Debug, Clone)]
pub struct TExpr {
    /// The expression form.
    pub kind: TExprKind,
    /// The expression's type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// Typed expression forms.
#[derive(Debug, Clone)]
pub enum TExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Character literal.
    Char(char),
    /// Unit literal.
    Unit,
    /// Host literal.
    Host(u32),
    /// Local variable (parameter or `let` binding).
    Local {
        /// Surface name (used by the portable interpreter's named lookup).
        name: String,
        /// Pre-resolved frame slot (used by the JIT).
        slot: u32,
    },
    /// `val` global.
    Global {
        /// Surface name.
        name: String,
        /// Index into [`TProgram::globals`].
        index: u32,
    },
    /// Tuple construction.
    Tuple(Vec<TExpr>),
    /// Tuple projection; `index` is 0-based here (surface syntax is 1-based).
    Proj(u32, Box<TExpr>),
    /// Call of a user function.
    CallFun {
        /// Index into [`TProgram::funs`].
        index: u32,
        /// Arguments.
        args: Vec<TExpr>,
    },
    /// Call of a primitive.
    CallPrim {
        /// Which primitive.
        prim: PrimId,
        /// Arguments.
        args: Vec<TExpr>,
    },
    /// Conditional.
    If(Box<TExpr>, Box<TExpr>, Box<TExpr>),
    /// Single `let` binding (multi-binding lets are desugared to nesting).
    Let {
        /// Bound name.
        name: String,
        /// Frame slot.
        slot: u32,
        /// Initializer.
        init: Box<TExpr>,
        /// Body.
        body: Box<TExpr>,
    },
    /// Sequencing; value of the last expression.
    Seq(Vec<TExpr>),
    /// Binary operation.
    Binop(BinOp, Box<TExpr>, Box<TExpr>),
    /// Unary operation.
    Unop(UnOp, Box<TExpr>),
    /// `raise`.
    Raise(ExnId),
    /// `handle`; `None` pattern catches everything.
    Handle(Box<TExpr>, Option<ExnId>, Box<TExpr>),
    /// List literal.
    List(Vec<TExpr>),
    /// `OnRemote(chan, pkt)` resolved to a channel overload.
    OnRemote {
        /// Target channel name.
        chan: String,
        /// Resolved overload index within the name group.
        overload: u32,
        /// Packet expression.
        pkt: Box<TExpr>,
    },
    /// `OnNeighbor(chan, host, pkt)` resolved to a channel overload.
    OnNeighbor {
        /// Target channel name.
        chan: String,
        /// Resolved overload index within the name group.
        overload: u32,
        /// Destination neighbor.
        host: Box<TExpr>,
        /// Packet expression.
        pkt: Box<TExpr>,
    },
}

impl TExpr {
    /// The direct subexpressions, in evaluation order: the one
    /// definition of child order every structural walk shares.
    pub fn children(&self) -> impl Iterator<Item = &TExpr> + '_ {
        use TExprKind::*;
        // A variadic node's list, or up to three boxed children (the
        // `None`s only trail).
        let (list, boxed): (&[TExpr], [Option<&TExpr>; 3]) = match &self.kind {
            Int(_)
            | Bool(_)
            | Str(_)
            | Char(_)
            | Unit
            | Host(_)
            | Local { .. }
            | Global { .. }
            | Raise(_) => (&[], [None; 3]),
            Tuple(items) | Seq(items) | List(items) => (items, [None; 3]),
            CallFun { args, .. } | CallPrim { args, .. } => (args, [None; 3]),
            Proj(_, e) | Unop(_, e) | OnRemote { pkt: e, .. } => (&[], [Some(e), None, None]),
            If(c, t, f) => (&[], [Some(c), Some(t), Some(f)]),
            Let { init, body, .. } => (&[], [Some(init), Some(body), None]),
            Binop(_, a, b)
            | Handle(a, _, b)
            | OnNeighbor {
                host: a, pkt: b, ..
            } => (&[], [Some(a), Some(b), None]),
        };
        list.iter().chain(boxed.into_iter().map_while(|c| c))
    }

    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TExpr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: TExprKind, ty: Type) -> TExpr {
        TExpr {
            kind,
            ty,
            span: Span::dummy(),
        }
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = TExpr {
            kind: TExprKind::If(
                Box::new(leaf(TExprKind::Bool(true), Type::Bool)),
                Box::new(leaf(TExprKind::Int(1), Type::Int)),
                Box::new(TExpr {
                    kind: TExprKind::Tuple(vec![
                        leaf(TExprKind::Int(2), Type::Int),
                        leaf(TExprKind::Int(3), Type::Int),
                    ]),
                    ty: Type::Tuple(vec![Type::Int, Type::Int]),
                    span: Span::dummy(),
                }),
            ),
            ty: Type::Int,
            span: Span::dummy(),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 6);
    }

    #[test]
    fn children_are_in_evaluation_order() {
        let int = |i| leaf(TExprKind::Int(i), Type::Int);
        let ints = |e: &TExpr| -> Vec<i64> {
            e.children()
                .map(|c| match c.kind {
                    TExprKind::Int(i) => i,
                    _ => unreachable!(),
                })
                .collect()
        };
        let cond = leaf(
            TExprKind::If(Box::new(int(1)), Box::new(int(2)), Box::new(int(3))),
            Type::Int,
        );
        assert_eq!(ints(&cond), vec![1, 2, 3]);
        let call = leaf(
            TExprKind::CallFun {
                index: 0,
                args: vec![int(4), int(5)],
            },
            Type::Int,
        );
        assert_eq!(ints(&call), vec![4, 5]);
        let handle = leaf(
            TExprKind::Handle(Box::new(int(6)), None, Box::new(int(7))),
            Type::Int,
        );
        assert_eq!(ints(&handle), vec![6, 7]);
        assert_eq!(ints(&int(8)), Vec::<i64>::new());
    }
}
