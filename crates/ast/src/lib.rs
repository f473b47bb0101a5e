//! ESTree-style JavaScript AST for the `jsdetect` reproduction suite.
//!
//! This crate defines the abstract syntax tree shared by the lexer, parser,
//! code generator, flow analysis, transformation passes, and feature
//! extractor. The node vocabulary mirrors Esprima's ESTree output, which is
//! what the reproduced paper's pipeline consumes.
//!
//! # Overview
//!
//! - [`Program`], [`Stmt`], [`Expr`], [`Pat`]: the tree itself.
//! - [`NodeKind`]: the flat vocabulary of ESTree `type` strings, used for
//!   n-gram features and control-flow classification.
//! - [`walk`] / [`NodeRef`]: pre-order traversal.
//! - [`MutVisitor`]: in-place rewriting, the substrate for the ten
//!   transformation techniques.
//! - [`builder`]: concise constructors for synthesized nodes.
//! - [`metrics`]: tree-shape statistics (node count, depth, breadth).
//!
//! # Examples
//!
//! ```
//! use jsdetect_ast::{builder, kind_stream, NodeKind};
//!
//! let prog = builder::program(vec![builder::expr_stmt(builder::call(
//!     builder::ident("alert"),
//!     vec![builder::str_lit("hello")],
//! ))]);
//! let kinds = kind_stream(&prog);
//! assert_eq!(kinds[0], NodeKind::Program);
//! assert!(kinds.contains(&NodeKind::CallExpression));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atom;
pub mod builder;
mod kind;
pub mod metrics;
mod nodes;
mod ops;
mod span;
pub mod visit;
pub mod visit_mut;

pub use atom::{global as global_interner, Atom, Interner, InternerStats, INTERNER_EXHAUSTED_MSG};
pub use kind::NodeKind;
pub use nodes::{
    ArrowBody, CatchClause, Class, ClassMember, ClassMemberValue, ExportSpecifier, Expr, ForInit,
    ForTarget, Function, Ident, ImportSpecifier, Lit, LitValue, MemberProp, MethodKind,
    ObjectPatProp, Pat, Program, PropKey, PropKind, Property, Stmt, SwitchCase, TemplateElement,
    VarDeclarator,
};
pub use ops::{AssignOp, BinaryOp, LogicalOp, UnaryOp, UpdateOp, VarKind};
pub use span::{line_col, Span};
pub use visit::{expr_kind, kind_stream, pat_kind, stmt_kind, walk, NodeRef};
pub use visit_mut::MutVisitor;
