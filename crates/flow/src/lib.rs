//! Control- and data-flow enrichment of the JavaScript AST.
//!
//! This crate reproduces the JSTAP-style graph layer the paper builds on
//! top of Esprima's AST (§III-A): scope-aware identifier resolution,
//! control flow restricted to statement-level nodes (plus `CatchClause`,
//! `SwitchCase`, and `ConditionalExpression`), and def→use data flow
//! between `Identifier` nodes. The paper reads both flow layers only as
//! numbers, so neither is stored: control flow is an edge count, a node
//! count and the list of nodes no entry reaches, and data flow is a pair
//! count. The paper's two-minute data-flow timeout is mirrored by fixed
//! reference and per-binding pair budgets.
//!
//! # Examples
//!
//! ```
//! use jsdetect_parser::parse;
//! use jsdetect_flow::analyze;
//!
//! let prog = parse("var x = 1; if (x) f(x);").unwrap();
//! let graph = analyze(&prog);
//! assert!(graph.dataflow.complete);
//! assert_eq!(graph.dataflow.pairs, 2); // x flows to `if (x)` and `f(x)`
//! assert_eq!(graph.control_flow.edges, 2); // `var` → `if`, `if` → its arm
//! assert!(graph.control_flow.unreachable.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cfg;
mod dataflow;
mod scope;

pub use cfg::{build_cfg, CfNode, ControlFlow};
pub use dataflow::{build_dataflow, DataFlow};
pub use scope::{
    analyze_scopes, classify_def_value, Binding, BindingId, BindingKind, DefValueKind, RefKind,
    Reference, Scope, ScopeId, ScopeKind, ScopeTree,
};

use jsdetect_ast::Program;

/// The fully enriched program graph: scopes + control flow + data flow.
#[derive(Debug, Clone)]
pub struct ProgramGraph {
    /// Scope tree with bindings and references.
    pub scopes: ScopeTree,
    /// Control-flow counts and unreachable nodes.
    pub control_flow: ControlFlow,
    /// Data-flow (def→use) pair count.
    pub dataflow: DataFlow,
}

/// Analyzes a program: scopes, control flow, and data flow within its
/// budgets.
pub fn analyze(program: &Program) -> ProgramGraph {
    analyze_with_scopes(program, analyze_scopes(program))
}

/// [`analyze`] over a scope tree the caller already holds: `scopes` must
/// be [`analyze_scopes`] of `program`.
pub fn analyze_with_scopes(program: &Program, scopes: ScopeTree) -> ProgramGraph {
    let control_flow = build_cfg(program);
    let dataflow = build_dataflow(&scopes);
    ProgramGraph { scopes, control_flow, dataflow }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_parser::parse;

    #[test]
    fn reference_budget_overrun_is_partial() {
        let src = "var x = 1;".to_string() + &"f(x);".repeat(100_000);
        let g = analyze(&parse(&src).unwrap());
        assert!(!g.dataflow.complete);
        // Control flow and scopes are still available (the paper's
        // two-minute-timeout fallback keeps the CF-enhanced AST).
        assert!(!g.scopes.bindings().is_empty());
    }

    #[test]
    fn program_graph_is_cloneable_and_debuggable() {
        let prog = parse("if (a) { b(); } else { c(); }").unwrap();
        let g = analyze(&prog);
        let g2 = g.clone();
        assert_eq!(
            format!("{:?}", g.control_flow.node_count),
            format!("{:?}", g2.control_flow.node_count)
        );
    }
}
