//! Data-flow edges between `Identifier` nodes.
//!
//! Per the paper (§III-A): "there is a data flow between two `Identifier`
//! nodes if and only if a variable is defined at the source node and used
//! at the destination node." We build flow-insensitive def→use edges from
//! the scope analysis: every write/declaration of a binding flows to every
//! read of the same binding.
//!
//! The paper aborts data-flow generation after a two-minute timeout and
//! falls back to the control-flow-only graph; we mirror that with a node
//! budget ([`DataFlowOptions::max_refs`]) so behaviour is deterministic.

use crate::scope::{RefKind, ScopeTree};
use jsdetect_ast::Span;

/// Options bounding data-flow construction.
#[derive(Debug, Clone)]
pub struct DataFlowOptions {
    /// Maximum number of references to process before giving up (the
    /// deterministic stand-in for the paper's two-minute timeout). The
    /// quadratic def×use pairing is also capped per binding.
    pub max_refs: usize,
    /// Maximum def→use pairs recorded per binding.
    pub max_pairs_per_binding: usize,
}

impl Default for DataFlowOptions {
    fn default() -> Self {
        DataFlowOptions { max_refs: 200_000, max_pairs_per_binding: 4_096 }
    }
}

/// A def→use edge between two identifier occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfEdge {
    /// Span of the defining identifier occurrence.
    pub def: Span,
    /// Span of the using identifier occurrence.
    pub use_: Span,
    /// Binding the edge belongs to.
    pub binding: usize,
}

/// The data-flow layer of the program graph.
#[derive(Debug, Clone, Default)]
pub struct DataFlow {
    /// All def→use edges.
    pub edges: Vec<DfEdge>,
    /// `false` if construction hit the budget and the graph is partial
    /// (the paper's timeout fallback).
    pub complete: bool,
    /// Binding ids whose def×use pairing was cut off by
    /// [`DataFlowOptions::max_pairs_per_binding`]. Empty when `complete`
    /// is only false because of the global `max_refs` budget.
    pub truncated_bindings: Vec<usize>,
}

/// Builds def→use edges from a scope analysis.
pub fn build_dataflow(scopes: &ScopeTree, opts: &DataFlowOptions) -> DataFlow {
    let mut df = DataFlow { edges: Vec::new(), complete: true, truncated_bindings: Vec::new() };
    if scopes.references().len() > opts.max_refs {
        df.complete = false;
        return df;
    }
    let (mut def_sites, mut uses) = (Vec::new(), Vec::new());
    for (b, binding) in scopes.bindings().iter().enumerate() {
        def_sites.clear();
        uses.clear();
        for r in scopes.refs_of(b) {
            match r.kind {
                RefKind::Read => uses.push(r.span),
                RefKind::Write => def_sites.push(r.span),
                RefKind::ReadWrite => {
                    def_sites.push(r.span);
                    uses.push(r.span);
                }
            }
        }
        // The declaration site itself is a def.
        if def_sites.is_empty() {
            def_sites.push(binding.decl_span);
        }
        let mut pairs = 0usize;
        'outer: for d in &def_sites {
            for u in &uses {
                if d == u {
                    continue; // a ReadWrite site does not flow to itself
                }
                // Check *before* pushing: a binding whose pair count lands
                // exactly on the cap lost nothing and stays complete.
                if pairs == opts.max_pairs_per_binding {
                    df.complete = false;
                    df.truncated_bindings.push(b);
                    break 'outer;
                }
                df.edges.push(DfEdge { def: *d, use_: *u, binding: b });
                pairs += 1;
            }
        }
    }
    df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::analyze_scopes;
    use jsdetect_parser::parse;

    fn df(src: &str) -> (DataFlow, ScopeTree) {
        let prog = parse(src).unwrap();
        let scopes = analyze_scopes(&prog);
        let df = build_dataflow(&scopes, &DataFlowOptions::default());
        (df, scopes)
    }

    #[test]
    fn def_flows_to_use() {
        let (d, _) = df("var x = 1; f(x);");
        assert_eq!(d.edges.len(), 1);
        assert!(d.complete);
    }

    #[test]
    fn multiple_uses_multiple_edges() {
        let (d, _) = df("var x = 1; f(x); g(x); h(x);");
        assert_eq!(d.edges.len(), 3);
    }

    #[test]
    fn reassignment_adds_defs() {
        let (d, _) = df("var x = 1; x = 2; f(x);");
        // Two defs × one use (flow-insensitive).
        assert_eq!(d.edges.len(), 2);
    }

    #[test]
    fn unused_variable_has_no_edges() {
        let (d, _) = df("var lonely = 1;");
        assert!(d.edges.is_empty());
    }

    #[test]
    fn globals_do_not_produce_edges() {
        let (d, _) = df("console.log(window);");
        assert!(d.edges.is_empty());
    }

    #[test]
    fn budget_marks_incomplete() {
        let prog = parse("var x = 1; f(x);").unwrap();
        let scopes = analyze_scopes(&prog);
        let d =
            build_dataflow(&scopes, &DataFlowOptions { max_refs: 0, max_pairs_per_binding: 10 });
        assert!(!d.complete);
        assert!(d.edges.is_empty());
    }

    #[test]
    fn pair_budget_truncates() {
        // 3 defs × 3 uses = 9 pairs; cap at 4.
        let src = "var x = 1; x = 2; x = 3; f(x); g(x); h(x);";
        let prog = parse(src).unwrap();
        let scopes = analyze_scopes(&prog);
        let d =
            build_dataflow(&scopes, &DataFlowOptions { max_refs: 1000, max_pairs_per_binding: 4 });
        assert!(!d.complete);
        assert_eq!(d.edges.len(), 4);
        assert_eq!(d.truncated_bindings.len(), 1);
    }

    #[test]
    fn exactly_at_cap_stays_complete() {
        // 1 def × 3 uses = 3 pairs, cap at exactly 3: nothing was dropped,
        // so the graph must still report complete (regression: the old
        // check ran after the push and flagged exact-cap bindings).
        let src = "var x = 1; f(x); g(x); h(x);";
        let prog = parse(src).unwrap();
        let scopes = analyze_scopes(&prog);
        let d =
            build_dataflow(&scopes, &DataFlowOptions { max_refs: 1000, max_pairs_per_binding: 3 });
        assert!(d.complete, "exact-cap binding must not be marked truncated");
        assert_eq!(d.edges.len(), 3);
        assert!(d.truncated_bindings.is_empty());
    }

    #[test]
    fn truncation_is_recorded_per_binding() {
        // `x` exceeds the cap; `y` fits under it.
        let src = "var x = 1; f(x); g(x); h(x); var y = 2; f(y);";
        let prog = parse(src).unwrap();
        let scopes = analyze_scopes(&prog);
        let d =
            build_dataflow(&scopes, &DataFlowOptions { max_refs: 1000, max_pairs_per_binding: 2 });
        assert!(!d.complete);
        assert_eq!(d.truncated_bindings.len(), 1);
        let b = d.truncated_bindings[0];
        assert_eq!(scopes.bindings()[b].name, "x");
    }

    use crate::scope::ScopeTree;
}
