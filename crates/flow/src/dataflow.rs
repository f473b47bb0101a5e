//! Data-flow edges between `Identifier` nodes.
//!
//! Per the paper (§III-A): "there is a data flow between two `Identifier`
//! nodes if and only if a variable is defined at the source node and used
//! at the destination node." We build flow-insensitive def→use edges from
//! the scope analysis: every write/declaration of a binding flows to every
//! read of the same binding.
//!
//! The features read the data-flow layer only through counts (§III-B),
//! so the pairs are counted, not stored.
//!
//! The paper aborts data-flow generation after a two-minute timeout and
//! falls back to the control-flow-only graph; we mirror that with a
//! reference budget ([`MAX_REFS`]) so behaviour is deterministic, and cap
//! the quadratic def×use pairing of each binding at
//! [`MAX_PAIRS_PER_BINDING`].

use crate::scope::{RefKind, ScopeTree};

/// References processed before giving up (the deterministic stand-in for
/// the paper's two-minute timeout).
const MAX_REFS: usize = 200_000;
/// Def→use pairs counted per binding.
const MAX_PAIRS_PER_BINDING: usize = 4_096;

/// The data-flow layer of the program graph.
#[derive(Debug, Clone, Default)]
pub struct DataFlow {
    /// Number of def→use pairs between `Identifier` occurrences.
    pub pairs: usize,
    /// `false` if construction hit a budget and the count is partial
    /// (the paper's timeout fallback).
    pub complete: bool,
    /// Bindings whose def×use pairing was cut off at
    /// `MAX_PAIRS_PER_BINDING` (4 096). Zero when `complete` is only false
    /// because the script has more than `MAX_REFS` (200 000) references.
    pub truncated_bindings: usize,
}

/// Counts def→use pairs from a scope analysis.
pub fn build_dataflow(scopes: &ScopeTree) -> DataFlow {
    let mut df = DataFlow { pairs: 0, complete: true, truncated_bindings: 0 };
    if scopes.references().len() > MAX_REFS {
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
                // Check *before* counting: a binding whose pair count lands
                // exactly on the cap lost nothing and stays complete.
                if pairs == MAX_PAIRS_PER_BINDING {
                    df.complete = false;
                    df.truncated_bindings += 1;
                    break 'outer;
                }
                pairs += 1;
            }
        }
        df.pairs += pairs;
    }
    df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::analyze_scopes;
    use jsdetect_parser::parse;

    fn df(src: &str) -> DataFlow {
        build_dataflow(&analyze_scopes(&parse(src).unwrap()))
    }

    /// `defs` writes and `uses` reads of one binding `x`.
    fn binding(defs: usize, uses: usize) -> String {
        "var x = 0;".to_string() + &"x = 0;".repeat(defs - 1) + &"f(x);".repeat(uses)
    }

    #[test]
    fn def_flows_to_use() {
        let d = df("var x = 1; f(x);");
        assert_eq!(d.pairs, 1);
        assert!(d.complete);
    }

    #[test]
    fn multiple_uses_multiple_pairs() {
        assert_eq!(df("var x = 1; f(x); g(x); h(x);").pairs, 3);
    }

    #[test]
    fn reassignment_adds_defs() {
        // Two defs × one use (flow-insensitive).
        assert_eq!(df("var x = 1; x = 2; f(x);").pairs, 2);
    }

    #[test]
    fn read_write_site_does_not_flow_to_itself() {
        // Defs {decl, x++}, uses {x++, f(x)}: 2 × 2 minus the self pair.
        assert_eq!(df("var x = 1; x++; f(x);").pairs, 3);
    }

    #[test]
    fn unused_variable_has_no_pairs() {
        assert_eq!(df("var lonely = 1;").pairs, 0);
    }

    #[test]
    fn globals_do_not_produce_pairs() {
        assert_eq!(df("console.log(window);").pairs, 0);
    }

    #[test]
    fn reference_budget_marks_incomplete() {
        // One def→use pair plus `n` references to an undeclared global.
        let src = |n: usize| "var x = 1; f(x);".to_string() + &"g;".repeat(n);
        let base = analyze_scopes(&parse(&src(0)).unwrap()).references().len();

        let at_cap = df(&src(MAX_REFS - base));
        assert!(at_cap.complete);
        assert_eq!(at_cap.pairs, 1);

        let over = df(&src(MAX_REFS - base + 1));
        assert!(!over.complete);
        assert_eq!(over.pairs, 0);
        assert_eq!(over.truncated_bindings, 0, "a reference cut truncates no binding");
    }

    #[test]
    fn pair_budget_truncates() {
        // 65 defs × 64 uses = 4 160 pairs, cut at 4 096.
        let d = df(&binding(65, 64));
        assert!(!d.complete);
        assert_eq!(d.pairs, MAX_PAIRS_PER_BINDING);
        assert_eq!(d.truncated_bindings, 1);
    }

    #[test]
    fn exactly_at_cap_stays_complete() {
        // 64 defs × 64 uses = 4 096 pairs, exactly the cap: nothing was
        // dropped, so the graph must still report complete (regression:
        // the old check ran after the push and flagged exact-cap bindings).
        let d = df(&binding(64, 64));
        assert!(d.complete, "exact-cap binding must not be marked truncated");
        assert_eq!(d.pairs, MAX_PAIRS_PER_BINDING);
        assert_eq!(d.truncated_bindings, 0);
    }

    #[test]
    fn truncation_is_counted_per_binding() {
        // `x` exceeds the cap; `y` fits under it and keeps its pair.
        let d = df(&(binding(65, 64) + "var y = 2; f(y);"));
        assert!(!d.complete);
        assert_eq!(d.truncated_bindings, 1);
        assert_eq!(d.pairs, MAX_PAIRS_PER_BINDING + 1);
    }
}
