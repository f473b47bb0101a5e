//! Tree-shape metrics: node count, depth and breadth.
//!
//! The paper's generic features include the AST depth and breadth divided
//! by the script's number of lines (§III-B). The feature extractor reads
//! them, with everything else it needs, from its own single walk
//! (`jsdetect_features::TreeStats`); [`tree_shape`] serves the other
//! crates and pins that walk's shape in tests.

use crate::nodes::Program;
use crate::visit::walk;

/// Summary of the tree shape of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Total number of AST nodes (including the `Program` root).
    pub node_count: usize,
    /// Maximum node depth (root = 0).
    pub max_depth: usize,
    /// Maximum number of nodes sharing one depth level ("breadth").
    pub max_breadth: usize,
}

/// Computes [`TreeShape`] in a single traversal.
pub fn tree_shape(program: &Program) -> TreeShape {
    let mut per_depth: Vec<usize> = Vec::new();
    let mut node_count = 0usize;
    let mut max_depth = 0usize;
    walk(program, &mut |_, d| {
        node_count += 1;
        max_depth = max_depth.max(d);
        if per_depth.len() <= d {
            per_depth.resize(d + 1, 0);
        }
        per_depth[d] += 1;
    });
    TreeShape { node_count, max_depth, max_breadth: per_depth.into_iter().max().unwrap_or(0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn shape_of_flat_program() {
        // Program > 3 ExpressionStatements > each a Literal.
        let p = program(vec![
            expr_stmt(num_lit(1.0)),
            expr_stmt(num_lit(2.0)),
            expr_stmt(num_lit(3.0)),
        ]);
        let s = tree_shape(&p);
        assert_eq!(s.node_count, 7);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.max_breadth, 3);
    }

    #[test]
    fn shape_of_nested_program() {
        let p = program(vec![if_stmt(
            bool_lit(true),
            block(vec![if_stmt(bool_lit(false), block(vec![]), None)]),
            None,
        )]);
        let s = tree_shape(&p);
        // Program(0) If(1) Lit(2)/Block(2) If(3) Lit(4)/Block(4)
        assert_eq!(s.max_depth, 4);
    }
}
