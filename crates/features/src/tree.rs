//! Every tree quantity the features read, gathered in one walk.
//!
//! The paper builds both feature families from one AST (§III-B): the
//! hand-picked features from node counts, depth, breadth and node
//! contents, the 4-grams from the pre-order stream of node kinds.
//! [`TreeStats::of`] fills all of them in a single [`walk`]. The front end
//! runs it once on each original tree (before the node budget is charged,
//! so a node bomb is rejected before flow) and once on each normalized
//! tree whose deltas it measures.

use crate::handpicked::Walked;
use crate::ngrams::{count_windows, Gram};
use jsdetect_ast::{walk, NodeKind, Program};

/// Tree statistics of one program.
#[derive(Debug)]
pub struct TreeStats {
    /// Total number of AST nodes (including the `Program` root).
    pub node_count: usize,
    /// Maximum node depth (root = 0).
    pub max_depth: usize,
    /// Maximum number of nodes sharing one depth level ("breadth").
    pub max_breadth: usize,
    /// Raw 4-gram counts of the pre-order kind stream, sorted by gram.
    pub grams: Vec<(Gram, u32)>,
    kinds: [u32; NodeKind::COUNT],
    pub(crate) hand: Walked,
}

impl TreeStats {
    /// Walks `program` once.
    pub fn of(program: &Program) -> TreeStats {
        let mut kinds = [0u32; NodeKind::COUNT];
        let mut hand = Walked::default();
        let mut per_depth: Vec<usize> = Vec::new();
        // Each node closes the 4-gram whose first three kinds are the
        // low 24 bits of `last3`; a gram packs big-endian into a `u32`.
        let (mut node_count, mut last3, mut windows) = (0usize, 0u32, Vec::new());
        walk(program, &mut |node, depth| {
            let id = node.kind().id();
            kinds[id as usize] += 1;
            if per_depth.len() <= depth {
                per_depth.resize(depth + 1, 0);
            }
            per_depth[depth] += 1;
            let window = last3 << 8 | id as u32;
            if node_count >= 3 {
                windows.push(window);
            }
            last3 = window & 0x00ff_ffff;
            node_count += 1;
            hand.visit(node);
        });
        TreeStats {
            node_count,
            max_depth: per_depth.len().saturating_sub(1),
            max_breadth: per_depth.into_iter().max().unwrap_or(0),
            grams: count_windows(windows),
            kinds,
            hand,
        }
    }

    /// Number of nodes of the given kind.
    pub fn kind(&self, kind: NodeKind) -> usize {
        self.kinds[kind.id() as usize] as usize
    }

    /// Sum of the counts of several kinds.
    pub(crate) fn kind_sum(&self, kinds: &[NodeKind]) -> usize {
        kinds.iter().map(|k| self.kind(*k)).sum()
    }

    /// Proportion of nodes of the given kind, in `[0, 1]`.
    pub(crate) fn proportion(&self, kind: NodeKind) -> f64 {
        self.kind(kind) as f64 / self.node_count.max(1) as f64
    }

    /// Mean per-string byte entropy of the string literals (0.0 when
    /// there are none), a hand-picked feature and the original side of
    /// the string-entropy delta.
    pub fn mean_string_entropy(&self) -> f32 {
        (self.hand.string_entropy_sum / self.hand.string_count.max(1) as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsdetect_ast::builder::*;
    use jsdetect_ast::metrics::tree_shape;
    use jsdetect_ast::{kind_stream, VarKind};
    use std::collections::HashMap;

    /// The separate walks `TreeStats` replaces: `tree_shape` and a
    /// `HashMap` count over the windows of `kind_stream`.
    fn assert_matches_separate_walks(label: &str, p: &Program) {
        let t = TreeStats::of(p);
        let shape = tree_shape(p);
        assert_eq!(
            (t.node_count, t.max_depth, t.max_breadth),
            (shape.node_count, shape.max_depth, shape.max_breadth),
            "{}",
            label
        );
        let stream = kind_stream(p);
        let mut counts: HashMap<Gram, u32> = HashMap::new();
        for w in stream.windows(4) {
            *counts.entry([w[0].id(), w[1].id(), w[2].id(), w[3].id()]).or_insert(0) += 1;
        }
        let mut want: Vec<(Gram, u32)> = counts.into_iter().collect();
        want.sort_unstable();
        assert_eq!(t.grams, want, "{}", label);
        for k in NodeKind::ALL {
            assert_eq!(t.kind(k), stream.iter().filter(|s| **s == k).count(), "{}", label);
        }
    }

    #[test]
    fn builder_programs_match_the_separate_walks() {
        let programs = [
            program(vec![]),
            program(vec![expr_stmt(num_lit(1.0))]),
            program(vec![
                expr_stmt(num_lit(1.0)),
                expr_stmt(num_lit(2.0)),
                expr_stmt(num_lit(3.0)),
            ]),
            program(vec![if_stmt(
                bool_lit(true),
                block(vec![if_stmt(bool_lit(false), block(vec![]), None)]),
                None,
            )]),
            program(vec![
                var_decl(VarKind::Var, "x", Some(num_lit(1.0))),
                expr_stmt(call(ident("f"), vec![ident("x"), str_lit("s")])),
            ]),
        ];
        for (i, p) in programs.iter().enumerate() {
            assert_matches_separate_walks(&format!("builder #{}", i), p);
        }
        let t = TreeStats::of(&programs[4]);
        assert_eq!(t.kind(NodeKind::VariableDeclaration), 1);
        assert_eq!(t.kind(NodeKind::Identifier), 3);
        assert_eq!(t.kind_sum(&[NodeKind::Literal, NodeKind::CallExpression]), 3);
        assert!((t.proportion(NodeKind::Literal) - 2.0 / t.node_count as f64).abs() < 1e-12);
    }

    #[test]
    fn corpus_scripts_match_the_separate_walks() {
        use jsdetect_transform::{apply, Technique};
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/corpus");
        let mut n = 0;
        for entry in std::fs::read_dir(dir).expect("examples/corpus present") {
            let path = entry.unwrap().path();
            let src = std::fs::read_to_string(&path).unwrap();
            let mut variants = vec![src.clone()];
            variants.extend(Technique::ALL.iter().filter_map(|t| apply(&src, &[*t], 5).ok()));
            for (i, v) in variants.iter().enumerate() {
                let p = jsdetect_parser::parse(v).unwrap();
                assert_matches_separate_walks(&format!("{} #{}", path.display(), i), &p);
                n += 1;
            }
        }
        assert!(n > 30, "only {} scripts", n);
    }

    #[test]
    fn mean_string_entropy_averages_over_string_literals() {
        let t = |src: &str| TreeStats::of(&jsdetect_parser::parse(src).unwrap());
        assert_eq!(t("f(1, x);").mean_string_entropy(), 0.0);
        assert_eq!(t("f('ab', 'aaaa', 2);").mean_string_entropy(), 0.5);
    }
}
