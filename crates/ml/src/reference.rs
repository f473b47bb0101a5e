//! The legacy row-major learning path, preserved verbatim.
//!
//! This module is the equivalence oracle for the columnar rewrite in
//! the `tree` and `forest` modules and the "before" side of the
//! persisted bench trajectory (`BENCH_ml.json`): it grows trees over
//! `&[Vec<f32>]` with per-node value sorts, clones every feature row when
//! bootstrapping, and stores enum-tagged nodes. Tests in
//! `tests/equivalence.rs` pin the new path's predictions to this one
//! bit-for-bit for a fixed seed.

use crate::forest::ForestParams;
use crate::tree::{MaxFeatures, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Node {
    Leaf { prob: f32 },
    Split { feature: usize, threshold: f32, left: usize, right: usize },
}

/// The pre-rewrite row-major CART tree (enum-tagged node soup, per-node
/// candidate sorts). Kept only for equivalence testing and benchmarking.
#[derive(Debug, Clone)]
pub struct RowMajorTree {
    nodes: Vec<Node>,
}

impl RowMajorTree {
    /// Fits a tree exactly as the legacy implementation did.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f32>], y: &[bool], params: &TreeParams, rng: &mut StdRng) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let n_features = x[0].len();
        let mut builder = Builder { x, y, params, rng, n_features };
        let mut nodes = Vec::new();
        let idx: Vec<u32> = (0..x.len() as u32).collect();
        builder.grow(&mut nodes, idx, 0);
        RowMajorTree { nodes }
    }

    /// Probability that `row` belongs to the positive class.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { prob } => return *prob,
                Node::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

struct Builder<'a> {
    x: &'a [Vec<f32>],
    y: &'a [bool],
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    n_features: usize,
}

impl Builder<'_> {
    fn grow(&mut self, nodes: &mut Vec<Node>, idx: Vec<u32>, depth: usize) -> usize {
        let n = idx.len();
        let positives = idx.iter().filter(|&&i| self.y[i as usize]).count();
        let prob = positives as f32 / n as f32;

        let perfect = positives == 0 || positives == n;
        if perfect || depth >= self.params.max_depth || n < self.params.min_samples_split {
            nodes.push(Node::Leaf { prob });
            return nodes.len() - 1;
        }

        match self.best_split(&idx) {
            Some((feature, threshold)) => {
                let (left_idx, right_idx): (Vec<u32>, Vec<u32>) =
                    idx.iter().partition(|&&i| self.x[i as usize][feature] <= threshold);
                if left_idx.len() < self.params.min_samples_leaf
                    || right_idx.len() < self.params.min_samples_leaf
                {
                    nodes.push(Node::Leaf { prob });
                    return nodes.len() - 1;
                }
                let me = nodes.len();
                nodes.push(Node::Leaf { prob }); // placeholder
                let left = self.grow(nodes, left_idx, depth + 1);
                let right = self.grow(nodes, right_idx, depth + 1);
                nodes[me] = Node::Split { feature, threshold, left, right };
                me
            }
            None => {
                nodes.push(Node::Leaf { prob });
                nodes.len() - 1
            }
        }
    }

    fn best_split(&mut self, idx: &[u32]) -> Option<(usize, f32)> {
        let k = resolve_max_features(self.params.max_features, self.n_features);
        let mut features: Vec<usize> = (0..self.n_features).collect();
        features.shuffle(self.rng);
        features.truncate(k);

        let n = idx.len() as f64;
        let total_pos = idx.iter().filter(|&&i| self.y[i as usize]).count() as f64;

        let mut best: Option<(usize, f32, f64)> = None;
        for &feature in &features {
            let mut vals: Vec<(f32, bool)> =
                idx.iter().map(|&i| (self.x[i as usize][feature], self.y[i as usize])).collect();
            vals.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

            let mut left_n = 0f64;
            let mut left_pos = 0f64;
            for w in 0..vals.len() - 1 {
                left_n += 1.0;
                if vals[w].1 {
                    left_pos += 1.0;
                }
                if vals[w].0 == vals[w + 1].0 {
                    continue;
                }
                let right_n = n - left_n;
                let right_pos = total_pos - left_pos;
                let gini_left = gini(left_pos, left_n);
                let gini_right = gini(right_pos, right_n);
                let weighted = (left_n * gini_left + right_n * gini_right) / n;
                if best.is_none_or(|(_, _, b)| weighted < b) {
                    best = Some((feature, midpoint(vals[w].0, vals[w + 1].0), weighted));
                }
            }
        }
        let parent_gini = gini(total_pos, n);
        match best {
            Some((f, t, g)) if g <= parent_gini + 1e-12 => Some((f, t)),
            _ => None,
        }
    }
}

fn gini(pos: f64, n: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

fn midpoint(a: f32, b: f32) -> f32 {
    let m = a + (b - a) / 2.0;
    if m >= b {
        a
    } else {
        m
    }
}

/// The legacy `MaxFeatures::resolve` (identical formula; duplicated here
/// so the reference path stays self-contained).
fn resolve_max_features(mf: MaxFeatures, n_features: usize) -> usize {
    match mf {
        MaxFeatures::All => n_features,
        MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
        MaxFeatures::Fixed(k) => k.min(n_features),
    }
    .max(1)
}

/// The pre-rewrite row-major forest: clones every sampled feature row per
/// tree. Per-tree seeds come from the caller so both the legacy
/// `(seed + i) * γ` stream and the fixed hash-mixed stream can be driven.
#[derive(Debug, Clone)]
pub struct RowMajorForest {
    trees: Vec<RowMajorTree>,
}

impl RowMajorForest {
    /// Fits with the *current* (hash-mixed) per-tree seeding so equivalence
    /// tests isolate the data-path change.
    pub fn fit(x: &[Vec<f32>], y: &[bool], params: &ForestParams) -> Self {
        Self::fit_with_seeds(x, y, params, &|i| params.tree_seed(i))
    }

    /// Fits with caller-supplied per-tree seeds (parallel, chunked across
    /// threads exactly like the legacy implementation).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub fn fit_with_seeds(
        x: &[Vec<f32>],
        y: &[bool],
        params: &ForestParams,
        seed_of: &(dyn Fn(usize) -> u64 + Sync),
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a forest on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let n_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        let mut trees: Vec<Option<RowMajorTree>> = vec![None; params.n_trees];
        let chunk = params.n_trees.div_ceil(n_threads.max(1)).max(1);
        std::thread::scope(|scope| {
            for (t, slot_chunk) in trees.chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                scope.spawn(move || {
                    for (off, slot) in slot_chunk.iter_mut().enumerate() {
                        let i = base + off;
                        let mut rng = StdRng::seed_from_u64(seed_of(i));
                        let tree = if params.bootstrap {
                            let (bx, by) = bootstrap_sample(x, y, &mut rng);
                            RowMajorTree::fit(&bx, &by, &params.tree, &mut rng)
                        } else {
                            RowMajorTree::fit(x, y, &params.tree, &mut rng)
                        };
                        *slot = Some(tree);
                    }
                });
            }
        });
        RowMajorForest { trees: trees.into_iter().map(Option::unwrap).collect() }
    }

    /// Mean positive-class probability across trees.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let sum: f32 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f32
    }
}

fn bootstrap_sample(x: &[Vec<f32>], y: &[bool], rng: &mut StdRng) -> (Vec<Vec<f32>>, Vec<bool>) {
    let n = x.len();
    let mut bx = Vec::with_capacity(n);
    let mut by = Vec::with_capacity(n);
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        bx.push(x[i].clone());
        by.push(y[i]);
    }
    (bx, by)
}
