//! CART decision trees with Gini impurity (binary classification).
//!
//! Trees grow over a columnar [`Dataset`] plus a `&[u32]` row-index set
//! (bootstrap resampling is index resampling — no feature row is ever
//! cloned). Exact split search sweeps each sampled column in value order,
//! read through a per-column distinct-value rank table ([`ValueRanks`])
//! built once per fit and shared by every tree of a forest. A column whose
//! cardinality is small relative to the node is counting-sorted by rank;
//! any other is sorted as packed `(rank, label)` integers. Both sweeps are
//! bit-identical to the row-major reference in [`crate::reference`].
//! Fitted trees are stored in a flattened struct-of-arrays node layout
//! traversed without pointer chasing.

use crate::dataset::{Dataset, DatasetError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// How many features to consider per split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MaxFeatures {
    /// All features.
    All,
    /// `sqrt(n_features)` (the random-forest default).
    Sqrt,
    /// A fixed number.
    Fixed(usize),
}

impl MaxFeatures {
    fn resolve(self, n_features: usize) -> usize {
        match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
            MaxFeatures::Fixed(k) => k.min(n_features),
        }
        .max(1)
    }
}

/// Tree-growing parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 16,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
        }
    }
}

/// Leaf sentinel in the flattened `feature` array.
const LEAF: u16 = u16::MAX;

/// Flattened struct-of-arrays node storage shared by trees and forests.
///
/// Nodes are laid out in pre-order: the left child of split `i` is always
/// `i + 1`, so only the right child needs storing. `feature[i]` is the
/// split feature (or [`LEAF`]), `threshold[i]` the split threshold — or,
/// for leaves, the positive-class probability held inline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct FlatNodes {
    pub(crate) feature: Vec<u16>,
    pub(crate) threshold: Vec<f32>,
    pub(crate) children: Vec<u32>,
}

impl FlatNodes {
    pub(crate) fn new() -> Self {
        FlatNodes { feature: Vec::new(), threshold: Vec::new(), children: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.feature.len()
    }

    fn push_leaf(&mut self, prob: f32) -> u32 {
        self.feature.push(LEAF);
        self.threshold.push(prob);
        self.children.push(0);
        (self.feature.len() - 1) as u32
    }

    fn set_split(&mut self, i: u32, feature: u16, threshold: f32, right: u32) {
        let i = i as usize;
        self.feature[i] = feature;
        self.threshold[i] = threshold;
        self.children[i] = right;
    }

    /// Appends another node block, returning the id offset its nodes got.
    pub(crate) fn append(&mut self, other: &FlatNodes) -> u32 {
        let offset = self.len() as u32;
        self.feature.extend_from_slice(&other.feature);
        self.threshold.extend_from_slice(&other.threshold);
        self.children.extend(other.children.iter().map(|&c| {
            if c == 0 {
                0 // leaf placeholder; never followed
            } else {
                c + offset
            }
        }));
        offset
    }

    /// Walks the tree rooted at `root` for one row-major sample.
    #[inline]
    pub(crate) fn predict_row(&self, root: u32, row: &[f32]) -> f32 {
        let mut i = root as usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.threshold[i];
            }
            i = if row[f as usize] <= self.threshold[i] {
                i + 1
            } else {
                self.children[i] as usize
            };
        }
    }

    pub(crate) fn accumulate_split_counts(&self, counts: &mut [u32]) {
        for &f in &self.feature {
            if f != LEAF {
                if let Some(c) = counts.get_mut(f as usize) {
                    *c += 1;
                }
            }
        }
    }

    pub(crate) fn depth_from(&self, i: u32) -> usize {
        let i = i as usize;
        if self.feature[i] == LEAF {
            0
        } else {
            1 + self.depth_from(i as u32 + 1).max(self.depth_from(self.children[i]))
        }
    }

    /// Checks child and feature ids after deserialization against the
    /// model's input width; returns the first violation as a message.
    ///
    /// In the pre-order layout a split's right child follows its whole
    /// left subtree, so it is at least `i + 2`. Requiring that makes every
    /// walk move strictly forward through the arrays: a corrupt child id
    /// cannot form a cycle that `predict_row` or `depth_from` would follow
    /// forever.
    pub(crate) fn check_invariants(&self, width: usize) -> Result<(), String> {
        let n = self.len();
        if self.threshold.len() != n || self.children.len() != n {
            return Err(format!(
                "flat node arrays disagree: {} features, {} thresholds, {} children",
                n,
                self.threshold.len(),
                self.children.len()
            ));
        }
        for i in 0..n {
            if self.feature[i] == LEAF {
                continue;
            }
            if (self.feature[i] as usize) >= width {
                return Err(format!(
                    "node {} splits on feature {}, beyond the input width {}",
                    i, self.feature[i], width
                ));
            }
            let right = self.children[i] as usize;
            if right < i + 2 || right >= n {
                return Err(format!("node {} has out-of-range right child {}", i, right));
            }
        }
        Ok(())
    }
}

/// A fitted binary decision tree; [`DecisionTree::predict_proba`] returns
/// the positive-class probability.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    pub(crate) nodes: FlatNodes,
}

impl DecisionTree {
    /// Fits a tree on row-major samples (convenience wrapper that builds a
    /// columnar [`Dataset`] once and delegates to
    /// [`DecisionTree::fit_dataset`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, ragged, or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f32>], y: &[bool], params: &TreeParams, rng: &mut StdRng) -> Self {
        let data = match Dataset::from_rows(x) {
            Ok(d) => d,
            Err(DatasetError::Empty) => panic!("cannot fit a tree on an empty dataset"),
            Err(e) => panic!("invalid training matrix: {}", e),
        };
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let idx: Vec<u32> = (0..x.len() as u32).collect();
        Self::fit_dataset(&data, &idx, y, params, rng)
    }

    /// Fits a tree over the row multiset `idx` of a columnar dataset.
    /// `y[r]` labels dataset row `r`; `idx` may repeat rows (bootstrap).
    /// `rng` drives the per-split feature subsampling.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty, `y.len() != data.n_rows()`, the feature
    /// count exceeds `u16::MAX - 1`, or the row count reaches 2³¹.
    pub fn fit_dataset(
        data: &Dataset,
        idx: &[u32],
        y: &[bool],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        Self::fit_dataset_with_ranks(data, idx, y, params, rng, &ValueRanks::build(data))
    }

    /// [`DecisionTree::fit_dataset`] over rank tables built from `data`;
    /// forests build them once and pass them to every tree.
    pub(crate) fn fit_dataset_with_ranks(
        data: &Dataset,
        idx: &[u32],
        y: &[bool],
        params: &TreeParams,
        rng: &mut StdRng,
        ranks: &ValueRanks,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot fit a tree on an empty dataset");
        assert_eq!(y.len(), data.n_rows(), "feature/label length mismatch");
        assert!(data.n_cols() < LEAF as usize, "feature count exceeds the u16 node layout");
        let n = idx.len();
        let n_features = data.n_cols();
        let mut grower = Grower {
            data,
            y,
            params,
            rng,
            n_features,
            idx: idx.to_vec(),
            scratch: Vec::with_capacity(n),
            feat_buf: Vec::with_capacity(n_features),
            ranks,
            hist: vec![0; ranks.max_distinct],
            pos_hist: vec![0; ranks.max_distinct],
            rank_buf: Vec::with_capacity(n),
            regime_cols: [0; 2],
        };
        let mut nodes = FlatNodes::new();
        grower.grow(&mut nodes, 0, n, 0);
        for (name, &c) in REGIME_COUNTERS.iter().zip(&grower.regime_cols) {
            jsdetect_obs::counter_add(name, c);
        }
        DecisionTree { nodes }
    }

    /// Probability that `row` belongs to the positive class.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        self.nodes.predict_row(0, row)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulates the number of split nodes per feature into `counts`
    /// (features beyond `counts.len()` are ignored).
    pub fn accumulate_split_counts(&self, counts: &mut [u32]) {
        self.nodes.accumulate_split_counts(counts);
    }

    /// Maximum depth of the fitted tree.
    pub fn depth(&self) -> usize {
        if self.nodes.len() == 0 {
            0
        } else {
            self.nodes.depth_from(0)
        }
    }

    pub(crate) fn nodes(&self) -> &FlatNodes {
        &self.nodes
    }

    /// Validates a deserialized tree whose inputs are `width` wide.
    pub(crate) fn check_invariants(&self, width: usize) -> Result<(), String> {
        if self.nodes.len() == 0 {
            return Err("tree has no nodes".to_string());
        }
        self.nodes.check_invariants(width)
    }
}

/// Monotonic total-order key for an f32 (sign-flip trick): `a <= b` for
/// non-NaN floats iff `sort_key(a) <= sort_key(b)`, with `-0.0` ordered
/// just below `+0.0` (harmless: [`ValueRanks::build`] assigns ranks by f32
/// `==`, which treats them as the tie they are).
#[inline]
fn sort_key(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Per-column distinct-value tables: for every column, its sorted distinct
/// values and each row's rank among them. Independent of any bootstrap
/// index set, so a forest builds this once and shares it read-only across
/// all trees and threads. A node derives a column's value-ordered view
/// from the ranks: by counting (O(rows + distinct)) when the column's
/// cardinality is small relative to the node, else by sorting packed
/// `(rank << 1) | label` integers.
pub(crate) struct ValueRanks {
    /// `ranks[f * n_rows + r]`: rank of row `r`'s value in column `f`.
    ranks: Vec<u32>,
    /// Flattened per-column sorted distinct values.
    values: Vec<f32>,
    /// Column `f`'s distinct values live at `offsets[f]..offsets[f + 1]`.
    offsets: Vec<u32>,
    /// Largest per-column distinct count (sizes the counting buffers).
    max_distinct: usize,
}

impl ValueRanks {
    /// Builds the tables.
    ///
    /// # Panics
    ///
    /// Panics if `data` has 2³¹ rows or more (a rank must leave room for
    /// the label bit of the packed sort keys).
    pub(crate) fn build(data: &Dataset) -> ValueRanks {
        let n = data.n_rows();
        assert!(n <= (u32::MAX >> 1) as usize, "row count exceeds the u32 rank layout");
        let d = data.n_cols();
        let mut ranks = vec![0u32; d * n];
        let mut values = Vec::new();
        let mut offsets = Vec::with_capacity(d + 1);
        offsets.push(0u32);
        let mut max_distinct = 0usize;
        let mut keyed: Vec<u64> = Vec::with_capacity(n);
        for f in 0..d {
            let col = data.column(f);
            keyed.clear();
            keyed.extend(
                col.iter().enumerate().map(|(r, &v)| ((sort_key(v) as u64) << 32) | r as u64),
            );
            keyed.sort_unstable();
            // Assign ranks by f32 equality (merging -0.0 with +0.0, whose
            // sort keys differ) so equal values never form a boundary.
            let mut prev: Option<f32> = None;
            for &e in &keyed {
                let v = decode_key((e >> 32) as u32);
                if prev != Some(v) {
                    values.push(v);
                    prev = Some(v);
                }
                ranks[f * n + e as u32 as usize] = (values.len() - 1 - offsets[f] as usize) as u32;
            }
            max_distinct = max_distinct.max(values.len() - offsets[f] as usize);
            offsets.push(values.len() as u32);
        }
        ValueRanks { ranks, values, offsets, max_distinct }
    }

    /// Column `f`'s `(sorted distinct values, per-row ranks)`.
    fn column(&self, f: usize, n_rows: usize) -> (&[f32], &[u32]) {
        let vals = &self.values[self.offsets[f] as usize..self.offsets[f + 1] as usize];
        (vals, &self.ranks[f * n_rows..(f + 1) * n_rows])
    }
}

/// Inverse of [`sort_key`]: recovers the exact f32 a key was built from.
#[inline]
fn decode_key(k: u32) -> f32 {
    if k & 0x8000_0000 != 0 {
        f32::from_bits(k ^ 0x8000_0000)
    } else {
        f32::from_bits(!k)
    }
}

/// Sweeps sorted packed `(rank << 1) | label` entries; ranks merge equal
/// values, so the integer rank comparison is exactly the `v != v_next`
/// boundary predicate, and values are only looked up at boundaries.
fn sweep_ranked(
    seg: &[u32],
    vals: &[f32],
    f: u16,
    n: f64,
    total_pos: f64,
    best: &mut Option<(u16, f32, f64)>,
) {
    let mut left_n = 0f64;
    let mut left_pos = 0f64;
    for w in 0..seg.len() - 1 {
        let e = seg[w];
        left_n += 1.0;
        left_pos += (e & 1) as f64;
        let rk = e >> 1;
        let rk_next = seg[w + 1] >> 1;
        if rk == rk_next {
            continue;
        }
        let right_n = n - left_n;
        let right_pos = total_pos - left_pos;
        let weighted = (left_n * gini(left_pos, left_n) + right_n * gini(right_pos, right_n)) / n;
        if best.is_none_or(|(_, _, b)| weighted < b) {
            *best = Some((f, midpoint(vals[rk as usize], vals[rk_next as usize]), weighted));
        }
    }
}

/// Sweeps a column's per-rank `(count, positives)` histogram in ascending
/// value order. A boundary is evaluated between consecutive *occupied*
/// ranks, with the left sums covering everything at or below the lower
/// value — exactly the states the sorted-multiset sweep evaluates, with
/// the same integer-valued f64 sums.
fn sweep_hist(
    vals: &[f32],
    hist: &[u32],
    pos_hist: &[u32],
    f: u16,
    n: f64,
    total_pos: f64,
    best: &mut Option<(u16, f32, f64)>,
) {
    let mut left_n = 0f64;
    let mut left_pos = 0f64;
    let mut prev: Option<f32> = None;
    for rk in 0..vals.len() {
        let c = hist[rk];
        if c == 0 {
            continue;
        }
        let v = vals[rk];
        if let Some(pv) = prev {
            let right_n = n - left_n;
            let right_pos = total_pos - left_pos;
            let weighted =
                (left_n * gini(left_pos, left_n) + right_n * gini(right_pos, right_n)) / n;
            if best.is_none_or(|(_, _, b)| weighted < b) {
                *best = Some((f, midpoint(pv, v), weighted));
            }
        }
        left_n += c as f64;
        left_pos += pos_hist[rk] as f64;
        prev = Some(v);
    }
}

struct Grower<'a> {
    data: &'a Dataset,
    y: &'a [bool],
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    n_features: usize,
    /// The row multiset, partitioned in place down the recursion.
    idx: Vec<u32>,
    scratch: Vec<u32>,
    feat_buf: Vec<u16>,
    /// Per-column distinct-value tables of `data`.
    ranks: &'a ValueRanks,
    /// Counting buffers (sized `max_distinct`): per-rank row count and
    /// positive-label count for the current node.
    hist: Vec<u32>,
    pos_hist: Vec<u32>,
    /// Reusable packed `(rank << 1) | label` sort buffer for
    /// high-cardinality columns.
    rank_buf: Vec<u32>,
    /// Column-sweep counts per split regime, indexed like
    /// [`REGIME_COUNTERS`]; accumulated locally (the hot loop never takes
    /// the telemetry lock) and flushed once per tree.
    regime_cols: [u64; 2],
}

/// Telemetry counter names for the two split regimes, index-aligned with
/// `Grower::regime_cols`: counting sort over value ranks, packed-rank sort.
const REGIME_COUNTERS: [&str; 2] =
    [jsdetect_obs::names::CTR_SPLIT_COUNTING_COLS, jsdetect_obs::names::CTR_SPLIT_RANKED_COLS];

impl Grower<'_> {
    /// Grows the subtree over `idx[lo..hi]`; returns the node id.
    fn grow(&mut self, nodes: &mut FlatNodes, lo: usize, hi: usize, depth: usize) -> u32 {
        let n_node = hi - lo;
        let positives = self.idx[lo..hi].iter().filter(|&&r| self.y[r as usize]).count();
        let prob = positives as f32 / n_node as f32;

        let perfect = positives == 0 || positives == n_node;
        if perfect || depth >= self.params.max_depth || n_node < self.params.min_samples_split {
            return nodes.push_leaf(prob);
        }

        match self.best_split(lo, hi, positives as f64) {
            Some((feature, threshold)) => {
                let left_n = self.partition(lo, hi, feature, threshold);
                if left_n < self.params.min_samples_leaf
                    || n_node - left_n < self.params.min_samples_leaf
                    || left_n == 0
                    || left_n == n_node
                {
                    return nodes.push_leaf(prob);
                }
                let me = nodes.push_leaf(prob); // placeholder
                let left = self.grow(nodes, lo, lo + left_n, depth + 1);
                debug_assert_eq!(left, me + 1, "pre-order layout violated");
                let right = self.grow(nodes, lo + left_n, hi, depth + 1);
                nodes.set_split(me, feature, threshold, right);
                me
            }
            None => nodes.push_leaf(prob),
        }
    }

    /// Draws the per-split feature subset (same RNG consumption as the
    /// legacy row-major path: one full shuffle, then truncate).
    fn sample_features(&mut self) {
        let k = self.params.max_features.resolve(self.n_features);
        self.feat_buf.clear();
        self.feat_buf.extend(0..self.n_features as u16);
        self.feat_buf.shuffle(self.rng);
        self.feat_buf.truncate(k);
    }

    /// Finds the Gini-optimal split over a random feature subset by
    /// sweeping each sampled column in value order. A column whose
    /// cardinality is at most twice the node size is counting-sorted by
    /// rank (O(m + distinct) beats O(m log m)); any other is sorted as
    /// packed `(rank << 1) | label` u32s. The per-rank sums are
    /// integer-valued f64 accumulations, so both sweeps evaluate the same
    /// boundaries with the same sums as sweeping the sorted multiset, and
    /// neither consumes RNG state.
    fn best_split(&mut self, lo: usize, hi: usize, total_pos: f64) -> Option<(u16, f32)> {
        self.sample_features();
        let n_rows = self.data.n_rows();
        let n_node = hi - lo;
        let n = n_node as f64;

        let mut best: Option<(u16, f32, f64)> = None;
        for &f in &self.feat_buf {
            let (vals, rks) = self.ranks.column(f as usize, n_rows);
            if vals.len() <= 2 * n_node {
                self.regime_cols[0] += 1;
                let vc = vals.len();
                self.hist[..vc].fill(0);
                self.pos_hist[..vc].fill(0);
                for &r in &self.idx[lo..hi] {
                    let r = r as usize;
                    let rk = rks[r] as usize;
                    self.hist[rk] += 1;
                    self.pos_hist[rk] += self.y[r] as u32;
                }
                sweep_hist(
                    vals,
                    &self.hist[..vc],
                    &self.pos_hist[..vc],
                    f,
                    n,
                    total_pos,
                    &mut best,
                );
            } else {
                self.regime_cols[1] += 1;
                self.rank_buf.clear();
                self.rank_buf.extend(
                    self.idx[lo..hi]
                        .iter()
                        .map(|&r| (rks[r as usize] << 1) | self.y[r as usize] as u32),
                );
                self.rank_buf.sort_unstable();
                sweep_ranked(&self.rank_buf, vals, f, n, total_pos, &mut best);
            }
        }
        // Split whenever weighted child impurity does not exceed the
        // parent's (zero-improvement splits are allowed, as in sklearn —
        // they are what lets greedy CART stack splits to solve XOR).
        let parent_gini = gini(total_pos, n);
        match best {
            Some((f, t, g)) if g <= parent_gini + 1e-12 => Some((f, t)),
            _ => None,
        }
    }

    /// Routes the node's rows by the chosen split, stably partitioning
    /// `idx[lo..hi]` in place (left = `value <= threshold`). Returns the
    /// left-side size.
    fn partition(&mut self, lo: usize, hi: usize, feature: u16, threshold: f32) -> usize {
        let col = self.data.column(feature as usize);
        let seg = &mut self.idx[lo..hi];
        self.scratch.clear();
        let mut w = 0;
        for j in 0..seg.len() {
            let r = seg[j];
            if col[r as usize] <= threshold {
                seg[w] = r;
                w += 1;
            } else {
                self.scratch.push(r);
            }
        }
        seg[w..].copy_from_slice(&self.scratch);
        w
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
    // Guard against midpoint rounding to b (then `<=` would misroute).
    if m >= b {
        a
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    fn fit(x: &[Vec<f32>], y: &[bool]) -> DecisionTree {
        DecisionTree::fit(
            x,
            y,
            &TreeParams { max_features: MaxFeatures::All, ..Default::default() },
            &mut rng(),
        )
    }

    #[test]
    fn separable_1d() {
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let tree = fit(&x, &y);
        assert!(tree.predict_proba(&[2.0]) < 0.5);
        assert!(tree.predict_proba(&[17.0]) > 0.5);
    }

    #[test]
    fn xor_needs_depth() {
        let x = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let y = vec![false, true, true, false];
        let tree = DecisionTree::fit(
            &x,
            &y,
            &TreeParams {
                max_features: MaxFeatures::All,
                min_samples_split: 2,
                ..Default::default()
            },
            &mut rng(),
        );
        for (xi, yi) in x.iter().zip(&y) {
            let p = tree.predict_proba(xi);
            assert_eq!(p > 0.5, *yi, "row {:?} p={}", xi, p);
        }
    }

    #[test]
    fn pure_labels_single_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![true, true, true];
        let tree = fit(&x, &y);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba(&[9.0]), 1.0);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let tree = DecisionTree::fit(
            &x,
            &y,
            &TreeParams { max_depth: 3, max_features: MaxFeatures::All, ..Default::default() },
            &mut rng(),
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0], vec![5.0]];
        let y = vec![true, false, true, false];
        let tree = fit(&x, &y);
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_proba(&[5.0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let x: Vec<Vec<f32>> = (0..50).map(|i| vec![(i % 7) as f32, (i % 3) as f32]).collect();
        let y: Vec<bool> = (0..50).map(|i| i % 7 > 3).collect();
        let params = TreeParams::default();
        let a = DecisionTree::fit(&x, &y, &params, &mut rng());
        let b = DecisionTree::fit(&x, &y, &params, &mut rng());
        assert_eq!(a.predict_proba(&[4.0, 1.0]), b.predict_proba(&[4.0, 1.0]));
    }

    #[test]
    fn serde_roundtrip() {
        let x: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<bool> = (0..20).map(|i| i >= 10).collect();
        let tree = fit(&x, &y);
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict_proba(&[3.0]), tree.predict_proba(&[3.0]));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = fit(&[], &[]);
    }

    #[test]
    fn bootstrap_index_multiset_weights_duplicates() {
        // Row 1 repeated three times dominates the leaf probability.
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![false, true];
        let data = Dataset::from_rows(&x).unwrap();
        let params =
            TreeParams { max_features: MaxFeatures::All, max_depth: 0, ..Default::default() };
        let tree = DecisionTree::fit_dataset(&data, &[0, 1, 1, 1], &y, &params, &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_proba(&[0.5]) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn sort_key_is_monotonic() {
        let vals = [-f32::INFINITY, -3.5, -0.0, 0.0, 1e-9, 2.0, f32::INFINITY];
        for w in vals.windows(2) {
            assert!(sort_key(w[0]) <= sort_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert!(sort_key(-0.0) < sort_key(0.0));
    }
}
