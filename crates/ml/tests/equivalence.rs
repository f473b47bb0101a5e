//! Equivalence suite for the columnar learner.
//!
//! The columnar path (`DecisionTree::fit_dataset`,
//! `RandomForest::fit_dataset`) finds splits through per-column value-rank
//! tables, counting-sorting low-cardinality columns and sorting packed
//! ranks for the rest. It must produce *bit-identical* predictions to the
//! legacy row-major implementation preserved in `jsdetect_ml::reference`
//! (same splits, same thresholds, same leaf probabilities) for any fixed
//! seed, at any row count. These tests pin that, plus the deliberate
//! per-tree seeding change, thread invariance, and serde stability.

use jsdetect_ml::reference::{RowMajorForest, RowMajorTree};
use jsdetect_ml::{
    Dataset, DatasetError, DecisionTree, ForestParams, MaxFeatures, RandomForest, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic synthetic data with heavy value ties (quantized levels)
/// to stress the tie-skipping sweep, plus a nonlinear label rule with
/// label noise.
fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d)
            .map(|j| {
                if j % 3 == 0 {
                    // Quantized: many exact duplicates per column.
                    rng.gen_range(0..8) as f32
                } else {
                    (rng.gen_range(0..10_000) as f32) / 2_500.0 - 2.0
                }
            })
            .collect();
        let noisy = rng.gen_range(0..20) == 0;
        let label = (row[0] > 3.0) ^ (row[1] * row[1] > 1.0) ^ noisy;
        x.push(row);
        y.push(label);
    }
    (x, y)
}

#[test]
fn tree_matches_row_major_reference_exactly() {
    let (x, y) = synthetic(400, 13, 7);
    for max_features in [MaxFeatures::All, MaxFeatures::Sqrt, MaxFeatures::Fixed(4)] {
        let params = TreeParams { max_features, ..Default::default() };
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let old = RowMajorTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(seed));
            let new = DecisionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(seed));
            assert_eq!(old.node_count(), new.node_count(), "structure differs (seed {})", seed);
            for row in &x {
                let po = old.predict_proba(row);
                let pn = new.predict_proba(row);
                assert!(
                    po == pn,
                    "prediction differs: old {} vs new {} (seed {}, {:?})",
                    po,
                    pn,
                    seed,
                    max_features
                );
            }
        }
    }
}

#[test]
fn tree_matches_reference_under_shallow_and_strict_params() {
    let (x, y) = synthetic(250, 9, 11);
    let params = TreeParams {
        max_depth: 4,
        min_samples_split: 10,
        min_samples_leaf: 5,
        max_features: MaxFeatures::Sqrt,
    };
    let old = RowMajorTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(3));
    let new = DecisionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(3));
    for row in &x {
        assert_eq!(old.predict_proba(row), new.predict_proba(row));
    }
}

#[test]
fn forest_matches_row_major_reference_exactly() {
    let (x, y) = synthetic(300, 10, 5);
    let params = ForestParams { n_trees: 12, seed: 99, ..Default::default() };
    // Both sides use the *current* hash-mixed per-tree seeding, so this
    // isolates the data-path rewrite (columnar + index bootstrap + flat
    // nodes) from the deliberate seeding change tested below.
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "forest prediction differs: old {} vs new {}", po, pn);
    }
}

/// Wide matrices with √d feature subsampling: nodes counting-sort the
/// quantized columns and sort packed ranks of the high-cardinality ones,
/// through a rank table built per fit (standalone trees) or shared across
/// trees (forests). Both must reproduce the row-major reference bit for
/// bit.
#[test]
fn wide_matrix_per_node_paths_match_reference_exactly() {
    let (x, y) = synthetic(220, 120, 41);
    let tree_params = TreeParams::default();
    for seed in [0u64, 8, 1234] {
        let old = RowMajorTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        let new = DecisionTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        assert_eq!(old.node_count(), new.node_count(), "tree structure differs (seed {})", seed);
        for row in &x {
            assert_eq!(old.predict_proba(row), new.predict_proba(row), "seed {}", seed);
        }
    }
    let params = ForestParams { n_trees: 6, seed: 77, ..Default::default() };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "wide forest prediction differs: old {} vs new {}", po, pn);
    }
}

#[test]
fn forest_without_bootstrap_matches_reference() {
    let (x, y) = synthetic(200, 8, 17);
    let params = ForestParams { n_trees: 6, bootstrap: false, seed: 1, ..Default::default() };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        assert_eq!(old.predict_proba(row), new.predict_proba(row));
    }
}

/// The per-tree seeding fix (hash-mix the tree index instead of
/// `(seed + i) * γ`, whose streams were one SplitMix64 step apart for
/// consecutive trees) deliberately changes fitted forests. This fixture
/// keeps the change visible: the legacy stream still runs through the
/// reference forest, and its predictions must differ from the current
/// seeding on the same data.
#[test]
fn seeding_change_is_deliberate_and_visible() {
    let (x, y) = synthetic(300, 10, 23);
    let params = ForestParams { n_trees: 8, seed: 4, ..Default::default() };
    let legacy_seed =
        |i: usize| -> u64 { params.seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) };
    let legacy = RowMajorForest::fit_with_seeds(&x, &y, &params, &legacy_seed);
    let current = RandomForest::fit(&x, &y, &params);
    // Consecutive legacy seeds really are one generator step apart.
    assert_eq!(
        legacy_seed(1),
        legacy_seed(0).wrapping_add(0x9E3779B97F4A7C15),
        "legacy scheme no longer reproduces the correlated stream this fixture documents"
    );
    let differs = x.iter().any(|row| legacy.predict_proba(row) != current.predict_proba(row));
    assert!(differs, "seeding fix changed nothing — fixture is stale");
    // And pinning the other direction: driving the reference forest with
    // the *new* seeds reproduces the current model exactly.
    let bridged = RowMajorForest::fit_with_seeds(&x, &y, &params, &|i| params.tree_seed(i));
    for row in &x {
        assert_eq!(bridged.predict_proba(row), current.predict_proba(row));
    }
}

#[test]
fn fit_is_invariant_to_thread_count() {
    let (x, y) = synthetic(220, 9, 13);
    let data = Dataset::from_rows(&x).unwrap();
    let params = ForestParams { n_trees: 11, seed: 8, ..Default::default() };
    let one = RandomForest::fit_dataset_threads(&data, &y, &params, 1);
    let two = RandomForest::fit_dataset_threads(&data, &y, &params, 2);
    let eight = RandomForest::fit_dataset_threads(&data, &y, &params, 8);
    for row in &x {
        let p = one.predict_proba(row);
        assert_eq!(p, two.predict_proba(row));
        assert_eq!(p, eight.predict_proba(row));
    }
}

#[test]
fn serde_roundtrip_of_flattened_forest_preserves_predictions() {
    let (x, y) = synthetic(150, 7, 19);
    let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 5, ..Default::default() });
    let json = serde_json::to_string(&forest).unwrap();
    let mut back: RandomForest = serde_json::from_str(&json).unwrap();
    back.rebuild_index();
    for row in &x {
        assert_eq!(back.predict_proba(row), forest.predict_proba(row));
    }
}

#[test]
fn dataset_rejects_ragged_and_empty_input() {
    assert!(matches!(Dataset::from_rows(&[]), Err(DatasetError::Empty)));
    let ragged = vec![vec![1.0, 2.0], vec![3.0]];
    assert!(matches!(Dataset::from_rows(&ragged), Err(DatasetError::Ragged { row: 1, .. })));
}

/// More rows than a `u16` rank can count, with one column of all-distinct
/// values (ranks past 65 535) beside low-cardinality ones, and wide enough
/// that one sampled feature per split is few next to the column count.
/// Fits must still match the row-major reference bit for bit.
#[test]
fn more_rows_than_u16_ranks_match_reference_exactly() {
    const N: usize = 70_000;
    const D: usize = 20;
    let mut rng = StdRng::seed_from_u64(53);
    let mut x = Vec::with_capacity(N);
    let mut y = Vec::with_capacity(N);
    for i in 0..N {
        let row: Vec<f32> = (0..D)
            .map(|j| match j % 4 {
                // All distinct: 70 000 ranks in one column.
                0 => ((i * 7_919) % N) as f32,
                1 => rng.gen_range(0..6) as f32,
                _ => rng.gen_range(0..100_000) as f32 / 10.0,
            })
            .collect();
        let label = (row[0] > 30_000.0) ^ (row[1] > 2.0) ^ (rng.gen_range(0..10) == 0);
        x.push(row);
        y.push(label);
    }
    assert!(
        x.iter().map(|r| r[0].to_bits()).collect::<std::collections::HashSet<_>>().len() > 65_536
    );
    let tree_params =
        TreeParams { max_depth: 6, max_features: MaxFeatures::Fixed(1), ..Default::default() };
    for seed in [2u64, 9] {
        let old = RowMajorTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        let new = DecisionTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        assert_eq!(old.node_count(), new.node_count(), "tree structure differs (seed {})", seed);
        for row in &x {
            assert_eq!(old.predict_proba(row), new.predict_proba(row), "seed {}", seed);
        }
    }
    let params = ForestParams { n_trees: 3, bootstrap: true, tree: tree_params, seed: 31 };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "large forest prediction differs: old {} vs new {}", po, pn);
    }
}
