//! Gaussian naive Bayes — the NoFus-style baseline used in the paper's
//! off-the-shelf model comparison (§III-D3).

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// A fitted Gaussian naive-Bayes binary classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianNb {
    prior_pos: f64,
    // Per-feature (mean, variance) for each class.
    pos: Vec<(f64, f64)>,
    neg: Vec<(f64, f64)>,
}

/// Variance floor to avoid zero-variance features blowing up the
/// likelihood.
const VAR_FLOOR: f64 = 1e-6;

impl GaussianNb {
    /// Fits means/variances per class from a columnar dataset; sums run
    /// over rows in ascending order per feature.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != data.n_rows()`.
    pub fn fit(data: &Dataset, y: &[bool]) -> Self {
        assert_eq!(y.len(), data.n_rows(), "feature/label length mismatch");
        let d = data.n_cols();
        let n_pos = y.iter().filter(|&&l| l).count();
        let prior_pos = (n_pos as f64 + 1.0) / (data.n_rows() as f64 + 2.0); // Laplace
        let stats = |cls: bool| -> Vec<(f64, f64)> {
            let n_cls = y.iter().filter(|&&l| l == cls).count();
            (0..d)
                .map(|j| {
                    if n_cls == 0 {
                        return (0.0, 1.0);
                    }
                    let col = data.column(j);
                    let class_vals =
                        || col.iter().zip(y).filter(|(_, &l)| l == cls).map(|(&v, _)| v as f64);
                    let mean = class_vals().sum::<f64>() / n_cls as f64;
                    let var = class_vals().map(|v| (v - mean).powi(2)).sum::<f64>() / n_cls as f64;
                    (mean, var.max(VAR_FLOOR))
                })
                .collect()
        };
        GaussianNb { prior_pos, pos: stats(true), neg: stats(false) }
    }

    /// Positive-class probability for `row`.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let mut log_pos = self.prior_pos.ln();
        let mut log_neg = (1.0 - self.prior_pos).ln();
        for (j, &v) in row.iter().enumerate() {
            log_pos += log_gauss(v as f64, self.pos[j].0, self.pos[j].1);
            log_neg += log_gauss(v as f64, self.neg[j].0, self.neg[j].1);
        }
        // Softmax over the two log-posteriors.
        let m = log_pos.max(log_neg);
        let p = (log_pos - m).exp();
        let q = (log_neg - m).exp();
        (p / (p + q)) as f32
    }
}

fn log_gauss(v: f64, mean: f64, var: f64) -> f64 {
    let diff = v - mean;
    -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(x: &[Vec<f32>]) -> Dataset {
        Dataset::from_rows(x).unwrap()
    }

    #[test]
    fn separates_gaussian_blobs() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let o = (i % 10) as f32 * 0.05;
            x.push(vec![0.0 + o, 0.0 - o]);
            y.push(false);
            x.push(vec![3.0 - o, 3.0 + o]);
            y.push(true);
        }
        let nb = GaussianNb::fit(&ds(&x), &y);
        assert!(nb.predict_proba(&[0.1, 0.1]) < 0.5);
        assert!(nb.predict_proba(&[2.9, 3.1]) > 0.5);
    }

    #[test]
    fn probabilities_are_finite_and_bounded() {
        let x = vec![vec![0.0], vec![0.0], vec![1.0], vec![1.0]];
        let y = vec![false, false, true, true];
        let nb = GaussianNb::fit(&ds(&x), &y);
        for v in [-100.0f32, 0.0, 0.5, 1.0, 100.0] {
            let p = nb.predict_proba(&[v]);
            assert!(p.is_finite());
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn one_class_absent_still_works() {
        let x = vec![vec![1.0], vec![2.0]];
        let y = vec![true, true];
        let nb = GaussianNb::fit(&ds(&x), &y);
        assert!(nb.predict_proba(&[1.5]) > 0.5);
    }

    #[test]
    fn zero_variance_feature_does_not_explode() {
        let x = vec![vec![5.0, 0.0], vec![5.0, 1.0], vec![5.0, 10.0], vec![5.0, 11.0]];
        let y = vec![false, false, true, true];
        let nb = GaussianNb::fit(&ds(&x), &y);
        let p = nb.predict_proba(&[5.0, 10.5]);
        assert!(p.is_finite() && p > 0.5);
    }

    #[test]
    fn serde_roundtrip() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![false, true];
        let nb = GaussianNb::fit(&ds(&x), &y);
        let back: GaussianNb = serde_json::from_str(&serde_json::to_string(&nb).unwrap()).unwrap();
        assert_eq!(back.predict_proba(&[0.3]), nb.predict_proba(&[0.3]));
    }
}
