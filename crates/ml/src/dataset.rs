//! Contiguous column-major feature storage.
//!
//! Training operates on a [`Dataset`]: one `Vec<f32>` backing store laid
//! out column-major, indexed as `data[col * n_rows + row]` and built once
//! from the vectorized samples. Trees grow over `&[u32]` row-index sets,
//! so bootstrap resampling and recursive partitioning never clone a
//! feature row; split search walks whole columns, which are contiguous
//! and cache-resident at pipeline scale.

use serde::{Deserialize, Serialize};

/// Why a [`Dataset`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No rows were provided.
    Empty,
    /// A row's width differs from the first row's.
    Ragged {
        /// Index of the offending row.
        row: usize,
        /// Width of row 0.
        expected: usize,
        /// Width of the offending row.
        got: usize,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "cannot build a dataset from zero rows"),
            DatasetError::Ragged { row, expected, got } => {
                write!(f, "ragged row {}: expected {} features, got {}", row, expected, got)
            }
        }
    }
}

impl std::error::Error for DatasetError {}

/// A dense feature matrix in column-major order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    data: Vec<f32>,
    n_rows: usize,
    n_cols: usize,
}

impl Dataset {
    /// An all-zero dataset of the given shape (rows are then filled in
    /// place with [`Dataset::fill_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_rows` is zero.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_rows > 0, "cannot build a dataset with zero rows");
        Dataset { data: vec![0.0; n_rows * n_cols], n_rows, n_cols }
    }

    /// Builds a dataset by transposing row-major input once.
    ///
    /// # Errors
    ///
    /// Rejects empty input and ragged rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, DatasetError> {
        let first = rows.first().ok_or(DatasetError::Empty)?;
        let n_cols = first.len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n_cols {
                return Err(DatasetError::Ragged { row: i, expected: n_cols, got: r.len() });
            }
        }
        let mut ds = Dataset::zeros(rows.len(), n_cols);
        for (i, r) in rows.iter().enumerate() {
            ds.fill_row(i, r);
        }
        Ok(ds)
    }

    /// Number of rows (samples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// One feature column as a contiguous slice.
    pub fn column(&self, col: usize) -> &[f32] {
        &self.data[col * self.n_rows..(col + 1) * self.n_rows]
    }

    /// Scatters one row-major sample into the columnar store.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_cols` or `row` is out of range.
    pub fn fill_row(&mut self, row: usize, values: &[f32]) {
        assert_eq!(values.len(), self.n_cols, "row width mismatch");
        assert!(row < self.n_rows, "row out of range");
        for (c, &v) in values.iter().enumerate() {
            self.data[c * self.n_rows + row] = v;
        }
    }

    /// Appends a new column (used by classifier chains to thread label
    /// predictions through as features — an O(`n_rows`) contiguous push).
    ///
    /// # Panics
    ///
    /// Panics if `col.len() != n_rows`.
    pub fn push_column(&mut self, col: &[f32]) {
        assert_eq!(col.len(), self.n_rows, "column height mismatch");
        self.data.extend_from_slice(col);
        self.n_cols += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let ds = Dataset::from_rows(&rows).unwrap();
        assert_eq!((ds.n_rows(), ds.n_cols()), (2, 3));
        assert_eq!(ds.column(1), &[2.0, 5.0]);
        assert_eq!(ds.column(2)[1], 6.0);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Dataset::from_rows(&[]), Err(DatasetError::Empty));
    }

    #[test]
    fn rejects_ragged() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert_eq!(
            Dataset::from_rows(&rows),
            Err(DatasetError::Ragged { row: 1, expected: 2, got: 1 })
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(DatasetError::Empty.to_string().contains("zero rows"));
        let e = DatasetError::Ragged { row: 3, expected: 5, got: 2 };
        assert!(e.to_string().contains("row 3"), "{}", e);
    }

    #[test]
    fn push_column_extends_width() {
        let mut ds = Dataset::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        ds.push_column(&[7.0, 8.0]);
        assert_eq!(ds.n_cols(), 2);
        assert_eq!(ds.column(1), &[7.0, 8.0]);
    }

    #[test]
    fn serde_round_trip() {
        let ds = Dataset::from_rows(&[vec![1.5, -2.0], vec![0.0, 4.25]]).unwrap();
        let back: Dataset = serde_json::from_str(&serde_json::to_string(&ds).unwrap()).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn zeros_rejects_zero_rows() {
        let _ = Dataset::zeros(0, 3);
    }
}
