//! Training data for the forests.

use std::fmt;

/// A binary-classification dataset: feature rows and boolean labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    xs: Vec<Vec<f64>>,
    ys: Vec<bool>,
    num_features: usize,
}

/// Dataset construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No rows.
    Empty,
    /// Rows and labels have different lengths.
    LengthMismatch,
    /// A row has a different number of features than the first row.
    RaggedRows,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no rows"),
            DatasetError::LengthMismatch => write!(f, "rows and labels differ in length"),
            DatasetError::RaggedRows => write!(f, "rows have inconsistent feature counts"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Build a dataset.
    ///
    /// # Errors
    ///
    /// Fails on empty input, row/label length mismatch, or ragged rows.
    pub fn new(xs: Vec<Vec<f64>>, ys: Vec<bool>) -> Result<Dataset, DatasetError> {
        if xs.is_empty() {
            return Err(DatasetError::Empty);
        }
        if xs.len() != ys.len() {
            return Err(DatasetError::LengthMismatch);
        }
        let num_features = xs[0].len();
        if xs.iter().any(|r| r.len() != num_features) {
            return Err(DatasetError::RaggedRows);
        }
        Ok(Dataset {
            xs,
            ys,
            num_features,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if there are no rows (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.xs[i]
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> bool {
        self.ys[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Dataset::new(vec![], vec![]),
            Err(DatasetError::Empty)
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![]),
            Err(DatasetError::LengthMismatch)
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![true, false]),
            Err(DatasetError::RaggedRows)
        ));
    }

    #[test]
    fn accessors() {
        let d = Dataset::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]], vec![true, false]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert!(d.label(0));
        assert!(!d.is_empty());
    }
}
