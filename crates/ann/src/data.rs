//! Datasets, train/validation/test splitting, and feature standardisation.

use crate::rng::SplitMix64;
use std::fmt;

/// A supervised dataset: parallel input and target vectors.
///
/// ```
/// use tinyann::Dataset;
///
/// # fn main() -> Result<(), tinyann::DatasetError> {
/// let dataset = Dataset::new(vec![vec![1.0], vec![2.0]], vec![vec![2.0], vec![4.0]])?;
/// assert_eq!(dataset.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    inputs: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
}

impl Dataset {
    /// Build a dataset, validating that shapes are consistent.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] when the collection is empty, lengths
    /// mismatch, or rows are ragged.
    pub fn new(inputs: Vec<Vec<f64>>, targets: Vec<Vec<f64>>) -> Result<Self, DatasetError> {
        if inputs.is_empty() {
            return Err(DatasetError::Empty);
        }
        if inputs.len() != targets.len() {
            return Err(DatasetError::LengthMismatch {
                inputs: inputs.len(),
                targets: targets.len(),
            });
        }
        let in_dim = inputs[0].len();
        let out_dim = targets[0].len();
        if inputs.iter().any(|row| row.len() != in_dim)
            || targets.iter().any(|row| row.len() != out_dim)
        {
            return Err(DatasetError::Ragged);
        }
        Ok(Dataset { inputs, targets })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` if the dataset has no samples (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Target dimensionality.
    pub fn output_dim(&self) -> usize {
        self.targets[0].len()
    }

    /// The input rows.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// The target rows.
    pub fn targets(&self) -> &[Vec<f64>] {
        &self.targets
    }

    /// Select a sub-dataset by sample indices (indices may repeat, enabling
    /// bootstrap resamples).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    #[inline]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "subset must keep at least one sample");
        Dataset {
            inputs: indices.iter().map(|&i| self.inputs[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i].clone()).collect(),
        }
    }

    /// Deterministic shuffled split into train/validation/test fractions
    /// (the paper: 70 % / 15 % / 15 %).
    ///
    /// Every partition is guaranteed at least one sample when `len() >= 3`;
    /// fractions are of the training share first, remainder split between
    /// validation and test.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction + validation_fraction >= 1.0` or either is
    /// not positive.
    pub fn split(&self, train_fraction: f64, validation_fraction: f64, seed: u64) -> Split {
        assert!(train_fraction > 0.0 && validation_fraction > 0.0);
        assert!(train_fraction + validation_fraction < 1.0);
        let mut rng = SplitMix64::new(seed);
        let order = rng.shuffled_indices(self.len());
        let n = self.len();
        let mut n_train = ((n as f64) * train_fraction).round() as usize;
        let mut n_val = ((n as f64) * validation_fraction).round() as usize;
        if n >= 3 {
            n_train = n_train.clamp(1, n - 2);
            n_val = n_val.clamp(1, n - n_train - 1);
        }
        let train_idx = &order[..n_train];
        let val_idx = &order[n_train..n_train + n_val];
        let test_idx = &order[n_train + n_val..];
        Split {
            train: self.subset(train_idx),
            validation: if val_idx.is_empty() {
                self.subset(train_idx)
            } else {
                self.subset(val_idx)
            },
            test: if test_idx.is_empty() {
                self.subset(train_idx)
            } else {
                self.subset(test_idx)
            },
        }
    }
}

/// A train/validation/test partition of a [`Dataset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training partition.
    pub train: Dataset,
    /// Validation partition (early stopping).
    pub validation: Dataset,
    /// Held-out test partition.
    pub test: Dataset,
}

/// Per-feature z-score normalisation fitted on training data.
///
/// Constant features (zero variance) pass through unscaled, so no feature
/// can produce NaNs.
///
/// ```
/// use tinyann::Standardizer;
///
/// let rows = vec![vec![1.0, 10.0], vec![3.0, 10.0]];
/// let standardizer = Standardizer::fit(&rows);
/// let z = standardizer.transform(&rows[0]);
/// assert!((z[0] + 1.0).abs() < 1e-12); // (1 - 2) / 1
/// assert_eq!(z[1], 0.0);               // constant feature centred, not scaled
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Standardizer {
    /// Fit means and standard deviations on `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit on no data");
        let dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == dim), "ragged rows");
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut scales = vec![0.0; dim];
        for row in rows {
            for ((s, &v), &m) in scales.iter_mut().zip(row).zip(&means) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut scales {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: centre only
            }
        }
        Standardizer { means, scales }
    }

    /// Transform one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted dimensionality.
    #[inline]
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        row.iter()
            .zip(&self.means)
            .zip(&self.scales)
            .map(|((&v, &m), &s)| (v - m) / s)
            .collect()
    }

    /// Transform a batch of rows.
    #[inline]
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// [`transform`](Standardizer::transform) into a preallocated slice —
    /// identical arithmetic, no allocation. Feeds standardised features
    /// straight into a [`crate::Workspace`] input slot.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `out` differ from the fitted dimensionality.
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        assert_eq!(out.len(), self.means.len(), "dimension mismatch");
        for (((o, &v), &m), &s) in out.iter_mut().zip(row).zip(&self.means).zip(&self.scales) {
            *o = (v - m) / s;
        }
    }

    /// [`inverse_transform`](Standardizer::inverse_transform) in place —
    /// identical arithmetic, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted dimensionality.
    pub fn inverse_transform_in_place(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        for ((v, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.scales) {
            *v = *v * s + m;
        }
    }

    /// Undo [`transform`](Standardizer::transform): map a standardised row
    /// back to the original units.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted dimensionality.
    pub fn inverse_transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.means.len(), "dimension mismatch");
        row.iter()
            .zip(&self.means)
            .zip(&self.scales)
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }
}

/// Error constructing a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// No samples were provided.
    Empty,
    /// Inputs and targets have different lengths.
    LengthMismatch {
        /// Number of input rows.
        inputs: usize,
        /// Number of target rows.
        targets: usize,
    },
    /// Rows have inconsistent dimensionality.
    Ragged,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Empty => write!(f, "dataset has no samples"),
            DatasetError::LengthMismatch { inputs, targets } => {
                write!(f, "{inputs} input rows but {targets} target rows")
            }
            DatasetError::Ragged => write!(f, "rows have inconsistent dimensionality"),
        }
    }
}

impl std::error::Error for DatasetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        Dataset::new(inputs, targets).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        assert_eq!(Dataset::new(vec![], vec![]), Err(DatasetError::Empty));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![]),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert_eq!(
            Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![0.0], vec![0.0]]),
            Err(DatasetError::Ragged)
        );
    }

    #[test]
    fn split_fractions_roughly_70_15_15() {
        let split = dataset(100).split(0.70, 0.15, 3);
        assert_eq!(split.train.len(), 70);
        assert_eq!(split.validation.len(), 15);
        assert_eq!(split.test.len(), 15);
    }

    #[test]
    fn split_partitions_do_not_overlap() {
        let split = dataset(40).split(0.70, 0.15, 9);
        let ids = |d: &Dataset| -> Vec<i64> { d.inputs().iter().map(|r| r[0] as i64).collect() };
        let train = ids(&split.train);
        let val = ids(&split.validation);
        let test = ids(&split.test);
        for v in &val {
            assert!(!train.contains(v));
            assert!(!test.contains(v));
        }
        assert_eq!(train.len() + val.len() + test.len(), 40);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let a = dataset(30).split(0.7, 0.15, 5);
        let b = dataset(30).split(0.7, 0.15, 5);
        assert_eq!(a, b);
        let c = dataset(30).split(0.7, 0.15, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn tiny_dataset_still_gets_three_nonempty_partitions() {
        let split = dataset(3).split(0.7, 0.15, 1);
        assert!(!split.train.is_empty());
        assert!(!split.validation.is_empty());
        assert!(!split.test.is_empty());
    }

    #[test]
    fn subset_supports_repeats_for_bootstrap() {
        let d = dataset(5);
        let boot = d.subset(&[0, 0, 4, 4, 4]);
        assert_eq!(boot.len(), 5);
        assert_eq!(boot.inputs()[0], boot.inputs()[1]);
    }

    #[test]
    fn standardizer_zero_mean_unit_variance() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, 5.0]).collect();
        let s = Standardizer::fit(&rows);
        let transformed = s.transform_all(&rows);
        let mean: f64 = transformed.iter().map(|r| r[0]).sum::<f64>() / 100.0;
        let var: f64 = transformed.iter().map(|r| r[0] * r[0]).sum::<f64>() / 100.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
        // Constant column must not produce NaN.
        assert!(transformed.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn in_place_transforms_match_allocating_transforms() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i) as f64, 7.0])
            .collect();
        let s = Standardizer::fit(&rows);
        let mut buf = vec![0.0; 3];
        for row in &rows {
            s.transform_into(row, &mut buf);
            let alloc = s.transform(row);
            assert!(buf
                .iter()
                .zip(&alloc)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            s.inverse_transform_in_place(&mut buf);
            let back = s.inverse_transform(&alloc);
            assert!(buf
                .iter()
                .zip(&back)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn single_row_fit_centres_and_round_trips_in_place() {
        // One sample: every feature is constant, so scales snap to 1.0 and
        // the in-place transforms must centre (not divide) and invert
        // exactly.
        let s = Standardizer::fit(&[vec![4.0, -2.5, 0.0]]);
        let mut buf = vec![0.0; 3];
        s.transform_into(&[4.0, -2.5, 0.0], &mut buf);
        assert_eq!(buf, vec![0.0, 0.0, 0.0]);
        s.inverse_transform_in_place(&mut buf);
        assert_eq!(buf, vec![4.0, -2.5, 0.0]);
        // Off-sample rows shift by the means, scale untouched.
        s.transform_into(&[5.0, -2.5, 1.0], &mut buf);
        assert_eq!(buf, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_width_rows_are_a_valid_boundary() {
        // Zero features is degenerate but reachable (feature selection can
        // drop every column); nothing should panic or allocate.
        let s = Standardizer::fit(&[vec![], vec![]]);
        assert_eq!(s.transform(&[]), Vec::<f64>::new());
        let mut empty: [f64; 0] = [];
        s.transform_into(&[], &mut empty);
        s.inverse_transform_in_place(&mut empty);
    }

    #[test]
    fn transform_all_on_an_empty_batch_is_empty() {
        let s = Standardizer::fit(&[vec![1.0], vec![3.0]]);
        assert!(s.transform_all(&[]).is_empty());
    }

    #[test]
    fn in_place_transforms_reject_mismatched_widths() {
        let s = Standardizer::fit(&[vec![1.0, 2.0]]);
        let row = [0.5, 0.5];
        let mut short = vec![0.0; 1];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.transform_into(&row, &mut short);
        }))
        .is_err());
        let mut long = vec![0.0; 3];
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.inverse_transform_in_place(&mut long);
        }))
        .is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let text = DatasetError::LengthMismatch {
            inputs: 2,
            targets: 3,
        }
        .to_string();
        assert!(text.contains('2') && text.contains('3'));
    }
}
