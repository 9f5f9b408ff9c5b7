//! The training loop: mini-batch SGD with momentum, feature
//! standardisation, and validation-based early stopping.
//!
//! The loop is allocation-free in steady state: one [`Workspace`] and one
//! shuffle-order buffer are created per fit and reused across every epoch
//! and batch; mini-batches are index slices into the standardised sample
//! pool rather than cloned rows. The RNG draws, batch boundaries, and
//! arithmetic order are identical to the legacy loop (preserved as
//! `hetero_oracles::ann::RefTrainer`), so the trained weights match the
//! reference bit for bit.

use crate::data::{Dataset, Split, Standardizer};
use crate::network::{Network, Workspace};
use crate::rng::SplitMix64;

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Stop if validation loss has not improved for this many epochs
    /// (`0` disables early stopping).
    pub patience: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 500,
            batch_size: 8,
            learning_rate: 0.05,
            momentum: 0.9,
            patience: 50,
            seed: 0x5EED,
        }
    }
}

/// Outcome statistics from one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed (≤ `config.epochs` with early stopping).
    pub epochs_run: usize,
    /// Final training loss.
    pub train_loss: f64,
    /// Best validation loss observed.
    pub validation_loss: f64,
    /// Loss on the held-out test partition.
    pub test_loss: f64,
}

/// A trained network plus the standardizers its inputs and outputs pass
/// through (both fitted on the training partition only).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModel {
    network: Network,
    input_standardizer: Standardizer,
    target_standardizer: Standardizer,
    report: TrainReport,
}

impl TrainedModel {
    /// Predict the target for a raw (unstandardised) input row, in the
    /// original target units.
    ///
    /// # Panics
    ///
    /// Panics if `input` has the wrong dimensionality.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        let mut ws = Workspace::for_network(&self.network);
        let mut out = Vec::new();
        self.predict_with(&mut ws, input, &mut out);
        out
    }

    /// [`predict`](TrainedModel::predict) through a caller-held workspace:
    /// features are standardised straight into the workspace input slot,
    /// the forward pass runs allocation-free, and the de-standardised
    /// prediction lands in `out` (cleared first, reusing its capacity).
    ///
    /// # Panics
    ///
    /// Panics if `input` or the workspace shape mismatch the model.
    pub fn predict_with(&self, ws: &mut Workspace, input: &[f64], out: &mut Vec<f64>) {
        self.input_standardizer
            .transform_into(input, ws.input_mut());
        let y = self.network.forward_loaded(ws);
        out.clear();
        out.extend_from_slice(y);
        self.target_standardizer.inverse_transform_in_place(out);
    }

    /// Training statistics.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The underlying network (post-training weights).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Incremental retraining: fold newly profiled samples into the
    /// trained model **without a full rebuild** by continuing mini-batch
    /// SGD over the new rows only.
    ///
    /// The new rows pass through the model's *existing* standardizers —
    /// refitting them would silently shift the meaning of every learned
    /// weight — and the network's momentum velocity persists, so the
    /// update is a true continuation of the original run rather than a
    /// cold restart. `config.epochs` bounds the continuation length
    /// (typically a few dozen epochs over a handful of rows, orders of
    /// magnitude cheaper than retraining from scratch); `config.seed`
    /// drives the shuffle order deterministically. No-op on an empty
    /// sample set.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `targets` have different lengths or any row
    /// has the wrong dimensionality.
    pub fn refine(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>], config: &TrainConfig) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs and targets must pair up"
        );
        if inputs.is_empty() {
            return;
        }
        let x = self.input_standardizer.transform_all(inputs);
        let t = self.target_standardizer.transform_all(targets);
        let mut rng = SplitMix64::new(config.seed ^ 0xF01D);
        let mut ws = Workspace::for_network(&self.network);
        let mut order: Vec<usize> = Vec::with_capacity(x.len());
        for _ in 0..config.epochs {
            rng.shuffled_indices_into(x.len(), &mut order);
            for chunk in order.chunks(config.batch_size.max(1)) {
                self.report.train_loss = self.network.train_batch_indexed_with(
                    &mut ws,
                    &x,
                    &t,
                    chunk,
                    config.learning_rate,
                    config.momentum,
                );
            }
        }
    }
}

/// Trains a [`Network`] on a [`Dataset`].
///
/// ```
/// use tinyann::{Activation, Dataset, Network, TrainConfig, Trainer};
///
/// // y = x0 + x1 on a small grid.
/// let inputs: Vec<Vec<f64>> = (0..40)
///     .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
///     .collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] + x[1]]).collect();
/// let dataset = Dataset::new(inputs, targets).unwrap();
/// let trained = Trainer::new(TrainConfig::default())
///     .fit(Network::new(&[2, 6, 1], Activation::Tanh, 3), &dataset);
/// let y = trained.predict(&[2.0, 3.0])[0];
/// assert!((y - 5.0).abs() < 1.0, "got {y}");
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// A trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Split the dataset 70/15/15, standardise on the training partition,
    /// and train with early stopping.
    pub fn fit(&self, network: Network, dataset: &Dataset) -> TrainedModel {
        let split = dataset.split(0.70, 0.15, self.config.seed);
        self.fit_split(network, &split)
    }

    /// Train on a caller-provided split (exposed so bagging can resample
    /// the training partition while keeping validation/test fixed).
    pub fn fit_split(&self, mut network: Network, split: &Split) -> TrainedModel {
        let input_standardizer = Standardizer::fit(split.train.inputs());
        let target_standardizer = Standardizer::fit(split.train.targets());
        let train_x = input_standardizer.transform_all(split.train.inputs());
        let train_t = target_standardizer.transform_all(split.train.targets());
        let val_x = input_standardizer.transform_all(split.validation.inputs());
        let val_t = target_standardizer.transform_all(split.validation.targets());
        let test_x = input_standardizer.transform_all(split.test.inputs());
        let test_t = target_standardizer.transform_all(split.test.targets());

        let mut rng = SplitMix64::new(self.config.seed ^ 0xA5A5_A5A5);
        // One workspace and one shuffle buffer serve every epoch and batch.
        let mut ws = Workspace::for_network(&network);
        let mut order: Vec<usize> = Vec::with_capacity(train_x.len());
        let mut best = network.clone();
        let mut best_val = f64::INFINITY;
        let mut stale = 0usize;
        let mut epochs_run = 0usize;
        let mut train_loss = network.mean_loss_with(&mut ws, &train_x, &train_t);

        for _ in 0..self.config.epochs {
            epochs_run += 1;
            rng.shuffled_indices_into(train_x.len(), &mut order);
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                train_loss = network.train_batch_indexed_with(
                    &mut ws,
                    &train_x,
                    &train_t,
                    chunk,
                    self.config.learning_rate,
                    self.config.momentum,
                );
            }
            let val_loss = network.mean_loss_with(&mut ws, &val_x, &val_t);
            if val_loss < best_val {
                best_val = val_loss;
                best = network.clone();
                stale = 0;
            } else {
                stale += 1;
                if self.config.patience > 0 && stale >= self.config.patience {
                    break;
                }
            }
        }

        let test_loss = best.mean_loss_with(&mut ws, &test_x, &test_t);
        TrainedModel {
            network: best,
            input_standardizer,
            target_standardizer,
            report: TrainReport {
                epochs_run,
                train_loss,
                validation_loss: best_val,
                test_loss,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn linear_dataset(n: usize) -> Dataset {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, (n - i) as f64 / n as f64])
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| vec![3.0 * x[0] - 2.0 * x[1]])
            .collect();
        Dataset::new(inputs, targets).unwrap()
    }

    #[test]
    fn fit_learns_a_linear_function() {
        let dataset = linear_dataset(100);
        let trained = Trainer::new(TrainConfig::default())
            .fit(Network::new(&[2, 6, 1], Activation::Tanh, 1), &dataset);
        let y = trained.predict(&[0.5, 0.5])[0];
        assert!((y - 0.5).abs() < 0.15, "3*0.5 - 2*0.5 = 0.5, got {y}");
        assert!(trained.report().test_loss < 0.01);
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        let dataset = linear_dataset(60);
        let config = TrainConfig {
            epochs: 100_000,
            patience: 10,
            ..TrainConfig::default()
        };
        let trained =
            Trainer::new(config).fit(Network::new(&[2, 4, 1], Activation::Tanh, 2), &dataset);
        assert!(trained.report().epochs_run < 100_000);
    }

    #[test]
    fn training_is_deterministic() {
        let dataset = linear_dataset(50);
        let fit = |seed| {
            Trainer::new(TrainConfig {
                seed,
                epochs: 50,
                ..TrainConfig::default()
            })
            .fit(Network::new(&[2, 4, 1], Activation::Tanh, 3), &dataset)
        };
        let a = fit(5);
        let b = fit(5);
        assert_eq!(a, b);
        assert_eq!(a.predict(&[0.3, 0.3]), b.predict(&[0.3, 0.3]));
    }

    #[test]
    fn patience_zero_disables_early_stopping() {
        let dataset = linear_dataset(30);
        let config = TrainConfig {
            epochs: 37,
            patience: 0,
            ..TrainConfig::default()
        };
        let trained =
            Trainer::new(config).fit(Network::new(&[2, 3, 1], Activation::Tanh, 4), &dataset);
        assert_eq!(trained.report().epochs_run, 37);
    }

    #[test]
    fn predict_with_matches_predict() {
        let dataset = linear_dataset(40);
        let trained = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        })
        .fit(Network::new(&[2, 4, 1], Activation::Tanh, 8), &dataset);
        let mut ws = Workspace::for_network(trained.network());
        let mut out = Vec::new();
        for probe in [[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]] {
            trained.predict_with(&mut ws, &probe, &mut out);
            let alloc = trained.predict(&probe);
            assert!(out
                .iter()
                .zip(&alloc)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
