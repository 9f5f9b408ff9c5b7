//! The serial reference engine: the legacy allocating trainer and bagged
//! ensemble, preserved verbatim on top of [`RefNetwork`].
//!
//! This module is the oracle half of the PR-1 pattern applied to the ANN:
//! the flat-tensor engine ([`tinyann::Network`], [`tinyann::Trainer`],
//! [`tinyann::Bagging`]) must produce bit-identical losses, gradients,
//! predictions, and fully trained weights — tinyann's `tests/flat_vs_ref.rs` asserts
//! exactly that, and `perf_pipeline`'s `bagging_train` / `ensemble_predict`
//! stages gate the flat engine's speedup against this code.
//!
//! Every call here allocates the way the legacy code did (fresh `Vec`s per
//! forward/backward, cloned batch rows, per-batch gradient objects); that
//! is the point — do not "optimise" it.

mod network_ref;

pub use network_ref::RefNetwork;

use tinyann::{Activation, Dataset, Split, SplitMix64, Standardizer, TrainConfig};

/// Outcome statistics from one reference training run (mirrors
/// [`tinyann::TrainReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RefTrainReport {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Final training loss.
    pub train_loss: f64,
    /// Best validation loss observed.
    pub validation_loss: f64,
    /// Loss on the held-out test partition.
    pub test_loss: f64,
}

/// A trained reference network plus its standardizers (mirrors
/// [`tinyann::TrainedModel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RefTrainedModel {
    network: RefNetwork,
    input_standardizer: Standardizer,
    target_standardizer: Standardizer,
    report: RefTrainReport,
}

impl RefTrainedModel {
    /// Predict the target for a raw (unstandardised) input row, in the
    /// original target units.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        let z = self
            .network
            .forward(&self.input_standardizer.transform(input));
        self.target_standardizer.inverse_transform(&z)
    }

    /// Training statistics.
    pub fn report(&self) -> &RefTrainReport {
        &self.report
    }

    /// The underlying network (post-training weights).
    pub fn network(&self) -> &RefNetwork {
        &self.network
    }
}

/// The legacy training loop on [`RefNetwork`]: identical split,
/// standardisation, shuffling, mini-batching, early stopping, and RNG
/// consumption as [`tinyann::Trainer`] — but allocating per batch the way the
/// original code did.
#[derive(Debug, Clone)]
pub struct RefTrainer {
    config: TrainConfig,
}

impl RefTrainer {
    /// A reference trainer with the given hyper-parameters.
    pub fn new(config: TrainConfig) -> Self {
        RefTrainer { config }
    }

    /// Split the dataset 70/15/15, standardise on the training partition,
    /// and train with early stopping.
    pub fn fit(&self, network: RefNetwork, dataset: &Dataset) -> RefTrainedModel {
        let split = dataset.split(0.70, 0.15, self.config.seed);
        self.fit_split(network, &split)
    }

    /// Train on a caller-provided split.
    pub fn fit_split(&self, mut network: RefNetwork, split: &Split) -> RefTrainedModel {
        let input_standardizer = Standardizer::fit(split.train.inputs());
        let target_standardizer = Standardizer::fit(split.train.targets());
        let train_x = input_standardizer.transform_all(split.train.inputs());
        let train_t = target_standardizer.transform_all(split.train.targets());
        let val_x = input_standardizer.transform_all(split.validation.inputs());
        let val_t = target_standardizer.transform_all(split.validation.targets());
        let test_x = input_standardizer.transform_all(split.test.inputs());
        let test_t = target_standardizer.transform_all(split.test.targets());

        let mut rng = SplitMix64::new(self.config.seed ^ 0xA5A5_A5A5);
        let mut best = network.clone();
        let mut best_val = f64::INFINITY;
        let mut stale = 0usize;
        let mut epochs_run = 0usize;
        let mut train_loss = network.mean_loss(&train_x, &train_t);

        for _ in 0..self.config.epochs {
            epochs_run += 1;
            let order = rng.shuffled_indices(train_x.len());
            for chunk in order.chunks(self.config.batch_size.max(1)) {
                let batch_x: Vec<Vec<f64>> = chunk.iter().map(|&i| train_x[i].clone()).collect();
                let batch_t: Vec<Vec<f64>> = chunk.iter().map(|&i| train_t[i].clone()).collect();
                train_loss = network.train_batch(
                    &batch_x,
                    &batch_t,
                    self.config.learning_rate,
                    self.config.momentum,
                );
            }
            let val_loss = network.mean_loss(&val_x, &val_t);
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

        let test_loss = best.mean_loss(&test_x, &test_t);
        RefTrainedModel {
            network: best,
            input_standardizer,
            target_standardizer,
            report: RefTrainReport {
                epochs_run,
                train_loss,
                validation_loss: best_val,
                test_loss,
            },
        }
    }
}

/// The legacy bagged ensemble on [`RefNetwork`] (mirrors
/// [`tinyann::Bagging`], same RNG draws, same member seeds).
#[derive(Debug, Clone)]
pub struct RefBagging {
    models: Vec<RefTrainedModel>,
}

impl RefBagging {
    /// Train `count` reference networks on bootstrap resamples, serially.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn train(
        dataset: &Dataset,
        count: usize,
        dims: &[usize],
        activation: Activation,
        config: TrainConfig,
    ) -> Self {
        assert!(count > 0, "ensemble needs at least one member");
        let split = dataset.split(0.70, 0.15, config.seed);
        let mut rng = SplitMix64::new(config.seed ^ 0xB466);
        let n = split.train.len();
        let models = (0..count)
            .map(|member| {
                let indices: Vec<usize> =
                    (0..n).map(|_| rng.next_below(n as u64) as usize).collect();
                let weight_seed = rng.next_u64();
                let member_split = Split {
                    train: split.train.subset(&indices),
                    validation: split.validation.clone(),
                    test: split.test.clone(),
                };
                let network = RefNetwork::new(dims, activation, weight_seed);
                let member_config = TrainConfig {
                    seed: config.seed ^ (member as u64),
                    ..config
                };
                RefTrainer::new(member_config).fit_split(network, &member_split)
            })
            .collect();
        RefBagging { models }
    }

    /// Number of ensemble members.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` if the ensemble has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Average of all member predictions.
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        let mut sum = self.models[0].predict(input);
        for model in &self.models[1..] {
            for (s, v) in sum.iter_mut().zip(model.predict(input)) {
                *s += v;
            }
        }
        for s in &mut sum {
            *s /= self.models.len() as f64;
        }
        sum
    }

    /// The trained members.
    pub fn models(&self) -> &[RefTrainedModel] {
        &self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reference_trainer_learns_a_linear_function() {
        let dataset = linear_dataset(100);
        let trained = RefTrainer::new(TrainConfig::default())
            .fit(RefNetwork::new(&[2, 6, 1], Activation::Tanh, 1), &dataset);
        let y = trained.predict(&[0.5, 0.5])[0];
        assert!((y - 0.5).abs() < 0.15, "3*0.5 - 2*0.5 = 0.5, got {y}");
    }

    #[test]
    fn reference_bagging_is_deterministic() {
        let dataset = linear_dataset(60);
        let config = TrainConfig {
            epochs: 60,
            patience: 20,
            ..TrainConfig::default()
        };
        let a = RefBagging::train(&dataset, 3, &[2, 4, 1], Activation::Tanh, config);
        let b = RefBagging::train(&dataset, 3, &[2, 4, 1], Activation::Tanh, config);
        assert_eq!(a.models(), b.models());
        assert_eq!(a.predict(&[0.3, 0.7]), b.predict(&[0.3, 0.7]));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_panics() {
        let _ = RefBagging::train(
            &linear_dataset(30),
            0,
            &[2, 2, 1],
            Activation::Tanh,
            TrainConfig::default(),
        );
    }
}
