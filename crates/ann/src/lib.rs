#![warn(missing_docs)]

//! A small, dependency-free feedforward neural-network library.
//!
//! The paper predicts an application's best cache size with a 3-hidden-layer
//! ANN of size `{10, 18, 5, 1}`, trained offline on hardware-counter
//! features with a 70 %/15 %/15 % train/validation/test split, and improves
//! accuracy by **bagging**: "we trained 30 ANNs and initialized the model
//! weights randomly … and averages the ANNs' outputs to determine the final
//! prediction" (Sec. IV.D). The original used MATLAB's NN toolbox; this
//! crate reimplements the required pieces from scratch:
//!
//! * [`Network`] — fully-connected layers with [`Activation`] functions,
//!   mean-squared-error loss, and mini-batch SGD with momentum;
//! * [`Standardizer`] — per-feature z-score normalisation (fitted on the
//!   training split only);
//! * [`Dataset`] / [`Split`] — deterministic shuffled 70/15/15 splitting;
//! * [`Trainer`] — the training loop with validation-based early stopping;
//! * [`Bagging`] — an ensemble of independently initialised networks
//!   trained on bootstrap resamples, averaged at prediction time.
//!
//! Everything is deterministic given the seeds, so the paper's experiments
//! are exactly reproducible.
//!
//! # Two engines, one result
//!
//! [`Network`] is a **flat-tensor engine**: all parameters in one
//! contiguous `Vec<f64>` behind a per-layer offset table, with
//! preallocated [`Workspace`] scratch threaded through training and
//! inference so the steady-state hot loop performs zero heap allocations.
//! The original per-`Vec` implementation survives unchanged as the oracle
//! `hetero_oracles::ann`: the arithmetic order is preserved exactly, so
//! losses, gradients, predictions, and fully trained weights are
//! bit-identical across both engines (property-tested in
//! `tests/flat_vs_ref.rs`, perf-gated in the `perf_pipeline` binary).
//!
//! # Distillation and retraining
//!
//! [`Bagging::distill`] collapses the whole ensemble into a single
//! student net ([`Distilled`]); [`TrainedModel::refine`] /
//! [`Bagging::refine`] / [`KnnRegressor::absorb`] fold newly profiled
//! jobs in without a full rebuild. The student is validated by best-core
//! argmax *agreement* against the exact ensemble, not bit-identity: it is
//! a different function that only has to pick the same configuration.
//!
//! # Example: learn `y = 2x` from samples
//!
//! ```
//! use tinyann::{Activation, Dataset, Network, Trainer, TrainConfig};
//!
//! let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![f64::from(i) / 50.0]).collect();
//! let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![2.0 * x[0]]).collect();
//! let dataset = Dataset::new(inputs, targets).unwrap();
//!
//! let network = Network::new(&[1, 4, 1], Activation::Tanh, 7);
//! let config = TrainConfig { epochs: 400, ..TrainConfig::default() };
//! let trained = Trainer::new(config).fit(network, &dataset);
//! let prediction = trained.predict(&[0.5])[0];
//! assert!((prediction - 1.0).abs() < 0.1, "got {prediction}");
//! ```

mod activation;
mod bagging;
mod data;
mod distill;
mod knn;
mod linear;
mod network;
mod rng;
mod train;

pub use activation::Activation;
pub use bagging::{Bagging, Ensemble};
pub use data::{Dataset, DatasetError, Split, Standardizer};
pub use distill::{DistillConfig, Distilled};
pub use knn::KnnRegressor;
pub use linear::RidgeRegression;
pub use network::{Network, Workspace};
pub use rng::SplitMix64;
pub use train::{TrainConfig, TrainReport, TrainedModel, Trainer};
