//! Property tests: the flat-tensor engine is **bit-identical** to the
//! legacy per-`Vec` reference engine.
//!
//! Every comparison is on raw `f64::to_bits` — no tolerances. Topologies,
//! activations, seeds, and batch sizes are randomised, deliberately
//! including the degenerate corners: 1-wide layers, 1-sample datasets,
//! batch sizes larger than the dataset.

use hetero_oracles::ann::{RefBagging, RefNetwork, RefTrainer};
use proptest::prelude::*;
use tinyann::{Activation, Bagging, Dataset, Network, TrainConfig, Trainer, Workspace};

/// Deterministic data generator local to the tests (independent of the
/// library's internal RNG).
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roughly standard-normal-ish values in [-2, 2).
    fn next_val(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 4.0 - 2.0
    }

    fn rows(&mut self, count: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|_| (0..dim).map(|_| self.next_val()).collect())
            .collect()
    }
}

fn activations() -> Vec<Activation> {
    vec![
        Activation::Identity,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ]
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

proptest! {
    /// Same seed, same topology → bitwise-equal parameter tensors.
    #[test]
    fn construction_is_bit_identical(
        dims in prop::collection::vec(1usize..8, 2..6),
        activation in prop::sample::select(activations()),
        seed in 0u64..1_000_000,
    ) {
        let flat = Network::new(&dims, activation, seed);
        let reference = RefNetwork::new(&dims, activation, seed);
        prop_assert_eq!(flat.parameter_count(), reference.parameter_count());
        assert_bits_eq(flat.params(), &reference.params_flat(), "init params");
    }

    /// Forward passes and losses agree bitwise, including through a reused
    /// workspace.
    #[test]
    fn forward_and_loss_are_bit_identical(
        dims in prop::collection::vec(1usize..8, 2..6),
        activation in prop::sample::select(activations()),
        seed in 0u64..1_000_000,
        data_seed in 0u64..1_000_000,
        samples in 1usize..12,
    ) {
        let flat = Network::new(&dims, activation, seed);
        let reference = RefNetwork::new(&dims, activation, seed);
        let mut gen = Gen(data_seed);
        let inputs = gen.rows(samples, dims[0]);
        let targets = gen.rows(samples, dims[dims.len() - 1]);
        let mut ws = Workspace::for_network(&flat);
        for (x, t) in inputs.iter().zip(&targets) {
            let yf = flat.forward_with(&mut ws, x).to_vec();
            let yr = reference.forward(x);
            assert_bits_eq(&yf, &yr, "forward");
            prop_assert_eq!(
                flat.loss_with(&mut ws, x, t).to_bits(),
                reference.loss(x, t).to_bits()
            );
        }
        prop_assert_eq!(
            flat.mean_loss_with(&mut ws, &inputs, &targets).to_bits(),
            reference.mean_loss(&inputs, &targets).to_bits()
        );
    }

    /// The fused forward+backward pass produces bitwise-equal losses and
    /// gradients.
    #[test]
    fn gradients_are_bit_identical(
        dims in prop::collection::vec(1usize..8, 2..6),
        activation in prop::sample::select(activations()),
        seed in 0u64..1_000_000,
        data_seed in 0u64..1_000_000,
    ) {
        let flat = Network::new(&dims, activation, seed);
        let reference = RefNetwork::new(&dims, activation, seed);
        let mut gen = Gen(data_seed);
        let x: Vec<f64> = gen.rows(1, dims[0]).remove(0);
        let t: Vec<f64> = gen.rows(1, dims[dims.len() - 1]).remove(0);
        let (loss_f, grads_f) = flat.loss_and_gradients(&x, &t);
        let (loss_r, grads_r) = reference.loss_and_gradients(&x, &t);
        prop_assert_eq!(loss_f.to_bits(), loss_r.to_bits());
        assert_bits_eq(&grads_f, &grads_r, "gradients");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sequence of momentum-SGD steps through a reused workspace leaves
    /// weights, velocities, and reported losses bitwise equal to the
    /// allocating reference (batch sizes vary per step, down to 1).
    #[test]
    fn train_batches_are_bit_identical(
        dims in prop::collection::vec(1usize..7, 2..5),
        activation in prop::sample::select(activations()),
        seed in 0u64..1_000_000,
        data_seed in 0u64..1_000_000,
        steps in 1usize..5,
        batch in 1usize..9,
    ) {
        let mut flat = Network::new(&dims, activation, seed);
        let mut reference = RefNetwork::new(&dims, activation, seed);
        let mut ws = Workspace::for_network(&flat);
        let mut gen = Gen(data_seed);
        for _ in 0..steps {
            let inputs = gen.rows(batch, dims[0]);
            let targets = gen.rows(batch, dims[dims.len() - 1]);
            let lf = flat.train_batch_with(&mut ws, &inputs, &targets, 0.05, 0.9);
            let lr = reference.train_batch(&inputs, &targets, 0.05, 0.9);
            prop_assert_eq!(lf.to_bits(), lr.to_bits());
        }
        assert_bits_eq(flat.params(), &reference.params_flat(), "trained params");
        assert_bits_eq(flat.velocity(), &reference.velocity_flat(), "velocities");
    }

    /// Full training runs (split, standardise, shuffle, early-stop) agree:
    /// trained weights, reports, and predictions are bitwise equal. Dataset
    /// sizes go down to a single sample.
    #[test]
    fn trainer_is_bit_identical(
        hidden in prop::collection::vec(1usize..6, 0..3),
        activation in prop::sample::select(activations()),
        seed in 0u64..100_000,
        data_seed in 0u64..100_000,
        samples in 1usize..25,
        in_dim in 1usize..4,
        out_dim in 1usize..3,
        batch_size in 1usize..6,
        epochs in 1usize..6,
    ) {
        let mut dims = vec![in_dim];
        dims.extend(&hidden);
        dims.push(out_dim);
        let mut gen = Gen(data_seed);
        let inputs = gen.rows(samples, in_dim);
        let targets = gen.rows(samples, out_dim);
        let dataset = Dataset::new(inputs.clone(), targets).unwrap();
        let config = TrainConfig {
            epochs,
            batch_size,
            patience: 2,
            seed: seed ^ 0xD15C,
            ..TrainConfig::default()
        };
        let flat = Trainer::new(config).fit(Network::new(&dims, activation, seed), &dataset);
        let reference =
            RefTrainer::new(config).fit(RefNetwork::new(&dims, activation, seed), &dataset);
        assert_bits_eq(
            flat.network().params(),
            &reference.network().params_flat(),
            "trained params",
        );
        prop_assert_eq!(flat.report().epochs_run, reference.report().epochs_run);
        prop_assert_eq!(
            flat.report().train_loss.to_bits(),
            reference.report().train_loss.to_bits()
        );
        prop_assert_eq!(
            flat.report().validation_loss.to_bits(),
            reference.report().validation_loss.to_bits()
        );
        prop_assert_eq!(
            flat.report().test_loss.to_bits(),
            reference.report().test_loss.to_bits()
        );
        for x in inputs.iter().take(5) {
            assert_bits_eq(&flat.predict(x), &reference.predict(x), "prediction");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bagged ensembles agree end to end: every member's trained weights,
    /// per-row predictions, and the batched inference path — at one worker
    /// and at several.
    #[test]
    fn bagging_is_bit_identical(
        activation in prop::sample::select(activations()),
        seed in 0u64..100_000,
        data_seed in 0u64..100_000,
        members in 1usize..4,
        width in 1usize..5,
    ) {
        let mut gen = Gen(data_seed);
        let inputs = gen.rows(14, 2);
        let targets = gen.rows(14, 1);
        let dataset = Dataset::new(inputs.clone(), targets).unwrap();
        let dims = [2, width, 1];
        let config = TrainConfig {
            epochs: 4,
            batch_size: 4,
            patience: 2,
            seed: seed ^ 0xBA66,
            ..TrainConfig::default()
        };
        let reference = RefBagging::train(&dataset, members, &dims, activation, config);
        for workers in [1, 3] {
            let flat =
                Bagging::train_with_threads(&dataset, members, &dims, activation, config, workers);
            prop_assert_eq!(flat.len(), reference.len());
            for (fm, rm) in flat.models().iter().zip(reference.models()) {
                assert_bits_eq(
                    fm.network().params(),
                    &rm.network().params_flat(),
                    "member params",
                );
            }
            let batched = flat.predict_batch(&inputs);
            for (x, row) in inputs.iter().zip(&batched) {
                assert_bits_eq(&flat.predict(x), &reference.predict(x), "predict");
                assert_bits_eq(row, &reference.predict(x), "predict_batch");
            }
        }
    }
}

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

/// Satellite check: reusing one workspace (and gradient accumulator)
/// across all epochs leaves every epoch's results unchanged — the flat
/// trainer matches the legacy allocate-per-batch reference loop down to
/// the last bit of the trained weights, the report, and predictions.
#[test]
fn workspace_reuse_across_epochs_matches_reference_trainer() {
    let dataset = linear_dataset(48);
    let config = TrainConfig {
        epochs: 40,
        patience: 15,
        ..TrainConfig::default()
    };
    let flat = Trainer::new(config).fit(Network::new(&[2, 5, 1], Activation::Tanh, 3), &dataset);
    let reference =
        RefTrainer::new(config).fit(RefNetwork::new(&[2, 5, 1], Activation::Tanh, 3), &dataset);

    assert_eq!(
        flat.network().params(),
        reference.network().params_flat().as_slice(),
        "trained weights diverged"
    );
    assert_eq!(flat.report().epochs_run, reference.report().epochs_run);
    assert_eq!(
        flat.report().train_loss.to_bits(),
        reference.report().train_loss.to_bits()
    );
    assert_eq!(
        flat.report().validation_loss.to_bits(),
        reference.report().validation_loss.to_bits()
    );
    assert_eq!(
        flat.report().test_loss.to_bits(),
        reference.report().test_loss.to_bits()
    );
    for probe in [[0.0, 1.0], [0.4, 0.6], [0.9, 0.1]] {
        let a = flat.predict(&probe);
        let b = reference.predict(&probe);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
