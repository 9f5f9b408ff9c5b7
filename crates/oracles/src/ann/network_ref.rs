//! The serial reference network: the original per-`Vec` multilayer
//! perceptron, preserved verbatim as the ground truth the flat-tensor
//! engine in [`tinyann::Network`] must match bit for bit.
//!
//! Mirrors the fused-sweep pattern from the cache simulator: the naive,
//! obviously-correct implementation stays in the tree (and in the test
//! suite, and in the perf gate as the "reference" side); the optimised
//! engine is property-tested against it for exact equality of losses,
//! gradients, predictions, and fully trained weights.
//!
//! Nothing here is on a hot path — every `forward`/`backward` allocates
//! fresh `Vec`s, exactly as the legacy code did.

use tinyann::{Activation, SplitMix64};

/// One fully-connected layer: `y = act(W x + b)`.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim x in_dim`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    activation: Activation,
    // Momentum velocity buffers.
    weight_velocity: Vec<f64>,
    bias_velocity: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut SplitMix64) -> Self {
        // Xavier/Glorot uniform initialisation.
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.next_symmetric(limit))
            .collect();
        Dense {
            in_dim,
            out_dim,
            weights,
            biases: vec![0.0; out_dim],
            activation,
            weight_velocity: vec![0.0; in_dim * out_dim],
            bias_velocity: vec![0.0; out_dim],
        }
    }

    /// Pre-activations `z = W x + b`.
    fn pre_activation(&self, input: &[f64]) -> Vec<f64> {
        let mut z = self.biases.clone();
        for (o, z_o) in z.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            *z_o += row.iter().zip(input).map(|(w, x)| w * x).sum::<f64>();
        }
        z
    }
}

/// Per-layer cache from a forward pass, consumed by backprop.
#[derive(Debug, Clone)]
struct LayerCache {
    input: Vec<f64>,
    pre_activation: Vec<f64>,
}

/// The reference feedforward network (legacy per-`Vec` engine).
///
/// Same topology rules as [`tinyann::Network`]: hidden layers use the chosen
/// activation, the output layer is linear, weights are Xavier-initialised
/// from the seed. Construction consumes the RNG in the identical order, so
/// `RefNetwork::new(dims, act, seed)` and `Network::new(dims, act, seed)`
/// hold bitwise-equal parameters.
///
/// ```
/// use hetero_oracles::ann::RefNetwork;
/// use tinyann::{Activation, Network};
///
/// let reference = RefNetwork::new(&[4, 3, 1], Activation::Tanh, 9);
/// let flat = Network::new(&[4, 3, 1], Activation::Tanh, 9);
/// assert_eq!(reference.params_flat(), flat.params());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RefNetwork {
    layers: Vec<Dense>,
}

impl RefNetwork {
    /// Build a network with the given layer widths (`dims[0]` is the input
    /// dimension, `dims[last]` the output dimension).
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries or any zero entry.
    pub fn new(dims: &[usize], hidden_activation: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dimensions");
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let mut rng = SplitMix64::new(seed);
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let activation = if i == last {
                    Activation::Identity
                } else {
                    hidden_activation
                };
                Dense::new(pair[0], pair[1], activation, &mut rng)
            })
            .collect();
        RefNetwork { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Total trainable parameters (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// All parameters in the flat engine's layout (per layer: row-major
    /// weights, then biases), for bitwise comparison with
    /// [`tinyann::Network::params`].
    pub fn params_flat(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            flat.extend_from_slice(&layer.weights);
            flat.extend_from_slice(&layer.biases);
        }
        flat
    }

    /// Momentum velocities in the same flat layout, for bitwise comparison
    /// with [`tinyann::Network::velocity`].
    pub fn velocity_flat(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.parameter_count());
        for layer in &self.layers {
            flat.extend_from_slice(&layer.weight_velocity);
            flat.extend_from_slice(&layer.bias_velocity);
        }
        flat
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut x = input.to_vec();
        for layer in &self.layers {
            let z = layer.pre_activation(&x);
            x = z.iter().map(|&v| layer.activation.apply(v)).collect();
        }
        x
    }

    /// Forward pass retaining per-layer caches.
    fn forward_cached(&self, input: &[f64]) -> (Vec<LayerCache>, Vec<f64>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut x = input.to_vec();
        for layer in &self.layers {
            let z = layer.pre_activation(&x);
            let out = z.iter().map(|&v| layer.activation.apply(v)).collect();
            caches.push(LayerCache {
                input: x,
                pre_activation: z,
            });
            x = out;
        }
        (caches, x)
    }

    /// Half-MSE loss of one sample: `0.5 * |y - t|^2`.
    pub fn loss(&self, input: &[f64], target: &[f64]) -> f64 {
        let y = self.forward(input);
        0.5 * y
            .iter()
            .zip(target)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
    }

    /// Mean loss over a set of samples.
    pub fn mean_loss(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        inputs
            .iter()
            .zip(targets)
            .map(|(x, t)| self.loss(x, t))
            .sum::<f64>()
            / inputs.len() as f64
    }

    /// Loss and gradients of one sample, the gradients in the flat layout
    /// (for bitwise comparison against the flat engine).
    pub fn loss_and_gradients(&self, input: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
        let mut grads = Gradients::zeros(self);
        let loss = self.backward(input, target, &mut grads);
        let mut flat = Vec::with_capacity(self.parameter_count());
        for layer in &grads.layers {
            flat.extend_from_slice(&layer.weights);
            flat.extend_from_slice(&layer.biases);
        }
        (loss, flat)
    }

    /// Accumulate gradients for one sample into `grads`. Returns the loss.
    fn backward(&self, input: &[f64], target: &[f64], grads: &mut Gradients) -> f64 {
        let (caches, output) = self.forward_cached(input);
        let loss = 0.5
            * output
                .iter()
                .zip(target)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>();

        // delta at output: (y - t) .* act'(z)
        let mut delta: Vec<f64> = output
            .iter()
            .zip(target)
            .zip(&caches.last().expect("non-empty").pre_activation)
            .map(|((y, t), &z)| (y - t) * self.layers.last().unwrap().activation.derivative(z))
            .collect();

        for (index, layer) in self.layers.iter().enumerate().rev() {
            let cache = &caches[index];
            let grad = &mut grads.layers[index];
            for (o, &d) in delta.iter().enumerate() {
                grad.biases[o] += d;
                let row = &mut grad.weights[o * layer.in_dim..(o + 1) * layer.in_dim];
                for (w, &x) in row.iter_mut().zip(&cache.input) {
                    *w += d * x;
                }
            }
            if index > 0 {
                // Propagate: delta_prev = (W^T delta) .* act'(z_prev)
                let prev_layer = &self.layers[index - 1];
                let prev_z = &caches[index - 1].pre_activation;
                let mut next_delta = vec![0.0; layer.in_dim];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &layer.weights[o * layer.in_dim..(o + 1) * layer.in_dim];
                    for (nd, &w) in next_delta.iter_mut().zip(row) {
                        *nd += w * d;
                    }
                }
                for (nd, &z) in next_delta.iter_mut().zip(prev_z) {
                    *nd *= prev_layer.activation.derivative(z);
                }
                delta = next_delta;
            }
        }
        loss
    }

    /// One mini-batch SGD step with momentum. Returns the mean sample loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_batch(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        assert!(!inputs.is_empty(), "empty batch");
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        let mut grads = Gradients::zeros(self);
        let mut total = 0.0;
        for (x, t) in inputs.iter().zip(targets) {
            total += self.backward(x, t, &mut grads);
        }
        let scale = 1.0 / inputs.len() as f64;
        for (layer, grad) in self.layers.iter_mut().zip(&grads.layers) {
            for ((w, v), &g) in layer
                .weights
                .iter_mut()
                .zip(&mut layer.weight_velocity)
                .zip(&grad.weights)
            {
                *v = momentum * *v - learning_rate * g * scale;
                *w += *v;
            }
            for ((b, v), &g) in layer
                .biases
                .iter_mut()
                .zip(&mut layer.bias_velocity)
                .zip(&grad.biases)
            {
                *v = momentum * *v - learning_rate * g * scale;
                *b += *v;
            }
        }
        total * scale
    }
}

/// Gradient accumulators mirroring the network's layer shapes.
struct Gradients {
    layers: Vec<LayerGrad>,
}

struct LayerGrad {
    weights: Vec<f64>,
    biases: Vec<f64>,
}

impl Gradients {
    fn zeros(network: &RefNetwork) -> Self {
        Gradients {
            layers: network
                .layers
                .iter()
                .map(|l| LayerGrad {
                    weights: vec![0.0; l.weights.len()],
                    biases: vec![0.0; l.biases.len()],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_determinism() {
        let net = RefNetwork::new(&[3, 5, 2], Activation::Tanh, 1);
        let out = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out, net.forward(&[0.1, -0.2, 0.3]));
    }

    #[test]
    fn same_seed_same_network() {
        let a = RefNetwork::new(&[4, 6, 1], Activation::Sigmoid, 9);
        let b = RefNetwork::new(&[4, 6, 1], Activation::Sigmoid, 9);
        assert_eq!(a, b);
        let c = RefNetwork::new(&[4, 6, 1], Activation::Sigmoid, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_validates_input_length() {
        let net = RefNetwork::new(&[3, 2], Activation::Tanh, 0);
        let _ = net.forward(&[1.0]);
    }

    /// The analytic gradient must match a central finite difference on every
    /// parameter of a small network.
    #[test]
    #[allow(clippy::needless_range_loop)] // the index drives the perturbation
    fn gradient_check_against_finite_differences() {
        let mut net = RefNetwork::new(&[2, 3, 2], Activation::Tanh, 5);
        let input = vec![0.4, -0.7];
        let target = vec![0.2, -0.1];

        let (_, analytic) = net.loss_and_gradients(&input, &target);

        let eps = 1e-6;
        let count = net.parameter_count();
        for p_index in 0..count {
            // Perturb through the flat view by rebuilding layer storage:
            // walk layers to find the owning parameter.
            let mut remaining = p_index;
            let mut loc = None;
            for (layer_index, layer) in net.layers.iter().enumerate() {
                if remaining < layer.weights.len() {
                    loc = Some((layer_index, true, remaining));
                    break;
                }
                remaining -= layer.weights.len();
                if remaining < layer.biases.len() {
                    loc = Some((layer_index, false, remaining));
                    break;
                }
                remaining -= layer.biases.len();
            }
            let (layer_index, is_weight, slot) = loc.expect("in range");
            let read = |net: &RefNetwork| {
                if is_weight {
                    net.layers[layer_index].weights[slot]
                } else {
                    net.layers[layer_index].biases[slot]
                }
            };
            let write = |net: &mut RefNetwork, v: f64| {
                if is_weight {
                    net.layers[layer_index].weights[slot] = v;
                } else {
                    net.layers[layer_index].biases[slot] = v;
                }
            };
            let original = read(&net);
            write(&mut net, original + eps);
            let plus = net.loss(&input, &target);
            write(&mut net, original - eps);
            let minus = net.loss(&input, &target);
            write(&mut net, original);
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[p_index]).abs() < 1e-5,
                "param {p_index}: numeric {numeric} vs {}",
                analytic[p_index]
            );
        }
    }

    #[test]
    fn empty_mean_loss_is_zero() {
        let net = RefNetwork::new(&[2, 1], Activation::Tanh, 0);
        assert_eq!(net.mean_loss(&[], &[]), 0.0);
    }
}
