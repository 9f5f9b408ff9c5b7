//! The flat-tensor multilayer perceptron engine.
//!
//! All parameters of a [`Network`] live in **one contiguous `Vec<f64>`**
//! (per layer: row-major weights, then biases) addressed through a small
//! per-layer offset table, and every hot entry point has a `*_with` variant
//! that threads a preallocated [`Workspace`] through the computation.  In
//! steady state — batch after batch, sample after sample — training and
//! inference perform **zero heap allocations**: activations, pre-activations,
//! deltas, and gradient accumulators all live in the workspace, forward and
//! backward are fused into a single pass over the layer table, and the
//! activation functions are monomorphised per layer.
//!
//! The arithmetic is kept in the *exact* order of the legacy per-`Vec`
//! implementation (which survives as `hetero_oracles::ann::RefNetwork`), so
//! losses, gradients, predictions, and fully trained weights are
//! bit-identical to the reference engine — property-tested in
//! `tests/flat_vs_ref.rs`.

use crate::activation::Activation;
use crate::rng::SplitMix64;

/// Offset-table entry: one dense layer inside the flat parameter tensor.
///
/// The layer's weights occupy `params[weights..weights + in_dim * out_dim]`
/// (row-major `out_dim x in_dim`) and its biases
/// `params[biases..biases + out_dim]`, with `biases == weights + in_dim *
/// out_dim` by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layer {
    in_dim: usize,
    out_dim: usize,
    weights: usize,
    biases: usize,
    activation: Activation,
}

/// Monomorphised activation kernel: the per-layer inner loops are
/// instantiated once per variant so the element-wise function is a direct
/// call, not an enum match per neuron.
///
/// `derivative` receives both the pre-activation `z` and the stored
/// activation `a = apply(z)` so each kernel can pick whichever makes the
/// derivative cheapest *without changing its bits*: `Tanh` uses `1 - a*a`
/// (identical to the reference's `1 - tanh(z)*tanh(z)` because `a` *is*
/// `z.tanh()`), `Sigmoid` uses `a*(1-a)`, `Relu` needs the sign of `z`.
trait ActKernel {
    fn apply(x: f64) -> f64;
    fn derivative(z: f64, a: f64) -> f64;
}

struct IdentityK;
struct ReluK;
struct SigmoidK;
struct TanhK;

impl ActKernel for IdentityK {
    #[inline(always)]
    fn apply(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn derivative(_z: f64, _a: f64) -> f64 {
        1.0
    }
}

impl ActKernel for ReluK {
    #[inline(always)]
    fn apply(x: f64) -> f64 {
        x.max(0.0)
    }
    #[inline(always)]
    fn derivative(z: f64, _a: f64) -> f64 {
        if z > 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

impl ActKernel for SigmoidK {
    #[inline(always)]
    fn apply(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }
    #[inline(always)]
    fn derivative(_z: f64, a: f64) -> f64 {
        a * (1.0 - a)
    }
}

impl ActKernel for TanhK {
    #[inline(always)]
    fn apply(x: f64) -> f64 {
        x.tanh()
    }
    #[inline(always)]
    fn derivative(_z: f64, a: f64) -> f64 {
        1.0 - a * a
    }
}

/// `z = W x + b; a = act(z)` for one layer. The accumulation starts at
/// `0.0` and adds the bias last — the exact order of the reference's
/// `biases.clone()` + `row.zip(input).map(mul).sum::<f64>()`.
#[inline(always)]
fn forward_layer<K: ActKernel>(
    weights: &[f64],
    biases: &[f64],
    in_dim: usize,
    x: &[f64],
    z: &mut [f64],
    a: &mut [f64],
) {
    for (o, &bias) in biases.iter().enumerate() {
        let row = &weights[o * in_dim..(o + 1) * in_dim];
        let mut acc = 0.0;
        for (w, xv) in row.iter().zip(x) {
            acc += w * xv;
        }
        let zo = bias + acc;
        z[o] = zo;
        a[o] = K::apply(zo);
    }
}

#[inline(always)]
fn forward_layer_dispatch(
    activation: Activation,
    weights: &[f64],
    biases: &[f64],
    in_dim: usize,
    x: &[f64],
    z: &mut [f64],
    a: &mut [f64],
) {
    match activation {
        Activation::Identity => forward_layer::<IdentityK>(weights, biases, in_dim, x, z, a),
        Activation::Relu => forward_layer::<ReluK>(weights, biases, in_dim, x, z, a),
        Activation::Sigmoid => forward_layer::<SigmoidK>(weights, biases, in_dim, x, z, a),
        Activation::Tanh => forward_layer::<TanhK>(weights, biases, in_dim, x, z, a),
    }
}

/// Output-layer delta: `d = (y - t) * act'(z)`.
#[inline(always)]
fn output_delta<K: ActKernel>(out: &[f64], target: &[f64], z: &[f64], delta: &mut [f64]) {
    for (o, d) in delta.iter_mut().enumerate() {
        *d = (out[o] - target[o]) * K::derivative(z[o], out[o]);
    }
}

#[inline(always)]
fn output_delta_dispatch(
    activation: Activation,
    out: &[f64],
    target: &[f64],
    z: &[f64],
    delta: &mut [f64],
) {
    match activation {
        Activation::Identity => output_delta::<IdentityK>(out, target, z, delta),
        Activation::Relu => output_delta::<ReluK>(out, target, z, delta),
        Activation::Sigmoid => output_delta::<SigmoidK>(out, target, z, delta),
        Activation::Tanh => output_delta::<TanhK>(out, target, z, delta),
    }
}

/// `delta[i] *= act'(z[i])` — the back-propagation step through a hidden
/// layer's activation.
#[inline(always)]
fn scale_by_derivative<K: ActKernel>(z: &[f64], a: &[f64], delta: &mut [f64]) {
    for ((d, &zv), &av) in delta.iter_mut().zip(z).zip(a) {
        *d *= K::derivative(zv, av);
    }
}

#[inline(always)]
fn scale_by_derivative_dispatch(activation: Activation, z: &[f64], a: &[f64], delta: &mut [f64]) {
    match activation {
        Activation::Identity => scale_by_derivative::<IdentityK>(z, a, delta),
        Activation::Relu => scale_by_derivative::<ReluK>(z, a, delta),
        Activation::Sigmoid => scale_by_derivative::<SigmoidK>(z, a, delta),
        Activation::Tanh => scale_by_derivative::<TanhK>(z, a, delta),
    }
}

/// Preallocated scratch for one network topology: activations,
/// pre-activations, deltas, and gradient accumulators, sized once from the
/// layer widths and reused across every subsequent forward/backward call.
///
/// A workspace is tied to a *shape*, not a particular network — any network
/// with the same `dims` can use it (the bagged ensemble threads one
/// workspace through all of its members).
///
/// ```
/// use tinyann::{Activation, Network, Workspace};
///
/// let network = Network::new(&[4, 6, 1], Activation::Tanh, 1);
/// let mut ws = Workspace::for_network(&network);
/// let y = network.forward_with(&mut ws, &[0.1, 0.2, 0.3, 0.4]).to_vec();
/// assert_eq!(y, network.forward(&[0.1, 0.2, 0.3, 0.4]));
/// ```
#[derive(Debug, Clone)]
pub struct Workspace {
    dims: Vec<usize>,
    /// Activations of every stage, concatenated: stage 0 is the input row,
    /// stage `i > 0` the output of layer `i - 1`.
    acts: Vec<f64>,
    /// Start offset of each stage inside `acts`.
    act_off: Vec<usize>,
    /// Pre-activations of every layer, concatenated.
    zs: Vec<f64>,
    /// Start offset of each layer inside `zs`.
    z_off: Vec<usize>,
    /// Current-layer delta (sized to the widest layer).
    delta: Vec<f64>,
    /// Next (previous-layer) delta, swapped with `delta` while walking back.
    delta_next: Vec<f64>,
    /// Flat gradient accumulator, same layout and length as the network's
    /// parameter tensor.
    grads: Vec<f64>,
}

impl Workspace {
    /// Scratch for networks with the given layer widths.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries or any zero entry.
    pub fn for_dims(dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dimensions");
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let mut act_off = Vec::with_capacity(dims.len());
        let mut total_act = 0;
        for &d in dims {
            act_off.push(total_act);
            total_act += d;
        }
        let mut z_off = Vec::with_capacity(dims.len() - 1);
        let mut total_z = 0;
        for &d in &dims[1..] {
            z_off.push(total_z);
            total_z += d;
        }
        let max_width = *dims.iter().max().expect("non-empty");
        let total_params: usize = dims.windows(2).map(|p| p[0] * p[1] + p[1]).sum();
        Workspace {
            dims: dims.to_vec(),
            acts: vec![0.0; total_act],
            act_off,
            zs: vec![0.0; total_z],
            z_off,
            delta: vec![0.0; max_width],
            delta_next: vec![0.0; max_width],
            grads: vec![0.0; total_params],
        }
    }

    /// Scratch shaped for `network` (and any other network with the same
    /// topology).
    pub fn for_network(network: &Network) -> Self {
        Self::for_dims(network.dims())
    }

    /// The layer widths this workspace is shaped for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The input-stage slot, for callers that stream a row in without an
    /// intermediate buffer (see [`Network::forward_loaded`]).
    pub fn input_mut(&mut self) -> &mut [f64] {
        let n = self.dims[0];
        &mut self.acts[..n]
    }

    /// The output-stage slot of the most recent forward pass.
    pub fn output(&self) -> &[f64] {
        &self.acts[self.act_off[self.dims.len() - 1]..]
    }
}

/// A feedforward network of fully-connected layers, stored as one flat
/// parameter tensor.
///
/// Hidden layers use the chosen activation; the output layer is linear
/// (identity), which is the standard regression head and what the paper's
/// best-cache-size prediction needs.
///
/// The allocating entry points ([`forward`](Network::forward),
/// [`train_batch`](Network::train_batch), …) build a throwaway [`Workspace`]
/// per call; hot paths should hold a workspace and call the `*_with`
/// variants, which never touch the heap.
///
/// ```
/// use tinyann::{Activation, Network};
///
/// // The paper's predictor topology: 18 counters in, {10, 18, 5} hidden, 1 out.
/// let network = Network::new(&[18, 10, 18, 5, 1], Activation::Tanh, 42);
/// assert_eq!(network.input_dim(), 18);
/// assert_eq!(network.output_dim(), 1);
/// assert_eq!(network.forward(&[0.0; 18]).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    dims: Vec<usize>,
    layers: Vec<Layer>,
    /// All parameters: per layer, row-major weights then biases.
    params: Vec<f64>,
    /// Momentum velocities, same layout as `params`.
    velocity: Vec<f64>,
}

impl Network {
    /// Build a network with the given layer widths (`dims[0]` is the input
    /// dimension, `dims[last]` the output dimension). Hidden layers use
    /// `hidden_activation`; the output layer is linear. Weights are
    /// Xavier-initialised from `seed`, consuming the RNG in the same order
    /// as the reference engine (per layer: all weights, biases start at
    /// zero), so equal seeds give bitwise-equal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries or any zero entry.
    pub fn new(dims: &[usize], hidden_activation: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dimensions");
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let mut rng = SplitMix64::new(seed);
        let total: usize = dims.windows(2).map(|p| p[0] * p[1] + p[1]).sum();
        let mut params = Vec::with_capacity(total);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let last = dims.len() - 2;
        for (i, pair) in dims.windows(2).enumerate() {
            let (in_dim, out_dim) = (pair[0], pair[1]);
            let activation = if i == last {
                Activation::Identity
            } else {
                hidden_activation
            };
            // Xavier/Glorot uniform initialisation.
            let limit = (6.0 / (in_dim + out_dim) as f64).sqrt();
            let weights = params.len();
            for _ in 0..in_dim * out_dim {
                params.push(rng.next_symmetric(limit));
            }
            let biases = params.len();
            params.resize(biases + out_dim, 0.0);
            layers.push(Layer {
                in_dim,
                out_dim,
                weights,
                biases,
                activation,
            });
        }
        let velocity = vec![0.0; params.len()];
        Network {
            dims: dims.to_vec(),
            layers,
            params,
            velocity,
        }
    }

    /// The layer widths, input first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.dims[self.dims.len() - 1]
    }

    /// Total trainable parameters (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.params.len()
    }

    /// The flat parameter tensor (per layer: row-major weights, then
    /// biases).
    pub fn params(&self) -> &[f64] {
        &self.params
    }

    /// The flat momentum-velocity tensor (same layout as
    /// [`params`](Network::params)).
    pub fn velocity(&self) -> &[f64] {
        &self.velocity
    }

    fn assert_workspace(&self, ws: &Workspace) {
        assert_eq!(
            ws.dims, self.dims,
            "workspace shaped for a different topology"
        );
    }

    /// Forward pass over the loaded input (stage 0 of `ws.acts`), filling
    /// activations and pre-activations for every stage.
    fn forward_pass(&self, ws: &mut Workspace) {
        for (l, layer) in self.layers.iter().enumerate() {
            let (prior, rest) = ws.acts.split_at_mut(ws.act_off[l + 1]);
            let x = &prior[ws.act_off[l]..];
            let a = &mut rest[..layer.out_dim];
            let z = &mut ws.zs[ws.z_off[l]..ws.z_off[l] + layer.out_dim];
            let w = &self.params[layer.weights..layer.weights + layer.in_dim * layer.out_dim];
            let b = &self.params[layer.biases..layer.biases + layer.out_dim];
            forward_layer_dispatch(layer.activation, w, b, layer.in_dim, x, z, a);
        }
    }

    /// Fused forward + backward for the loaded sample: one walk down the
    /// layer table filling `acts`/`zs`, one walk back up accumulating into
    /// `ws.grads`. Returns the sample loss. Allocation-free.
    fn backward_loaded(&self, ws: &mut Workspace, target: &[f64]) -> f64 {
        self.forward_pass(ws);
        let Workspace {
            acts,
            act_off,
            zs,
            z_off,
            delta,
            delta_next,
            grads,
            ..
        } = ws;
        let nl = self.layers.len();
        let last = self.layers[nl - 1];
        let out = &acts[act_off[nl]..];
        let loss = 0.5
            * out
                .iter()
                .zip(target)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>();

        let z_last = &zs[z_off[nl - 1]..z_off[nl - 1] + last.out_dim];
        output_delta_dispatch(
            last.activation,
            out,
            target,
            z_last,
            &mut delta[..last.out_dim],
        );

        for (index, layer) in self.layers.iter().enumerate().rev() {
            let x = &acts[act_off[index]..act_off[index] + layer.in_dim];
            for o in 0..layer.out_dim {
                let d = delta[o];
                grads[layer.biases + o] += d;
                let row = &mut grads
                    [layer.weights + o * layer.in_dim..layer.weights + (o + 1) * layer.in_dim];
                for (g, &xv) in row.iter_mut().zip(x) {
                    *g += d * xv;
                }
            }
            if index > 0 {
                // Propagate: delta_prev = (W^T delta) .* act'(z_prev)
                let prev = self.layers[index - 1];
                let nd = &mut delta_next[..layer.in_dim];
                nd.fill(0.0);
                for (o, &d) in delta[..layer.out_dim].iter().enumerate() {
                    let row = &self.params
                        [layer.weights + o * layer.in_dim..layer.weights + (o + 1) * layer.in_dim];
                    for (ndv, &wv) in nd.iter_mut().zip(row) {
                        *ndv += wv * d;
                    }
                }
                let pz = &zs[z_off[index - 1]..z_off[index - 1] + prev.out_dim];
                let pa = &acts[act_off[index]..act_off[index] + prev.out_dim];
                scale_by_derivative_dispatch(prev.activation, pz, pa, nd);
                std::mem::swap(delta, delta_next);
            }
        }
        loss
    }

    /// Momentum-SGD update from the gradients accumulated in `ws.grads`.
    /// One contiguous walk over the flat tensors — element order matches
    /// the reference's per-layer weights-then-biases loops exactly.
    fn apply_update(&mut self, ws: &Workspace, learning_rate: f64, momentum: f64, scale: f64) {
        for ((w, v), &g) in self
            .params
            .iter_mut()
            .zip(&mut self.velocity)
            .zip(&ws.grads)
        {
            *v = momentum * *v - learning_rate * g * scale;
            *w += *v;
        }
    }

    /// Forward pass through a caller-held workspace. Allocation-free;
    /// returns the output slice inside the workspace.
    ///
    /// # Panics
    ///
    /// Panics if the input length or the workspace shape mismatch.
    pub fn forward_with<'ws>(&self, ws: &'ws mut Workspace, input: &[f64]) -> &'ws [f64] {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        self.assert_workspace(ws);
        ws.input_mut().copy_from_slice(input);
        self.forward_loaded(ws)
    }

    /// Forward pass over an input the caller already wrote into
    /// [`Workspace::input_mut`] — lets upstream transforms (feature
    /// standardisation, say) stream straight into the workspace with no
    /// intermediate row buffer.
    pub fn forward_loaded<'ws>(&self, ws: &'ws mut Workspace) -> &'ws [f64] {
        self.assert_workspace(ws);
        self.forward_pass(ws);
        &ws.acts[ws.act_off[self.dims.len() - 1]..]
    }

    /// Forward pass (allocating convenience wrapper).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut ws = Workspace::for_dims(&self.dims);
        self.forward_with(&mut ws, input).to_vec()
    }

    /// Half-MSE loss of one sample through a caller-held workspace:
    /// `0.5 * |y - t|^2`. Allocation-free.
    pub fn loss_with(&self, ws: &mut Workspace, input: &[f64], target: &[f64]) -> f64 {
        let y = self.forward_with(ws, input);
        0.5 * y
            .iter()
            .zip(target)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
    }

    /// Half-MSE loss of one sample: `0.5 * |y - t|^2` (allocating
    /// convenience wrapper).
    pub fn loss(&self, input: &[f64], target: &[f64]) -> f64 {
        let mut ws = Workspace::for_dims(&self.dims);
        self.loss_with(&mut ws, input, target)
    }

    /// Mean loss over a set of samples through a caller-held workspace.
    pub fn mean_loss_with(
        &self,
        ws: &mut Workspace,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
    ) -> f64 {
        if inputs.is_empty() {
            return 0.0;
        }
        inputs
            .iter()
            .zip(targets)
            .map(|(x, t)| self.loss_with(ws, x, t))
            .sum::<f64>()
            / inputs.len() as f64
    }

    /// Mean loss over a set of samples (allocating convenience wrapper).
    pub fn mean_loss(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> f64 {
        let mut ws = Workspace::for_dims(&self.dims);
        self.mean_loss_with(&mut ws, inputs, targets)
    }

    /// Loss and flat-layout gradients of one sample — the verification
    /// surface the property tests compare against
    /// `hetero_oracles::ann::RefNetwork::loss_and_gradients`.
    pub fn loss_and_gradients(&self, input: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut ws = Workspace::for_dims(&self.dims);
        ws.input_mut().copy_from_slice(input);
        let loss = self.backward_loaded(&mut ws, target);
        (loss, ws.grads)
    }

    /// One mini-batch SGD step with momentum through a caller-held
    /// workspace. The gradient accumulator is re-zeroed (not reallocated)
    /// per batch; the whole step is allocation-free. Returns the mean
    /// sample loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or shapes mismatch.
    pub fn train_batch_with(
        &mut self,
        ws: &mut Workspace,
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
        self.assert_workspace(ws);
        ws.grads.fill(0.0);
        let mut total = 0.0;
        for (x, t) in inputs.iter().zip(targets) {
            assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
            ws.input_mut().copy_from_slice(x);
            total += self.backward_loaded(ws, t);
        }
        let scale = 1.0 / inputs.len() as f64;
        self.apply_update(ws, learning_rate, momentum, scale);
        total * scale
    }

    /// [`train_batch_with`](Network::train_batch_with) over a batch given
    /// as *indices* into a sample pool — the training loop's shuffled
    /// mini-batches reference the standardised pool directly instead of
    /// cloning rows.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or shapes mismatch.
    pub fn train_batch_indexed_with(
        &mut self,
        ws: &mut Workspace,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        indices: &[usize],
        learning_rate: f64,
        momentum: f64,
    ) -> f64 {
        assert!(!indices.is_empty(), "empty batch");
        self.assert_workspace(ws);
        ws.grads.fill(0.0);
        let mut total = 0.0;
        for &i in indices {
            let x = &inputs[i];
            assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
            ws.input_mut().copy_from_slice(x);
            total += self.backward_loaded(ws, &targets[i]);
        }
        let scale = 1.0 / indices.len() as f64;
        self.apply_update(ws, learning_rate, momentum, scale);
        total * scale
    }

    /// One mini-batch SGD step with momentum (allocating convenience
    /// wrapper). Returns the mean sample loss.
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
        let mut ws = Workspace::for_dims(&self.dims);
        self.train_batch_with(&mut ws, inputs, targets, learning_rate, momentum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_determinism() {
        let net = Network::new(&[3, 5, 2], Activation::Tanh, 1);
        let out = net.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out, net.forward(&[0.1, -0.2, 0.3]));
    }

    #[test]
    fn same_seed_same_network() {
        let a = Network::new(&[4, 6, 1], Activation::Sigmoid, 9);
        let b = Network::new(&[4, 6, 1], Activation::Sigmoid, 9);
        assert_eq!(a, b);
        let c = Network::new(&[4, 6, 1], Activation::Sigmoid, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn parameter_count_matches_topology() {
        let net = Network::new(&[18, 10, 18, 5, 1], Activation::Tanh, 0);
        // (18*10+10) + (10*18+18) + (18*5+5) + (5*1+1)
        assert_eq!(net.parameter_count(), 190 + 198 + 95 + 6);
        assert_eq!(net.params().len(), net.parameter_count());
        assert_eq!(net.velocity().len(), net.parameter_count());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_validates_input_length() {
        let net = Network::new(&[3, 2], Activation::Tanh, 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn workspace_shape_is_validated() {
        let net = Network::new(&[3, 2], Activation::Tanh, 0);
        let mut ws = Workspace::for_dims(&[3, 4, 2]);
        let _ = net.forward_with(&mut ws, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        let mut net = Network::new(&[4, 7, 3, 2], Activation::Sigmoid, 21);
        let mut ws = Workspace::for_network(&net);
        let inputs: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect())
            .collect();
        let targets: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64).cos(), (i as f64 * 0.5).cos()])
            .collect();
        let mut fresh = net.clone();
        for chunk in [
            &[0usize, 1, 2, 3][..],
            &[4, 5, 6][..],
            &[7, 8, 9, 10, 11][..],
        ] {
            let batch_x: Vec<Vec<f64>> = chunk.iter().map(|&i| inputs[i].clone()).collect();
            let batch_t: Vec<Vec<f64>> = chunk.iter().map(|&i| targets[i].clone()).collect();
            let reused = net.train_batch_indexed_with(&mut ws, &inputs, &targets, chunk, 0.05, 0.9);
            let alloc = fresh.train_batch(&batch_x, &batch_t, 0.05, 0.9);
            assert_eq!(reused.to_bits(), alloc.to_bits());
        }
        assert_eq!(net, fresh);
    }

    /// The analytic gradient must match a central finite difference on every
    /// parameter of a small network.
    #[test]
    #[allow(clippy::needless_range_loop)] // the index drives the perturbation
    fn gradient_check_against_finite_differences() {
        let mut net = Network::new(&[2, 3, 2], Activation::Tanh, 5);
        let input = vec![0.4, -0.7];
        let target = vec![0.2, -0.1];

        let (_, analytic) = net.loss_and_gradients(&input, &target);

        let eps = 1e-6;
        for p_index in 0..net.parameter_count() {
            let original = net.params[p_index];
            net.params[p_index] = original + eps;
            let plus = net.loss(&input, &target);
            net.params[p_index] = original - eps;
            let minus = net.loss(&input, &target);
            net.params[p_index] = original;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (numeric - analytic[p_index]).abs() < 1e-5,
                "param {p_index}: numeric {numeric} vs {}",
                analytic[p_index]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_xor() {
        let inputs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let mut net = Network::new(&[2, 8, 1], Activation::Tanh, 11);
        let mut ws = Workspace::for_network(&net);
        let initial = net.mean_loss(&inputs, &targets);
        for _ in 0..3000 {
            net.train_batch_with(&mut ws, &inputs, &targets, 0.5, 0.9);
        }
        let final_loss = net.mean_loss(&inputs, &targets);
        assert!(
            final_loss < initial * 0.05,
            "loss {initial} -> {final_loss}"
        );
        // And actually solves XOR.
        for (x, t) in inputs.iter().zip(&targets) {
            let y = net.forward(x)[0];
            assert!((y - t[0]).abs() < 0.2, "xor({x:?}) = {y}, want {}", t[0]);
        }
    }

    #[test]
    fn empty_mean_loss_is_zero() {
        let net = Network::new(&[2, 1], Activation::Tanh, 0);
        assert_eq!(net.mean_loss(&[], &[]), 0.0);
    }
}
