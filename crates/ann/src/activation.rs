//! Neuron activation functions.

/// Activation function applied element-wise by a layer's processing
/// elements.
///
/// ```
/// use tinyann::Activation;
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert_eq!(Activation::Identity.apply(3.5), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `f(x) = x` — used on regression output layers.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent — the classic choice for small MLPs and the
    /// default for the paper's predictor.
    Tanh,
}

impl Activation {
    /// Apply the function.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative at pre-activation `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for activation in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let numeric = (activation.apply(x + eps) - activation.apply(x - eps)) / (2.0 * eps);
                let analytic = activation.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{activation:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_saturates_at_asymptotes() {
        assert!(Activation::Sigmoid.apply(20.0) > 0.999_999);
        assert!(Activation::Sigmoid.apply(-20.0) < 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        for &x in &[0.1, 0.7, 2.3] {
            let pos = Activation::Tanh.apply(x);
            let neg = Activation::Tanh.apply(-x);
            assert!((pos + neg).abs() < 1e-12);
        }
    }

    #[test]
    fn relu_kink_behaviour() {
        assert_eq!(Activation::Relu.apply(5.0), 5.0);
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.derivative(5.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-5.0), 0.0);
    }
}
