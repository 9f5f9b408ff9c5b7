//! Ensemble distillation: collapse the 30-member bagged ensemble into a
//! single small student network.
//!
//! The paper's predictor averages 30 independently trained ANNs
//! (Sec. IV.D) — great for accuracy, expensive per prediction: every
//! prediction is 30 forward passes through 30 standardizer pairs.
//! Distillation fits **one** student net to the *teacher ensemble's
//! outputs* (not the raw labels): the student learns the ensemble's
//! already-variance-reduced function, which is smoother than the raw
//! data and therefore easier to match closely with a small net.
//!
//! The training set is the caller's anchor rows (in practice: the
//! profiled benchmark feature vectors the ensemble itself was trained
//! on) plus `replicas` jittered copies of each, all labelled by querying
//! the teacher. The jitter serves two purposes: it multiplies the sample
//! count so the student's train/validation/test split has enough rows,
//! and it teaches the student the teacher's behaviour in the
//! *neighbourhood* of each anchor — exactly where drifted or
//! previously unseen jobs land.
//!
//! The student is judged by **argmax agreement**, not bit-identity:
//! `tests/serving.rs` and the `ann_accuracy` binary check that snapping
//! the student's regression output to the paper's cache-size grid picks
//! the same best configuration as the exact ensemble on ≥ 99 % of probes.

use crate::activation::Activation;
use crate::bagging::Bagging;
use crate::data::Dataset;
use crate::network::{Network, Workspace};
use crate::rng::SplitMix64;
use crate::train::{TrainConfig, TrainedModel, Trainer};

/// Hyper-parameters for [`Bagging::distill`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistillConfig {
    /// Jittered copies generated per anchor row (the anchor itself is
    /// always included).
    pub replicas: usize,
    /// Relative jitter amplitude: each feature is scaled by
    /// `1 + jitter * u` with `u` uniform in `[-1, 1)`.
    pub jitter: f64,
    /// Hidden-layer widths of the student network.
    pub hidden: Vec<usize>,
    /// Student training hyper-parameters (`train.seed` also drives the
    /// jitter stream).
    pub train: TrainConfig,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            replicas: 8,
            jitter: 0.05,
            hidden: vec![24],
            train: TrainConfig {
                epochs: 400,
                ..TrainConfig::default()
            },
        }
    }
}

/// A distilled student: one small net standing in for the whole teacher
/// ensemble on the serving path.
#[derive(Debug, Clone, PartialEq)]
pub struct Distilled {
    model: TrainedModel,
    teacher_members: usize,
}

impl Distilled {
    /// The trained student model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Member count of the teacher ensemble this student replaces.
    pub fn teacher_members(&self) -> usize {
        self.teacher_members
    }

    /// Predict through the exact f64 engine (one forward pass instead of
    /// the teacher's `teacher_members`).
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        self.model.predict(input)
    }

    /// Batched f64 predictions threading one workspace through all rows.
    pub fn predict_batch(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut ws = Workspace::for_network(self.model.network());
        let mut out = Vec::new();
        inputs
            .iter()
            .map(|input| {
                self.model.predict_with(&mut ws, input, &mut out);
                out.clone()
            })
            .collect()
    }

    /// Incremental retraining of the student (see
    /// [`TrainedModel::refine`]): continue SGD over newly observed rows
    /// through the existing standardizers.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `targets` have different lengths or any row
    /// has the wrong dimensionality.
    pub fn refine(&mut self, inputs: &[Vec<f64>], targets: &[Vec<f64>], config: &TrainConfig) {
        self.model.refine(inputs, targets, config);
    }
}

impl Bagging {
    /// Distill this ensemble into a single student network.
    ///
    /// `anchors` are raw (unstandardised) feature rows spanning the
    /// region the student must cover; each contributes itself plus
    /// [`DistillConfig::replicas`] jittered copies, all labelled by the
    /// teacher's batched f64 predictions. Deterministic given
    /// `config.train.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty or too small for the student's
    /// 70/15/15 split, or if any row has the wrong dimensionality.
    pub fn distill(&self, anchors: &[Vec<f64>], config: &DistillConfig) -> Distilled {
        assert!(!anchors.is_empty(), "distillation needs anchor rows");
        let mut rng = SplitMix64::new(config.train.seed ^ 0xD157);
        let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(anchors.len() * (config.replicas + 1));
        for anchor in anchors {
            inputs.push(anchor.clone());
            for _ in 0..config.replicas {
                inputs.push(
                    anchor
                        .iter()
                        .map(|&v| v * (1.0 + rng.next_symmetric(config.jitter)))
                        .collect(),
                );
            }
        }
        let targets = self.predict_batch(&inputs);

        let in_dim = anchors[0].len();
        let out_dim = targets[0].len();
        let mut dims = Vec::with_capacity(config.hidden.len() + 2);
        dims.push(in_dim);
        dims.extend_from_slice(&config.hidden);
        dims.push(out_dim);

        let dataset = Dataset::new(inputs, targets).expect("teacher-labelled rows are consistent");
        let student = Network::new(&dims, Activation::Tanh, config.train.seed ^ 0x57D0);
        let model = Trainer::new(config.train).fit(student, &dataset);
        Distilled {
            model,
            teacher_members: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn teacher() -> Bagging {
        let inputs: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                let x = f64::from(i) / 90.0;
                vec![x, (x * 4.0).sin()]
            })
            .collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] + 0.5 * x[1]]).collect();
        let dataset = Dataset::new(inputs, targets).unwrap();
        let config = TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        };
        Bagging::train(&dataset, 5, &[2, 6, 1], Activation::Tanh, config)
    }

    fn anchors() -> Vec<Vec<f64>> {
        (0..45)
            .map(|i| {
                let x = f64::from(i) / 45.0;
                vec![x, (x * 4.0).sin()]
            })
            .collect()
    }

    #[test]
    fn student_tracks_the_teacher_on_anchors() {
        let teacher = teacher();
        let config = DistillConfig {
            replicas: 6,
            hidden: vec![10],
            train: TrainConfig {
                epochs: 250,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        };
        let student = teacher.distill(&anchors(), &config);
        assert_eq!(student.teacher_members(), 5);
        let mut worst = 0.0f64;
        for anchor in anchors() {
            let t = teacher.predict(&anchor)[0];
            let s = student.predict(&anchor)[0];
            worst = worst.max((t - s).abs());
        }
        assert!(worst < 0.1, "student drifted from teacher by {worst}");
    }

    #[test]
    fn distillation_is_deterministic() {
        let teacher = teacher();
        let config = DistillConfig {
            replicas: 3,
            train: TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        };
        let a = teacher.distill(&anchors(), &config);
        let b = teacher.distill(&anchors(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn student_batch_and_single_predictions_agree() {
        let teacher = teacher();
        let config = DistillConfig {
            replicas: 3,
            train: TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            ..DistillConfig::default()
        };
        let student = teacher.distill(&anchors(), &config);
        let probes = anchors();
        let batched = student.predict_batch(&probes[..6]);
        for (probe, row) in probes[..6].iter().zip(&batched) {
            let single = student.predict(probe);
            assert_eq!(row.len(), single.len());
            for (a, b) in row.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "anchor rows")]
    fn empty_anchor_set_rejected() {
        let _ = teacher().distill(&[], &DistillConfig::default());
    }
}
