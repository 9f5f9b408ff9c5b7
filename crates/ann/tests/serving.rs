//! Serving-path integration: the distilled student must track the exact
//! f64 ensemble within serving tolerance, and incremental retraining must
//! be deterministic and actually adapt.

use tinyann::{Activation, Bagging, Dataset, DistillConfig, TrainConfig};

/// A 2-D regression task with enough structure that a distilled model
/// has real work to do: `y = sin(4 x0) + 0.5 x1`.
fn dataset(n: usize) -> Dataset {
    let inputs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            vec![x, (x * 7.0).cos()]
        })
        .collect();
    let targets: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| vec![(4.0 * x[0]).sin() + 0.5 * x[1]])
        .collect();
    Dataset::new(inputs, targets).unwrap()
}

fn probes(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let x = (i as f64 + 0.31) / n as f64;
            vec![x, (x * 7.0).cos()]
        })
        .collect()
}

fn teacher() -> Bagging {
    Bagging::train(
        &dataset(140),
        6,
        &[2, 10, 5, 1],
        Activation::Tanh,
        TrainConfig {
            epochs: 150,
            ..TrainConfig::default()
        },
    )
}

#[test]
fn distilled_student_tracks_the_teacher_closely() {
    let exact = teacher();
    let anchors: Vec<Vec<f64>> = dataset(140).inputs().to_vec();
    let student = exact.distill(
        &anchors,
        &DistillConfig {
            replicas: 6,
            jitter: 0.05,
            hidden: vec![16],
            train: TrainConfig {
                epochs: 250,
                ..TrainConfig::default()
            },
        },
    );
    let probes = probes(64);
    let teacher_out = exact.predict_batch(&probes);
    let student_out = student.predict_batch(&probes);
    let rmse: f64 = (teacher_out
        .iter()
        .zip(&student_out)
        .map(|(t, s)| (t[0] - s[0]).powi(2))
        .sum::<f64>()
        / probes.len() as f64)
        .sqrt();
    assert!(rmse < 0.08, "student RMSE vs teacher {rmse}");
}

#[test]
fn refine_is_deterministic_and_a_true_continuation() {
    let base = teacher();
    let new_inputs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 12.0, 0.0]).collect();
    let new_targets: Vec<Vec<f64>> = new_inputs.iter().map(|x| vec![2.0 - x[0]]).collect();
    let config = TrainConfig {
        epochs: 30,
        ..TrainConfig::default()
    };
    let mut a = base.clone();
    let mut b = base.clone();
    a.refine(&new_inputs, &new_targets, &config);
    b.refine(&new_inputs, &new_targets, &config);
    assert_eq!(a.models(), b.models(), "refine must be deterministic");
    // Refinement must have moved the weights (it is not a no-op).
    assert_ne!(a.models(), base.models());
}

#[test]
fn refine_adapts_to_a_shifted_regime_without_full_rebuild() {
    let mut ensemble = teacher();
    // Regime shift: the target function gains a constant offset (the
    // drift-scenario shape: same features, new best answers).
    let shift = 1.5;
    let drift_inputs: Vec<Vec<f64>> = dataset(140).inputs().to_vec();
    let drift_targets: Vec<Vec<f64>> = drift_inputs
        .iter()
        .map(|x| vec![(4.0 * x[0]).sin() + 0.5 * x[1] + shift])
        .collect();

    let err = |e: &Bagging| -> f64 {
        let out = e.predict_batch(&drift_inputs);
        (out.iter()
            .zip(&drift_targets)
            .map(|(p, t)| (p[0] - t[0]).powi(2))
            .sum::<f64>()
            / drift_inputs.len() as f64)
            .sqrt()
    };

    let before = err(&ensemble);
    ensemble.refine(
        &drift_inputs,
        &drift_targets,
        &TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        },
    );
    let after = err(&ensemble);
    assert!(
        after < before * 0.5,
        "refine must at least halve the drift error: {before} -> {after}"
    );
}
