//! The ANN best-core predictor (paper Sec. IV.C–D).
//!
//! A bagged ensemble of 30 three-hidden-layer MLPs (`{10, 18, 5, 1}`)
//! regresses an application's **best cache size in KB** from its 18
//! hardware-counter execution statistics; the output is snapped to the
//! nearest valid size {2, 4, 8}, which identifies the best core. Training
//! uses a 70/15/15 split and random per-member initialisation, exactly the
//! protocol of Sec. IV.D.

use crate::oracle::SuiteOracle;
use cache_sim::CacheSizeKb;
use tinyann::{
    Activation, Bagging, Dataset, DistillConfig, Distilled, KnnRegressor, RidgeRegression,
    TrainConfig,
};
use workloads::{BenchmarkId, ExecutionStatistics, SplitMix64, FEATURE_COUNT};

/// Hyper-parameters for [`BestCorePredictor::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// Number of bagged networks (paper: 30).
    pub ensemble_size: usize,
    /// Hidden-layer widths (paper: `{10, 18, 5}`).
    pub hidden: Vec<usize>,
    /// Jittered copies of each benchmark's feature vector added to the
    /// training pool. Hardware counters vary a few percent run to run
    /// (interrupts, placement); training on perturbed copies models that
    /// variation and regularises the tiny-sample regression. `0` disables
    /// augmentation.
    pub augmentation: usize,
    /// Relative jitter magnitude for augmented copies.
    pub jitter: f64,
    /// Training hyper-parameters per member.
    pub train: TrainConfig,
}

impl PredictorConfig {
    /// The paper's configuration: 30 bagged ANNs of size `{10, 18, 5, 1}`.
    pub fn paper() -> Self {
        PredictorConfig {
            ensemble_size: 30,
            hidden: vec![10, 18, 5],
            augmentation: 12,
            jitter: 0.04,
            train: TrainConfig {
                epochs: 600,
                batch_size: 16,
                learning_rate: 0.02,
                momentum: 0.9,
                patience: 150,
                seed: 0xC0FE,
            },
        }
    }

    /// A reduced configuration for fast tests and doc examples: 3 members,
    /// one small hidden layer, short training.
    pub fn fast() -> Self {
        PredictorConfig {
            ensemble_size: 3,
            hidden: vec![8],
            augmentation: 6,
            jitter: 0.04,
            train: TrainConfig {
                epochs: 150,
                batch_size: 16,
                learning_rate: 0.05,
                momentum: 0.9,
                patience: 40,
                seed: 0xC0FE,
            },
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::paper()
    }
}

/// Trained best-cache-size predictor.
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::{BestCorePredictor, PredictorConfig, SuiteOracle};
/// use workloads::{BenchmarkId, Suite};
///
/// let oracle = SuiteOracle::build(&Suite::eembc_like_small(), &EnergyModel::default());
/// let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
/// let size = predictor.predict(&oracle.execution_statistics(BenchmarkId(2)));
/// assert!(matches!(size.kilobytes(), 2 | 4 | 8));
/// ```
#[derive(Debug, Clone)]
pub struct BestCorePredictor {
    model: Model,
    /// Precomputed per-benchmark predictions. A benchmark's profiled
    /// features are fixed, so the 30-network ensemble runs **once per
    /// benchmark** at train time (through the flat engine's batched
    /// inference) instead of once per completing job; the testbed's 5000
    /// jobs then pay a table lookup. Bit-identical to evaluating the
    /// ensemble on demand — `predict_batch` is property-tested equal to
    /// per-call `predict`.
    memo: Vec<(BenchmarkId, CacheSizeKb)>,
}

/// The model families the predictor can be backed by. The ANN is the
/// paper's choice; ridge regression and k-NN cover the paper's future-work
/// comparison ("evaluating different machine learning techniques") and its
/// related-work lineage (regression counters [3][11][22]; Euclidean-
/// distance matching of Chen et al. [4]).
#[derive(Debug, Clone)]
enum Model {
    Ann(Bagging),
    Ridge(RidgeRegression),
    Knn(KnnRegressor),
    Distilled(Distilled),
}

/// Which model family backs a predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Bagged ANN ensemble (the paper's predictor).
    Ann,
    /// Ridge linear regression.
    Ridge,
    /// k-nearest-neighbour regression.
    Knn,
    /// A single student net distilled from the ANN ensemble
    /// ([`BestCorePredictor::distill`]).
    Distilled,
}

impl BestCorePredictor {
    /// Train on every benchmark the oracle covers: features are the
    /// base-configuration execution statistics, labels the oracle's best
    /// cache size in KB.
    ///
    /// Ensemble members train on worker threads (`HETERO_THREADS` governs
    /// the count); the trained predictor is bit-identical at any worker
    /// count — see [`train_with_threads`](Self::train_with_threads).
    pub fn train(oracle: &SuiteOracle, config: &PredictorConfig) -> Self {
        Self::train_excluding(oracle, &[], config)
    }

    /// [`train`](Self::train) with an explicit worker count for ensemble
    /// training (`workers = 1` is the exact serial path).
    pub fn train_with_threads(
        oracle: &SuiteOracle,
        config: &PredictorConfig,
        workers: usize,
    ) -> Self {
        Self::train_excluding_observed(oracle, &[], config, workers, &mut crate::NullStageObserver)
    }

    /// Train with some benchmarks held out (leave-one-out evaluation of
    /// the Sec. IV.D "< 2 % energy degradation" claim).
    ///
    /// # Panics
    ///
    /// Panics if exclusion leaves no training benchmarks.
    pub fn train_excluding(
        oracle: &SuiteOracle,
        excluded: &[BenchmarkId],
        config: &PredictorConfig,
    ) -> Self {
        Self::train_excluding_observed(
            oracle,
            excluded,
            config,
            hetero_parallel::worker_count(),
            &mut crate::NullStageObserver,
        )
    }

    /// [`train_excluding`](Self::train_excluding) with an explicit worker
    /// count and its three phases bracketed by a
    /// [`StageObserver`](crate::StageObserver): `predictor_dataset`
    /// (training-set assembly and augmentation), `predictor_bagging`
    /// (ensemble training), and `predictor_memoize` (train-time prediction
    /// memo). Observation never changes the trained predictor.
    ///
    /// # Panics
    ///
    /// Panics if exclusion leaves no training benchmarks.
    pub fn train_excluding_observed(
        oracle: &SuiteOracle,
        excluded: &[BenchmarkId],
        config: &PredictorConfig,
        workers: usize,
        observer: &mut dyn crate::StageObserver,
    ) -> Self {
        let dataset = crate::observed(observer, "predictor_dataset", || {
            training_data(
                oracle,
                excluded,
                config.augmentation,
                config.jitter,
                config.train.seed,
            )
        });

        let mut dims = Vec::with_capacity(config.hidden.len() + 2);
        dims.push(FEATURE_COUNT);
        dims.extend_from_slice(&config.hidden);
        dims.push(1);

        let ensemble = crate::observed(observer, "predictor_bagging", || {
            Bagging::train_with_threads(
                &dataset,
                config.ensemble_size,
                &dims,
                Activation::Tanh,
                config.train,
                workers,
            )
        });
        let model = Model::Ann(ensemble);
        let memo = crate::observed(observer, "predictor_memoize", || memoize(&model, oracle));
        BestCorePredictor { model, memo }
    }

    /// A ridge-regression predictor (future-work comparison).
    ///
    /// # Panics
    ///
    /// Panics if exclusion leaves no training benchmarks or `lambda < 0`.
    pub fn train_ridge(oracle: &SuiteOracle, excluded: &[BenchmarkId], lambda: f64) -> Self {
        let dataset = training_data(oracle, excluded, 0, 0.0, 0);
        let model = Model::Ridge(RidgeRegression::fit(&dataset, lambda));
        let memo = memoize(&model, oracle);
        BestCorePredictor { model, memo }
    }

    /// A k-nearest-neighbour predictor (future-work comparison).
    ///
    /// # Panics
    ///
    /// Panics if exclusion leaves no training benchmarks or `k == 0`.
    pub fn train_knn(oracle: &SuiteOracle, excluded: &[BenchmarkId], k: usize) -> Self {
        let dataset = training_data(oracle, excluded, 0, 0.0, 0);
        let model = Model::Knn(KnnRegressor::fit(&dataset, k));
        let memo = memoize(&model, oracle);
        BestCorePredictor { model, memo }
    }

    /// Which family backs this predictor.
    pub fn kind(&self) -> PredictorKind {
        match &self.model {
            Model::Ann(_) => PredictorKind::Ann,
            Model::Ridge(_) => PredictorKind::Ridge,
            Model::Knn(_) => PredictorKind::Knn,
            Model::Distilled(_) => PredictorKind::Distilled,
        }
    }

    /// The backing ANN ensemble, when this predictor is ANN-backed (the
    /// distillation teacher).
    pub fn ensemble(&self) -> Option<&Bagging> {
        match &self.model {
            Model::Ann(ensemble) => Some(ensemble),
            _ => None,
        }
    }

    /// The backing distilled student, when this predictor came from
    /// [`distill`](Self::distill).
    pub fn distilled(&self) -> Option<&Distilled> {
        match &self.model {
            Model::Distilled(student) => Some(student),
            _ => None,
        }
    }

    /// Distill the ANN ensemble into a single-student predictor: the
    /// student trains on the teacher's outputs over every benchmark's
    /// feature vector (plus jittered replicas, per `config`), then
    /// memoizes over the oracle exactly like a freshly trained predictor.
    /// `None` when this predictor is not ANN-backed.
    pub fn distill(&self, oracle: &SuiteOracle, config: &DistillConfig) -> Option<Self> {
        let Model::Ann(ensemble) = &self.model else {
            return None;
        };
        let anchors: Vec<Vec<f64>> = oracle
            .benchmarks()
            .map(|b| oracle.execution_statistics(b).to_vector().to_vec())
            .collect();
        let model = Model::Distilled(ensemble.distill(&anchors, config));
        let memo = memoize(&model, oracle);
        Some(BestCorePredictor { model, memo })
    }

    /// Predict the best cache size for an application with the given
    /// profiled statistics.
    pub fn predict(&self, statistics: &ExecutionStatistics) -> CacheSizeKb {
        CacheSizeKb::nearest(self.predict_raw(statistics))
    }

    /// [`predict`](Self::predict) keyed by benchmark identity: returns the
    /// memoized train-time prediction when the benchmark is in the table
    /// (features are fixed per benchmark, so the answer is the same), and
    /// falls back to evaluating the model on `statistics` otherwise.
    ///
    /// This is what the scheduling systems call on profile completion — the
    /// ensemble no longer runs per job.
    pub fn predict_for(
        &self,
        benchmark: BenchmarkId,
        statistics: &ExecutionStatistics,
    ) -> CacheSizeKb {
        if let Some(&(_, size)) = self.memo.iter().find(|(b, _)| *b == benchmark) {
            return size;
        }
        self.predict(statistics)
    }

    /// A copy of this predictor with the memo table dropped, so every
    /// [`predict_for`](Self::predict_for) evaluates the model from scratch.
    /// Exists for the equivalence tests that assert memoization changes no
    /// `RunMetrics`.
    pub fn without_memo(&self) -> Self {
        BestCorePredictor {
            model: self.model.clone(),
            memo: Vec::new(),
        }
    }

    /// The raw (un-snapped) regression output, for diagnostics.
    pub fn predict_raw(&self, statistics: &ExecutionStatistics) -> f64 {
        self.predict_raw_features(&statistics.to_vector())
    }

    /// [`predict_raw`](Self::predict_raw) on a bare feature vector. The
    /// drift tooling needs this: a perturbed feature vector has no
    /// [`ExecutionStatistics`] to reconstruct, but the model only ever
    /// sees the vector anyway.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong dimensionality.
    pub fn predict_raw_features(&self, features: &[f64]) -> f64 {
        match &self.model {
            Model::Ann(ensemble) => ensemble.predict(features)[0],
            Model::Ridge(model) => model.predict(features)[0],
            Model::Knn(model) => model.predict(features)[0],
            Model::Distilled(student) => student.predict(features)[0],
        }
    }

    /// Number of ensemble members (1 for non-ensemble families).
    pub fn ensemble_size(&self) -> usize {
        match &self.model {
            Model::Ann(ensemble) => ensemble.len(),
            Model::Ridge(_) | Model::Knn(_) | Model::Distilled(_) => 1,
        }
    }

    /// Drop every memoized per-benchmark prediction. After this call,
    /// [`predict_for`](Self::predict_for) evaluates the model directly
    /// until something re-memoizes (e.g. [`refine`](Self::refine)).
    ///
    /// This is the safety valve that makes incremental retraining sound:
    /// the memo was computed by the *pre-update* model, so any model
    /// mutation must invalidate it or completions would keep receiving
    /// stale cached answers (exactly the hazard the fault chain guards
    /// against for corrupted features).
    pub fn invalidate_memo(&mut self) {
        self.memo.clear();
    }

    /// Incremental retraining: fold newly profiled jobs into the model
    /// without a full rebuild, then rebuild the memo from the refined
    /// model over the provided samples. Each sample is `(benchmark,
    /// feature vector, observed best size)` — feature vectors rather than
    /// [`ExecutionStatistics`] because drifted counter readings exist
    /// only in vector form.
    ///
    /// Family support: the ANN ensemble and the distilled student
    /// continue SGD over the new rows (momentum state persists — see
    /// [`tinyann::TrainedModel::refine`]); kNN memorises them
    /// ([`tinyann::KnnRegressor::absorb`]); ridge has no incremental
    /// update (the normal equations need the full design matrix), so the
    /// call returns `false` and changes nothing. Returns `true` when the
    /// model was updated — at which point the stale memo has been
    /// invalidated and re-memoized from the refined model.
    ///
    /// # Panics
    ///
    /// Panics if any feature vector has the wrong dimensionality.
    pub fn refine(
        &mut self,
        samples: &[(BenchmarkId, Vec<f64>, CacheSizeKb)],
        config: &TrainConfig,
    ) -> bool {
        if samples.is_empty() {
            return false;
        }
        let inputs: Vec<Vec<f64>> = samples.iter().map(|(_, f, _)| f.clone()).collect();
        let targets: Vec<Vec<f64>> = samples
            .iter()
            .map(|(_, _, size)| vec![f64::from(size.kilobytes())])
            .collect();
        let updated = match &mut self.model {
            Model::Ann(ensemble) => {
                ensemble.refine(&inputs, &targets, config);
                true
            }
            Model::Distilled(student) => {
                student.refine(&inputs, &targets, config);
                true
            }
            Model::Knn(knn) => {
                let k = knn.k();
                knn.absorb(&inputs, &targets, k);
                true
            }
            Model::Ridge(_) => false,
        };
        if updated {
            self.invalidate_memo();
            let refreshed: Vec<(BenchmarkId, CacheSizeKb)> = samples
                .iter()
                .map(|(b, f, _)| (*b, CacheSizeKb::nearest(self.predict_raw_features(f))))
                .collect();
            self.memo = refreshed;
        }
        updated
    }
}

/// Evaluate the freshly trained model on every benchmark's fixed feature
/// vector, once, so job completions become table lookups. The ANN goes
/// through [`Bagging::predict_batch`] — one workspace threaded through all
/// members and rows.
fn memoize(model: &Model, oracle: &SuiteOracle) -> Vec<(BenchmarkId, CacheSizeKb)> {
    let benchmarks: Vec<BenchmarkId> = oracle.benchmarks().collect();
    let features: Vec<Vec<f64>> = benchmarks
        .iter()
        .map(|&b| oracle.execution_statistics(b).to_vector().to_vec())
        .collect();
    let raw: Vec<f64> = match model {
        Model::Ann(ensemble) => ensemble
            .predict_batch(&features)
            .into_iter()
            .map(|row| row[0])
            .collect(),
        Model::Ridge(m) => features.iter().map(|f| m.predict(f)[0]).collect(),
        Model::Knn(m) => features.iter().map(|f| m.predict(f)[0]).collect(),
        Model::Distilled(student) => student
            .predict_batch(&features)
            .into_iter()
            .map(|row| row[0])
            .collect(),
    };
    benchmarks
        .into_iter()
        .zip(raw)
        .map(|(b, r)| (b, CacheSizeKb::nearest(r)))
        .collect()
}

/// Assemble the (features, best-size) dataset, optionally with jittered
/// copies of each benchmark's feature vector.
fn training_data(
    oracle: &SuiteOracle,
    excluded: &[BenchmarkId],
    augmentation: usize,
    jitter: f64,
    seed: u64,
) -> Dataset {
    let mut rng = SplitMix64::new(seed ^ 0x01AB_1ED0);
    let mut inputs = Vec::new();
    let mut targets = Vec::new();
    for benchmark in oracle.benchmarks() {
        if excluded.contains(&benchmark) {
            continue;
        }
        let features = oracle.execution_statistics(benchmark).to_vector();
        let label = f64::from(oracle.best_size(benchmark).kilobytes());
        inputs.push(features.to_vec());
        targets.push(vec![label]);
        for _ in 0..augmentation {
            let jittered: Vec<f64> = features
                .iter()
                .map(|&v| v * (1.0 + jitter * (rng.next_f64() * 2.0 - 1.0)))
                .collect();
            inputs.push(jittered);
            targets.push(vec![label]);
        }
    }
    Dataset::new(inputs, targets).expect("exclusion must leave at least one training benchmark")
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy_model::EnergyModel;
    use workloads::Suite;

    fn oracle() -> SuiteOracle {
        SuiteOracle::build(&Suite::eembc_like_small(), &EnergyModel::default())
    }

    #[test]
    fn training_is_deterministic() {
        let oracle = oracle();
        let a = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        let b = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        for benchmark in oracle.benchmarks() {
            let stats = oracle.execution_statistics(benchmark);
            assert_eq!(a.predict_raw(&stats), b.predict_raw(&stats));
        }
    }

    #[test]
    fn threaded_training_is_bit_identical_to_one_worker() {
        let oracle = oracle();
        let one = BestCorePredictor::train_with_threads(&oracle, &PredictorConfig::fast(), 1);
        let four = BestCorePredictor::train_with_threads(&oracle, &PredictorConfig::fast(), 4);
        for benchmark in oracle.benchmarks() {
            let stats = oracle.execution_statistics(benchmark);
            assert_eq!(
                one.predict_raw(&stats).to_bits(),
                four.predict_raw(&stats).to_bits(),
                "{benchmark}"
            );
        }
    }

    #[test]
    fn memoized_predictions_match_direct_evaluation() {
        let oracle = oracle();
        for predictor in [
            BestCorePredictor::train(&oracle, &PredictorConfig::fast()),
            BestCorePredictor::train_ridge(&oracle, &[], 1.0),
            BestCorePredictor::train_knn(&oracle, &[], 3),
        ] {
            let bare = predictor.without_memo();
            for benchmark in oracle.benchmarks() {
                let stats = oracle.execution_statistics(benchmark);
                assert_eq!(
                    predictor.predict_for(benchmark, &stats),
                    predictor.predict(&stats),
                    "memo hit diverged for {benchmark}"
                );
                assert_eq!(
                    predictor.predict_for(benchmark, &stats),
                    bare.predict_for(benchmark, &stats),
                    "memo-less fallback diverged for {benchmark}"
                );
            }
        }
    }

    #[test]
    fn in_sample_predictions_are_mostly_correct() {
        // With the full suite visible during training, the ensemble should
        // recover most best sizes (the paper reports < 2% energy loss,
        // which tolerates a few near-miss sizes). A mid-size configuration
        // keeps debug-build time sane; the full paper() configuration is
        // exercised by the release-mode `ann_accuracy` experiment, where it
        // reaches 20/20.
        let oracle = oracle();
        let config = PredictorConfig {
            ensemble_size: 6,
            train: tinyann::TrainConfig {
                epochs: 250,
                ..PredictorConfig::paper().train
            },
            ..PredictorConfig::paper()
        };
        let predictor = BestCorePredictor::train(&oracle, &config);
        let correct = oracle
            .benchmarks()
            .filter(|&b| predictor.predict(&oracle.execution_statistics(b)) == oracle.best_size(b))
            .count();
        assert!(
            correct * 10 >= oracle.len() * 7,
            "expected >=70% in-sample size accuracy, got {correct}/{}",
            oracle.len()
        );
    }

    #[test]
    fn excluded_benchmarks_do_not_change_dimensionality() {
        let oracle = oracle();
        let predictor = BestCorePredictor::train_excluding(
            &oracle,
            &[BenchmarkId(0), BenchmarkId(1)],
            &PredictorConfig::fast(),
        );
        let stats = oracle.execution_statistics(BenchmarkId(0));
        let _ = predictor.predict(&stats); // must accept held-out features
    }

    #[test]
    fn paper_config_matches_section_iv() {
        let config = PredictorConfig::paper();
        assert_eq!(config.ensemble_size, 30);
        assert_eq!(config.hidden, vec![10, 18, 5]);
    }

    #[test]
    fn predictions_are_valid_sizes() {
        let oracle = oracle();
        let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        for benchmark in oracle.benchmarks() {
            let size = predictor.predict(&oracle.execution_statistics(benchmark));
            assert!(CacheSizeKb::ALL.contains(&size));
        }
    }

    #[test]
    fn alternative_families_train_and_predict() {
        let oracle = oracle();
        let ridge = BestCorePredictor::train_ridge(&oracle, &[], 1.0);
        let knn = BestCorePredictor::train_knn(&oracle, &[], 3);
        assert_eq!(ridge.kind(), PredictorKind::Ridge);
        assert_eq!(knn.kind(), PredictorKind::Knn);
        assert_eq!(ridge.ensemble_size(), 1);
        for benchmark in oracle.benchmarks() {
            let stats = oracle.execution_statistics(benchmark);
            assert!(CacheSizeKb::ALL.contains(&ridge.predict(&stats)));
            assert!(CacheSizeKb::ALL.contains(&knn.predict(&stats)));
        }
    }

    #[test]
    fn invalidate_memo_falls_back_to_direct_evaluation() {
        let oracle = oracle();
        let mut predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        predictor.invalidate_memo();
        for benchmark in oracle.benchmarks() {
            let stats = oracle.execution_statistics(benchmark);
            assert_eq!(
                predictor.predict_for(benchmark, &stats),
                predictor.predict(&stats),
                "memo-less predict_for must equal direct evaluation for {benchmark}"
            );
        }
    }

    /// Regression test for the incremental-retraining staleness hazard:
    /// `refine` mutates the model, so serving the pre-refine memo would
    /// return answers the *old* model computed. A 1-NN predictor makes the
    /// hazard deterministic — after absorbing a far-away sample labelled
    /// K8, the model's answer for that sample's features IS K8, and the
    /// memo must say so too.
    #[test]
    fn refine_cannot_serve_stale_memoized_predictions() {
        let oracle = oracle();
        let mut predictor = BestCorePredictor::train_knn(&oracle, &[], 1);
        let benchmark = oracle
            .benchmarks()
            .find(|&b| oracle.best_size(b) != CacheSizeKb::K8)
            .expect("the small suite has non-K8 benchmarks");
        let stats = oracle.execution_statistics(benchmark);
        let stale = predictor.predict_for(benchmark, &stats);
        assert_ne!(stale, CacheSizeKb::K8, "pre-refine memo serves old label");

        // The drifted feature vector lands far from every stored sample,
        // so 1-NN maps it (and only it) to the new K8 label.
        let drifted: Vec<f64> = stats.to_vector().iter().map(|&v| v * 250.0 + 1e7).collect();
        let updated = predictor.refine(
            &[(benchmark, drifted.clone(), CacheSizeKb::K8)],
            &TrainConfig::default(),
        );
        assert!(updated, "kNN supports incremental absorption");
        assert_eq!(
            CacheSizeKb::nearest(predictor.predict_raw_features(&drifted)),
            CacheSizeKb::K8,
            "refined model must reflect the absorbed sample"
        );
        assert_eq!(
            predictor.predict_for(benchmark, &stats),
            CacheSizeKb::K8,
            "memo served a stale pre-refine prediction"
        );
    }

    #[test]
    fn refine_is_a_no_op_for_ridge_and_on_empty_samples() {
        let oracle = oracle();
        let mut ridge = BestCorePredictor::train_ridge(&oracle, &[], 1.0);
        let stats = oracle.execution_statistics(BenchmarkId(0));
        let before = ridge.predict_raw(&stats);
        let samples = vec![(BenchmarkId(0), stats.to_vector().to_vec(), CacheSizeKb::K2)];
        assert!(!ridge.refine(&samples, &TrainConfig::default()));
        assert_eq!(before.to_bits(), ridge.predict_raw(&stats).to_bits());
        // Memo must survive an unsupported refine untouched.
        assert_eq!(
            ridge.predict_for(BenchmarkId(0), &stats),
            ridge.predict(&stats)
        );

        let mut ann = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        assert!(!ann.refine(&[], &TrainConfig::default()));
    }

    #[test]
    fn ann_refine_moves_predictions_toward_new_labels() {
        let oracle = oracle();
        let mut predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        let benchmark = oracle.benchmarks().next().unwrap();
        let features = oracle.execution_statistics(benchmark).to_vector().to_vec();
        let before = predictor.predict_raw_features(&features);
        // Re-label the benchmark to the opposite end of the size grid and
        // refine; the regression output must move toward the new label.
        let target = if before > 5.0 {
            CacheSizeKb::K2
        } else {
            CacheSizeKb::K8
        };
        let config = TrainConfig {
            epochs: 40,
            ..PredictorConfig::fast().train
        };
        assert!(predictor.refine(&[(benchmark, features.clone(), target)], &config));
        let after = predictor.predict_raw_features(&features);
        let goal = f64::from(target.kilobytes());
        assert!(
            (goal - after).abs() < (goal - before).abs(),
            "refine must move {before} toward {goal}, got {after}"
        );
        // And the memo reflects the refined model, not the stale one.
        assert_eq!(
            predictor.predict_for(benchmark, &oracle.execution_statistics(benchmark)),
            CacheSizeKb::nearest(after)
        );
    }

    #[test]
    fn distilled_predictor_mostly_agrees_with_its_teacher() {
        let oracle = oracle();
        let teacher = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        let student = teacher
            .distill(
                &oracle,
                &tinyann::DistillConfig {
                    replicas: 6,
                    train: TrainConfig {
                        epochs: 120,
                        ..TrainConfig::default()
                    },
                    ..tinyann::DistillConfig::default()
                },
            )
            .expect("ANN-backed predictors distill");
        assert_eq!(student.kind(), PredictorKind::Distilled);
        assert_eq!(student.ensemble_size(), 1);
        let agree = oracle
            .benchmarks()
            .filter(|&b| {
                let stats = oracle.execution_statistics(b);
                student.predict(&stats) == teacher.predict(&stats)
            })
            .count();
        // Debug-build fast() config: demand strong but not perfect
        // agreement; the paper config's ≥99% bar runs in release via the
        // property tests and ann_accuracy.
        assert!(
            agree * 10 >= oracle.len() * 8,
            "student agrees on {agree}/{} benchmarks",
            oracle.len()
        );
    }

    #[test]
    fn only_the_ann_family_exposes_an_ensemble_to_distill() {
        let oracle = oracle();
        let ann = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
        assert!(ann.ensemble().is_some());
        assert!(ann.distilled().is_none());
        assert!(BestCorePredictor::train_knn(&oracle, &[], 3)
            .distill(&oracle, &tinyann::DistillConfig::default())
            .is_none());
    }

    #[test]
    fn knn_is_exact_in_sample_with_k_one() {
        // 1-NN on the training set must return each benchmark's own label.
        let oracle = oracle();
        let knn = BestCorePredictor::train_knn(&oracle, &[], 1);
        for benchmark in oracle.benchmarks() {
            assert_eq!(
                knn.predict(&oracle.execution_statistics(benchmark)),
                oracle.best_size(benchmark),
                "{benchmark}"
            );
        }
    }
}
