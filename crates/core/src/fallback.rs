//! The predictor fallback chain for degraded operation.
//!
//! When faults (see [`multicore_sim::FaultPlan`]) take parts of the
//! prediction pipeline away, the profiled systems degrade through a fixed
//! chain instead of failing:
//!
//! 1. **primary** — the trained [`BestCorePredictor`] (the paper's bagged
//!    ANN ensemble);
//! 2. **kNN** — a cheap k-nearest-neighbour stand-in, trained over the
//!    same oracle, used while only the primary ensemble is unavailable;
//! 3. **static** — the base configuration's cache size (`8KB_4W_64B`),
//!    the assumption the paper's base system runs under; always
//!    available, needs no features at all.
//!
//! Which stage serves a given completion is decided by
//! [`FaultPlan::fallback_level`](multicore_sim::FaultPlan::fallback_level)
//! — the same pure query the simulator stamps
//! [`Fallback`](multicore_sim::TraceEvent::Fallback) events from, so the
//! trace provably agrees with the policy's behaviour. Corrupted profiling
//! features skip **both** learned stages: the primary predictor memoizes
//! per benchmark, so consulting it with corrupt features would silently
//! return a clean cached answer instead of degrading honestly.

use crate::oracle::SuiteOracle;
use crate::predictor::BestCorePredictor;
use cache_sim::{CacheSizeKb, BASE_CONFIG};
use multicore_sim::{FallbackLevel, ServingTier};
use workloads::{BenchmarkId, ExecutionStatistics};

/// Which stage of the chain produced a best-size prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionSource {
    /// The primary (ANN ensemble) predictor.
    Primary,
    /// The distilled f64 student (brownout tier 1 serving).
    Distilled,
    /// The kNN stand-in.
    Knn,
    /// The static base-configuration size.
    Static,
}

/// The worse (more degraded) of two chain levels: the fault plan and the
/// brownout controller each impose one, and the serving path must honour
/// whichever is deeper.
fn worse_level(a: Option<FallbackLevel>, b: Option<FallbackLevel>) -> Option<FallbackLevel> {
    match (a, b) {
        (Some(FallbackLevel::Static), _) | (_, Some(FallbackLevel::Static)) => {
            Some(FallbackLevel::Static)
        }
        (Some(FallbackLevel::Knn), _) | (_, Some(FallbackLevel::Knn)) => Some(FallbackLevel::Knn),
        (None, None) => None,
    }
}

/// A trained fallback chain (stages 2 and 3; stage 1 is the system's own
/// predictor).
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::{FallbackChain, PredictionSource, SuiteOracle};
/// use workloads::{BenchmarkId, Suite};
///
/// let oracle = SuiteOracle::build(&Suite::eembc_like_small(), &EnergyModel::default());
/// let chain = FallbackChain::train(&oracle);
/// let size = chain.predict_knn(BenchmarkId(0), &oracle.execution_statistics(BenchmarkId(0)));
/// assert!(matches!(size.kilobytes(), 2 | 4 | 8));
/// assert_eq!(FallbackChain::static_size(), cache_sim::CacheSizeKb::K8);
/// ```
#[derive(Debug, Clone)]
pub struct FallbackChain {
    knn: BestCorePredictor,
}

impl FallbackChain {
    /// Nearest neighbours consulted by the kNN stage.
    pub const KNN_K: usize = 3;

    /// Train the kNN stage over every benchmark the oracle covers.
    pub fn train(oracle: &SuiteOracle) -> Self {
        FallbackChain {
            knn: BestCorePredictor::train_knn(oracle, &[], Self::KNN_K),
        }
    }

    /// The static stage's answer: the base configuration's size, valid
    /// with no predictor and no features.
    pub fn static_size() -> CacheSizeKb {
        BASE_CONFIG.size()
    }

    /// The kNN stage's prediction.
    pub fn predict_knn(
        &self,
        benchmark: BenchmarkId,
        statistics: &ExecutionStatistics,
    ) -> CacheSizeKb {
        self.knn.predict_for(benchmark, statistics)
    }

    /// Resolve a best-size prediction through the chain. `level` is the
    /// degradation the fault plan imposes on this completion (`None` =
    /// healthy, primary serves).
    pub fn resolve(
        &self,
        primary: &BestCorePredictor,
        benchmark: BenchmarkId,
        statistics: &ExecutionStatistics,
        level: Option<FallbackLevel>,
    ) -> (CacheSizeKb, PredictionSource) {
        self.resolve_tiered(
            primary,
            None,
            benchmark,
            statistics,
            level,
            ServingTier::Full,
        )
    }

    /// [`resolve`](Self::resolve) under a brownout serving tier as well:
    /// the effective degradation is the worse of what the fault plan
    /// imposes and what the tier requests. Tier
    /// [`Distilled`](ServingTier::Distilled) serves from `distilled`
    /// when provided (falling back to the primary when not — a system
    /// without a student can only honour tiers 0, 2, and 3).
    ///
    /// With `tier == Full` and `distilled == None` this is exactly
    /// [`resolve`](Self::resolve): the full-service path is untouched,
    /// which is what keeps tier-0 governed runs bit-identical.
    pub fn resolve_tiered(
        &self,
        primary: &BestCorePredictor,
        distilled: Option<&BestCorePredictor>,
        benchmark: BenchmarkId,
        statistics: &ExecutionStatistics,
        level: Option<FallbackLevel>,
        tier: ServingTier,
    ) -> (CacheSizeKb, PredictionSource) {
        match worse_level(level, tier.fallback_level()) {
            None => match (tier, distilled) {
                (ServingTier::Distilled, Some(student)) => (
                    student.predict_for(benchmark, statistics),
                    PredictionSource::Distilled,
                ),
                _ => (
                    primary.predict_for(benchmark, statistics),
                    PredictionSource::Primary,
                ),
            },
            Some(FallbackLevel::Knn) => (
                self.predict_knn(benchmark, statistics),
                PredictionSource::Knn,
            ),
            Some(FallbackLevel::Static) => (Self::static_size(), PredictionSource::Static),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use energy_model::EnergyModel;
    use workloads::Suite;

    fn oracle() -> &'static SuiteOracle {
        Box::leak(Box::new(SuiteOracle::build(
            &Suite::eembc_like_small(),
            &EnergyModel::default(),
        )))
    }

    #[test]
    fn static_stage_is_the_base_configuration_size() {
        assert_eq!(FallbackChain::static_size(), CacheSizeKb::K8);
    }

    #[test]
    fn resolve_routes_by_level() {
        let oracle = oracle();
        let chain = FallbackChain::train(oracle);
        let primary = BestCorePredictor::train(oracle, &PredictorConfig::fast());
        let benchmark = BenchmarkId(1);
        let stats = oracle.execution_statistics(benchmark);

        let (healthy, source) = chain.resolve(&primary, benchmark, &stats, None);
        assert_eq!(source, PredictionSource::Primary);
        assert_eq!(healthy, primary.predict_for(benchmark, &stats));

        let (knn, source) = chain.resolve(&primary, benchmark, &stats, Some(FallbackLevel::Knn));
        assert_eq!(source, PredictionSource::Knn);
        assert_eq!(knn, chain.predict_knn(benchmark, &stats));

        let (last, source) =
            chain.resolve(&primary, benchmark, &stats, Some(FallbackLevel::Static));
        assert_eq!(source, PredictionSource::Static);
        assert_eq!(last, CacheSizeKb::K8);
    }

    #[test]
    fn tiered_resolve_honours_the_worse_of_fault_and_tier() {
        use tinyann::{DistillConfig, TrainConfig};
        let oracle = oracle();
        let chain = FallbackChain::train(oracle);
        let primary = BestCorePredictor::train(oracle, &PredictorConfig::fast());
        let student = primary
            .distill(
                oracle,
                &DistillConfig {
                    replicas: 2,
                    hidden: vec![8],
                    train: TrainConfig {
                        epochs: 60,
                        ..TrainConfig::default()
                    },
                    ..DistillConfig::default()
                },
            )
            .expect("ANN-backed predictor distills");
        let benchmark = BenchmarkId(2);
        let stats = oracle.execution_statistics(benchmark);

        // Tier 0, no fault: exactly the plain resolve.
        let (size, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            None,
            ServingTier::Full,
        );
        assert_eq!(source, PredictionSource::Primary);
        assert_eq!(
            (size, source),
            chain.resolve(&primary, benchmark, &stats, None)
        );

        // Tier 1 serves from the student.
        let (size, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            None,
            ServingTier::Distilled,
        );
        assert_eq!(source, PredictionSource::Distilled);
        assert_eq!(size, student.predict_for(benchmark, &stats));
        // ... but only when a student exists.
        let (_, source) = chain.resolve_tiered(
            &primary,
            None,
            benchmark,
            &stats,
            None,
            ServingTier::Distilled,
        );
        assert_eq!(source, PredictionSource::Primary);

        // Tier 2/3 force the chain stages even when healthy.
        let (size, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            None,
            ServingTier::Knn,
        );
        assert_eq!(source, PredictionSource::Knn);
        assert_eq!(size, chain.predict_knn(benchmark, &stats));
        let (size, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            None,
            ServingTier::Static,
        );
        assert_eq!(source, PredictionSource::Static);
        assert_eq!(size, CacheSizeKb::K8);

        // A fault deeper than the tier wins (and vice versa).
        let (_, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            Some(FallbackLevel::Static),
            ServingTier::Distilled,
        );
        assert_eq!(source, PredictionSource::Static);
        let (_, source) = chain.resolve_tiered(
            &primary,
            Some(&student),
            benchmark,
            &stats,
            Some(FallbackLevel::Knn),
            ServingTier::Static,
        );
        assert_eq!(source, PredictionSource::Static);
    }

    #[test]
    fn knn_stage_predicts_sensible_sizes_for_every_benchmark() {
        let oracle = oracle();
        let chain = FallbackChain::train(oracle);
        for benchmark in oracle.benchmarks() {
            let stats = oracle.execution_statistics(benchmark);
            let size = chain.predict_knn(benchmark, &stats);
            assert!(matches!(size.kilobytes(), 2 | 4 | 8), "{benchmark}");
        }
    }
}
