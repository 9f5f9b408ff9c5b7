//! The serial reference build of the suite oracle.

use energy_model::EnergyModel;
use hetero_core::SuiteOracle;
use workloads::Suite;

/// Reference implementation of [`SuiteOracle::build`]: the serial
/// 18-replay characterisation on a single thread. Kept as the
/// obviously-correct baseline for equivalence tests and as the
/// "before" timing of the perf pipeline.
pub fn build_reference(suite: &Suite, model: &EnergyModel) -> SuiteOracle {
    SuiteOracle::build_with(suite, 1, |run| {
        let sweep = crate::cache::sweep_serial(&run.trace);
        sweep
            .into_iter()
            .map(|(config, stats)| (stats, model.execution(config, &stats, run.cpu_cycles)))
            .unzip()
    })
}
