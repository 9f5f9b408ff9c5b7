//! The suite oracle's fused build against the serial per-configuration
//! reference build in `hetero-oracles`.

use energy_model::EnergyModel;
use hetero_core::SuiteOracle;
use hetero_oracles::core::build_reference;
use workloads::Suite;

fn assert_bit_identical(a: &SuiteOracle, b: &SuiteOracle, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: benchmark count");
    for benchmark in a.benchmarks() {
        let (ta, tb) = (a.truth(benchmark), b.truth(benchmark));
        assert_eq!(ta.cpu_cycles, tb.cpu_cycles, "{label} {benchmark}");
        assert_eq!(ta.stats, tb.stats, "{label} {benchmark}: cache stats");
        for (i, (ca, cb)) in ta.costs.iter().zip(&tb.costs).enumerate() {
            assert_eq!(ca.cycles, cb.cycles, "{label} {benchmark} config {i}");
            for (ea, eb) in [
                (ca.energy.dynamic_nj, cb.energy.dynamic_nj),
                (ca.energy.static_nj, cb.energy.static_nj),
                (ca.energy.idle_nj, cb.energy.idle_nj),
            ] {
                assert_eq!(
                    ea.to_bits(),
                    eb.to_bits(),
                    "{label} {benchmark} config {i}: energy bits"
                );
            }
        }
        for (fa, fb) in ta
            .features
            .to_vector()
            .iter()
            .zip(tb.features.to_vector().iter())
        {
            assert_eq!(fa.to_bits(), fb.to_bits(), "{label} {benchmark}: features");
        }
    }
}

#[test]
fn fused_build_is_bit_identical_to_the_serial_reference() {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let fused = SuiteOracle::build_with_threads(&suite, &model, 1);
    let reference = build_reference(&suite, &model);
    assert_bit_identical(&fused, &reference, "fused vs 18-replay reference");
}
