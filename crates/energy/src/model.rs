//! The paper's Figure 4 energy model.

use crate::cacti;
use crate::report::EnergyBreakdown;
use cache_sim::{CacheConfig, CacheStats, BASE_CONFIG};

/// Tunable constants of the Figure 4 model, with the paper's Section V
/// defaults.
///
/// A builder-style API lets experiment harnesses perturb single parameters
/// for sensitivity studies:
///
/// ```
/// use energy_model::EnergyParams;
///
/// let params = EnergyParams::new().miss_latency_cycles(60);
/// assert_eq!(params.miss_latency(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Cycles for a main-memory fetch, in L1-fetch units. Paper: a memory
    /// fetch takes **40×** an L1 fetch.
    miss_latency_cycles: u64,
    /// Memory-bandwidth transfer term as a fraction of the miss penalty.
    /// Paper: **50 %**.
    bandwidth_fraction: f64,
    /// Energy the stalled CPU burns per stall cycle, in nanojoules.
    cpu_stall_nj_per_cycle: f64,
    /// Leakage fraction: `E(per KByte)` is this fraction of the base
    /// cache's per-access dynamic energy divided by the base size.
    /// Paper: **10 %**.
    static_fraction: f64,
}

impl EnergyParams {
    /// Parameters with the paper's Section V defaults.
    pub fn new() -> Self {
        EnergyParams {
            miss_latency_cycles: 40,
            bandwidth_fraction: 0.5,
            cpu_stall_nj_per_cycle: 0.02,
            static_fraction: 0.10,
        }
    }

    /// Override the miss latency (memory fetch time in L1-fetch cycles).
    pub fn miss_latency_cycles(mut self, cycles: u64) -> Self {
        self.miss_latency_cycles = cycles;
        self
    }

    /// Override the bandwidth fraction of the miss penalty.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not finite and non-negative.
    pub fn bandwidth_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "bandwidth fraction must be >= 0"
        );
        self.bandwidth_fraction = fraction;
        self
    }

    /// Override the leakage fraction (paper: 10 %).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not finite and non-negative.
    pub fn static_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "static fraction must be >= 0"
        );
        self.static_fraction = fraction;
        self
    }

    /// Current miss latency in cycles.
    pub fn miss_latency(&self) -> u64 {
        self.miss_latency_cycles
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::new()
    }
}

/// Cycles and energy of one application execution on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionCost {
    /// Total cycles: CPU cycles plus miss cycles.
    pub cycles: u64,
    /// Energy breakdown (`idle_nj` is always zero here; idle energy is a
    /// system-level quantity accrued by the multicore simulator).
    pub energy: EnergyBreakdown,
}

impl ExecutionCost {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.energy.total()
    }
}

/// The Figure 4 energy model: per-access energies from [`cacti`], composed
/// by the paper's equations.
///
/// ```
/// use cache_sim::{simulate, Access, Trace, BASE_CONFIG};
/// use energy_model::EnergyModel;
///
/// let model = EnergyModel::default();
/// let trace: Trace = (0..1000u64).map(|i| Access::read(i * 64)).collect();
/// let stats = simulate(BASE_CONFIG, &trace);
/// let cost = model.execution(BASE_CONFIG, &stats, 5_000);
/// // 1000 cold misses: 40 latency cycles each plus the bandwidth term.
/// assert!(cost.cycles > 5_000 + 1000 * 40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
    /// Pre-computed `E(per KByte)` = 10 % of the base cache's per-access
    /// dynamic energy / base size in KB.
    static_nj_per_kb_cycle: f64,
}

impl EnergyModel {
    /// Build a model from parameters.
    pub fn new(params: EnergyParams) -> Self {
        let base_dyn = cacti::read_energy_nj(BASE_CONFIG);
        let static_nj_per_kb_cycle =
            params.static_fraction * base_dyn / f64::from(BASE_CONFIG.size().kilobytes());
        EnergyModel {
            params,
            static_nj_per_kb_cycle,
        }
    }

    /// The parameters this model was built with.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// `miss_cycles = misses*miss_latency + misses*(line/16)*memory_bandwidth`
    ///
    /// where `memory_bandwidth` is [`EnergyParams::bandwidth_fraction`] of
    /// the miss penalty (Section V: 50 % of 40 = 20 cycles per 16 B chunk).
    pub fn miss_cycles(&self, config: CacheConfig, misses: u64) -> u64 {
        let latency = misses * self.params.miss_latency_cycles;
        let chunks = u64::from(config.line().bytes() / 16);
        let bandwidth_cycles =
            (self.params.bandwidth_fraction * self.params.miss_latency_cycles as f64) as u64;
        latency + misses * chunks * bandwidth_cycles
    }

    /// Per-miss dynamic energy:
    /// `E(miss) = E(off-chip) + per-miss stall cycles * E(CPU stall) + E(fill)`.
    pub fn miss_energy_nj(&self, config: CacheConfig) -> f64 {
        let per_miss_stall_cycles = self.miss_cycles(config, 1) as f64;
        cacti::offchip_energy_nj(config)
            + per_miss_stall_cycles * self.params.cpu_stall_nj_per_cycle
            + cacti::fill_energy_nj(config)
    }

    /// Per-hit dynamic energy (the CACTI-like per-access read energy).
    pub fn hit_energy_nj(&self, config: CacheConfig) -> f64 {
        cacti::read_energy_nj(config)
    }

    /// `E(dynamic) = hits*E(hit) + misses*E(miss)`.
    pub fn dynamic_energy_nj(&self, config: CacheConfig, stats: &CacheStats) -> f64 {
        stats.hits() as f64 * self.hit_energy_nj(config)
            + stats.misses() as f64 * self.miss_energy_nj(config)
    }

    /// `E(static per cycle) = E(per KByte) * size_KB` — the leakage power of
    /// a core's cache, which is also the **idle power** an unoccupied core
    /// burns (the quantity the Section IV.E decision trades against).
    pub fn static_nj_per_cycle(&self, config: CacheConfig) -> f64 {
        self.static_nj_per_kb_cycle * f64::from(config.size().kilobytes())
    }

    /// `E(sta) = total_cycles * E(static per cycle)`.
    pub fn static_energy_nj(&self, config: CacheConfig, total_cycles: u64) -> f64 {
        total_cycles as f64 * self.static_nj_per_cycle(config)
    }

    /// Idle energy of a core sitting unused for `cycles` in `config`.
    pub fn idle_energy_nj(&self, config: CacheConfig, cycles: u64) -> f64 {
        self.static_energy_nj(config, cycles)
    }

    /// Full cost of executing an application whose cache behaviour is
    /// `stats` and whose compute portion takes `cpu_cycles`, on a core
    /// configured as `config`.
    ///
    /// `cycles = cpu_cycles + miss_cycles`; energy follows Figure 4.
    pub fn execution(
        &self,
        config: CacheConfig,
        stats: &CacheStats,
        cpu_cycles: u64,
    ) -> ExecutionCost {
        let miss_cycles = self.miss_cycles(config, stats.misses());
        let cycles = cpu_cycles + miss_cycles;
        let energy = EnergyBreakdown {
            idle_nj: 0.0,
            dynamic_nj: self.dynamic_energy_nj(config, stats),
            static_nj: self.static_energy_nj(config, cycles),
        };
        ExecutionCost { cycles, energy }
    }

    /// Execution cost through a two-level hierarchy (the future-work
    /// extension; see [`crate::l2`]): L1 misses cost an L2 access, only L2
    /// misses pay the Figure 4 off-chip terms, and the L2's leakage is
    /// added to the static power.
    pub fn execution_with_l2(
        &self,
        config: CacheConfig,
        stats: &cache_sim::HierarchyStats,
        cpu_cycles: u64,
        l2: &crate::L2Params,
    ) -> ExecutionCost {
        let l1_misses = stats.l1.misses();
        let l2_misses = stats.l2.misses();
        let chunks = u64::from(config.line().bytes() / 16);
        let bandwidth_cycles =
            (self.params.bandwidth_fraction * self.params.miss_latency_cycles as f64) as u64;
        let miss_cycles = l1_misses * l2.hit_latency_cycles
            + l2_misses * (self.params.miss_latency_cycles + chunks * bandwidth_cycles);
        let cycles = cpu_cycles + miss_cycles;

        let dynamic_nj = stats.l1.hits() as f64 * self.hit_energy_nj(config)
            + l1_misses as f64 * (l2.access_energy_nj + crate::cacti::fill_energy_nj(config))
            + l2_misses as f64 * (crate::cacti::offchip_energy_nj(config) + l2.fill_energy_nj)
            + miss_cycles as f64 * self.params.cpu_stall_nj_per_cycle;

        let static_nj = cycles as f64 * (self.static_nj_per_cycle(config) + l2.static_nj_per_cycle);
        ExecutionCost {
            cycles,
            energy: EnergyBreakdown {
                idle_nj: 0.0,
                dynamic_nj,
                static_nj,
            },
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(EnergyParams::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{design_space, simulate, Access, Trace};

    fn model() -> EnergyModel {
        EnergyModel::default()
    }

    fn config(text: &str) -> CacheConfig {
        CacheConfig::parse(text).unwrap()
    }

    #[test]
    fn miss_cycles_match_paper_formula() {
        let m = model();
        // 16 B line: penalty = 40 + 1 * 20 = 60 per miss.
        assert_eq!(m.miss_cycles(config("2KB_1W_16B"), 10), 600);
        // 64 B line: penalty = 40 + 4 * 20 = 120 per miss.
        assert_eq!(m.miss_cycles(config("8KB_4W_64B"), 10), 1200);
        // Zero misses cost zero cycles.
        assert_eq!(m.miss_cycles(config("8KB_4W_64B"), 0), 0);
    }

    #[test]
    fn static_energy_scales_with_size_and_cycles() {
        let m = model();
        let small = m.static_energy_nj(config("2KB_1W_16B"), 1000);
        let large = m.static_energy_nj(config("8KB_4W_64B"), 1000);
        assert!(
            (large / small - 4.0).abs() < 1e-9,
            "8KB leaks 4x a 2KB cache"
        );
        assert_eq!(m.static_energy_nj(config("2KB_1W_16B"), 0), 0.0);
        let twice = m.static_energy_nj(config("2KB_1W_16B"), 2000);
        assert!((twice / small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn static_per_kb_is_ten_percent_of_base_dynamic_over_base_size() {
        let m = model();
        let expected = 0.10 * cacti::read_energy_nj(cache_sim::BASE_CONFIG) / 8.0;
        let per_kb = m.static_nj_per_cycle(config("2KB_1W_16B")) / 2.0;
        assert!((per_kb - expected).abs() < 1e-12);
    }

    #[test]
    fn dynamic_energy_increases_with_misses() {
        let m = model();
        let cfg = config("4KB_2W_32B");
        // Same access count, different miss mix.
        let mut low = CacheStats::new();
        let mut high = CacheStats::new();
        for _ in 0..90 {
            low.record_hit(false);
        }
        for _ in 0..10 {
            low.record_miss(false);
        }
        for _ in 0..50 {
            high.record_hit(false);
        }
        for _ in 0..50 {
            high.record_miss(false);
        }
        assert!(m.dynamic_energy_nj(cfg, &high) > m.dynamic_energy_nj(cfg, &low));
    }

    #[test]
    fn miss_energy_exceeds_hit_energy_everywhere() {
        let m = model();
        for cfg in design_space() {
            assert!(
                m.miss_energy_nj(cfg) > m.hit_energy_nj(cfg),
                "a miss must cost more than a hit under {cfg}"
            );
        }
    }

    #[test]
    fn execution_cost_composes_cycles_and_energy() {
        let m = model();
        let cfg = config("8KB_4W_64B");
        let trace: Trace = (0..100u64).map(|i| Access::read(i * 64)).collect();
        let stats = simulate(cfg, &trace);
        assert_eq!(stats.misses(), 100);
        let cost = m.execution(cfg, &stats, 1_000);
        assert_eq!(cost.cycles, 1_000 + 100 * 120);
        assert!(cost.energy.dynamic_nj > 0.0);
        assert!(cost.energy.static_nj > 0.0);
        assert_eq!(cost.energy.idle_nj, 0.0);
        assert!((cost.total_nj() - cost.energy.total()).abs() < 1e-12);
    }

    #[test]
    fn base_config_is_pessimistic_on_energy_but_best_on_misses() {
        // The paper calls 8KB_4W_64B "a pessimistic view with respect to
        // energy consumption [with] the lowest number of cache misses".
        let m = model();
        let small = config("2KB_1W_16B");
        let base = cache_sim::BASE_CONFIG;
        assert!(m.hit_energy_nj(base) > m.hit_energy_nj(small));
        assert!(m.static_nj_per_cycle(base) > m.static_nj_per_cycle(small));
    }

    #[test]
    fn params_builder_overrides_take_effect() {
        let m = EnergyModel::new(
            EnergyParams::new()
                .miss_latency_cycles(80)
                .bandwidth_fraction(0.0),
        );
        assert_eq!(m.miss_cycles(config("8KB_4W_64B"), 1), 80);
    }

    #[test]
    #[should_panic(expected = "bandwidth fraction")]
    fn params_reject_negative_bandwidth() {
        let _ = EnergyParams::new().bandwidth_fraction(-1.0);
    }

    #[test]
    fn idle_energy_equals_static_energy() {
        let m = model();
        let cfg = config("4KB_1W_16B");
        assert_eq!(m.idle_energy_nj(cfg, 12345), m.static_energy_nj(cfg, 12345));
    }

    #[test]
    fn l2_execution_cycles_follow_the_extended_formula() {
        let m = model();
        let cfg = config("8KB_4W_64B");
        let l2 = crate::L2Params::typical();
        // 100 L1 misses, 30 of them miss the L2 too.
        let mut l1 = CacheStats::new();
        for _ in 0..900 {
            l1.record_hit(false);
        }
        for _ in 0..100 {
            l1.record_miss(false);
        }
        let mut l2_stats = CacheStats::new();
        for _ in 0..70 {
            l2_stats.record_hit(false);
        }
        for _ in 0..30 {
            l2_stats.record_miss(false);
        }
        let stats = cache_sim::HierarchyStats { l1, l2: l2_stats };
        let cost = m.execution_with_l2(cfg, &stats, 10_000, &l2);
        // miss_cycles = 100*8 (L2 hits' latency applies to every L1 miss)
        //             + 30*(40 + 4*20) off-chip.
        assert_eq!(cost.cycles, 10_000 + 100 * 8 + 30 * 120);
        assert!(cost.energy.dynamic_nj > 0.0);
        // Static includes the L2 leakage on top of the L1's.
        let l1_only_static = m.static_energy_nj(cfg, cost.cycles);
        assert!(cost.energy.static_nj > l1_only_static);
    }

    #[test]
    fn l2_with_zero_l1_misses_adds_only_leakage() {
        let m = model();
        let cfg = config("4KB_2W_32B");
        let l2 = crate::L2Params::typical();
        let mut l1 = CacheStats::new();
        for _ in 0..500 {
            l1.record_hit(false);
        }
        let stats = cache_sim::HierarchyStats {
            l1,
            l2: CacheStats::new(),
        };
        let flat = m.execution(cfg, &stats.l1, 5_000);
        let stacked = m.execution_with_l2(cfg, &stats, 5_000, &l2);
        assert_eq!(stacked.cycles, flat.cycles, "no misses: identical timing");
        assert!((stacked.energy.dynamic_nj - flat.energy.dynamic_nj).abs() < 1e-9);
        let leak_delta = stacked.energy.static_nj - flat.energy.static_nj;
        let expected = l2.static_nj_per_cycle * flat.cycles as f64;
        assert!((leak_delta - expected).abs() < 1e-6);
    }
}
