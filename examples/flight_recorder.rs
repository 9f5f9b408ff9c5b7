//! Flight recorder walkthrough: record the proposed scheduler's full
//! event trace, re-derive its energy/turnaround ledger from the events
//! alone, and watch the auditor reject a tampered stream.
//!
//! The simulator emits one typed [`TraceEvent`] per accounting action —
//! arrivals, placements (with the exact energy operands), stalls,
//! preemption probes, evictions (with the refund numerator/denominator),
//! completions, one idle advance per clock advance and an idle-power
//! announcement whenever an idle core's power changes. Because events
//! carry the exact
//! `f64` operands, the [`LedgerAuditor`] replays the identical float
//! arithmetic in the identical order and reproduces the simulator's
//! [`RunMetrics`] *bit for bit* — any single perturbed accounting site
//! breaks either a conservation invariant or the bit-identity.
//!
//! ```sh
//! cargo run --release --example flight_recorder
//! ```

use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BestCorePredictor, PredictorConfig, ProposedSystem, SuiteOracle,
};
use hetero_sched::multicore_sim::{
    LedgerAuditor, QueueDiscipline, RecordingSink, Simulator, StallPurityChecked, TraceEvent,
};
use hetero_sched::workloads::{ArrivalPlan, Suite};

fn main() {
    // The scaled-down testbed: small suite, fast predictor.
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    println!("characterising {} kernels ...", suite.len());
    let oracle = SuiteOracle::build(&suite, &model);
    let arch = Architecture::paper_quad();
    println!("training the bagged ANN best-core predictor ...");
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());

    // A mixed-priority workload under the preemptive discipline, so the
    // trace contains every event kind: stalls, probes, and evictions.
    let jobs = 300;
    let plan = ArrivalPlan::uniform_with_priorities(jobs, 20_000_000, suite.len(), 3, 7);

    // Wrap the policy in the stall-purity checker (every Stall-returning
    // schedule call must leave the policy state untouched) and attach
    // the recording sink.
    let proposed = ProposedSystem::with_model(&arch, &oracle, model, predictor);
    let mut checked = StallPurityChecked::new(proposed);
    let mut sink = RecordingSink::new();
    let metrics = Simulator::new(arch.num_cores())
        .with_discipline(QueueDiscipline::PreemptivePriority)
        .run_with_sink(&plan, &mut checked, &mut sink);
    let events = sink.into_events();

    println!(
        "\nran {} jobs: {} events recorded, {} stall-purity checks, {} violations",
        metrics.jobs_completed,
        events.len(),
        checked.stall_checks(),
        checked.violations().len()
    );
    checked.assert_pure();

    // What the recorder saw, by kind.
    let kinds = [
        "arrival",
        "placement",
        "completion",
        "idle_advance",
        "idle_power",
        "stall",
        "preemption_probe",
        "eviction",
    ];
    for kind in kinds {
        let count = events.iter().filter(|e| e.kind_name() == kind).count();
        println!("  {kind:<17} {count:>6}");
    }

    // The first few accounting actions, in execution order.
    println!("\nfirst events of the run:");
    for event in events.iter().take(6) {
        println!("  cycle {:>6}  {}", event.at(), event.kind_name());
    }

    // Re-derive the complete ledger from the events alone and compare it
    // with the simulator's own accumulation: energies to the bit, every
    // counter exactly.
    let auditor = LedgerAuditor::new(arch.num_cores());
    let derived = auditor.replay(&events).expect("trace is well-formed");
    assert_eq!(derived.metrics, metrics, "replay must reproduce the ledger");
    println!(
        "\naudit: ledger re-derived bit-for-bit ({:.1} uJ total, {} stall episodes, {} offers, \
         {} preemptions)",
        metrics.energy.total() / 1000.0,
        metrics.stalls,
        metrics.stall_offers,
        metrics.preemptions
    );

    // Tamper with a single accounting site: inflate one placement's
    // dynamic energy by half a nanojoule. The auditor notices.
    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::Placement { dynamic_nj, .. } = event {
            *dynamic_nj += 0.5;
            break;
        }
    }
    match auditor.check(&tampered, &metrics.into()) {
        Ok(()) => unreachable!("a tampered trace must not audit clean"),
        Err(divergences) => {
            println!("\ntampered trace rejected:");
            for divergence in divergences.iter().take(3) {
                println!("  {divergence}");
            }
        }
    }
}
