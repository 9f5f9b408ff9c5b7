//! The retained **linear-scan** reference loop (the [`crate::ann`]
//! idiom): untraced, fault-free, and on the pre-index structures on
//! purpose — scanned `Vec<Option<BusyInfo>>` occupancy, a `HashSet` stall
//! tracker, a re-sorted `VecDeque` ready queue, and a fresh [`CoreIndex`]
//! per scheduler offer. The property suites hold every [`Simulator`] entry
//! point to it bit for bit and the perf gates time them against it; its
//! event semantics are the one thing kept in lockstep with the event loop.

use energy_model::EnergyBreakdown;
use multicore_sim::{
    BusyInfo, CoreId, CoreIndex, CoreView, Decision, Job, QueueDiscipline, RunMetrics, Scheduler,
    Simulator,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use workloads::ArrivalPlan;

/// The retained linear-scan loop: bit-identity oracle and perf
/// baseline of [`Simulator::run`] and every other entry point.
///
/// Idle energy walks every core on each clock advance and asks the
/// policy for each idle core's power, but sums whole idle cycles per
/// distinct power and converts them once at the end: one product per
/// power, added in ascending power order, the event loop's own fold.
///
/// # Panics
///
/// As in [`Simulator::run`].
pub fn run_reference(
    sim: &Simulator,
    plan: &ArrivalPlan,
    scheduler: &mut dyn Scheduler,
) -> RunMetrics {
    let mut clock: u64 = 0;
    let mut cores: Vec<Option<BusyInfo>> = vec![None; sim.num_cores()];
    let mut running_exec: Vec<Option<multicore_sim::JobExecution>> = vec![None; sim.num_cores()];
    let mut tokens: Vec<u64> = vec![0; sim.num_cores()];
    let mut ready: VecDeque<Job> = VecDeque::new();
    let mut completions: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    let mut arrivals = plan.iter().peekable();
    let mut next_seq: u64 = 0;

    let mut energy = EnergyBreakdown::new();
    let mut busy_cycles = vec![0u64; sim.num_cores()];
    let mut jobs_completed = 0u64;
    let mut stall_episodes = 0u64;
    let mut stall_offers = 0u64;
    let mut stalled: HashSet<u64> = HashSet::new();
    let mut turnaround = 0u64;
    let mut last_completion = 0u64;
    let mut by_priority: BTreeMap<u8, multicore_sim::ClassStats> = BTreeMap::new();
    let mut preemptions = 0u64;
    // Idle cycles per idle power, keyed in ascending power order.
    let mut idle_cycles: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    let priority_ordered = matches!(
        sim.discipline(),
        QueueDiscipline::Priority | QueueDiscipline::PreemptivePriority
    );

    loop {
        while let Some(&Reverse((_, index, token))) = completions.peek() {
            if token == tokens[index] {
                break;
            }
            completions.pop();
        }
        let next_arrival = arrivals.peek().map(|a| a.time);
        let next_completion = completions.peek().map(|Reverse((t, _, _))| *t);
        let now = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };

        debug_assert!(now >= clock, "time must not run backwards");
        let span = now - clock;
        if span > 0 {
            for (index, core) in cores.iter().enumerate() {
                if core.is_none() {
                    let power = scheduler.idle_power_nj_per_cycle(CoreId(index));
                    let cycles = &mut idle_cycles
                        .entry(total_order_key(power))
                        .or_insert((power, 0))
                        .1;
                    *cycles = cycles
                        .checked_add(span)
                        .expect("idle cycles of an idle-power class overflow u64");
                }
            }
        }
        clock = now;

        while let Some(&Reverse((t, index, token))) = completions.peek() {
            if t > clock {
                break;
            }
            completions.pop();
            if token != tokens[index] {
                continue;
            }
            let info = cores[index]
                .take()
                .expect("completion for an occupied core");
            running_exec[index] = None;
            debug_assert_eq!(info.busy_until, t);
            jobs_completed += 1;
            turnaround += t - info.job.arrival;
            let class = by_priority.entry(info.job.priority).or_default();
            class.jobs += 1;
            class.turnaround_cycles += t - info.job.arrival;
            last_completion = last_completion.max(t);
            scheduler.on_complete(&info.job, CoreId(index), clock);
        }

        while let Some(arrival) = arrivals.peek() {
            if arrival.time > clock {
                break;
            }
            let arrival = arrivals.next().expect("peeked");
            ready.push_back(Job {
                seq: next_seq,
                benchmark: arrival.benchmark,
                arrival: arrival.time,
                priority: arrival.priority,
            });
            next_seq += 1;
        }

        loop {
            if priority_ordered {
                ready
                    .make_contiguous()
                    .sort_by_key(|job| (Reverse(job.priority), job.seq));
            }

            let mut evicted = false;
            if sim.discipline() == QueueDiscipline::PreemptivePriority
                && cores.iter().all(Option::is_some)
                && !ready.is_empty()
            {
                let urgent = ready.front().copied().expect("non-empty");
                let victim = (0..sim.num_cores())
                    .filter_map(|i| cores[i].map(|info| (i, info)))
                    .min_by_key(|(i, info)| (info.job.priority, Reverse(info.busy_until), *i));
                if let Some((index, info)) = victim {
                    if info.job.priority < urgent.priority {
                        let views: Vec<CoreView> = cores
                            .iter()
                            .enumerate()
                            .map(|(core_index, busy)| CoreView {
                                id: CoreId(core_index),
                                busy: if core_index == index { None } else { *busy },
                                online: true,
                            })
                            .collect();
                        let probe = CoreIndex::from_views(&views);
                        match scheduler.schedule(&urgent, &probe, clock) {
                            Decision::Run { core, execution } => {
                                assert_eq!(
                                    core.0, index,
                                    "policy placed {urgent} on busy {core} during a \
                                     preemption probe at cycle {clock}"
                                );
                                assert!(
                                    execution.cycles > 0,
                                    "policy scheduled {urgent} with a zero-cycle \
                                     execution at cycle {clock}"
                                );
                                let old = running_exec[index].take().expect("occupied");
                                let remaining_cycles = info.busy_until - clock;
                                let refund = remaining_cycles as f64 / old.cycles as f64;
                                energy.dynamic_nj -= old.energy.dynamic_nj * refund;
                                energy.static_nj -= old.energy.static_nj * refund;
                                busy_cycles[index] -= remaining_cycles;
                                tokens[index] += 1;
                                preemptions += 1;
                                scheduler.on_preempt(&info.job, CoreId(index), clock);
                                ready.pop_front();
                                ready.push_back(info.job);
                                cores[index] = Some(BusyInfo {
                                    job: urgent,
                                    started: clock,
                                    busy_until: clock + execution.cycles,
                                });
                                running_exec[index] = Some(execution);
                                completions.push(Reverse((
                                    clock + execution.cycles,
                                    index,
                                    tokens[index],
                                )));
                                energy += execution.energy;
                                busy_cycles[index] += execution.cycles;
                                stalled.remove(&urgent.seq);
                                evicted = true;
                            }
                            Decision::Stall => {}
                        }
                    }
                }
            }

            let mut remaining = ready.len();
            while remaining > 0 && cores.iter().any(Option::is_none) {
                let job = ready.pop_front().expect("remaining > 0 implies non-empty");
                let views: Vec<CoreView> = cores
                    .iter()
                    .enumerate()
                    .map(|(index, busy)| CoreView {
                        id: CoreId(index),
                        busy: *busy,
                        online: true,
                    })
                    .collect();
                let offer = CoreIndex::from_views(&views);
                match scheduler.schedule(&job, &offer, clock) {
                    Decision::Run { core, execution } => {
                        let slot = &mut cores[core.0];
                        assert!(
                            slot.is_none(),
                            "policy scheduled {job} onto busy {core} at cycle {clock}"
                        );
                        assert!(
                            execution.cycles > 0,
                            "policy scheduled {job} with a zero-cycle execution at \
                             cycle {clock}"
                        );
                        debug_assert_eq!(
                            execution.energy.idle_nj, 0.0,
                            "execution energy must not carry idle energy"
                        );
                        *slot = Some(BusyInfo {
                            job,
                            started: clock,
                            busy_until: clock + execution.cycles,
                        });
                        running_exec[core.0] = Some(execution);
                        completions.push(Reverse((
                            clock + execution.cycles,
                            core.0,
                            tokens[core.0],
                        )));
                        energy += execution.energy;
                        busy_cycles[core.0] += execution.cycles;
                        stalled.remove(&job.seq);
                        remaining = ready.len();
                    }
                    Decision::Stall => {
                        stall_offers += 1;
                        if stalled.insert(job.seq) {
                            stall_episodes += 1;
                        }
                        ready.push_back(job);
                        remaining -= 1;
                    }
                }
            }

            if !evicted {
                break;
            }
        }

        let live_completions = cores.iter().any(Option::is_some);
        if !live_completions && arrivals.peek().is_none() && !ready.is_empty() {
            panic!(
                "scheduler deadlock: {} job(s) stalled with every core idle at cycle {clock}",
                ready.len()
            );
        }
    }

    // One product per idle power, summed in ascending power order.
    for &(power, cycles) in idle_cycles.values() {
        energy.idle_nj += power * cycles as f64;
    }

    RunMetrics {
        energy,
        total_cycles: last_completion,
        jobs_completed,
        stalls: stall_episodes,
        stall_offers,
        busy_cycles,
        turnaround_cycles: turnaround,
        by_priority,
        preemptions,
    }
}

/// A key whose unsigned order is [`f64::total_cmp`]'s: the sign bit
/// flipped for a positive float, every bit for a negative one.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}
