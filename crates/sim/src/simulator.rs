//! The discrete-event engine.

use crate::core_index::{CoreIndex, CoreSet, SeqBitSet};
use crate::faults::{
    AttemptFault, DegradedComponent, FaultKind, FaultPlan, FaultStats, FaultedRun,
};
use crate::idle::IdleLedger;
use crate::job::{Job, JobExecution};
use crate::metrics::RunMetrics;
use crate::scheduler::{BusyInfo, CoreId, Decision, Scheduler};
use crate::trace::{NullSink, PlacementKind, TraceEvent, TraceSink};
use energy_model::EnergyBreakdown;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use workloads::{Arrival, ArrivalPlan};

/// How the ready queue orders jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// First-come first-served — the paper's evaluation setting
    /// ("processed on a FIFO basis … assuming no form of preemption or
    /// priority").
    #[default]
    Fifo,
    /// Non-preemptive priority: higher-priority jobs are offered to the
    /// scheduler first; FIFO within a priority class. The paper's
    /// future-work extension.
    Priority,
    /// Preemptive priority: as [`Priority`](QueueDiscipline::Priority),
    /// and additionally a queued job may evict a strictly-lower-priority
    /// running job when every core is busy. The victim loses its progress
    /// (restart semantics — embedded cores without context-save hardware);
    /// the energy and busy cycles of its *executed* portion stay charged,
    /// the unexecuted remainder is refunded, and the job re-enters the
    /// ready queue.
    PreemptivePriority,
}

/// Priority-class key of a queued job: higher priority first, FIFO (seq
/// order) within a class — the exact order the reference loop's per-round
/// `sort_by_key` produces.
type PrioKey = (Reverse<u8>, u64);

fn prio_key(job: &Job) -> PrioKey {
    (Reverse(job.priority), job.seq)
}

/// A queued job and its wait class: the bit of the interned set of cores
/// the policy promised it waits for ([`Scheduler::waits_for`]), or `0`
/// while unclassed. Jobs enter the queue unclassed (arrivals, retries,
/// eviction and outage requeues) and are classed only by a stall.
#[derive(Debug, Clone, Copy)]
struct Queued {
    job: Job,
    class: u64,
}

/// The simulator's ready queue, indexed per discipline.
///
/// * FIFO keeps the reference loop's `VecDeque` rotation verbatim:
///   offered jobs pop from the front and stalled jobs re-append.
/// * The priority disciplines replace the reference's per-round
///   `sort_by_key` + rotation with a `BTreeMap` ordered by [`PrioKey`]:
///   admission and removal are O(log n), and a scheduling pass walks the
///   map with a cyclic cursor ([`offer`](Self::offer)), which visits
///   jobs in exactly the order the sorted rotation would — a stalled job
///   re-appended to a sorted deque lands back in key order, so
///   continuing past the cursor *is* the rotation. Residual queue order
///   after a pass differs from the rotated deque's, but is unobservable:
///   the reference re-sorts before every pass.
enum ReadyQueue {
    Fifo(VecDeque<Queued>),
    Priority(BTreeMap<PrioKey, Queued>),
}

impl ReadyQueue {
    fn new(priority_ordered: bool) -> Self {
        if priority_ordered {
            ReadyQueue::Priority(BTreeMap::new())
        } else {
            ReadyQueue::Fifo(VecDeque::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            ReadyQueue::Fifo(queue) => queue.len(),
            ReadyQueue::Priority(map) => map.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admit a job, unclassed: arrival, retry re-admission, or eviction
    /// requeue.
    fn push(&mut self, job: Job) {
        let entry = Queued { job, class: 0 };
        match self {
            ReadyQueue::Fifo(queue) => queue.push_back(entry),
            ReadyQueue::Priority(map) => {
                map.insert(prio_key(&job), entry);
            }
        }
    }

    /// The most urgent queued job (front of the scheduling order).
    fn urgent(&self) -> Option<Job> {
        match self {
            ReadyQueue::Fifo(queue) => queue.front().map(|entry| entry.job),
            ReadyQueue::Priority(map) => map.first_key_value().map(|(_, entry)| entry.job),
        }
    }

    /// Remove and return the most urgent queued job.
    fn take_urgent(&mut self) -> Option<Job> {
        match self {
            ReadyQueue::Fifo(queue) => queue.pop_front().map(|entry| entry.job),
            ReadyQueue::Priority(map) => map.pop_first().map(|(_, entry)| entry.job),
        }
    }

    /// Next job of a scheduling pass. FIFO pops the front (a stalled job
    /// re-enters through [`stalled`](Self::stalled)); the priority map
    /// advances the cyclic cursor — successor of the last offered key,
    /// wrapping to the minimum — and leaves the job in place until the
    /// offer resolves.
    fn offer(&mut self, cursor: &mut Option<PrioKey>) -> Queued {
        match self {
            ReadyQueue::Fifo(queue) => queue.pop_front().expect("offer on an empty queue"),
            ReadyQueue::Priority(map) => {
                let key = (*cursor)
                    .and_then(|after| {
                        map.range((Excluded(after), Unbounded))
                            .next()
                            .map(|(key, _)| *key)
                    })
                    .unwrap_or_else(|| *map.first_key_value().expect("offer on an empty queue").0);
                *cursor = Some(key);
                map[&key]
            }
        }
    }

    /// Skip the blocked run at the head of the pass in one scan: the
    /// longest run of the next `remaining` offers whose wait class has no
    /// idle core. Each is a `Stall` the policy promised, so it emits its
    /// `Stall` event in offer order without a call to the policy; FIFO
    /// then rotates the run to the back and the priority cursor moves
    /// past it. Returns the run's length.
    fn skip_blocked<T: TraceSink + ?Sized>(
        &mut self,
        cursor: &mut Option<PrioKey>,
        remaining: usize,
        waits: &WaitClasses,
        at: u64,
        sink: &mut T,
    ) -> usize {
        let mut stall = |job: &Job| {
            if sink.enabled() {
                sink.record(TraceEvent::Stall {
                    seq: job.seq,
                    benchmark: job.benchmark,
                    at,
                });
            }
        };
        let mut skipped = 0;
        match self {
            ReadyQueue::Fifo(queue) => {
                for entry in queue.iter().take(remaining) {
                    if !waits.blocks(entry.class) {
                        break;
                    }
                    stall(&entry.job);
                    skipped += 1;
                }
                queue.rotate_left(skipped);
            }
            ReadyQueue::Priority(map) => {
                // The cyclic walk from the cursor: `remaining` never
                // exceeds the map's length, so the wrap visits no key twice.
                let from = cursor.map_or(Unbounded, Excluded);
                for (key, entry) in map
                    .range((from, Unbounded))
                    .chain(map.iter())
                    .take(remaining)
                {
                    if !waits.blocks(entry.class) {
                        break;
                    }
                    stall(&entry.job);
                    *cursor = Some(*key);
                    skipped += 1;
                }
            }
        }
        skipped
    }

    /// The offered job was placed: drop it from the queue.
    fn placed(&mut self, cursor: &Option<PrioKey>) {
        match self {
            ReadyQueue::Fifo(_) => {} // already popped by `offer`
            ReadyQueue::Priority(map) => {
                let key = cursor.expect("placed without an offer");
                map.remove(&key).expect("offered job still queued");
            }
        }
    }

    /// The offered job stalled with wait class `entry.class`: FIFO
    /// re-appends it (the rotation); the priority map never removed it,
    /// and only records a class.
    fn stalled(&mut self, cursor: &Option<PrioKey>, entry: Queued) {
        match self {
            ReadyQueue::Fifo(queue) => queue.push_back(entry),
            ReadyQueue::Priority(map) => {
                if entry.class != 0 {
                    let key = cursor.expect("stalled without an offer");
                    map.get_mut(&key).expect("offered job still queued").class = entry.class;
                }
            }
        }
    }
}

/// The wait sets promised in one run, interned as wait classes (one bit
/// each, at most 64), and which of them have no idle core.
#[derive(Default)]
struct WaitClasses {
    sets: Vec<CoreSet>,
    /// Bit `i` is set when no core of `sets[i]` is idle, as of the last
    /// [`refresh`](Self::refresh) or the class's interning.
    blocked: u64,
}

impl WaitClasses {
    /// `true` until the policy makes its first promise.
    fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Recompute which classes are blocked under the current occupancy.
    fn refresh(&mut self, cores: &CoreIndex) {
        self.blocked = 0;
        for (i, set) in self.sets.iter().enumerate() {
            if cores.first_idle_in(set).is_none() {
                self.blocked |= 1 << i;
            }
        }
    }

    /// The class bit of `set`, interning it on first sight. Once 64
    /// classes exist, a new set stays unclassed (`0`): the job is offered
    /// as usual.
    fn intern(&mut self, set: &CoreSet, cores: &CoreIndex) -> u64 {
        if let Some(i) = self.sets.iter().position(|known| known == set) {
            return 1 << i;
        }
        if self.sets.len() == u64::BITS as usize {
            return 0;
        }
        let bit = 1 << self.sets.len();
        if cores.first_idle_in(set).is_none() {
            self.blocked |= bit;
        }
        self.sets.push(set.clone());
        bit
    }

    /// `true` when `class` is a blocked wait class (never for unclassed).
    #[inline]
    fn blocks(&self, class: u64) -> bool {
        class & self.blocked != 0
    }
}

/// Discrete-event simulator over a fixed number of cores.
///
/// Events are job arrivals (from an [`ArrivalPlan`] or any time-ordered
/// arrival stream) and execution ends. After processing all events at a
/// timestamp, the simulator makes a scheduling pass over the ready queue:
/// each queued job is offered to the [`Scheduler`] at most once per pass,
/// stalled jobs return to the back of the queue, and the pass repeats
/// from the front after every successful placement (occupancy changed, so
/// earlier stall decisions may now resolve differently). A job whose
/// policy promised to stall while its wait set is busy
/// ([`Scheduler::waits_for`]) is accounted as that stall without the
/// offer. The queue order is FIFO by default; see [`QueueDiscipline`].
///
/// Every entry point — [`run`](Self::run),
/// [`run_with_sink`](Self::run_with_sink), [`run_stream`](Self::run_stream)
/// and [`run_with_faults`](Self::run_with_faults) — drives one indexed
/// event loop; the linear-scan `hetero_oracles::sim::run_reference` is
/// its bit-identity oracle.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Simulator {
    num_cores: usize,
    discipline: QueueDiscipline,
}

impl Simulator {
    /// A FIFO simulator over `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        Simulator {
            num_cores,
            discipline: QueueDiscipline::Fifo,
        }
    }

    /// Select the ready-queue discipline.
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// The active queue discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Run the full arrival plan to completion under `scheduler`.
    ///
    /// Equivalent to [`run_with_sink`](Self::run_with_sink) with the
    /// zero-overhead [`NullSink`]: the sink is monomorphised away and the
    /// hot path carries no tracing cost (guarded by the perf gate's
    /// `sim_trace_overhead` stage against the reference loop).
    ///
    /// # Panics
    ///
    /// Panics if the policy deadlocks (stalls every queued job while no
    /// core is busy and no future event can change the situation), if it
    /// returns [`Decision::Run`] for a busy core, or if it returns a
    /// zero-cycle execution (which would silently skew preemption-refund
    /// fractions).
    pub fn run(&self, plan: &ArrivalPlan, scheduler: &mut dyn Scheduler) -> RunMetrics {
        self.run_with_sink(plan, scheduler, &mut NullSink)
    }

    /// Run the full arrival plan to completion under `scheduler`, emitting
    /// one [`TraceEvent`] per accounting action into `sink` (the flight
    /// recorder). See [`TraceEvent`] for the event schema and the
    /// [`LedgerAuditor`](crate::LedgerAuditor) that replays it.
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run).
    pub fn run_with_sink<T: TraceSink + ?Sized>(
        &self,
        plan: &ArrivalPlan,
        scheduler: &mut dyn Scheduler,
        sink: &mut T,
    ) -> RunMetrics {
        self.run_stream(plan.iter().copied(), scheduler, sink)
    }

    /// Run an **arrival stream** to completion under `scheduler` — the
    /// streaming generalisation of [`run_with_sink`](Self::run_with_sink).
    ///
    /// `arrivals` is any time-ordered iterator of [`Arrival`]s, for example
    /// a bounded open-loop process
    /// (`workloads::OpenLoop::poisson(…).take(n)`). Arrivals are pulled
    /// lazily, one event at a time, so the schedule is never materialised:
    /// steady-state memory is O(cores + queued jobs), independent of the
    /// total job count. Every entry point runs the same loop, so a
    /// materialised plan fed through here is the batch run, bit for bit
    /// (locked in by the `engine_properties` suite).
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run), and additionally if the stream yields a
    /// decreasing timestamp (the plan invariant lazy processes must keep).
    pub fn run_stream<I, T>(
        &self,
        arrivals: I,
        scheduler: &mut dyn Scheduler,
        sink: &mut T,
    ) -> RunMetrics
    where
        I: IntoIterator<Item = Arrival>,
        T: TraceSink + ?Sized,
    {
        self.run_loop(arrivals.into_iter(), scheduler, &mut NoFaults, sink)
    }

    /// Run the arrival plan under an injected [`FaultPlan`], with graceful
    /// degradation and honest accounting:
    ///
    /// * **core outages** evict the in-flight job (its unexecuted
    ///   remainder is refunded, exactly like a preemption) and requeue it
    ///   immediately for migration to another core — no retry attempt is
    ///   charged; offline cores accept no placements and burn no leakage;
    /// * **crashes** charge the executed fraction, refund the rest, and
    ///   schedule a retry after bounded exponential backoff; a job that
    ///   fails `max_attempts` times is *abandoned* — recorded explicitly
    ///   (never lost) and excluded from `jobs_completed`;
    /// * **hangs** are killed by the watchdog after `watchdog_factor`×
    ///   the nominal cycles, with the full stretched energy charged (the
    ///   honest cost of a runaway execution), then retried like a crash;
    /// * **predictor outages / corrupt features** don't touch the loop's
    ///   accounting — policies consult the plan themselves — but each
    ///   affected completion is stamped with a
    ///   [`Fallback`](TraceEvent::Fallback) event, and every availability
    ///   transition with a [`Degraded`](TraceEvent::Degraded) event.
    ///
    /// An empty plan ([`FaultPlan::is_empty`]) runs the loop on a
    /// zero-sized fault source whose hooks are constants, so every fault
    /// branch compiles out: the metrics are **bit-identical** to
    /// `hetero_oracles::sim::run_reference` (property-tested) and the
    /// cost is perf-gated within 2 % of it by the `sim_fault_overhead`
    /// stage.
    ///
    /// # Panics
    ///
    /// As in [`run`](Self::run); additionally panics if a policy places a
    /// job on an offline core.
    pub fn run_with_faults<T: TraceSink + ?Sized>(
        &self,
        plan: &ArrivalPlan,
        scheduler: &mut dyn Scheduler,
        fault_plan: &FaultPlan,
        sink: &mut T,
    ) -> FaultedRun {
        let arrivals = plan.iter().copied();
        if fault_plan.is_empty() {
            return FaultedRun {
                metrics: self.run_loop(arrivals, scheduler, &mut NoFaults, sink),
                faults: FaultStats::default(),
            };
        }
        let mut faults = PlanFaults::new(fault_plan, self.num_cores);
        let metrics = self.run_loop(arrivals, scheduler, &mut faults, sink);
        debug_assert_eq!(
            metrics.jobs_completed + faults.stats.jobs_failed,
            plan.len() as u64,
            "conservation: every arrival completes or is abandoned"
        );
        FaultedRun {
            metrics,
            faults: faults.stats,
        }
    }

    /// The event loop behind every entry point, generic over the arrival
    /// stream, the fault source and the trace sink.
    ///
    /// Each iteration advances the clock to the earliest pending event —
    /// an arrival, an execution end, or the fault source's next retry
    /// wake-up or availability transition — and charges idle leakage for
    /// the elapsed span. Everything due at the new timestamp is then
    /// handled in a fixed order:
    ///
    /// 1. execution ends: completions, crashes and watchdog kills;
    /// 2. availability transitions (a core going offline evicts its
    ///    occupant);
    /// 3. retries whose backoff has expired re-enter the ready queue;
    /// 4. arrivals enter the ready queue;
    /// 5. preempt-and-schedule rounds: under the preemptive discipline an
    ///    eviction probe, then a scheduling pass, repeated until a round
    ///    evicts nothing.
    ///
    /// The run ends when no work remains. Availability transitions alone
    /// are not work, so trailing outage windows are never simulated.
    fn run_loop<I, F, T>(
        &self,
        arrivals: I,
        scheduler: &mut dyn Scheduler,
        faults: &mut F,
        sink: &mut T,
    ) -> RunMetrics
    where
        I: Iterator<Item = Arrival>,
        F: FaultSource,
        T: TraceSink + ?Sized,
    {
        let mut m = Machine::new(self.num_cores, self.discipline != QueueDiscipline::Fifo);
        for core in 0..self.num_cores {
            m.refresh_idle_power(CoreId(core), scheduler);
        }
        let mut arrivals = arrivals.peekable();
        let mut next_seq: u64 = 0;
        // Streams must be time-ordered (the sorted-plan invariant); an
        // out-of-order arrival would silently corrupt idle-span and
        // turnaround accounting, so fail loudly instead.
        let mut last_arrival_time: u64 = 0;

        loop {
            let next_arrival = arrivals.peek().map(|a| a.time);
            let next_work = earliest(earliest(next_arrival, m.next_end()), faults.next_retry());
            if next_work.is_none() && m.ready.is_empty() {
                break;
            }
            let now = earliest(next_work, faults.next_transition())
                .expect("the deadlock guard leaves an event pending");

            // Idle energy accrues in the idle ledger's per-class counters,
            // which change only when a core's idle state or idle power
            // does, so advancing the clock costs nothing. A sink sees one
            // `IdleAdvance` per advance over an idle core, carrying the
            // ledger's total read at `now`, after an `IdlePower` for each
            // idle core whose idle power it has not been told yet.
            debug_assert!(now >= m.clock, "time must not run backwards");
            if sink.enabled() && now > m.clock && m.cores.idle_count() > 0 {
                m.announce_idle_power(now, sink);
                sink.record(TraceEvent::IdleAdvance {
                    from: m.clock,
                    to: now,
                    idle_total_nj: m.idle.total_nj(now),
                });
            }
            m.clock = now;

            // Retire every execution end due now.
            while let Some((t, index)) = m.pop_due_end() {
                let core = CoreId(index);
                let info = m.cores.vacate(core).expect("core occupied");
                let exec = m.running[index].take();
                if let Some((kind, executed)) = faults.take_failure(core) {
                    let exec = exec.expect("occupied");
                    debug_assert_eq!(info.started + executed, t);
                    // Refund the unexecuted remainder — the eviction
                    // arithmetic, and an exact 0.0 for a watchdog kill,
                    // whose stretched run was charged in full.
                    m.refund(index, &exec, exec.cycles - executed);
                    if sink.enabled() {
                        sink.record(fault_event(&info.job, core, t, kind, &exec, executed));
                    }
                    scheduler.on_preempt(&info.job, core, m.clock);
                    m.refresh_idle_power(core, scheduler);
                    faults.failed(info.job, kind, m.clock, sink);
                    continue;
                }
                debug_assert_eq!(info.busy_until, t);
                let job = info.job;
                let metrics = &mut m.metrics;
                metrics.jobs_completed += 1;
                metrics.turnaround_cycles += t - job.arrival;
                let class = metrics.by_priority.entry(job.priority).or_default();
                class.jobs += 1;
                class.turnaround_cycles += t - job.arrival;
                metrics.total_cycles = metrics.total_cycles.max(t);
                if sink.enabled() {
                    sink.record(TraceEvent::Completion {
                        seq: job.seq,
                        benchmark: job.benchmark,
                        core,
                        at: t,
                        arrival: job.arrival,
                        priority: job.priority,
                    });
                }
                faults.completed(&job, t, sink);
                scheduler.on_complete(&job, core, m.clock);
                m.refresh_idle_power(core, scheduler);
            }

            faults.apply_due(&mut m, scheduler, sink);

            // Enqueue every arrival due now.
            while let Some(arrival) = arrivals.next_if(|a| a.time <= m.clock) {
                assert!(
                    arrival.time >= last_arrival_time,
                    "arrival stream must be time-ordered: {} after {}",
                    arrival.time,
                    last_arrival_time
                );
                last_arrival_time = arrival.time;
                let job = Job {
                    seq: next_seq,
                    benchmark: arrival.benchmark,
                    arrival: arrival.time,
                    priority: arrival.priority,
                };
                if sink.enabled() {
                    sink.record(TraceEvent::Arrival {
                        seq: job.seq,
                        benchmark: job.benchmark,
                        at: job.arrival,
                        priority: job.priority,
                    });
                }
                m.ready.push(job);
                next_seq += 1;
            }

            // Preempt-and-schedule rounds. "No core idle" counts offline
            // cores as unavailable rather than idle — an empty idle mask
            // with something running.
            loop {
                let evicted = self.discipline == QueueDiscipline::PreemptivePriority
                    && m.cores.idle_count() == 0
                    && m.cores.busy_count() > 0
                    && !m.ready.is_empty()
                    && m.preempt(scheduler, faults, sink);
                m.pass(scheduler, faults, sink);
                if !evicted {
                    break;
                }
            }

            // Deadlock guard: nothing running, arriving or pending in the
            // fault source, but jobs remain queued — the policy can never
            // make progress. O(1) via the busy counter.
            if m.cores.busy_count() == 0
                && arrivals.peek().is_none()
                && faults.next_retry().is_none()
                && faults.next_transition().is_none()
                && !m.ready.is_empty()
            {
                panic!(
                    "scheduler deadlock: {} job(s) stalled with no core busy and no event \
                     pending at cycle {}",
                    m.ready.len(),
                    m.clock
                );
            }
        }

        m.metrics.energy.idle_nj = m.idle.total_nj(m.clock);
        m.metrics
    }
}

/// The earlier of two optional event times.
#[inline]
fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The mutable state of one run of the event loop.
struct Machine {
    clock: u64,
    /// Indexed occupancy: per-core views plus the incrementally
    /// maintained idle mask (vacant ∧ online) and population counters
    /// every saturation and liveness check reads in O(1).
    cores: CoreIndex,
    /// The charged execution behind each occupied core, for refunds.
    running: Vec<Option<JobExecution>>,
    /// Per-core token that lazily invalidates the end event of an
    /// evicted execution.
    tokens: Vec<u64>,
    /// Min-heap of `(time, core, token)` execution ends; stale tokens are
    /// skipped on pop.
    ends: BinaryHeap<Reverse<(u64, usize, u64)>>,
    ready: ReadyQueue,
    /// The wait classes the policy's promises interned so far.
    waits: WaitClasses,
    /// Jobs inside a stall episode (cleared on placement), so a waiting
    /// job counts one episode however many passes re-offer it.
    stalled: SeqBitSet,
    /// The ledger under construction.
    metrics: RunMetrics,
    /// Idle cycles per idle-power class. Every idle core's window is open
    /// at its idle power as the policy last answered it: read once per
    /// core at run start and again whenever the core becomes idle, which
    /// the [`Scheduler::idle_power_nj_per_cycle`] contract makes enough.
    idle: IdleLedger,
    /// The bits of the last `IdlePower` event each core was announced
    /// with; `None` before its first.
    announced: Vec<Option<u64>>,
    /// Cores whose last answered idle power differs from their
    /// announcement.
    unannounced: CoreSet,
}

impl Machine {
    fn new(num_cores: usize, priority_ordered: bool) -> Self {
        Machine {
            clock: 0,
            cores: CoreIndex::new(num_cores),
            running: vec![None; num_cores],
            tokens: vec![0; num_cores],
            ends: BinaryHeap::new(),
            ready: ReadyQueue::new(priority_ordered),
            waits: WaitClasses::default(),
            stalled: SeqBitSet::new(),
            metrics: RunMetrics {
                energy: EnergyBreakdown::new(),
                total_cycles: 0,
                jobs_completed: 0,
                stalls: 0,
                stall_offers: 0,
                busy_cycles: vec![0; num_cores],
                turnaround_cycles: 0,
                by_priority: BTreeMap::new(),
                preemptions: 0,
            },
            idle: IdleLedger::new(num_cores),
            announced: vec![None; num_cores],
            unannounced: CoreSet::new(num_cores),
        }
    }

    /// Re-read `core`'s idle power from the policy, and open (or move)
    /// its idle window at that power if it is idle.
    #[inline]
    fn refresh_idle_power(&mut self, core: CoreId, scheduler: &dyn Scheduler) {
        let power = scheduler.idle_power_nj_per_cycle(core);
        if self.cores.is_idle(core) {
            self.idle.open(core, power, self.clock);
        }
        if self.announced[core.0] == Some(power.to_bits()) {
            self.unannounced.remove(core);
        } else {
            self.unannounced.insert(core);
        }
    }

    /// Flip `core`'s availability now: an offline core's idle window
    /// closes, and a core back online re-reads its idle power.
    fn set_online(&mut self, core: CoreId, online: bool, scheduler: &dyn Scheduler) {
        self.cores.set_online(core, online);
        if online {
            self.refresh_idle_power(core, scheduler);
        } else {
            self.idle.close(core, self.clock);
        }
    }

    /// Emit an `IdlePower` event, stamped `at`, for each idle core whose
    /// idle power the sink has not been told. Called only right
    /// before the `IdleAdvance` that charges those cores, so every
    /// announcement is charged.
    fn announce_idle_power<T: TraceSink + ?Sized>(&mut self, at: u64, sink: &mut T) {
        let Machine {
            cores,
            idle,
            announced,
            unannounced,
            ..
        } = self;
        unannounced.drain_idle(cores, |core| {
            let power = idle.power(core);
            announced[core.0] = Some(power.to_bits());
            sink.record(TraceEvent::IdlePower {
                core,
                at,
                idle_power_nj_per_cycle: power,
            });
        });
    }

    /// Time of the next live execution end, dropping stale ones.
    #[inline]
    fn next_end(&mut self) -> Option<u64> {
        while let Some(&Reverse((t, index, token))) = self.ends.peek() {
            if token == self.tokens[index] {
                return Some(t);
            }
            self.ends.pop();
        }
        None
    }

    /// Pop the next live execution end due by the clock, as
    /// `(time, core index)`.
    #[inline]
    fn pop_due_end(&mut self) -> Option<(u64, usize)> {
        let t = self.next_end().filter(|&t| t <= self.clock)?;
        let Reverse((_, index, _)) = self.ends.pop().expect("live end event");
        Some((t, index))
    }

    /// Refund the unexecuted `remaining` cycles of `exec` on core
    /// `index` — the one refund expression evictions, crashes and outages
    /// share, and the auditor replays.
    #[inline]
    fn refund(&mut self, index: usize, exec: &JobExecution, remaining: u64) {
        let fraction = remaining as f64 / exec.cycles as f64;
        self.metrics.energy.dynamic_nj -= exec.energy.dynamic_nj * fraction;
        self.metrics.energy.static_nj -= exec.energy.static_nj * fraction;
        self.metrics.busy_cycles[index] -= remaining;
    }

    /// Evict `info` from the already-vacated core `index` now: refund the
    /// unexecuted remainder of its charged execution and invalidate its
    /// end event. Returns the charged execution and the refunded cycles.
    #[inline]
    fn evict(&mut self, index: usize, info: &BusyInfo) -> (JobExecution, u64) {
        let exec = self.running[index].take().expect("occupied");
        let remaining = info.busy_until - self.clock;
        self.refund(index, &exec, remaining);
        self.tokens[index] += 1;
        (exec, remaining)
    }

    /// Occupy `core` with `job` for the charged `execution`, whose end
    /// event fires `ends_after` cycles from now.
    #[inline(always)]
    fn place<T: TraceSink + ?Sized>(
        &mut self,
        core: CoreId,
        job: Job,
        (execution, ends_after): (JobExecution, u64),
        kind: PlacementKind,
        sink: &mut T,
    ) {
        let clock = self.clock;
        self.cores.place(
            core,
            BusyInfo {
                job,
                started: clock,
                busy_until: clock + execution.cycles,
            },
        );
        self.idle.close(core, clock);
        self.running[core.0] = Some(execution);
        self.ends
            .push(Reverse((clock + ends_after, core.0, self.tokens[core.0])));
        self.metrics.energy += execution.energy;
        self.metrics.busy_cycles[core.0] += execution.cycles;
        self.stalled.remove(job.seq);
        if sink.enabled() {
            sink.record(TraceEvent::Placement {
                seq: job.seq,
                benchmark: job.benchmark,
                core,
                at: clock,
                cycles: execution.cycles,
                dynamic_nj: execution.energy.dynamic_nj,
                static_nj: execution.energy.static_nj,
                kind,
            });
        }
    }

    /// The preemption probe, run when no core is idle: the most urgent
    /// queued job evicts the lowest-priority running job it outranks only
    /// if the policy, asked with the victim's core vacated, places it there
    /// *right now*. A `Stall` answer (side-effect free by the `schedule`
    /// contract) restores the victim, which prevents evict/stall/retake
    /// livelock. Returns whether an eviction happened.
    fn preempt<F: FaultSource, T: TraceSink + ?Sized>(
        &mut self,
        scheduler: &mut dyn Scheduler,
        faults: &mut F,
        sink: &mut T,
    ) -> bool {
        let clock = self.clock;
        let urgent = self.ready.urgent().expect("non-empty");
        // Victim: lowest priority, then most remaining cycles (greatest
        // refund), then core index.
        let Some((index, info)) = self
            .cores
            .views()
            .iter()
            .filter_map(|view| view.busy.map(|info| (view.id.0, info)))
            .min_by_key(|(i, info)| (info.job.priority, Reverse(info.busy_until), *i))
        else {
            return false;
        };
        if info.job.priority >= urgent.priority {
            return false;
        }
        let core = CoreId(index);
        let saved = self.cores.vacate(core).expect("victim occupied");
        debug_assert_eq!(saved, info);
        let decision = scheduler.schedule(&urgent, &self.cores, clock);
        let granted = matches!(decision, Decision::Run { .. });
        if !granted {
            self.cores.place(core, saved);
        }
        if sink.enabled() {
            sink.record(TraceEvent::PreemptionProbe {
                seq: urgent.seq,
                victim: info.job.seq,
                core,
                at: clock,
                granted,
            });
        }
        let Decision::Run {
            core: placed,
            execution,
        } = decision
        else {
            return false;
        };
        assert_eq!(
            placed.0, index,
            "policy placed {urgent} on busy {placed} during a preemption probe at cycle {clock}"
        );
        assert!(
            execution.cycles > 0,
            "policy scheduled {urgent} with a zero-cycle execution at cycle {clock}"
        );
        let (old, remaining_cycles) = self.evict(index, &info);
        self.metrics.preemptions += 1;
        if sink.enabled() {
            sink.record(TraceEvent::Eviction {
                victim: info.job.seq,
                core,
                at: clock,
                total_cycles: old.cycles,
                remaining_cycles,
                dynamic_nj: old.energy.dynamic_nj,
                static_nj: old.energy.static_nj,
            });
        }
        scheduler.on_preempt(&info.job, core, clock);
        self.refresh_idle_power(core, scheduler);
        let _ = self.ready.take_urgent();
        self.ready.push(info.job);
        let charge = faults.charge(core, &urgent, execution);
        self.place(core, urgent, charge, PlacementKind::Preemption, sink);
        true
    }

    /// One scheduling pass: offer each queued job at most once,
    /// restarting the count after every placement. The saturation check
    /// is an O(1) idle-count read; the offer order is the cyclic cursor
    /// under priority disciplines (see [`ReadyQueue`]).
    ///
    /// Once the policy has promised a wait set ([`Scheduler::waits_for`]),
    /// each restart point — the pass's start and every placement —
    /// recomputes which wait classes are blocked, and the jobs of a
    /// blocked run are accounted as stalls without offering them
    /// ([`ReadyQueue::skip_blocked`]).
    #[inline(always)]
    fn pass<F: FaultSource, T: TraceSink + ?Sized>(
        &mut self,
        scheduler: &mut dyn Scheduler,
        faults: &mut F,
        sink: &mut T,
    ) {
        let clock = self.clock;
        let mut remaining = self.ready.len();
        let mut cursor: Option<PrioKey> = None;
        self.waits.refresh(&self.cores);
        while remaining > 0 && self.cores.idle_count() > 0 {
            if !self.waits.is_empty() {
                let skipped =
                    self.ready
                        .skip_blocked(&mut cursor, remaining, &self.waits, clock, sink);
                self.metrics.stall_offers += skipped as u64;
                remaining -= skipped;
                if remaining == 0 {
                    break;
                }
            }
            let Queued { job, class } = self.ready.offer(&mut cursor);
            match scheduler.schedule(&job, &self.cores, clock) {
                Decision::Run { core, execution } => {
                    let view = self.cores.view(core);
                    assert!(
                        view.online,
                        "policy scheduled {job} onto offline {core} at cycle {clock}"
                    );
                    assert!(
                        view.busy.is_none(),
                        "policy scheduled {job} onto busy {core} at cycle {clock}"
                    );
                    assert!(
                        execution.cycles > 0,
                        "policy scheduled {job} with a zero-cycle execution at cycle {clock}"
                    );
                    debug_assert_eq!(
                        execution.energy.idle_nj, 0.0,
                        "execution energy must not carry idle energy"
                    );
                    let charge = faults.charge(core, &job, execution);
                    self.ready.placed(&cursor);
                    self.place(core, job, charge, PlacementKind::Pass, sink);
                    remaining = self.ready.len();
                    self.waits.refresh(&self.cores);
                }
                Decision::Stall => {
                    self.metrics.stall_offers += 1;
                    if self.stalled.insert(job.seq) {
                        self.metrics.stalls += 1;
                    }
                    if sink.enabled() {
                        sink.record(TraceEvent::Stall {
                            seq: job.seq,
                            benchmark: job.benchmark,
                            at: clock,
                        });
                    }
                    // A promise binds until the job is placed, so a `None`
                    // answer keeps the class an earlier stall earned.
                    let class = scheduler
                        .waits_for(&job)
                        .map_or(class, |set| self.waits.intern(set, &self.cores));
                    self.ready.stalled(&cursor, Queued { job, class });
                    remaining -= 1;
                }
            }
        }
    }
}

/// The fault regime the event loop runs under: a timed component with
/// hooks at fixed points of every timestamp (see
/// [`Simulator::run_loop`]). The default hooks are the fault-free
/// answers, all constants, so the loop instantiated for [`NoFaults`]
/// compiles every fault branch out; [`PlanFaults`] replays a
/// [`FaultPlan`].
trait FaultSource {
    /// Earliest pending retry wake-up — work still to come.
    #[inline]
    fn next_retry(&self) -> Option<u64> {
        None
    }

    /// Earliest pending availability transition — not work on its own.
    #[inline]
    fn next_transition(&self) -> Option<u64> {
        None
    }

    /// The execution to charge for placing `job` on `core` now, and the
    /// cycles until its end event fires. Remembers how the attempt will
    /// end.
    #[inline]
    fn charge(&mut self, _core: CoreId, _job: &Job, exec: JobExecution) -> (JobExecution, u64) {
        (exec, exec.cycles)
    }

    /// How the attempt that just ended on `core` failed — its fault kind
    /// and executed cycles — or `None` when it completed.
    #[inline]
    fn take_failure(&mut self, _core: CoreId) -> Option<(FaultKind, u64)> {
        None
    }

    /// Count a crash or watchdog kill of `job`, then park it for retry
    /// after exponential backoff, or abandon it at the retry cap.
    fn failed<T: TraceSink + ?Sized>(&mut self, _job: Job, _kind: FaultKind, _at: u64, _: &mut T) {
        unreachable!("the fault-free source draws no failures")
    }

    /// Stamp a completion whose prediction was served degraded.
    #[inline]
    fn completed<T: TraceSink + ?Sized>(&mut self, _job: &Job, _at: u64, _sink: &mut T) {}

    /// Apply the availability transitions due now, then re-admit the
    /// retries whose backoff has expired.
    #[inline]
    fn apply_due<T: TraceSink + ?Sized>(
        &mut self,
        _: &mut Machine,
        _: &mut dyn Scheduler,
        _: &mut T,
    ) {
    }
}

/// The fault-free source: every hook keeps its constant default.
struct NoFaults;

impl FaultSource for NoFaults {}

/// The [`FaultPlan`]-backed source: owns the fault state of one run.
struct PlanFaults<'p> {
    plan: &'p FaultPlan,
    /// Index of the next unapplied availability transition.
    cursor: usize,
    /// Min-heap of `(ready_at, seq)` retry wake-ups, with the parked jobs.
    retries: BinaryHeap<Reverse<(u64, u64)>>,
    parked: HashMap<u64, Job>,
    /// Crash/watchdog failures per job (outage evictions are free).
    failures: HashMap<u64, u32>,
    /// The failure drawn for the attempt running on each core, as
    /// `(kind, cycles executed when it strikes)`.
    pending: Vec<Option<(FaultKind, u64)>>,
    stats: FaultStats,
}

impl<'p> PlanFaults<'p> {
    fn new(plan: &'p FaultPlan, num_cores: usize) -> Self {
        PlanFaults {
            plan,
            cursor: 0,
            retries: BinaryHeap::new(),
            parked: HashMap::new(),
            failures: HashMap::new(),
            pending: vec![None; num_cores],
            stats: FaultStats::default(),
        }
    }
}

impl FaultSource for PlanFaults<'_> {
    fn next_retry(&self) -> Option<u64> {
        self.retries.peek().map(|Reverse((t, _))| *t)
    }

    fn next_transition(&self) -> Option<u64> {
        self.plan.transitions().get(self.cursor).map(|t| t.at)
    }

    fn charge(&mut self, core: CoreId, job: &Job, exec: JobExecution) -> (JobExecution, u64) {
        let attempt = self.failures.get(&job.seq).copied().unwrap_or(0) + 1;
        let (charged, failure) = match self.plan.attempt_fault(job.seq, attempt, exec.cycles) {
            None => (exec, None),
            Some(AttemptFault::Crash { fraction_permille }) => {
                let executed =
                    ((exec.cycles as u128 * u128::from(fraction_permille)) / 1000) as u64;
                let executed = executed.clamp(1, exec.cycles - 1);
                (exec, Some((FaultKind::Crash, executed)))
            }
            Some(AttemptFault::Hang) => {
                // The stretched run is charged in full up front.
                let stretched = self.plan.watchdog_cycles(exec.cycles);
                let factor = self.plan.watchdog_energy_factor();
                let charged = JobExecution {
                    cycles: stretched,
                    energy: EnergyBreakdown {
                        dynamic_nj: exec.energy.dynamic_nj * factor,
                        static_nj: exec.energy.static_nj * factor,
                        ..EnergyBreakdown::new()
                    },
                };
                (charged, Some((FaultKind::Watchdog, stretched)))
            }
        };
        self.pending[core.0] = failure;
        let ends_after = failure.map_or(charged.cycles, |(_, executed)| executed);
        (charged, ends_after)
    }

    fn take_failure(&mut self, core: CoreId) -> Option<(FaultKind, u64)> {
        self.pending[core.0].take()
    }

    fn failed<T: TraceSink + ?Sized>(&mut self, job: Job, kind: FaultKind, at: u64, sink: &mut T) {
        match kind {
            FaultKind::Crash => self.stats.crashes += 1,
            _ => self.stats.watchdog_kills += 1,
        }
        let count = self.failures.entry(job.seq).or_insert(0);
        *count += 1;
        let attempt = *count;
        self.stats.max_attempts_observed = self.stats.max_attempts_observed.max(attempt);
        let abandoned = attempt >= self.plan.max_attempts();
        let ready_at = if abandoned {
            self.stats.jobs_failed += 1;
            at
        } else {
            self.stats.retries += 1;
            at.saturating_add(self.plan.backoff(attempt))
        };
        if sink.enabled() {
            sink.record(TraceEvent::Retry {
                seq: job.seq,
                benchmark: job.benchmark,
                at,
                attempt,
                ready_at,
                abandoned,
            });
        }
        if !abandoned {
            self.retries.push(Reverse((ready_at, job.seq)));
            self.parked.insert(job.seq, job);
        }
    }

    fn completed<T: TraceSink + ?Sized>(&mut self, job: &Job, at: u64, sink: &mut T) {
        // Environment record: this completion's prediction was (or would
        // be) served degraded. Policies consult the same pure plan
        // queries, so the trace agrees with their behaviour.
        if let Some(level) = self.plan.fallback_level(job.seq, at) {
            self.stats.fallbacks += 1;
            if sink.enabled() {
                sink.record(TraceEvent::Fallback {
                    seq: job.seq,
                    benchmark: job.benchmark,
                    at,
                    level,
                });
            }
        }
    }

    fn apply_due<T: TraceSink + ?Sized>(
        &mut self,
        m: &mut Machine,
        scheduler: &mut dyn Scheduler,
        sink: &mut T,
    ) {
        let clock = m.clock;
        // A core dropping offline evicts its occupant first (refund and
        // requeue for migration — no retry attempt charged), then
        // announces the transition, so the trace proves the core was
        // vacant.
        while let Some(&transition) = self.plan.transitions().get(self.cursor) {
            if transition.at > clock {
                break;
            }
            self.cursor += 1;
            if let DegradedComponent::Core(core) = transition.component {
                if core.0 >= self.pending.len() {
                    continue; // plan built for a wider machine
                }
                if !transition.online {
                    if let Some(info) = m.cores.vacate(core) {
                        let (exec, remaining) = m.evict(core.0, &info);
                        self.pending[core.0] = None;
                        self.stats.outage_evictions += 1;
                        if sink.enabled() {
                            let executed = exec.cycles - remaining;
                            let kind = FaultKind::CoreOutage;
                            sink.record(fault_event(&info.job, core, clock, kind, &exec, executed));
                        }
                        scheduler.on_preempt(&info.job, core, clock);
                        m.refresh_idle_power(core, scheduler);
                        m.ready.push(info.job);
                    }
                }
                m.set_online(core, transition.online, scheduler);
            }
            self.stats.degraded_transitions += 1;
            if sink.enabled() {
                sink.record(TraceEvent::Degraded {
                    at: clock,
                    component: transition.component,
                    online: transition.online,
                });
            }
        }

        while let Some(&Reverse((ready_at, seq))) = self.retries.peek() {
            if ready_at > clock {
                break;
            }
            self.retries.pop();
            m.ready
                .push(self.parked.remove(&seq).expect("parked retry job"));
        }
    }
}

/// The [`Fault`](TraceEvent::Fault) record of the attempt charged as
/// `exec` on `core`, killed at `at` after `executed` cycles.
fn fault_event(
    job: &Job,
    core: CoreId,
    at: u64,
    kind: FaultKind,
    exec: &JobExecution,
    executed: u64,
) -> TraceEvent {
    TraceEvent::Fault {
        seq: job.seq,
        benchmark: job.benchmark,
        core,
        at,
        kind,
        total_cycles: exec.cycles,
        executed_cycles: executed,
        dynamic_nj: exec.energy.dynamic_nj,
        static_nj: exec.energy.static_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobExecution;
    use workloads::{Arrival, BenchmarkId};

    /// Runs everything on core 0 for a fixed duration.
    struct SingleCore {
        duration: u64,
        completions_seen: Vec<u64>,
    }

    impl Scheduler for SingleCore {
        fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            if cores.is_idle(CoreId(0)) {
                Decision::run(
                    CoreId(0),
                    JobExecution {
                        cycles: self.duration,
                        energy: EnergyBreakdown {
                            dynamic_nj: 5.0,
                            ..EnergyBreakdown::new()
                        },
                    },
                )
            } else {
                Decision::Stall
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            1.0
        }

        fn on_complete(&mut self, job: &Job, _core: CoreId, _now: u64) {
            self.completions_seen.push(job.seq);
        }
    }

    fn plan(times: &[u64]) -> ArrivalPlan {
        ArrivalPlan::from_arrivals(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| Arrival::new(t, BenchmarkId(i % 3)))
                .collect(),
        )
    }

    #[test]
    fn serial_execution_on_one_core() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 10, 20]), &mut policy);
        assert_eq!(metrics.jobs_completed, 3);
        // Jobs run back-to-back on core 0: completions at 100, 200, 300.
        assert_eq!(metrics.total_cycles, 300);
        assert_eq!(metrics.busy_cycles[0], 300);
        assert_eq!(metrics.busy_cycles[1], 0);
        assert_eq!(
            policy.completions_seen,
            vec![0, 1, 2],
            "FIFO completion order"
        );
    }

    #[test]
    fn dynamic_energy_accumulates_per_job() {
        let mut policy = SingleCore {
            duration: 50,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1).run(&plan(&[0, 0, 0, 0]), &mut policy);
        assert_eq!(metrics.energy.dynamic_nj, 20.0);
    }

    #[test]
    fn idle_energy_accrues_on_unused_cores() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0]), &mut policy);
        // Core 1 idles for the whole 100-cycle run at 1 nJ/cycle.
        assert_eq!(metrics.energy.idle_nj, 100.0);
    }

    #[test]
    fn idle_energy_counts_gaps_between_arrivals() {
        let mut policy = SingleCore {
            duration: 10,
            completions_seen: Vec::new(),
        };
        // Job at 0 (busy 0-10), gap, job at 50 (busy 50-60).
        let metrics = Simulator::new(1).run(&plan(&[0, 50]), &mut policy);
        // Core 0 idle during [10, 50): 40 cycles.
        assert_eq!(metrics.energy.idle_nj, 40.0);
        assert_eq!(metrics.total_cycles, 60);
    }

    #[test]
    fn stalls_are_counted() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 0]), &mut policy);
        // Second job arrives while core 0 is busy: it stalls once at t=0,
        // then succeeds at t=100.
        assert_eq!(metrics.stalls, 1);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn turnaround_includes_queueing() {
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1).run(&plan(&[0, 0]), &mut policy);
        // Job 0: 0 -> 100 (100). Job 1: 0 -> 200 (200).
        assert_eq!(metrics.turnaround_cycles, 300);
        assert_eq!(metrics.mean_turnaround(), 150.0);
    }

    /// Stalls the head job a bounded number of times but would run any
    /// other job: exercises the at-most-once-per-pass rule.
    struct StallFirstJob {
        stalls_left: u32,
    }

    impl Scheduler for StallFirstJob {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            if job.seq == 0 && self.stalls_left > 0 {
                self.stalls_left -= 1;
                return Decision::Stall;
            }
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 10,
                        energy: EnergyBreakdown::new(),
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    fn stalled_head_does_not_block_later_jobs() {
        let mut policy = StallFirstJob { stalls_left: 1 };
        let metrics = Simulator::new(2).run(&plan(&[0, 0, 0]), &mut policy);
        assert_eq!(metrics.jobs_completed, 3);
        // Jobs 1 and 2 ran in parallel at t=0 while job 0 stalled; job 0
        // ran when the cores freed at t=10.
        assert_eq!(metrics.stalls, 1);
        assert_eq!(metrics.total_cycles, 20);
    }

    /// Always stalls: must be detected as a deadlock.
    struct AlwaysStall;

    impl Scheduler for AlwaysStall {
        fn schedule(&mut self, _job: &Job, _cores: &CoreIndex, _now: u64) -> Decision {
            Decision::Stall
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn deadlock_is_detected() {
        let _ = Simulator::new(1).run(&plan(&[0]), &mut AlwaysStall);
    }

    /// Schedules onto a busy core: must be caught.
    struct DoubleBook;

    impl Scheduler for DoubleBook {
        fn schedule(&mut self, _job: &Job, _cores: &CoreIndex, _now: u64) -> Decision {
            Decision::run(
                CoreId(0),
                JobExecution {
                    cycles: 100,
                    energy: EnergyBreakdown::new(),
                },
            )
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_booking_is_detected() {
        // Two cores so the pass keeps offering jobs after core 0 fills;
        // the policy then targets the busy core 0 again.
        let _ = Simulator::new(2).run(&plan(&[0, 0]), &mut DoubleBook);
    }

    #[test]
    fn priority_discipline_reorders_the_queue() {
        // Three jobs at t=0 with priorities 0, 0, 2 on one core: under
        // FIFO they run in arrival order; under Priority the urgent job
        // jumps ahead.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(2),
                priority: 2,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);

        let mut fifo_policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1).run(&plan, &mut fifo_policy);
        assert_eq!(fifo_policy.completions_seen, vec![0, 1, 2]);

        let mut priority_policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut priority_policy);
        assert_eq!(
            priority_policy.completions_seen,
            vec![2, 0, 1],
            "urgent job first"
        );
    }

    #[test]
    fn priority_is_fifo_within_a_class() {
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 1,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 1,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(2),
                priority: 1,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 50,
            completions_seen: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut policy);
        assert_eq!(policy.completions_seen, vec![0, 1, 2]);
    }

    #[test]
    fn priority_is_non_preemptive() {
        // A low-priority job running when an urgent one arrives keeps the
        // core (no preemption — the paper's future-work boundary we keep).
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 10,
                benchmark: BenchmarkId(1),
                priority: 5,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut policy);
        assert_eq!(policy.completions_seen, vec![0, 1]);
        assert_eq!(
            metrics.total_cycles, 200,
            "urgent job waits for the running one"
        );
    }

    #[test]
    fn empty_plan_completes_trivially() {
        let metrics = Simulator::new(3).run(&ArrivalPlan::from_arrivals(vec![]), &mut AlwaysStall);
        assert_eq!(metrics.jobs_completed, 0);
        assert_eq!(metrics.total_cycles, 0);
        assert_eq!(metrics.energy.total(), 0.0);
    }

    #[test]
    fn preemption_evicts_a_lower_priority_job() {
        // Background job running since t=0 (duration 100); an urgent job
        // arrives at t=30 with every core busy: the victim is evicted,
        // the urgent job runs 30..130, and the victim restarts after it.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(metrics.preemptions, 1);
        assert_eq!(policy.completions_seen, vec![1, 0], "urgent finishes first");
        // Urgent: 30..130; victim restarts: 130..230.
        assert_eq!(metrics.total_cycles, 230);
        // Busy cycles: 30 (wasted partial) + 100 (urgent) + 100 (restart).
        assert_eq!(metrics.busy_cycles[0], 230);
    }

    #[test]
    fn preemption_refunds_unexecuted_energy() {
        // Same scenario; each execution charges 5 nJ dynamic. The evicted
        // job ran 30 of 100 cycles: 70% of its 5 nJ is refunded, then the
        // restart charges 5 nJ again: total = 5*0.3 + 5 + 5 = 11.5.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert!(
            (metrics.energy.dynamic_nj - 11.5).abs() < 1e-9,
            "{}",
            metrics.energy.dynamic_nj
        );
    }

    #[test]
    fn no_preemption_between_equal_priorities() {
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 1,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 1,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(policy.completions_seen, vec![0, 1]);
    }

    #[test]
    fn preemption_prefers_an_idle_core_when_one_exists() {
        // Two cores, one busy with low priority, one idle: the urgent job
        // takes the idle core; no eviction.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(1),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        struct AnyIdle;
        impl Scheduler for AnyIdle {
            fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
                match cores.first_idle() {
                    Some(core) => Decision::run(
                        core,
                        JobExecution {
                            cycles: 100,
                            energy: EnergyBreakdown::new(),
                        },
                    ),
                    None => Decision::Stall,
                }
            }
            fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
                0.0
            }
        }
        let metrics = Simulator::new(2)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut AnyIdle);
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(metrics.jobs_completed, 2);
    }

    #[test]
    fn on_preempt_hook_fires() {
        struct Recorder {
            inner: SingleCore,
            preempted: Vec<u64>,
        }
        impl Scheduler for Recorder {
            fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
                self.inner.schedule(job, cores, now)
            }
            fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
                self.inner.idle_power_nj_per_cycle(core)
            }
            fn on_preempt(&mut self, job: &Job, _core: CoreId, _now: u64) {
                self.preempted.push(job.seq);
            }
        }
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 10,
                benchmark: BenchmarkId(1),
                priority: 2,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let mut policy = Recorder {
            inner: SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
            preempted: Vec::new(),
        };
        let _ = Simulator::new(1)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut policy);
        assert_eq!(policy.preempted, vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Simulator::new(0);
    }

    #[test]
    fn stall_offers_exceed_episodes_for_a_long_wait() {
        // Two cores, but the policy only ever uses core 0, so core 1 stays
        // idle and every scheduling pass re-offers the whole queue: offers
        // pile up while each waiting job has exactly one episode.
        let mut policy = SingleCore {
            duration: 1_000,
            completions_seen: Vec::new(),
        };
        let metrics = Simulator::new(2).run(&plan(&[0, 10, 20, 30]), &mut policy);
        assert_eq!(metrics.jobs_completed, 4);
        // Jobs 1..3 each stall exactly once as an episode...
        assert_eq!(metrics.stalls, 3);
        // ...but are re-offered on later passes: job 1 is offered at t=10,
        // 20, 30 (3 offers), job 2 at 20, 30 (2), job 3 at 30 (1). When
        // job 0 completes at t=1000 the pass places job 1 then stalls jobs
        // 2 and 3 again (+2); job 2's completion stalls job 3 once more
        // (+1). Total offers strictly exceed episodes.
        assert!(metrics.stall_offers > metrics.stalls);
        assert_eq!(metrics.stall_offers, 9);
    }

    /// Pins job `seq` to core `seq % 2`; stalls when that core is busy.
    struct PinBySeq;

    impl Scheduler for PinBySeq {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            let core = CoreId((job.seq % 2) as usize);
            if cores.is_idle(core) {
                Decision::run(
                    core,
                    JobExecution {
                        cycles: 100,
                        energy: EnergyBreakdown::new(),
                    },
                )
            } else {
                Decision::Stall
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    fn preemption_requeue_starts_a_new_stall_episode() {
        // Jobs 0 and 1 fill both cores at t=0; an urgent job (seq 2, pinned
        // to core 0) evicts job 0 at t=30. When core 1 frees at t=100 the
        // evicted job is offered there but declines (pinned to core 0):
        // that wait is a fresh stall episode even though job 0 had already
        // run once without stalling.
        let arrivals = vec![
            Arrival {
                time: 0,
                benchmark: BenchmarkId(0),
                priority: 0,
            },
            Arrival {
                time: 0,
                benchmark: BenchmarkId(1),
                priority: 0,
            },
            Arrival {
                time: 30,
                benchmark: BenchmarkId(2),
                priority: 3,
            },
        ];
        let plan = ArrivalPlan::from_arrivals(arrivals);
        let metrics = Simulator::new(2)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut PinBySeq);
        assert_eq!(metrics.preemptions, 1);
        assert_eq!(metrics.stalls, 1, "the evicted job's re-queue wait");
        assert_eq!(metrics.stall_offers, 1);
        assert_eq!(metrics.jobs_completed, 3);
    }

    /// Returns a zero-cycle execution: must be rejected at placement.
    struct ZeroCycle;

    impl Scheduler for ZeroCycle {
        fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            Decision::run(
                cores.view(CoreId(0)).id,
                JobExecution {
                    cycles: 0,
                    energy: EnergyBreakdown::new(),
                },
            )
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            0.0
        }
    }

    #[test]
    #[should_panic(expected = "zero-cycle execution")]
    fn zero_cycle_execution_is_rejected() {
        let _ = Simulator::new(1).run(&plan(&[0]), &mut ZeroCycle);
    }

    #[test]
    fn recorded_trace_passes_the_ledger_audit() {
        use crate::trace::{LedgerAuditor, RecordingSink};
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ] {
            let plan = ArrivalPlan::uniform_with_priorities(30, 2_000, 3, 3, 11);
            let sim = Simulator::new(2).with_discipline(discipline);
            let mut sink = RecordingSink::new();
            let mut policy = SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            };
            let metrics = sim.run_with_sink(&plan, &mut policy, &mut sink);
            LedgerAuditor::new(2)
                .check(sink.events(), &metrics.into())
                .unwrap_or_else(|problems| {
                    panic!("{discipline:?} audit failed:\n{}", problems.join("\n"))
                });
        }
    }

    #[test]
    fn watchdog_kills_and_eventually_abandons_a_hung_job() {
        use crate::faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            hang_rate: 1.0,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        let mut policy = SingleCore {
            duration: 100,
            completions_seen: Vec::new(),
        };
        let run =
            Simulator::new(1).run_with_faults(&plan(&[0]), &mut policy, &fault_plan, &mut NullSink);
        // Every attempt hangs: 5 attempts, each killed by the watchdog at
        // 4x the nominal 100 cycles, then 4 backoffs and a final abandon.
        assert_eq!(run.faults.watchdog_kills, 5);
        assert_eq!(run.faults.retries, 4);
        assert_eq!(run.faults.jobs_failed, 1);
        assert_eq!(run.faults.max_attempts_observed, 5);
        assert_eq!(run.metrics.jobs_completed, 0);
        assert!(policy.completions_seen.is_empty(), "on_complete never ran");
        // Honest accounting: each stretched run is fully charged at 4x the
        // nominal 5 nJ with no refund.
        assert_eq!(run.metrics.energy.dynamic_nj, 5.0 * 4.0 * 5.0);
        assert_eq!(run.metrics.busy_cycles[0], 400 * 5);
    }

    #[test]
    fn crashes_retry_with_backoff_then_abandon() {
        use crate::faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            crash_rate: 1.0,
            max_attempts: 3,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        let run = Simulator::new(1).run_with_faults(
            &plan(&[0]),
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
            &fault_plan,
            &mut NullSink,
        );
        assert_eq!(run.faults.crashes, 3);
        assert_eq!(run.faults.retries, 2);
        assert_eq!(run.faults.jobs_failed, 1);
        assert_eq!(run.metrics.jobs_completed, 0);
        // Each crash charged only its executed fraction: strictly less
        // than three full 5 nJ executions, but more than zero.
        assert!(run.metrics.energy.dynamic_nj > 0.0);
        assert!(run.metrics.energy.dynamic_nj < 15.0);
        assert!(run.metrics.busy_cycles[0] < 300);
    }

    #[test]
    fn faulted_trace_passes_the_fault_audit() {
        use crate::faults::FaultConfig;
        use crate::trace::{LedgerAuditor, RecordingSink};
        for (rate, seed) in [(0.05, 9u64), (0.3, 10), (0.8, 11)] {
            let arrival_plan = ArrivalPlan::uniform_with_priorities(60, 50_000, 4, 3, seed);
            let config = FaultConfig::chaos(rate, seed, 60_000);
            let fault_plan = crate::faults::FaultPlan::build(&config, 2);
            let sim = Simulator::new(2);
            let mut sink = RecordingSink::new();
            let run = sim.run_with_faults(
                &arrival_plan,
                &mut SingleCore {
                    duration: 100,
                    completions_seen: Vec::new(),
                },
                &fault_plan,
                &mut sink,
            );
            // Conservation of jobs: every arrival completed or abandoned.
            assert_eq!(
                run.metrics.jobs_completed + run.faults.jobs_failed,
                60,
                "rate {rate}"
            );
            assert!(run.faults.max_attempts_observed <= config.max_attempts);
            LedgerAuditor::new(2)
                .check(sink.events(), &run.into())
                .unwrap_or_else(|problems| {
                    panic!("rate {rate} audit failed:\n{}", problems.join("\n"))
                });
        }
    }

    #[test]
    fn outage_evicts_and_migration_completes_the_job() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Saturate the outage rate: with a 200k horizon each core gets
        // eight outage windows. SingleCore insists on core 0, so it rides
        // through evictions (each one requeues without charging a retry)
        // and still completes everything once the core returns.
        let config = FaultConfig {
            core_outage_rate: 0.9,
            seed: 3,
            horizon: 200_000,
            ..FaultConfig::none()
        };
        let fault_plan = FaultPlan::build(&config, 1);
        assert!(!fault_plan.transitions().is_empty());
        let run = Simulator::new(1).run_with_faults(
            &plan(&[0, 10, 20, 30]),
            &mut SingleCore {
                duration: 30_000,
                completions_seen: Vec::new(),
            },
            &fault_plan,
            &mut NullSink,
        );
        assert_eq!(run.metrics.jobs_completed, 4, "no job is ever lost");
        assert_eq!(run.faults.jobs_failed, 0, "outages never charge retries");
        assert!(
            run.faults.outage_evictions > 0,
            "30k-cycle executions must straddle an outage window"
        );
        assert!(run.faults.degraded_transitions >= 2);
    }

    #[test]
    #[should_panic(expected = "scheduler deadlock")]
    fn deadlock_is_detected_under_faults() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Outage windows are pending, so the guard must wait out every
        // transition before it can declare the deadlock.
        let fault_plan = FaultPlan::build(&FaultConfig::chaos(0.5, 3, 10_000), 1);
        assert!(!fault_plan.transitions().is_empty());
        let _ = Simulator::new(1).run_with_faults(
            &plan(&[0]),
            &mut AlwaysStall,
            &fault_plan,
            &mut NullSink,
        );
    }

    #[test]
    fn faults_on_an_open_loop_stream_conserve_jobs_and_audit_clean() {
        use crate::faults::{FaultConfig, FaultPlan};
        use crate::trace::{Audit, LedgerAuditor, RecordingSink};
        let jobs = 300;
        let fault_plan = FaultPlan::build(&FaultConfig::chaos(0.3, 5, 60_000_000), 2);
        let mut faults = PlanFaults::new(&fault_plan, 2);
        let mut sink = RecordingSink::new();
        let metrics = Simulator::new(2).run_loop(
            workloads::OpenLoop::poisson(5.0, 3, 17).take(jobs),
            &mut SingleCore {
                duration: 20_000,
                completions_seen: Vec::new(),
            },
            &mut faults,
            &mut sink,
        );
        let run = FaultedRun {
            metrics,
            faults: faults.stats,
        };
        assert_eq!(
            run.metrics.jobs_completed + run.faults.jobs_failed,
            jobs as u64
        );
        assert!(
            run.faults.crashes > 0 && run.faults.outage_evictions > 0,
            "{:?}",
            run.faults
        );
        let mut reported = Audit::from(run);
        let auditor = LedgerAuditor::new(2);
        auditor
            .check(sink.events(), &reported)
            .unwrap_or_else(|problems| panic!("audit failed:\n{}", problems.join("\n")));
        // A run that over-reports its retries fails the audit.
        reported.faults.retries += 1;
        assert!(auditor.check(sink.events(), &reported).is_err());
    }
}
