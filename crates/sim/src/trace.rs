//! Flight recorder: a structured event trace of one simulation run, and
//! the conservation auditor that re-derives the full [`RunMetrics`] ledger
//! from it.
//!
//! The simulator's energy/cycle ledger is accumulated by scattered
//! accounting sites inside [`Simulator::run`](crate::Simulator::run)
//! (placements, idle accrual, preemption refunds). Every headline claim of
//! the reproduction — the paper's ~28 % energy saving above all — rests on
//! that arithmetic, so this module provides an independent cross-check:
//!
//! * [`TraceSink`] receives one typed [`TraceEvent`] per accounting action
//!   as the run executes. The default [`NullSink`] compiles to nothing
//!   (the hot path is monomorphised against it); [`RecordingSink`] keeps
//!   the full stream.
//! * Idle accrual costs one event per clock advance, not one per idle
//!   core: an [`IdleAdvance`](TraceEvent::IdleAdvance) says the clock
//!   moved, and an [`IdlePower`](TraceEvent::IdlePower) announces a core's
//!   idle power when it first matters and whenever it changes. The
//!   advance carries the ledger's running idle total (the simulator's
//!   fold of idle cycles per idle-power class), so a consumer that
//!   needs only the run total reads it; one that needs per-core idle
//!   time rebuilds which cores were idle from the occupancy events with
//!   [`IdleCores`].
//! * [`LedgerAuditor`] replays a recorded stream, enforcing structural
//!   conservation invariants (every arrival completes exactly once, no
//!   double-booked cores, evictions refund exactly the unexecuted
//!   remainder, idle power is announced only for idle cores and always
//!   charged, advances never overlap) and re-deriving a complete
//!   [`Audit`] — the [`RunMetrics`] ledger, fault counters and admission
//!   counts, energy to f64 **bit identity**, counters to exact equality —
//!   that must match what the run reported.
//! * [`StallPurityChecked`] wraps any [`Scheduler`] and verifies the
//!   documented contract that a call returning
//!   [`Decision::Stall`](crate::Decision::Stall) leaves the policy's
//!   observable state untouched (the preemption probe depends on it),
//!   using the policy's [`state_fingerprint`](Scheduler::state_fingerprint),
//!   that the policy keeps its [`waits_for`](Scheduler::waits_for)
//!   promises, and that a placement never moves another idle core's
//!   [`idle_power_nj_per_cycle`](Scheduler::idle_power_nj_per_cycle).
//!
//! Bit identity is achievable because the auditor replays the *same*
//! floating-point operations in the *same* order the simulator performed
//! them: each event carries the exact operands (idle power, execution
//! energy, refund numerator/denominator) of its accounting site.

use crate::core_index::{BitIter, CoreIndex, CoreSet, WORD_BITS};
use crate::faults::{DegradedComponent, FallbackLevel, FaultKind, FaultStats, FaultedRun};
use crate::idle::IdleLedger;
use crate::job::Job;
use crate::metrics::{ClassStats, RunMetrics};
use crate::scheduler::{CoreId, Decision, Scheduler};
use energy_model::EnergyBreakdown;
use std::collections::{BTreeMap, HashMap, HashSet};
use workloads::BenchmarkId;

/// How a job came to occupy a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// A regular scheduling-pass placement onto an idle core.
    Pass,
    /// A placement that evicted a running job (preemptive discipline);
    /// always immediately preceded by the matching
    /// [`TraceEvent::Eviction`].
    Preemption,
}

/// One accounting action of the simulator, in execution order.
///
/// Cycle timestamps are absolute simulation time. Energy fields carry the
/// exact `f64` operands the simulator used, so a replay reproduces its
/// ledger bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A job entered the ready queue.
    Arrival {
        /// Job sequence number (unique, arrival order).
        seq: u64,
        /// The benchmark the job executes.
        benchmark: BenchmarkId,
        /// Arrival cycle.
        at: u64,
        /// Scheduling priority.
        priority: u8,
    },
    /// A core sat idle over `[from, to)` and accrued leakage energy.
    ///
    /// The simulator no longer emits this per-core form — it records one
    /// [`IdleAdvance`](TraceEvent::IdleAdvance) per clock advance instead
    /// — but every consumer still folds it, so hand-built streams keep
    /// working.
    IdleSpan {
        /// The idle core.
        core: CoreId,
        /// First idle cycle of the span.
        from: u64,
        /// One past the last idle cycle of the span.
        to: u64,
        /// Leakage power charged, in nJ/cycle (the policy's answer at
        /// accrual time — it depends on the loaded cache configuration).
        idle_power_nj_per_cycle: f64,
    },
    /// The clock advanced over `[from, to)`: every idle core (vacant,
    /// online) accrued `to - from` idle cycles at the power its last
    /// [`IdlePower`](TraceEvent::IdlePower) announced. Which cores were
    /// idle follows from the occupancy events before it; [`IdleCores`]
    /// rebuilds that set. Emitted only when some core is idle.
    /// `idle_total_nj` includes the advance: the simulator keeps idle
    /// cycles per idle-power class and reads the total as one product per
    /// class, summed in ascending power order.
    IdleAdvance {
        /// First cycle of the advance.
        from: u64,
        /// One past the last cycle of the advance.
        to: u64,
        /// The run's cumulative idle energy (the ledger's
        /// `energy.idle_nj`) at `to`, in nJ. A consumer that needs only
        /// the run total reads it here instead of replaying the class
        /// fold; [`LedgerAuditor`] checks it against its own replay, bit
        /// for bit.
        idle_total_nj: f64,
    },
    /// Idle `core` burns `idle_power_nj_per_cycle` from the `from` of
    /// the [`IdleAdvance`](TraceEvent::IdleAdvance) it precedes. The
    /// simulator announces a core before the first advance that charges
    /// it and again whenever its cached value's bits change, always
    /// immediately before that advance and stamped with its `to`, so
    /// every announcement is charged. Several announcements can share
    /// one stamp; the cycle they apply from is the advance's `from`, the
    /// simulator's clock when it announced them, which is not their
    /// stamp.
    IdlePower {
        /// The idle core.
        core: CoreId,
        /// The `to` of the advance this announcement precedes.
        at: u64,
        /// Leakage power, in nJ/cycle (the policy's answer for the core's
        /// loaded cache configuration).
        idle_power_nj_per_cycle: f64,
    },
    /// A job started executing on a core.
    Placement {
        /// The placed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Target core (idle at placement time).
        core: CoreId,
        /// Placement cycle.
        at: u64,
        /// Core-busy duration charged.
        cycles: u64,
        /// Dynamic energy charged, in nJ.
        dynamic_nj: f64,
        /// Busy-leakage energy charged, in nJ.
        static_nj: f64,
        /// Regular pass or preemption grab.
        kind: PlacementKind,
    },
    /// The policy stalled a job during a scheduling pass (the job returns
    /// to the back of the ready queue).
    Stall {
        /// The stalled job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Cycle of the stall decision.
        at: u64,
    },
    /// The simulator probed the policy with a hypothetical view (victim's
    /// core idle) to ask whether a preemption would be worthwhile.
    PreemptionProbe {
        /// The urgent job the probe was made for.
        seq: u64,
        /// The candidate victim.
        victim: u64,
        /// The victim's core.
        core: CoreId,
        /// Probe cycle.
        at: u64,
        /// `true` when the policy accepted the freed core (the eviction
        /// was committed); `false` when it declined and the victim kept
        /// running.
        granted: bool,
    },
    /// A running job was evicted (restart semantics): its unexecuted
    /// remainder is refunded from the ledger and it re-enters the queue.
    Eviction {
        /// The evicted job.
        victim: u64,
        /// The core it lost.
        core: CoreId,
        /// Eviction cycle.
        at: u64,
        /// Total cycles of the interrupted execution.
        total_cycles: u64,
        /// Unexecuted cycles (refunded from busy time).
        remaining_cycles: u64,
        /// Full dynamic energy of the interrupted execution, in nJ (the
        /// refund is `dynamic_nj * remaining_cycles / total_cycles`).
        dynamic_nj: f64,
        /// Full busy-leakage energy of the interrupted execution, in nJ.
        static_nj: f64,
    },
    /// A job ran to completion and released its core.
    Completion {
        /// The completed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// The core it released.
        core: CoreId,
        /// Completion cycle.
        at: u64,
        /// The job's arrival cycle (turnaround = `at - arrival`).
        arrival: u64,
        /// The job's priority class.
        priority: u8,
    },
    /// An injected fault terminated an execution early (core outage or
    /// crash) or a watchdog killed a hung run. Like an eviction, the
    /// unexecuted remainder `total_cycles - executed_cycles` is refunded
    /// (zero for a watchdog kill — the stretched run was fully charged).
    Fault {
        /// The victim job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// The core it was running on.
        core: CoreId,
        /// Cycle the fault struck.
        at: u64,
        /// What went wrong.
        kind: FaultKind,
        /// Total cycles the placement charged.
        total_cycles: u64,
        /// Cycles actually executed before the fault
        /// (`at - placement time`).
        executed_cycles: u64,
        /// Full dynamic energy the placement charged, in nJ.
        dynamic_nj: f64,
        /// Full busy-leakage energy the placement charged, in nJ.
        static_nj: f64,
    },
    /// A crashed/killed job was scheduled for retry after backoff, or
    /// abandoned once its failure count reached the cap.
    Retry {
        /// The failed job.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Cycle the retry decision was made.
        at: u64,
        /// Failure count so far (1-based).
        attempt: u32,
        /// Cycle the job re-enters the ready queue (`at` + backoff);
        /// equals `at` when abandoned.
        ready_at: u64,
        /// `true` when the job was abandoned (counts as failed, not
        /// lost — conservation tracks it explicitly).
        abandoned: bool,
    },
    /// A completion's best-size prediction was served by a fallback
    /// stage (the predictor chain degraded for this job at this time).
    Fallback {
        /// The completed job whose prediction degraded.
        seq: u64,
        /// Its benchmark.
        benchmark: BenchmarkId,
        /// Completion cycle.
        at: u64,
        /// Which stage answered.
        level: FallbackLevel,
    },
    /// A component changed availability (core outage/recovery, predictor
    /// health transition). A core-down transition is always emitted
    /// *after* the eviction [`Fault`](TraceEvent::Fault) of any
    /// in-flight job, so the core is provably vacant when it drops.
    Degraded {
        /// Transition cycle.
        at: u64,
        /// The component changing state.
        component: DegradedComponent,
        /// `true` on recovery, `false` on degradation.
        online: bool,
    },
    /// An offered arrival was refused admission by the engine's overload
    /// governor and never entered the simulator. Shed jobs live in the
    /// *offered* sequence space (which counts every offered arrival,
    /// admitted or not) — the simulator's per-admitted `seq` space never
    /// sees them, so no placement/completion may ever reference one.
    Shed {
        /// Offered-stream sequence number (unique across the run).
        offered: u64,
        /// The benchmark the refused job would have executed.
        benchmark: BenchmarkId,
        /// The cycle the arrival was offered (and refused).
        at: u64,
        /// Its priority class.
        priority: u8,
        /// Which admission policy refused it.
        reason: crate::faults::ShedReason,
    },
}

impl TraceEvent {
    /// The absolute cycle this event is stamped with (for an
    /// [`IdleSpan`](TraceEvent::IdleSpan) or an
    /// [`IdleAdvance`](TraceEvent::IdleAdvance), the end of the span).
    /// Inline: called per event by cross-crate sinks on hot paths.
    #[inline]
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { at, .. }
            | TraceEvent::Placement { at, .. }
            | TraceEvent::Stall { at, .. }
            | TraceEvent::PreemptionProbe { at, .. }
            | TraceEvent::Eviction { at, .. }
            | TraceEvent::Completion { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Retry { at, .. }
            | TraceEvent::Fallback { at, .. }
            | TraceEvent::Degraded { at, .. }
            | TraceEvent::Shed { at, .. }
            | TraceEvent::IdlePower { at, .. } => at,
            TraceEvent::IdleSpan { to, .. } | TraceEvent::IdleAdvance { to, .. } => to,
        }
    }

    /// A short stable name for the event kind (used by exports and
    /// summaries).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::IdleSpan { .. } => "idle_span",
            TraceEvent::IdleAdvance { .. } => "idle_advance",
            TraceEvent::IdlePower { .. } => "idle_power",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::PreemptionProbe { .. } => "preemption_probe",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Completion { .. } => "completion",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Fallback { .. } => "fallback",
            TraceEvent::Degraded { .. } => "degraded",
            TraceEvent::Shed { .. } => "shed",
        }
    }
}

/// Receives the event stream of a simulation run.
///
/// The simulator is generic over the sink, so the default [`NullSink`]
/// monomorphises every `record` call (and the event construction feeding
/// it) away — tracing costs nothing unless a real sink is attached.
pub trait TraceSink {
    /// Observe one event.
    fn record(&mut self, event: TraceEvent);

    /// `false` when events need not be constructed at all. The simulator
    /// guards every emission site with this, which lets the optimiser
    /// delete the sites entirely for [`NullSink`].
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-overhead default sink: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the complete event stream in memory for auditing or export.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// The recorded events in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the recorder, yielding the event stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RecordingSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// The idle cores of a run and the idle power announced for each, as a
/// consumer of the event stream rebuilds them: what it needs to fold an
/// [`IdleAdvance`](TraceEvent::IdleAdvance).
///
/// A core is idle when it is vacant, online, and has an announced idle
/// power. [`observe`](Self::observe) applies the events that change
/// that: `Placement` occupies a core; `Completion`, `Eviction` and
/// `Fault` vacate it; a core's `Degraded` transition takes it offline or
/// back; `IdlePower` sets its power. For each such event it returns the
/// core with its idle power after the event, so a consumer that keeps
/// per-core idle stretches learns of every start, end and power change
/// from the one state update. The table grows on demand for cores it
/// has not seen. [`iter`](Self::iter) walks the idle cores in ascending
/// order with their powers, which is what a consumer needs to add an
/// advance's idle cycles to each core's power class, as the
/// [`LedgerAuditor`] does.
#[derive(Debug, Clone, Default)]
pub struct IdleCores {
    cores: Vec<IdleState>,
    /// Bit `i` set ⇔ core `i` is idle.
    idle: Vec<u64>,
    /// Bit `i` set ⇔ core `i` is vacant and online but has no announced
    /// idle power.
    unannounced: Vec<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct IdleState {
    power: f64,
    announced: bool,
    busy: bool,
    offline: bool,
}

/// Set or clear bit `index` of a mask.
fn set_bit(words: &mut [u64], index: usize, on: bool) {
    let (word, bit) = (index / WORD_BITS, 1u64 << (index % WORD_BITS));
    if on {
        words[word] |= bit;
    } else {
        words[word] &= !bit;
    }
}

impl IdleCores {
    /// A machine of `num_cores` vacant, online cores with no idle power
    /// announced yet.
    pub fn new(num_cores: usize) -> Self {
        let mut idle = IdleCores::default();
        idle.grow(num_cores);
        idle
    }

    fn grow(&mut self, num_cores: usize) {
        let words = num_cores.div_ceil(WORD_BITS);
        if self.idle.len() < words {
            self.idle.resize(words, 0);
            self.unannounced.resize(words, 0);
        }
        while self.cores.len() < num_cores {
            set_bit(&mut self.unannounced, self.cores.len(), true);
            self.cores.push(IdleState::default());
        }
    }

    /// Apply `event` to the occupancy, availability and announced power.
    /// For an event that carries a core it can change, returns that core
    /// and its idle power after the event (`None` while it is not idle),
    /// whether or not the event changed it; `None` for any other event.
    #[inline]
    pub fn observe(&mut self, event: &TraceEvent) -> Option<(CoreId, Option<f64>)> {
        match *event {
            TraceEvent::Placement { core, .. } => self.update(core, |c| c.busy = true),
            TraceEvent::Completion { core, .. }
            | TraceEvent::Eviction { core, .. }
            | TraceEvent::Fault { core, .. } => self.update(core, |c| c.busy = false),
            TraceEvent::Degraded {
                component: DegradedComponent::Core(core),
                online,
                ..
            } => self.update(core, |c| c.offline = !online),
            TraceEvent::IdlePower {
                core,
                idle_power_nj_per_cycle,
                ..
            } => self.update(core, |c| {
                c.power = idle_power_nj_per_cycle;
                c.announced = true;
            }),
            _ => None,
        }
    }

    fn update(
        &mut self,
        core: CoreId,
        change: impl FnOnce(&mut IdleState),
    ) -> Option<(CoreId, Option<f64>)> {
        if core.0 >= self.cores.len() {
            self.grow(core.0 + 1);
        }
        let state = &mut self.cores[core.0];
        change(state);
        let available = !state.busy && !state.offline;
        let idle = available && state.announced;
        set_bit(&mut self.idle, core.0, idle);
        set_bit(&mut self.unannounced, core.0, available && !state.announced);
        Some((core, idle.then_some(state.power)))
    }

    /// The idle cores with their announced idle power, in ascending
    /// core order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (CoreId, f64)> + '_ {
        BitIter::new(&self.idle).map(|i| (CoreId(i), self.cores[i].power))
    }

    /// The lowest-numbered vacant, online core that has no idle power
    /// announced — a core an advance would have to charge at an unknown
    /// power.
    pub fn first_unannounced(&self) -> Option<CoreId> {
        BitIter::new(&self.unannounced).next().map(CoreId)
    }
}

/// A small 64-bit folding hasher (FNV-1a over 64-bit words) for policy
/// state fingerprints.
///
/// Deterministic, order-sensitive, and dependency-free; collisions are
/// astronomically unlikely for the state sizes involved, and a collision
/// can only *hide* a violation, never invent one.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// FNV offset-basis start state.
    pub fn new() -> Self {
        Fingerprint {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Fold one 64-bit word into the state.
    pub fn write_u64(&mut self, value: u64) {
        self.state = (self.state ^ value).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a float by its exact bit pattern (distinguishes `-0.0`, NaN
    /// payloads — any observable change counts).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Fold a `usize`.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Wraps a [`Scheduler`] and checks the stall-purity contract on every
/// call: a `schedule` invocation that returns
/// [`Decision::Stall`](crate::Decision::Stall) must leave the policy's
/// [`state_fingerprint`](Scheduler::state_fingerprint) unchanged. This
/// covers both regular scheduling passes and the simulator's preemption
/// probes (which rely on the contract to make declined probes
/// withdrawable).
///
/// It also checks the [`waits_for`](Scheduler::waits_for) promise. The
/// wrapper itself promises nothing, so the simulator offers every job to
/// the policy; after each `Stall` it records the set the policy promised
/// for that job, and flags any later call that places the job while no
/// core of that set is idle. The record is dropped once the job is
/// placed.
///
/// And it checks the [`idle_power_nj_per_cycle`](Scheduler::idle_power_nj_per_cycle)
/// contract the loop's idle-power cache relies on: after each call that
/// places a job on core B, it reads the idle power of every other idle
/// core and flags one whose answer moved since the wrapper last read it,
/// unless that core was placed, completed or preempted in between.
///
/// Violations are collected, not panicked, so an audit run can report
/// every offending call site; use [`violations`](Self::violations) (or
/// [`assert_pure`](Self::assert_pure)) after the run.
#[derive(Debug, Clone)]
pub struct StallPurityChecked<S> {
    inner: S,
    violations: Vec<String>,
    stall_checks: u64,
    /// The wait set promised for each stalled job, until it is placed.
    promises: HashMap<u64, CoreSet>,
    promise_checks: u64,
    /// The bits of each core's idle power at the last read, forgotten
    /// when the contract lets the answer change.
    idle_powers: Vec<Option<u64>>,
    idle_power_checks: u64,
}

impl<S: Scheduler> StallPurityChecked<S> {
    /// Wrap a policy.
    pub fn new(inner: S) -> Self {
        StallPurityChecked {
            inner,
            violations: Vec::new(),
            stall_checks: 0,
            promises: HashMap::new(),
            promise_checks: 0,
            idle_powers: Vec::new(),
            idle_power_checks: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Number of `Stall`-returning calls that were checked.
    pub fn stall_checks(&self) -> u64 {
        self.stall_checks
    }

    /// Number of calls made while a promise was in force and every core
    /// of its wait set was busy, so that only `Stall` kept it.
    pub fn promise_checks(&self) -> u64 {
        self.promise_checks
    }

    /// Number of idle-power reads compared against an earlier read of
    /// the same core after a placement elsewhere.
    pub fn idle_power_checks(&self) -> u64 {
        self.idle_power_checks
    }

    /// Forget `core`'s last idle-power read: the contract lets it change.
    fn release_idle_power(&mut self, core: CoreId) {
        if let Some(slot) = self.idle_powers.get_mut(core.0) {
            *slot = None;
        }
    }

    /// Every detected contract violation, in occurrence order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Panic with the full violation list unless the run was clean.
    ///
    /// # Panics
    ///
    /// Panics if any `Stall`-returning call changed the policy's
    /// fingerprint, any call broke a `waits_for` promise, or a placement
    /// moved another idle core's idle power.
    pub fn assert_pure(&self) {
        assert!(
            self.violations.is_empty(),
            "stall-purity contract violated ({} of {} stall calls, {} promise checks, \
             {} idle-power checks):\n{}",
            self.violations.len(),
            self.stall_checks,
            self.promise_checks,
            self.idle_power_checks,
            self.violations.join("\n")
        );
    }
}

impl<S: Scheduler> Scheduler for StallPurityChecked<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        let promised = self
            .promises
            .get(&job.seq)
            .is_some_and(|set| cores.first_idle_in(set).is_none());
        self.promise_checks += u64::from(promised);
        let before = self.inner.state_fingerprint();
        let decision = self.inner.schedule(job, cores, now);
        match decision {
            Decision::Stall => {
                self.stall_checks += 1;
                let after = self.inner.state_fingerprint();
                if after != before {
                    self.violations.push(format!(
                        "schedule({job}) at cycle {now} returned Stall but mutated policy state \
                         (fingerprint {before:#018x} -> {after:#018x})"
                    ));
                }
                // A promise binds until placement: `None` keeps the last.
                if let Some(set) = self.inner.waits_for(job) {
                    self.promises.insert(job.seq, set.clone());
                }
            }
            Decision::Run { core, .. } => {
                if promised {
                    self.violations.push(format!(
                        "schedule({job}) at cycle {now} ran it on {core} while every core it \
                         promised to wait for was busy"
                    ));
                }
                self.promises.remove(&job.seq);
                if self.idle_powers.len() < cores.num_cores() {
                    self.idle_powers.resize(cores.num_cores(), None);
                }
                for other in cores.idle_cores().filter(|&other| other != core) {
                    let bits = self.inner.idle_power_nj_per_cycle(other).to_bits();
                    if let Some(before) = self.idle_powers[other.0].replace(bits) {
                        self.idle_power_checks += 1;
                        if before != bits {
                            self.violations.push(format!(
                                "schedule({job}) at cycle {now} placed it on {core} and moved \
                                 idle {other}'s idle power from {} to {} nJ/cycle",
                                f64::from_bits(before),
                                f64::from_bits(bits)
                            ));
                        }
                    }
                }
                self.release_idle_power(core);
            }
        }
        decision
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_complete(job, core, now);
        self.release_idle_power(core);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
        self.release_idle_power(core);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// Replays a recorded event stream, enforcing conservation invariants and
/// re-deriving the whole [`Audit`] ledger independently of the
/// simulator's own accumulation.
///
/// [`replay`](Self::replay) derives the ledger; [`check`](Self::check)
/// derives it and compares it with the [`Audit`] a run reports: energies
/// to the bit, every counter exactly. Any tampering with a single event —
/// a dropped idle advance or idle-power announcement, a perturbed
/// placement energy, a forged eviction refund — either trips a
/// structural invariant or lands as a ledger divergence.
#[derive(Debug, Clone, Copy)]
pub struct LedgerAuditor {
    num_cores: usize,
}

/// Core occupancy as reconstructed by the auditor.
#[derive(Debug, Clone, Copy)]
struct Occupied {
    seq: u64,
    until: u64,
    placed_at: u64,
}

/// The whole ledger of a run: what [`LedgerAuditor::replay`] derives from
/// a trace, and what a caller expects of it in [`LedgerAuditor::check`].
///
/// A run without an admission layer (plain or faulted) expects every
/// arrival admitted and none shed: build it with `From<RunMetrics>` or
/// `From<FaultedRun>`. A governed run sets `admitted` to the governor's
/// offered count minus its sheds, and `sheds` to its sheds, so the check
/// enforces `offered = admitted + shed` against the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Audit {
    /// The energy and cycle ledger.
    pub metrics: RunMetrics,
    /// The fault and recovery counters (all zero for an unfaulted run).
    pub faults: FaultStats,
    /// Jobs that entered the simulator (distinct `Arrival` events); each
    /// completed or was abandoned.
    pub admitted: u64,
    /// Offered arrivals refused by the admission layer (`Shed` events).
    pub sheds: u64,
}

impl From<FaultedRun> for Audit {
    fn from(run: FaultedRun) -> Self {
        Audit {
            admitted: run.metrics.jobs_completed + run.faults.jobs_failed,
            sheds: 0,
            metrics: run.metrics,
            faults: run.faults,
        }
    }
}

impl From<RunMetrics> for Audit {
    fn from(metrics: RunMetrics) -> Self {
        FaultedRun {
            metrics,
            faults: FaultStats::default(),
        }
        .into()
    }
}

impl LedgerAuditor {
    /// An auditor for a run over `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LedgerAuditor { num_cores }
    }

    /// Replay `events`, returning the independently derived ledger, or
    /// the list of violated conservation invariants.
    ///
    /// Evictions and faults are validated against the reconstructed
    /// occupancy (exact executed/total split, refund replay), core
    /// outages must strictly alternate and only drop vacant cores, and
    /// every arrival must complete or be explicitly abandoned — never
    /// lost — so `admitted = completed + abandoned`.
    /// [`Shed`](TraceEvent::Shed) events are validated (unique offered
    /// ids) and counted; they are exempt from the chronological watermark
    /// because the governor flushes them only after the simulator stream
    /// has advanced past their timestamp.
    ///
    /// An empty event stream (or a zero-job run) is *valid* and replays
    /// to an all-zero ledger; malformed streams — including forged
    /// timestamps whose `at + cycles` would overflow — produce typed
    /// violation strings, never a panic.
    ///
    /// # Errors
    ///
    /// Returns every structural violation found (out-of-range cores,
    /// double bookings, completions that don't match their placement,
    /// refunds that disagree with the occupancy, unfinished jobs, …).
    pub fn replay(&self, events: &[TraceEvent]) -> Result<Audit, Vec<String>> {
        let mut violations: Vec<String> = Vec::new();
        let mut energy = EnergyBreakdown::new();
        let mut busy_cycles = vec![0u64; self.num_cores];
        let mut jobs_completed = 0u64;
        let mut stall_episodes = 0u64;
        let mut stall_offers = 0u64;
        let mut turnaround = 0u64;
        let mut last_completion = 0u64;
        let mut by_priority: BTreeMap<u8, ClassStats> = BTreeMap::new();
        let mut preemptions = 0u64;

        // Reconstructed machine state.
        let mut cores: Vec<Option<Occupied>> = vec![None; self.num_cores];
        let mut arrived: HashMap<u64, u64> = HashMap::new(); // seq -> arrival cycle
        let mut completed: HashSet<u64> = HashSet::new();
        let mut stalled: HashSet<u64> = HashSet::new();
        let mut watermark = 0u64;

        // Fault-regime state.
        let mut faults = FaultStats::default();
        let mut offline = vec![false; self.num_cores];
        let mut failed: HashSet<u64> = HashSet::new();
        let mut retry_not_before: HashMap<u64, u64> = HashMap::new();
        let mut predictor = crate::faults::PredictorHealth::Healthy;

        // Admission-governor state (empty unless the run was governed).
        let mut shed_ids: HashSet<u64> = HashSet::new();
        let mut sheds = 0u64;

        // Idle-advance state: the idle cores and their announced power,
        // the replayed idle cycles per power class, where the last advance
        // ended, the first announcement not yet charged by an advance, and
        // whether a carried idle total has already diverged from the
        // replay.
        let mut idle = IdleCores::new(self.num_cores);
        // Spans are charged whole and no window is ever opened, so the
        // ledger's total is the same at any read time: read it at 0.
        let mut idle_cycles = IdleLedger::default();
        let mut advanced_to = 0u64;
        let mut uncharged: Option<(usize, CoreId)> = None;
        let mut total_diverged = false;

        for (index, event) in events.iter().enumerate() {
            let at = event.at();
            // An `IdlePower` is announced only for the advance right
            // behind it (sheds flushed by the governor may sit between).
            if let Some((announced, core)) = uncharged {
                if !matches!(
                    event,
                    TraceEvent::IdlePower { .. }
                        | TraceEvent::IdleAdvance { .. }
                        | TraceEvent::Shed { .. }
                ) {
                    violations.push(format!(
                        "idle power announced for {core} (event {announced}) is charged by no \
                         idle advance"
                    ));
                    uncharged = None;
                }
            }
            // `Shed` is exempt from the watermark: sheds are engine-side
            // events that legitimately trail the simulator stream — a shed
            // arrival never became a simulator stop point, so the governor
            // can only flush it once the stream has provably advanced past
            // its timestamp (the drain-safety rule). Sheds also never move
            // the watermark forward.
            if !matches!(event, TraceEvent::Shed { .. }) {
                if at < watermark {
                    violations.push(format!(
                        "event {index} ({}) at cycle {at} behind watermark {watermark}",
                        event.kind_name()
                    ));
                }
                watermark = watermark.max(at);
            }
            if let Some(core) = match *event {
                TraceEvent::IdleSpan { core, .. }
                | TraceEvent::IdlePower { core, .. }
                | TraceEvent::Placement { core, .. }
                | TraceEvent::PreemptionProbe { core, .. }
                | TraceEvent::Eviction { core, .. }
                | TraceEvent::Completion { core, .. }
                | TraceEvent::Fault { core, .. } => Some(core),
                TraceEvent::Degraded {
                    component: DegradedComponent::Core(core),
                    ..
                } => Some(core),
                TraceEvent::Arrival { .. }
                | TraceEvent::IdleAdvance { .. }
                | TraceEvent::Stall { .. }
                | TraceEvent::Retry { .. }
                | TraceEvent::Fallback { .. }
                | TraceEvent::Degraded { .. }
                | TraceEvent::Shed { .. } => None,
            } {
                if core.0 >= self.num_cores {
                    violations.push(format!(
                        "event {index} ({}) names {core} outside the {}-core system",
                        event.kind_name(),
                        self.num_cores
                    ));
                    continue;
                }
            }

            match *event {
                TraceEvent::Arrival { seq, at, .. } => {
                    if arrived.insert(seq, at).is_some() {
                        violations.push(format!("job#{seq} arrived twice (event {index})"));
                    }
                }
                TraceEvent::IdleSpan {
                    core,
                    from,
                    to,
                    idle_power_nj_per_cycle,
                } => {
                    if from >= to {
                        violations.push(format!(
                            "empty idle span [{from}, {to}) on {core} (event {index})"
                        ));
                    }
                    if cores[core.0].is_some() {
                        violations.push(format!(
                            "idle span [{from}, {to}) on busy {core} (event {index})"
                        ));
                    }
                    if offline[core.0] {
                        violations.push(format!(
                            "idle span [{from}, {to}) on offline {core} (event {index})"
                        ));
                    }
                    if !idle_cycles.charge(idle_power_nj_per_cycle, to.saturating_sub(from)) {
                        violations.push(format!(
                            "idle span [{from}, {to}) on {core} overflows the idle cycles at \
                             {idle_power_nj_per_cycle:?} nJ/cycle (event {index})"
                        ));
                    }
                }
                TraceEvent::IdleAdvance {
                    from,
                    to,
                    idle_total_nj,
                } => {
                    if from >= to {
                        violations
                            .push(format!("empty idle advance [{from}, {to}) (event {index})"));
                    }
                    if from < advanced_to {
                        violations.push(format!(
                            "idle advance [{from}, {to}) overlaps the advance ending at \
                             {advanced_to} (event {index})"
                        ));
                    }
                    advanced_to = advanced_to.max(to);
                    if let Some(core) = idle.first_unannounced() {
                        violations.push(format!(
                            "idle advance [{from}, {to}) charges idle {core} with no idle \
                             power announced (event {index})"
                        ));
                    }
                    // Each idle core's span joins its power class; the
                    // total is the simulator's fold over the classes.
                    let span = to.saturating_sub(from);
                    for (core, power) in idle.iter() {
                        if !idle_cycles.charge(power, span) {
                            violations.push(format!(
                                "idle advance [{from}, {to}) overflows the idle cycles at \
                                 {power:?} nJ/cycle on {core} (event {index})"
                            ));
                            break;
                        }
                    }
                    // One divergence shifts every later total too: report
                    // the first.
                    let replayed = idle_cycles.total_nj(0);
                    if idle_total_nj.to_bits() != replayed.to_bits() && !total_diverged {
                        total_diverged = true;
                        violations.push(format!(
                            "idle advance [{from}, {to}) carries idle total {idle_total_nj:?} nJ \
                             but the replayed ledger reads {replayed:?} nJ (event {index})"
                        ));
                    }
                    uncharged = None;
                }
                TraceEvent::IdlePower { core, .. } => {
                    if cores[core.0].is_some() {
                        violations.push(format!(
                            "idle power announced for busy {core} (event {index})"
                        ));
                    }
                    if offline[core.0] {
                        violations.push(format!(
                            "idle power announced for offline {core} (event {index})"
                        ));
                    }
                    uncharged.get_or_insert((index, core));
                }
                TraceEvent::Placement {
                    seq,
                    core,
                    at,
                    cycles,
                    dynamic_nj,
                    static_nj,
                    ..
                } => {
                    if !arrived.contains_key(&seq) {
                        violations
                            .push(format!("job#{seq} placed without arriving (event {index})"));
                    }
                    if completed.contains(&seq) {
                        violations
                            .push(format!("job#{seq} placed after completing (event {index})"));
                    }
                    if cycles == 0 {
                        violations.push(format!(
                            "job#{seq} placed with a zero-cycle execution (event {index})"
                        ));
                    }
                    if let Some(previous) = cores[core.0] {
                        violations.push(format!(
                            "{core} double-booked: job#{seq} placed over job#{} (event {index})",
                            previous.seq
                        ));
                    }
                    if cores.iter().flatten().any(|o| o.seq == seq) {
                        violations.push(format!(
                            "job#{seq} placed while already running elsewhere (event {index})"
                        ));
                    }
                    if offline[core.0] {
                        violations.push(format!(
                            "job#{seq} placed on offline {core} (event {index})"
                        ));
                    }
                    if let Some(&ready_at) = retry_not_before.get(&seq) {
                        if at < ready_at {
                            violations.push(format!(
                                "job#{seq} placed at cycle {at} before its retry backoff \
                                 expires at {ready_at} (event {index})"
                            ));
                        }
                        retry_not_before.remove(&seq);
                    }
                    match at.checked_add(cycles) {
                        Some(until) => {
                            cores[core.0] = Some(Occupied {
                                seq,
                                until,
                                placed_at: at,
                            });
                        }
                        None => violations.push(format!(
                            "job#{seq} placement end {at} + {cycles} overflows (event {index})"
                        )),
                    }
                    energy.dynamic_nj += dynamic_nj;
                    energy.static_nj += static_nj;
                    busy_cycles[core.0] = busy_cycles[core.0].saturating_add(cycles);
                    stalled.remove(&seq);
                }
                TraceEvent::Stall { seq, .. } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "job#{seq} stalled without arriving (event {index})"
                        ));
                    }
                    stall_offers += 1;
                    if stalled.insert(seq) {
                        stall_episodes += 1;
                    }
                }
                TraceEvent::PreemptionProbe { victim, core, .. } => match cores[core.0] {
                    Some(occupied) if occupied.seq == victim => {}
                    _ => violations.push(format!(
                        "preemption probe names victim job#{victim} not running on {core} \
                             (event {index})"
                    )),
                },
                // An eviction or a fault cuts a placement short: it
                // vacates the core and refunds the unexecuted share.
                TraceEvent::Eviction {
                    victim: seq,
                    core,
                    at,
                    total_cycles,
                    dynamic_nj,
                    static_nj,
                    ..
                }
                | TraceEvent::Fault {
                    seq,
                    core,
                    at,
                    total_cycles,
                    dynamic_nj,
                    static_nj,
                    ..
                } => {
                    // An eviction claims the cycles it leaves unexecuted,
                    // a fault the cycles it executed (a forged count past
                    // the total wraps out of range below).
                    let (what, remaining_cycles) = match *event {
                        TraceEvent::Eviction {
                            remaining_cycles, ..
                        } => {
                            preemptions += 1;
                            ("eviction", remaining_cycles)
                        }
                        TraceEvent::Fault {
                            kind,
                            executed_cycles,
                            ..
                        } => {
                            if kind == FaultKind::Watchdog && executed_cycles != total_cycles {
                                violations.push(format!(
                                    "watchdog kill of job#{seq} at {executed_cycles}/\
                                     {total_cycles} cycles — watchdog charges the full \
                                     stretched run (event {index})"
                                ));
                            }
                            match kind {
                                FaultKind::CoreOutage => faults.outage_evictions += 1,
                                FaultKind::Crash => faults.crashes += 1,
                                FaultKind::Watchdog => faults.watchdog_kills += 1,
                            }
                            (kind.name(), total_cycles.wrapping_sub(executed_cycles))
                        }
                        _ => unreachable!("matched an eviction or a fault"),
                    };
                    match cores[core.0].take() {
                        Some(occupied) if occupied.seq == seq => {
                            if occupied.until.checked_sub(at) != Some(remaining_cycles) {
                                violations.push(format!(
                                    "{what} of job#{seq} claims {remaining_cycles} remaining \
                                     cycles, occupancy says {} (event {index})",
                                    occupied.until.saturating_sub(at)
                                ));
                            }
                            if occupied.until - occupied.placed_at != total_cycles {
                                violations.push(format!(
                                    "{what} of job#{seq} claims {total_cycles} total cycles, \
                                     placement charged {} (event {index})",
                                    occupied.until - occupied.placed_at
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "{what} of job#{seq} not running on {core} (event {index})"
                        )),
                    }
                    if remaining_cycles > total_cycles || total_cycles == 0 {
                        violations.push(format!(
                            "{what} refund fraction {remaining_cycles}/{total_cycles} out of \
                             range (event {index})"
                        ));
                    } else {
                        // The simulator's exact refund arithmetic (a
                        // watchdog kill refunds an exact 0.0).
                        let refund = remaining_cycles as f64 / total_cycles as f64;
                        energy.dynamic_nj -= dynamic_nj * refund;
                        energy.static_nj -= static_nj * refund;
                        busy_cycles[core.0] = busy_cycles[core.0].saturating_sub(remaining_cycles);
                    }
                }
                TraceEvent::Completion {
                    seq,
                    core,
                    at,
                    arrival,
                    priority,
                    ..
                } => {
                    match cores[core.0].take() {
                        Some(occupied) if occupied.seq == seq => {
                            if occupied.until != at {
                                violations.push(format!(
                                    "job#{seq} completed at cycle {at}, placement ends at {} \
                                     (event {index})",
                                    occupied.until
                                ));
                            }
                        }
                        _ => violations.push(format!(
                            "completion of job#{seq} not running on {core} (event {index})"
                        )),
                    }
                    match arrived.get(&seq) {
                        Some(&arrived_at) if arrived_at != arrival => violations.push(format!(
                            "job#{seq} completion claims arrival {arrival}, trace recorded \
                             {arrived_at} (event {index})"
                        )),
                        Some(_) => {}
                        None => violations.push(format!(
                            "job#{seq} completed without arriving (event {index})"
                        )),
                    }
                    if failed.contains(&seq) {
                        violations.push(format!(
                            "job#{seq} completed after being abandoned (event {index})"
                        ));
                    }
                    if !completed.insert(seq) {
                        violations.push(format!("job#{seq} completed twice (event {index})"));
                    }
                    if at < arrival {
                        violations.push(format!(
                            "job#{seq} completes at cycle {at} before its claimed arrival \
                             {arrival} (event {index})"
                        ));
                    }
                    jobs_completed += 1;
                    turnaround += at.saturating_sub(arrival);
                    let class = by_priority.entry(priority).or_default();
                    class.jobs += 1;
                    class.turnaround_cycles += at.saturating_sub(arrival);
                    last_completion = last_completion.max(at);
                }
                TraceEvent::Retry {
                    seq,
                    at,
                    attempt,
                    ready_at,
                    abandoned,
                    ..
                } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "job#{seq} retried without arriving (event {index})"
                        ));
                    }
                    if completed.contains(&seq) {
                        violations.push(format!(
                            "job#{seq} retried after completing (event {index})"
                        ));
                    }
                    if cores.iter().flatten().any(|o| o.seq == seq) {
                        violations.push(format!(
                            "job#{seq} retried while still occupying a core (event {index})"
                        ));
                    }
                    if ready_at < at {
                        violations.push(format!(
                            "job#{seq} retry ready at cycle {ready_at} before the decision \
                             at {at} (event {index})"
                        ));
                    }
                    faults.max_attempts_observed = faults.max_attempts_observed.max(attempt);
                    if abandoned {
                        if !failed.insert(seq) {
                            violations.push(format!("job#{seq} abandoned twice (event {index})"));
                        }
                        faults.jobs_failed += 1;
                    } else {
                        retry_not_before.insert(seq, ready_at);
                        faults.retries += 1;
                    }
                }
                TraceEvent::Fallback { seq, .. } => {
                    if !arrived.contains_key(&seq) {
                        violations.push(format!(
                            "fallback recorded for job#{seq} which never arrived (event {index})"
                        ));
                    }
                    faults.fallbacks += 1;
                }
                TraceEvent::Degraded {
                    component, online, ..
                } => {
                    match component {
                        DegradedComponent::Core(core) => {
                            if online != offline[core.0] {
                                violations.push(format!(
                                    "redundant availability transition: {core} already \
                                     {} (event {index})",
                                    if online { "online" } else { "offline" }
                                ));
                            }
                            if !online && cores[core.0].is_some() {
                                violations.push(format!(
                                    "{core} went offline while occupied — the eviction \
                                     fault must precede the transition (event {index})"
                                ));
                            }
                            offline[core.0] = !online;
                        }
                        DegradedComponent::Predictor(health) => {
                            use crate::faults::PredictorHealth as Ph;
                            let valid = if online {
                                health == Ph::Healthy && predictor != Ph::Healthy
                            } else {
                                health != Ph::Healthy && predictor == Ph::Healthy
                            };
                            if !valid {
                                violations.push(format!(
                                    "invalid predictor transition {} -> {} (online: {online}) \
                                     (event {index})",
                                    predictor.name(),
                                    health.name()
                                ));
                            }
                            predictor = health;
                        }
                    }
                    faults.degraded_transitions += 1;
                }
                TraceEvent::Shed { offered, .. } => {
                    if !shed_ids.insert(offered) {
                        violations.push(format!(
                            "offered arrival #{offered} shed twice (event {index})"
                        ));
                    }
                    sheds += 1;
                }
            }
            idle.observe(event);
        }

        if let Some((announced, core)) = uncharged {
            violations.push(format!(
                "idle power announced for {core} (event {announced}) is charged by no idle \
                 advance"
            ));
        }
        energy.idle_nj = idle_cycles.total_nj(0);

        for (index, slot) in cores.iter().enumerate() {
            if let Some(occupied) = slot {
                violations.push(format!(
                    "job#{} still occupies {} at end of trace",
                    occupied.seq,
                    CoreId(index)
                ));
            }
        }
        // Conservation of jobs: every arrival either completed or was
        // explicitly abandoned after bounded retries — never lost.
        let unfinished = arrived
            .keys()
            .filter(|seq| !completed.contains(seq) && !failed.contains(seq))
            .count();
        if unfinished > 0 {
            violations.push(format!(
                "{unfinished} arrived job(s) neither completed nor abandoned \
                 (conservation of jobs)"
            ));
        }

        if !violations.is_empty() {
            return Err(violations);
        }
        Ok(Audit {
            metrics: RunMetrics {
                energy,
                total_cycles: last_completion,
                jobs_completed,
                stalls: stall_episodes,
                stall_offers,
                busy_cycles,
                turnaround_cycles: turnaround,
                by_priority,
                preemptions,
            },
            faults,
            admitted: arrived.len() as u64,
            sheds,
        })
    }

    /// Replay `events` and compare the derived ledger with the one the run
    /// `reported`: energies to the bit, every other field exactly. With
    /// the structural replay (every admitted arrival completes or is
    /// explicitly abandoned, no core still occupied at the end), a
    /// matching `admitted` and `sheds` prove that no offered arrival was
    /// dropped off the books.
    ///
    /// # Errors
    ///
    /// Returns the structural violations from [`replay`](Self::replay),
    /// or the list of ledger divergences.
    pub fn check(&self, events: &[TraceEvent], reported: &Audit) -> Result<(), Vec<String>> {
        let derived = self.replay(events)?;
        let mut divergences = ledger_divergences(&derived.metrics, &reported.metrics);
        if derived.faults != reported.faults {
            divergences.push(format!(
                "fault counters: derived {:?} != reported {:?}",
                derived.faults, reported.faults
            ));
        }
        for (name, d, r) in [
            ("admitted", derived.admitted, reported.admitted),
            ("sheds", derived.sheds, reported.sheds),
        ] {
            if d != r {
                divergences.push(format!("{name}: derived {d} != reported {r}"));
            }
        }
        if divergences.is_empty() {
            Ok(())
        } else {
            Err(divergences)
        }
    }
}

/// Every field-level difference between an auditor-derived ledger and the
/// simulator's, with bit-exact energy comparison. Empty means identical.
pub fn ledger_divergences(derived: &RunMetrics, reported: &RunMetrics) -> Vec<String> {
    let mut divergences = Vec::new();
    let mut float = |name: &str, d: f64, r: f64| {
        if d.to_bits() != r.to_bits() {
            divergences.push(format!(
                "{name}: derived {d} != reported {r} (bit mismatch)"
            ));
        }
    };
    float(
        "energy.idle_nj",
        derived.energy.idle_nj,
        reported.energy.idle_nj,
    );
    float(
        "energy.dynamic_nj",
        derived.energy.dynamic_nj,
        reported.energy.dynamic_nj,
    );
    float(
        "energy.static_nj",
        derived.energy.static_nj,
        reported.energy.static_nj,
    );
    let mut count = |name: &str, d: u64, r: u64| {
        if d != r {
            divergences.push(format!("{name}: derived {d} != reported {r}"));
        }
    };
    count("total_cycles", derived.total_cycles, reported.total_cycles);
    count(
        "jobs_completed",
        derived.jobs_completed,
        reported.jobs_completed,
    );
    count("stalls", derived.stalls, reported.stalls);
    count("stall_offers", derived.stall_offers, reported.stall_offers);
    count(
        "turnaround_cycles",
        derived.turnaround_cycles,
        reported.turnaround_cycles,
    );
    count("preemptions", derived.preemptions, reported.preemptions);
    if derived.busy_cycles != reported.busy_cycles {
        divergences.push(format!(
            "busy_cycles: derived {:?} != reported {:?}",
            derived.busy_cycles, reported.busy_cycles
        ));
    }
    if derived.by_priority != reported.by_priority {
        divergences.push(format!(
            "by_priority: derived {:?} != reported {:?}",
            derived.by_priority, reported.by_priority
        ));
    }
    divergences
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        NullSink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        });
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 5,
            priority: 0,
        });
        sink.record(TraceEvent::Stall {
            seq: 0,
            benchmark: BenchmarkId(1),
            at: 5,
        });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].kind_name(), "arrival");
        assert_eq!(sink.events()[1].at(), 5);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fingerprint::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fingerprint::new().finish(), Fingerprint::new().finish());
    }

    #[test]
    fn auditor_flags_double_booking() {
        let place = |seq, at| TraceEvent::Placement {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at,
            cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        };
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Arrival {
                seq: 1,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            place(0, 0),
            place(1, 0),
        ];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("double-booked")),
            "{violations:?}"
        );
    }

    #[test]
    fn auditor_flags_unfinished_jobs() {
        let events = vec![TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        }];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("neither completed nor abandoned")),
            "{violations:?}"
        );
    }

    #[test]
    fn empty_trace_replays_to_a_zero_ledger() {
        let audit = LedgerAuditor::new(4).replay(&[]).unwrap();
        assert_eq!(audit.metrics.jobs_completed, 0);
        assert_eq!(audit.metrics.total_cycles, 0);
        assert_eq!(audit.metrics.energy.idle_nj, 0.0);
        assert_eq!(audit.faults, crate::faults::FaultStats::default());
        assert_eq!((audit.admitted, audit.sheds), (0, 0));
        // A zero-core system with no events is likewise fine.
        assert!(LedgerAuditor::new(0).replay(&[]).is_ok());
    }

    #[test]
    fn forged_overflow_placement_is_a_violation_not_a_panic() {
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: u64::MAX - 5,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: u64::MAX - 5,
                cycles: 100, // at + cycles overflows u64
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
        ];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("overflows")),
            "{violations:?}"
        );
    }

    #[test]
    fn abandoned_jobs_satisfy_conservation() {
        use crate::faults::FaultKind;
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 0,
                cycles: 100,
                dynamic_nj: 2.0,
                static_nj: 1.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Fault {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 40,
                kind: FaultKind::Crash,
                total_cycles: 100,
                executed_cycles: 40,
                dynamic_nj: 2.0,
                static_nj: 1.0,
            },
            TraceEvent::Retry {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 40,
                attempt: 1,
                ready_at: 40,
                abandoned: true,
            },
        ];
        let run = LedgerAuditor::new(1).replay(&events).unwrap();
        assert_eq!(run.metrics.jobs_completed, 0);
        assert_eq!(run.faults.crashes, 1);
        assert_eq!(run.faults.jobs_failed, 1);
        // The refund left only the executed fraction charged.
        assert!((run.metrics.energy.dynamic_nj - 2.0 * 0.4).abs() < 1e-12);
        assert_eq!(run.metrics.busy_cycles, vec![40]);

        // Without the Retry{abandoned} record the job counts as lost.
        let violations = LedgerAuditor::new(1).replay(&events[..3]).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("conservation")),
            "{violations:?}"
        );
    }

    #[test]
    fn offline_cores_reject_placements_and_idle_spans() {
        use crate::faults::DegradedComponent;
        let down = TraceEvent::Degraded {
            at: 0,
            component: DegradedComponent::Core(CoreId(0)),
            online: false,
        };
        let arrival = TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        };
        let place = TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 0,
            cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        };
        let violations = LedgerAuditor::new(1)
            .replay(&[down, arrival, place])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("offline")),
            "{violations:?}"
        );

        let idle = TraceEvent::IdleSpan {
            core: CoreId(0),
            from: 0,
            to: 5,
            idle_power_nj_per_cycle: 1.0,
        };
        let violations = LedgerAuditor::new(1).replay(&[down, idle]).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("offline")),
            "{violations:?}"
        );

        // Redundant transitions are rejected too.
        let violations = LedgerAuditor::new(1).replay(&[down, down]).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("redundant")),
            "{violations:?}"
        );
    }

    #[test]
    fn retry_backoff_violations_are_detected() {
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Retry {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 10,
                attempt: 1,
                ready_at: 100,
                abandoned: false,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 50, // before the backoff expires
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 60,
                arrival: 0,
                priority: 0,
            },
        ];
        let violations = LedgerAuditor::new(1).replay(&events).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("backoff")),
            "{violations:?}"
        );
    }

    #[test]
    fn governed_audit_counts_sheds_and_enforces_conservation() {
        use crate::faults::ShedReason;
        let shed = |offered, at| TraceEvent::Shed {
            offered,
            benchmark: BenchmarkId(3),
            at,
            priority: 0,
            reason: ShedReason::QueueFull,
        };
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            shed(1, 2),
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 3,
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            shed(2, 5),
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 13,
                arrival: 0,
                priority: 0,
            },
        ];
        let audit = LedgerAuditor::new(1).replay(&events).unwrap();
        assert_eq!(audit.admitted, 1);
        assert_eq!(audit.sheds, 2);
        // The governor's view: 3 offered, 2 shed.
        let governed = |offered: u64, shed: u64| Audit {
            admitted: offered - shed,
            sheds: shed,
            ..audit.metrics.clone().into()
        };
        LedgerAuditor::new(1)
            .check(&events, &governed(3, 2))
            .unwrap();
        // A governor misreporting its shed count (or the offered total)
        // is a divergence.
        let divergences = LedgerAuditor::new(1)
            .check(&events, &governed(3, 1))
            .unwrap_err();
        assert!(
            divergences.iter().any(|d| d.contains("sheds")),
            "{divergences:?}"
        );
        let divergences = LedgerAuditor::new(1)
            .check(&events, &governed(4, 2))
            .unwrap_err();
        assert_eq!(divergences.len(), 1, "{divergences:?}");
        assert!(divergences[0].starts_with("admitted"), "{divergences:?}");
        // Nor does the trace pass for an ungoverned run's.
        let divergences = LedgerAuditor::new(1)
            .check(&events, &audit.metrics.clone().into())
            .unwrap_err();
        assert!(
            divergences.iter().any(|d| d.contains("sheds")),
            "{divergences:?}"
        );
    }

    #[test]
    fn late_flushed_sheds_are_exempt_from_the_watermark() {
        use crate::faults::ShedReason;
        // The governor flushes a shed only once the forwarded stream has
        // advanced past its timestamp, so a Shed legitimately appears
        // *after* later-timestamped events — and must not trip the
        // chronological watermark nor advance it for subsequent events.
        let events = vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 0,
                cycles: 10,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 10,
                arrival: 0,
                priority: 0,
            },
            // Flushed late: shed at cycle 4, emitted after the cycle-10
            // completion.
            TraceEvent::Shed {
                offered: 1,
                benchmark: BenchmarkId(2),
                at: 4,
                priority: 0,
                reason: ShedReason::Deadline,
            },
        ];
        let audit = LedgerAuditor::new(1).replay(&events).unwrap();
        assert_eq!(audit.admitted, 1);
        assert_eq!(audit.sheds, 1);
    }

    #[test]
    fn duplicate_shed_ids_are_a_violation() {
        use crate::faults::ShedReason;
        let shed = TraceEvent::Shed {
            offered: 7,
            benchmark: BenchmarkId(0),
            at: 1,
            priority: 0,
            reason: ShedReason::RateLimit,
        };
        let violations = LedgerAuditor::new(1).replay(&[shed, shed]).unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("shed twice")),
            "{violations:?}"
        );
    }

    #[test]
    fn divergence_report_is_empty_for_identical_ledgers() {
        let metrics = RunMetrics {
            energy: EnergyBreakdown::new(),
            total_cycles: 10,
            jobs_completed: 1,
            stalls: 0,
            stall_offers: 0,
            busy_cycles: vec![10],
            turnaround_cycles: 10,
            by_priority: BTreeMap::new(),
            preemptions: 0,
        };
        assert!(ledger_divergences(&metrics, &metrics.clone()).is_empty());
        let mut skewed = metrics.clone();
        skewed.energy.dynamic_nj = 1e-300; // tiny but a different bit pattern
        assert_eq!(ledger_divergences(&metrics, &skewed).len(), 1);
    }

    /// Promises core 0 for every stalled job. Honest, it stalls while
    /// core 0 is busy; broken, a job already stalled once (it is re-offered
    /// after its arrival cycle) runs on any idle core.
    struct WaitsForCore0 {
        set: CoreSet,
        broken: bool,
    }

    impl Scheduler for WaitsForCore0 {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
            let core = if cores.is_idle(CoreId(0)) {
                Some(CoreId(0))
            } else if self.broken && now > job.arrival {
                cores.first_idle()
            } else {
                None
            };
            match core {
                Some(core) => Decision::run(
                    core,
                    crate::JobExecution {
                        cycles: 100,
                        energy: EnergyBreakdown::new(),
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn waits_for(&self, _job: &Job) -> Option<&CoreSet> {
            Some(&self.set)
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            1.0
        }
    }

    fn check_promises(broken: bool) -> StallPurityChecked<WaitsForCore0> {
        use workloads::{Arrival, ArrivalPlan};
        // Job 0 takes core 0 at cycle 0; job 1 stalls for it; job 2's
        // arrival at cycle 10 re-offers job 1 while core 0 is still busy.
        let plan = ArrivalPlan::from_arrivals(
            [0, 0, 10]
                .into_iter()
                .map(|t| Arrival::new(t, BenchmarkId(0)))
                .collect(),
        );
        let mut checked = StallPurityChecked::new(WaitsForCore0 {
            set: CoreSet::from_cores(2, [CoreId(0)]),
            broken,
        });
        let metrics = crate::Simulator::new(2).run(&plan, &mut checked);
        assert_eq!(metrics.jobs_completed, 3);
        checked
    }

    #[test]
    fn kept_promises_pass_the_checker() {
        let checked = check_promises(false);
        assert!(checked.promise_checks() > 0);
        checked.assert_pure();
    }

    fn announced(core: usize, at: u64, power: f64) -> TraceEvent {
        TraceEvent::IdlePower {
            core: CoreId(core),
            at,
            idle_power_nj_per_cycle: power,
        }
    }

    #[test]
    fn idle_cores_follow_occupancy_availability_and_announcements() {
        use crate::faults::DegradedComponent;
        let mut idle = IdleCores::default();
        assert_eq!(idle.iter().count(), 0);
        // Announcing core 70 grows the table; cores below it are vacant
        // and online but unannounced. Each core event reports its core's
        // idle power after it.
        assert_eq!(
            idle.observe(&announced(70, 5, 2.0)),
            Some((CoreId(70), Some(2.0)))
        );
        assert_eq!(
            idle.observe(&announced(3, 5, 1.0)),
            Some((CoreId(3), Some(1.0)))
        );
        assert_eq!(
            idle.iter().collect::<Vec<_>>(),
            vec![(CoreId(3), 1.0), (CoreId(70), 2.0)]
        );
        assert_eq!(idle.first_unannounced(), Some(CoreId(0)));
        let placed = idle.observe(&TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(3),
            at: 5,
            cycles: 10,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        });
        assert_eq!(placed, Some((CoreId(3), None)));
        let down = idle.observe(&TraceEvent::Degraded {
            at: 6,
            component: DegradedComponent::Core(CoreId(70)),
            online: false,
        });
        assert_eq!(down, Some((CoreId(70), None)));
        assert_eq!(idle.iter().count(), 0);
        let completion = |core: usize| TraceEvent::Completion {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(core),
            at: 15,
            arrival: 5,
            priority: 0,
        };
        assert_eq!(idle.observe(&completion(3)), Some((CoreId(3), Some(1.0))));
        assert_eq!(idle.iter().collect::<Vec<_>>(), vec![(CoreId(3), 1.0)]);
        // A vacated core with no announced power is not idle; an event
        // that carries no core reports nothing.
        assert_eq!(idle.observe(&completion(0)), Some((CoreId(0), None)));
        let arrival = TraceEvent::Arrival {
            seq: 1,
            benchmark: BenchmarkId(0),
            at: 15,
            priority: 0,
        };
        assert_eq!(idle.observe(&arrival), None);
    }

    #[test]
    fn idle_advances_charge_the_announced_idle_cores() {
        let events = vec![
            announced(0, 10, 1.5),
            announced(1, 10, 0.5),
            TraceEvent::IdleAdvance {
                from: 0,
                to: 10,
                idle_total_nj: 10.0 * 1.5 + 10.0 * 0.5,
            },
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(0),
                at: 10,
                priority: 0,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 10,
                cycles: 5,
                dynamic_nj: 1.0,
                static_nj: 0.0,
                kind: PlacementKind::Pass,
            },
            TraceEvent::IdleAdvance {
                from: 10,
                to: 15,
                idle_total_nj: 10.0 * 1.5 + 10.0 * 0.5 + 5.0 * 0.5,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(0),
                core: CoreId(0),
                at: 15,
                arrival: 10,
                priority: 0,
            },
        ];
        let audit = LedgerAuditor::new(2).replay(&events).unwrap();
        // Both cores over [0, 10), core 1 alone over [10, 15).
        assert_eq!(
            audit.metrics.energy.idle_nj,
            10.0 * 1.5 + 10.0 * 0.5 + 5.0 * 0.5
        );

        // An advance over an idle core nobody announced is rejected.
        let violations = LedgerAuditor::new(2).replay(&events[1..]).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("no idle power announced")),
            "{violations:?}"
        );
    }

    #[test]
    fn a_doctored_idle_total_is_a_violation() {
        let advance = |to: u64, idle_total_nj: f64| TraceEvent::IdleAdvance {
            from: to - 10,
            to,
            idle_total_nj,
        };
        let honest = [announced(0, 10, 1.5), advance(10, 15.0), advance(20, 30.0)];
        let audit = LedgerAuditor::new(1).replay(&honest).unwrap();
        assert_eq!(audit.metrics.energy.idle_nj, 30.0);

        // One ulp off on the first advance: the replayed ledger still
        // matches, the carried total does not.
        let mut doctored = honest;
        doctored[1] = advance(10, f64::from_bits(15.0f64.to_bits() + 1));
        let violations = LedgerAuditor::new(1).replay(&doctored).unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("carries idle total") && violations[0].contains("event 1"),
            "{violations:?}"
        );
    }

    #[test]
    fn idle_power_must_be_charged_by_the_next_advance() {
        let arrival = TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 10,
            priority: 0,
        };
        // Announced at the end of the trace: charged by nothing.
        let violations = LedgerAuditor::new(1)
            .replay(&[announced(0, 10, 1.0)])
            .unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("charged by no idle advance")),
            "{violations:?}"
        );
        // Announced, then another event before any advance.
        let violations = LedgerAuditor::new(1)
            .replay(&[announced(0, 10, 1.0), arrival])
            .unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("charged by no idle advance")),
            "{violations:?}"
        );
        // Announced for a busy core.
        let place = TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 10,
            cycles: 5,
            dynamic_nj: 1.0,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        };
        let violations = LedgerAuditor::new(1)
            .replay(&[arrival, place, announced(0, 12, 1.0)])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("busy")),
            "{violations:?}"
        );
        // Overlapping advances double-charge, so they are rejected too.
        let violations = LedgerAuditor::new(1)
            .replay(&[
                announced(0, 10, 1.0),
                TraceEvent::IdleAdvance {
                    from: 0,
                    to: 10,
                    idle_total_nj: 10.0,
                },
                TraceEvent::IdleAdvance {
                    from: 5,
                    to: 10,
                    idle_total_nj: 15.0,
                },
            ])
            .unwrap_err();
        assert!(
            violations.iter().any(|v| v.contains("overlaps")),
            "{violations:?}"
        );
    }

    #[test]
    fn a_broken_promise_is_a_violation() {
        let checked = check_promises(true);
        let violations = checked.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("promised to wait for"),
            "{violations:?}"
        );
    }
}
