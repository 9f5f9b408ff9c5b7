//! Overload control: admission governance, brownout degradation, and a
//! predictor circuit breaker for the streaming engine.
//!
//! The streaming runner added in DESIGN.md §14 is open-loop: when
//! arrivals outrun the machine the ready queue grows without bound and
//! every SLO fails at once. This module closes the robustness loop with
//! three cooperating mechanisms, all engine-side (the simulator event
//! loop is untouched, so every existing bit-identity gate still holds):
//!
//! 1. **Admission control** — [`AdmissionGate`] sits between the arrival
//!    source and [`Simulator::run_stream`](multicore_sim::Simulator::run_stream),
//!    refusing arrivals per a [`ShedPolicy`] (bounded queue, deadline/age
//!    bound, priority protection) and an optional token-bucket rate
//!    limiter. Every refusal is a [`TraceEvent::Shed`] so the
//!    [`LedgerAuditor`](multicore_sim::LedgerAuditor) can enforce the
//!    extended conservation invariant `offered = admitted + shed`: a
//!    governed run's expected [`Audit`](multicore_sim::Audit) carries the
//!    governor's `offered - shed` as `admitted` and its `shed` as
//!    `sheds`, and [`LedgerAuditor::check`](multicore_sim::LedgerAuditor::check)
//!    compares both with the counts replayed from the trace.
//! 2. **Brownout** — a controller watches per-control-window SLO
//!    pressure (in-flight depth, completion latency vs budget) and steps
//!    the serving path down the degradation ladder
//!    full → distilled → kNN → static via a shared
//!    [`TierCell`], with hysteresis streaks and time-in-tier accounting.
//! 3. **Circuit breaker** — consecutive fallback-served completions trip
//!    the predictor path open (floor = kNN tier); after a cooldown a
//!    half-open probe decides between reset and re-trip.
//!
//! **One state, one borrow at a time.** A run's governor is one struct
//! behind a [`GovernorHandle`] (`Rc<RefCell<_>>`), shared by the gate,
//! the sink and the caller; each configured mechanism is an `Option`
//! holding its own state. [`OverloadSink`] borrows it to observe an
//! event or to pop a due shed and never holds the borrow while the
//! inner sink records: the observability plane calls
//! [`GovernorHandle::set_alert_floor`] from inside that call, and a
//! `/health` scrape answered there calls [`GovernorHandle::report`].
//!
//! **Shed-flush ordering.** A shed is decided when the simulator *peeks*
//! the arrival, which can be before earlier-timestamped completions and
//! back-dated idle advances have been forwarded. Forwarding the shed
//! immediately would advance the metrics sink's clock past those events
//! and panic its drained-window assertions. [`OverloadSink`] therefore
//! buffers sheds and flushes one only once the forwarded stream has
//! provably advanced past its timestamp (`shed.at <= last_forwarded`,
//! checked before each forward). The
//! [`LedgerAuditor`](multicore_sim::LedgerAuditor) exempts `Shed` from
//! its chronological watermark for exactly this reason.
//!
//! See DESIGN.md §15 for the full architecture.

use multicore_sim::{ServingTier, ShedReason, TierCell, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use workloads::Arrival;

/// How the admission governor picks which offered arrivals to refuse
/// once the bounded queue or rate limiter bites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShedPolicy {
    /// Refuse arrivals only when the admission queue is full
    /// ([`ShedReason::QueueFull`]).
    DropTail,
    /// Additionally refuse arrivals whose *projected* queueing delay —
    /// backlog beyond the core count times an EWMA of observed service
    /// cycles — exceeds the bound: they would blow their latency budget
    /// anyway, so shedding them early preserves goodput
    /// ([`ShedReason::Deadline`]).
    DeadlineAge {
        /// Maximum tolerable projected queueing delay, in cycles.
        max_wait_cycles: u64,
    },
    /// Additionally refuse low-priority arrivals while the backlog sits
    /// above a watermark, protecting the higher classes
    /// ([`ShedReason::Priority`]).
    PriorityAware {
        /// Arrivals with `priority < protect` are shed under pressure
        /// (higher number = more urgent, as in the simulator).
        protect: u8,
        /// In-flight depth at or above which protection engages.
        depth_watermark: u64,
    },
}

/// Token-bucket rate limiter configuration (tokens are jobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucketConfig {
    /// Bucket capacity: the largest burst admitted at once.
    pub capacity: f64,
    /// Sustained refill rate, in jobs per mega-cycle.
    pub refill_per_mcycle: f64,
}

/// Brownout controller configuration: when to step the serving tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Control-window cadence, in cycles (pressure is evaluated at each
    /// boundary).
    pub control_window_cycles: u64,
    /// In-flight depth above which a window counts as pressured.
    pub depth_high: u64,
    /// In-flight depth at or below which a window may count as calm
    /// (the hysteresis band is `(depth_low, depth_high]`).
    pub depth_low: u64,
    /// Per-job latency budget, in cycles (the p99 target).
    pub latency_budget_cycles: u64,
    /// Fraction of a window's completions over budget that counts as
    /// pressure (e.g. `0.01` for a p99 target).
    pub breach_fraction: f64,
    /// Consecutive pressured windows before stepping one tier worse.
    pub step_up_after: u32,
    /// Consecutive calm windows before stepping one tier better.
    pub step_down_after: u32,
}

/// Predictor circuit-breaker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive fallback-served completions that trip the breaker.
    pub trip_after: u32,
    /// Cycles the breaker stays open before a half-open probe.
    pub cooldown_cycles: u64,
}

/// Circuit-breaker state (classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: primary predictions flow, failures are counted.
    Closed,
    /// Tripped: the serving tier is floored at kNN until the stored
    /// cycle.
    Open {
        /// Cycle at which the breaker transitions to half-open.
        until: u64,
    },
    /// Probing: the next completion outcome decides reset vs re-trip.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (used by JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Full overload-governor configuration. [`OverloadConfig::disabled`]
/// turns every mechanism off, and a disabled governor is bit-invisible:
/// the simulator sees the identical arrival stream and the sink the
/// identical event stream as an ungoverned run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Bound on in-flight (admitted − finished) jobs; `None` = unbounded.
    pub queue_capacity: Option<u64>,
    /// Which arrivals to refuse beyond the queue bound.
    pub policy: ShedPolicy,
    /// Optional token-bucket rate limiter (checked after the policy;
    /// shed arrivals consume no tokens).
    pub rate_limit: Option<TokenBucketConfig>,
    /// Optional brownout controller.
    pub brownout: Option<BrownoutConfig>,
    /// Optional predictor circuit breaker.
    pub breaker: Option<BreakerConfig>,
}

impl OverloadConfig {
    /// Every mechanism off: admit everything, never degrade.
    pub fn disabled() -> Self {
        OverloadConfig {
            queue_capacity: None,
            policy: ShedPolicy::DropTail,
            rate_limit: None,
            brownout: None,
            breaker: None,
        }
    }

    /// Check the constraints a governor needs: a token bucket's capacity
    /// finite and at least one job, its refill rate finite and positive,
    /// a brownout's control window and a breaker's `trip_after` positive.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a short description.
    pub fn validate(&self) -> Result<(), &'static str> {
        let constraints = [
            (
                self.rate_limit
                    .is_none_or(|b| b.capacity.is_finite() && b.capacity >= 1.0),
                "token bucket capacity must be finite and >= 1",
            ),
            (
                self.rate_limit
                    .is_none_or(|b| b.refill_per_mcycle.is_finite() && b.refill_per_mcycle > 0.0),
                "token bucket refill_per_mcycle must be finite and positive",
            ),
            (
                self.brownout.is_none_or(|b| b.control_window_cycles > 0),
                "brownout control_window_cycles must be positive",
            ),
            (
                self.breaker.is_none_or(|b| b.trip_after > 0),
                "breaker trip_after must be positive",
            ),
        ];
        match constraints.into_iter().find(|&(holds, _)| !holds) {
            Some((_, problem)) => Err(problem),
            None => Ok(()),
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    config: TokenBucketConfig,
    tokens: f64,
    refilled_at: u64,
}

impl TokenBucket {
    fn new(config: TokenBucketConfig) -> Self {
        TokenBucket {
            tokens: config.capacity,
            refilled_at: 0,
            config,
        }
    }

    /// Refill for elapsed time, then take one token if available.
    fn admit(&mut self, at: u64) -> bool {
        if at > self.refilled_at {
            let elapsed = (at - self.refilled_at) as f64;
            self.tokens = (self.tokens + elapsed * self.config.refill_per_mcycle / 1e6)
                .min(self.config.capacity);
            self.refilled_at = at;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
struct Brownout {
    config: BrownoutConfig,
    pressure_streak: u32,
    calm_streak: u32,
    /// The controller's requested tier (the breaker may floor it).
    tier: ServingTier,
    /// End of the open control window.
    window_end: u64,
    /// Completions observed in the open window.
    window_completions: u64,
    /// Completions over the latency budget in the open window.
    window_late: u64,
}

impl Brownout {
    fn new(config: BrownoutConfig) -> Self {
        Brownout {
            pressure_streak: 0,
            calm_streak: 0,
            tier: ServingTier::Full,
            window_end: config.control_window_cycles,
            window_completions: 0,
            window_late: 0,
            config,
        }
    }

    /// Count one completion `latency` cycles after its arrival.
    fn complete(&mut self, latency: u64) {
        self.window_completions += 1;
        if latency > self.config.latency_budget_cycles {
            self.window_late += 1;
        }
    }

    /// Evaluate the open window's tallies against the hysteresis bands
    /// and start the next window.
    fn evaluate(&mut self, in_flight: u64) {
        let completions = std::mem::take(&mut self.window_completions);
        let late = std::mem::take(&mut self.window_late);
        let breach =
            completions > 0 && late as f64 / completions as f64 > self.config.breach_fraction;
        let pressure = breach || in_flight > self.config.depth_high;
        let calm = !breach && in_flight <= self.config.depth_low;
        if pressure {
            self.pressure_streak += 1;
            self.calm_streak = 0;
            if self.pressure_streak >= self.config.step_up_after {
                self.pressure_streak = 0;
                self.tier = self.tier.worse();
            }
        } else if calm {
            self.calm_streak += 1;
            self.pressure_streak = 0;
            if self.calm_streak >= self.config.step_down_after {
                self.calm_streak = 0;
                self.tier = self.tier.better();
            }
        } else {
            // Inside the hysteresis band: both streaks reset, tier holds.
            self.pressure_streak = 0;
            self.calm_streak = 0;
        }
        self.window_end += self.config.control_window_cycles;
    }
}

#[derive(Debug)]
struct Breaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
    /// A completion is only a confirmed success once the next event
    /// proves no [`TraceEvent::Fallback`] trails it (the simulator emits
    /// the fallback *after* its completion, same cycle and seq).
    pending_success: Option<u64>,
}

impl Breaker {
    fn new(config: BreakerConfig) -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
            pending_success: None,
            config,
        }
    }

    /// Move open → half-open once the cooldown elapsed.
    fn tick(&mut self, at: u64) {
        if let BreakerState::Open { until } = self.state {
            if at >= until {
                self.state = BreakerState::HalfOpen;
            }
        }
    }

    /// Confirm the previous completion as a success (no fallback
    /// trailed it) and hold completion `seq` until the next event.
    fn complete(&mut self, seq: u64, at: u64) {
        self.tick(at);
        self.confirm_success();
        self.pending_success = Some(seq);
    }

    /// Withdraw the tentative success of completion `seq` (a fallback
    /// stage served it) and count the failure.
    fn fall_back(&mut self, seq: u64, at: u64) {
        self.tick(at);
        if self.pending_success == Some(seq) {
            self.pending_success = None;
        }
        self.on_failure(at);
    }

    fn confirm_success(&mut self) {
        if self.pending_success.take().is_some() {
            self.consecutive_failures = 0;
            if self.state == BreakerState::HalfOpen {
                self.state = BreakerState::Closed;
            }
        }
    }

    fn on_failure(&mut self, at: u64) {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.trip_after,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open {
                until: at + self.config.cooldown_cycles,
            };
            self.consecutive_failures = 0;
            self.trips += 1;
        }
    }

    /// The tier floor the breaker imposes while open.
    fn floor(&self) -> ServingTier {
        match self.state {
            BreakerState::Open { .. } => ServingTier::Knn,
            BreakerState::Closed | BreakerState::HalfOpen => ServingTier::Full,
        }
    }
}

/// One run's governor: the admission knobs, each configured mechanism
/// with its own state, the run's counters and the tier accounting.
#[derive(Debug)]
struct Governor {
    /// At least one.
    num_cores: u64,
    queue_capacity: Option<u64>,
    policy: ShedPolicy,
    bucket: Option<TokenBucket>,
    brownout: Option<Brownout>,
    breaker: Option<Breaker>,
    /// Serving-tier cell the scheduling system reads, if wired.
    cell: Option<TierCell>,
    /// Exponential moving average of observed service cycles (α = 0.1),
    /// feeding the deadline policy's projected-wait estimate; `None`
    /// before the first placement and under the other policies.
    service: Option<f64>,

    offered: u64,
    admitted: u64,
    in_flight: u64,
    max_in_flight: u64,
    shed_by_reason: [u64; 4],
    /// Sheds decided but not yet safe to forward (see module docs).
    pending_sheds: VecDeque<TraceEvent>,

    /// Tier floor imposed from outside the governor (the observability
    /// plane raises it while a burn-rate alert fires, closing the
    /// alert → brownout loop without touching the admission path).
    alert_floor: ServingTier,
    /// Times the alert floor rose above [`ServingTier::Full`].
    alert_floor_engagements: u64,
    /// The tier the serving path currently experiences
    /// (`max(brownout request, breaker floor, alert floor)`).
    effective_tier: ServingTier,
    tier_since: u64,
    tier_dwell_cycles: [u64; 4],
    tier_transitions: u64,
    /// Cycle the effective tier last returned to [`ServingTier::Full`]
    /// (`None` while degraded; `Some(0)` if never degraded).
    recovered_at: Option<u64>,
}

fn reason_index(reason: ShedReason) -> usize {
    match reason {
        ShedReason::QueueFull => 0,
        ShedReason::Deadline => 1,
        ShedReason::Priority => 2,
        ShedReason::RateLimit => 3,
    }
}

impl Governor {
    fn new(config: &OverloadConfig, num_cores: usize, cell: Option<TierCell>) -> Self {
        Governor {
            num_cores: num_cores.max(1) as u64,
            queue_capacity: config.queue_capacity,
            policy: config.policy,
            bucket: config.rate_limit.map(TokenBucket::new),
            brownout: config.brownout.map(Brownout::new),
            breaker: config.breaker.map(Breaker::new),
            cell,
            service: None,
            offered: 0,
            admitted: 0,
            in_flight: 0,
            max_in_flight: 0,
            shed_by_reason: [0; 4],
            pending_sheds: VecDeque::new(),
            alert_floor: ServingTier::Full,
            alert_floor_engagements: 0,
            effective_tier: ServingTier::Full,
            tier_since: 0,
            tier_dwell_cycles: [0; 4],
            tier_transitions: 0,
            recovered_at: Some(0),
        }
    }

    /// Admission decision for one offered arrival: `None` admits,
    /// `Some(reason)` sheds (the shed event is queued for ordered
    /// flushing). Checks run in a fixed order — queue bound, policy,
    /// rate limiter — and a shed consumes no tokens.
    #[inline]
    fn offer(&mut self, arrival: &Arrival) -> Option<ShedReason> {
        let offered = self.offered;
        self.offered += 1;
        let reason = self.decide(arrival);
        match reason {
            None => {
                self.admitted += 1;
                self.in_flight += 1;
                self.max_in_flight = self.max_in_flight.max(self.in_flight);
            }
            Some(reason) => {
                self.shed_by_reason[reason_index(reason)] += 1;
                self.pending_sheds.push_back(TraceEvent::Shed {
                    offered,
                    benchmark: arrival.benchmark,
                    at: arrival.time,
                    priority: arrival.priority,
                    reason,
                });
            }
        }
        reason
    }

    #[inline]
    fn decide(&mut self, arrival: &Arrival) -> Option<ShedReason> {
        let in_flight = self.in_flight;
        if self
            .queue_capacity
            .is_some_and(|capacity| in_flight >= capacity)
        {
            return Some(ShedReason::QueueFull);
        }
        match self.policy {
            ShedPolicy::DropTail => {}
            ShedPolicy::DeadlineAge { max_wait_cycles } => {
                if let Some(service) = self.service {
                    let backlog = in_flight.saturating_sub(self.num_cores);
                    let projected = backlog as f64 / self.num_cores as f64 * service;
                    if projected > max_wait_cycles as f64 {
                        return Some(ShedReason::Deadline);
                    }
                }
            }
            ShedPolicy::PriorityAware {
                protect,
                depth_watermark,
            } => {
                if arrival.priority < protect && in_flight >= depth_watermark {
                    return Some(ShedReason::Priority);
                }
            }
        }
        if let Some(bucket) = &mut self.bucket {
            if !bucket.admit(arrival.time) {
                return Some(ShedReason::RateLimit);
            }
        }
        None
    }

    /// Fold one forwarded trace event into the control loops. Tier-cell
    /// writes happen only while processing arrivals, completions,
    /// retries and fallbacks, so the scheduler's view never changes
    /// mid-placement (stall purity and probe determinism are untouched).
    #[inline]
    fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Arrival { at, .. } => self.control_step(at),
            TraceEvent::Placement { cycles, .. } => {
                if let ShedPolicy::DeadlineAge { .. } = self.policy {
                    let cycles = cycles as f64;
                    self.service = Some(self.service.map_or(cycles, |s| 0.9 * s + 0.1 * cycles));
                }
            }
            TraceEvent::Completion {
                seq, at, arrival, ..
            } => {
                self.in_flight = self.in_flight.saturating_sub(1);
                if let Some(brownout) = &mut self.brownout {
                    brownout.complete(at - arrival);
                }
                if let Some(breaker) = &mut self.breaker {
                    breaker.complete(seq, at);
                }
                self.control_step(at);
            }
            TraceEvent::Fallback { seq, at, .. } => {
                if let Some(breaker) = &mut self.breaker {
                    breaker.fall_back(seq, at);
                    self.apply_tier(at);
                }
            }
            TraceEvent::Retry { at, abandoned, .. } => {
                if abandoned {
                    self.in_flight = self.in_flight.saturating_sub(1);
                }
                self.control_step(at);
            }
            _ => {}
        }
    }

    /// Step the control loops if time `at` closed a brownout control
    /// window or a breaker is configured: the per-event check stays
    /// inline, the step itself out of line.
    #[inline]
    fn control_step(&mut self, at: u64) {
        let window_closed = self.brownout.as_ref().is_some_and(|b| at >= b.window_end);
        if window_closed || self.breaker.is_some() {
            self.step_controls(at);
        }
    }

    /// Evaluate every brownout control window closed by time `at`, move
    /// an expired breaker to half-open, and publish the effective tier
    /// ([`apply_tier`](Governor::apply_tier) is a no-op unless it
    /// changed).
    #[cold]
    #[inline(never)]
    fn step_controls(&mut self, at: u64) {
        let in_flight = self.in_flight;
        if let Some(brownout) = &mut self.brownout {
            while at >= brownout.window_end {
                brownout.evaluate(in_flight);
            }
        }
        if let Some(breaker) = &mut self.breaker {
            breaker.tick(at);
        }
        self.apply_tier(at);
    }

    /// Recompute the effective tier and account the dwell transition.
    /// A no-op unless the requested tier or a floor moved since the
    /// last call. A change stamped before the open tier began (an alert
    /// floor set at a burn transition that trails the last tier step)
    /// takes effect when that tier began, so no cycle is counted twice.
    fn apply_tier(&mut self, at: u64) {
        let requested = self.brownout.as_ref().map_or(ServingTier::Full, |b| b.tier);
        let floor = self
            .breaker
            .as_ref()
            .map_or(ServingTier::Full, Breaker::floor);
        let effective = requested.max(floor).max(self.alert_floor);
        if effective != self.effective_tier {
            let at = at.max(self.tier_since);
            self.tier_dwell_cycles[self.effective_tier as usize] += at - self.tier_since;
            self.tier_since = at;
            self.tier_transitions += 1;
            self.recovered_at = (effective == ServingTier::Full).then_some(at);
            self.effective_tier = effective;
            if let Some(cell) = &self.cell {
                cell.set(effective);
            }
        }
    }

    /// Close the books at the run's horizon.
    fn finish(&mut self, horizon: u64) {
        if let Some(breaker) = &mut self.breaker {
            breaker.confirm_success();
        }
        self.tier_dwell_cycles[self.effective_tier as usize] +=
            horizon.saturating_sub(self.tier_since);
        self.tier_since = horizon;
    }

    fn report(&self) -> OverloadReport {
        OverloadReport {
            offered: self.offered,
            admitted: self.admitted,
            shed_by_reason: self.shed_by_reason,
            max_in_flight: self.max_in_flight,
            final_tier: self.effective_tier,
            tier_dwell_cycles: self.tier_dwell_cycles,
            tier_transitions: self.tier_transitions,
            recovered_at: self.recovered_at,
            breaker_trips: self.breaker.as_ref().map_or(0, |b| b.trips),
            breaker_state: self
                .breaker
                .as_ref()
                .map_or(BreakerState::Closed, |b| b.state),
            alert_floor: self.alert_floor,
            alert_floor_engagements: self.alert_floor_engagements,
        }
    }
}

/// A cloneable handle to one run's overload governor. Build the
/// [`AdmissionGate`] and [`OverloadSink`] from the same handle, then
/// take the [`OverloadReport`] once the sink is finished.
#[derive(Debug, Clone)]
pub struct GovernorHandle(Rc<RefCell<Governor>>);

impl GovernorHandle {
    /// A governor for `num_cores` cores under `config`. `tier` is the
    /// serving-tier cell the scheduling system reads (share a clone of
    /// the same cell with the system); pass `None` when nothing serves
    /// tiered predictions.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`OverloadConfig::validate`].
    pub fn new(config: &OverloadConfig, num_cores: usize, tier: Option<TierCell>) -> Self {
        if let Err(problem) = config.validate() {
            panic!("overload config: {problem}");
        }
        GovernorHandle(Rc::new(RefCell::new(Governor::new(
            config, num_cores, tier,
        ))))
    }

    /// Wrap an arrival stream in this governor's admission gate.
    pub fn gate<I>(&self, arrivals: I) -> AdmissionGate<I>
    where
        I: Iterator<Item = Arrival>,
    {
        AdmissionGate {
            inner: arrivals,
            governor: self.clone(),
        }
    }

    /// Wrap a trace sink so the governor observes the event stream and
    /// its shed events are interleaved (in drain-safe order).
    pub fn sink<'a, T: TraceSink + ?Sized>(&self, inner: &'a mut T) -> OverloadSink<'a, T> {
        OverloadSink {
            inner,
            governor: self.clone(),
            last_forwarded: 0,
        }
    }

    /// Snapshot the overload report. Call after
    /// [`OverloadSink::finish`] so tail sheds and dwell accounting are
    /// closed.
    pub fn report(&self) -> OverloadReport {
        self.0.borrow().report()
    }

    /// Impose (or lift, with [`ServingTier::Full`]) an external tier
    /// floor at cycle `at`. The observability plane calls this on
    /// burn-rate alert transitions; the effective tier becomes
    /// `max(brownout request, breaker floor, alert floor)` and dwell
    /// accounting treats the change like any other transition. A no-op
    /// when the floor is unchanged.
    pub fn set_alert_floor(&self, at: u64, floor: ServingTier) {
        let mut governor = self.0.borrow_mut();
        if governor.alert_floor != floor {
            if floor > ServingTier::Full {
                governor.alert_floor_engagements += 1;
            }
            governor.alert_floor = floor;
            governor.apply_tier(at);
        }
    }
}

/// Iterator adaptor refusing arrivals per the governor's admission
/// decision. Admitted arrivals pass through unchanged (the simulator
/// sees a plain time-ordered stream); refused ones become queued
/// [`TraceEvent::Shed`]s.
///
/// The decision for arrival *n+1* is made when the simulator peeks it —
/// after arrival *n* was processed but possibly before completions in
/// `(t_n, t_{n+1}]` retire — so the gate sees an in-flight count at most
/// one peek stale. The staleness is deterministic (same stream, same
/// decisions every run).
#[derive(Debug)]
pub struct AdmissionGate<I> {
    inner: I,
    governor: GovernorHandle,
}

impl<I: Iterator<Item = Arrival>> Iterator for AdmissionGate<I> {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        loop {
            let arrival = self.inner.next()?;
            let shed = self.governor.0.borrow_mut().offer(&arrival);
            if shed.is_none() {
                return Some(arrival);
            }
        }
    }
}

/// A [`TraceSink`] adaptor: forwards the simulator's event stream to the
/// inner sink, lets the governor observe every event, and interleaves
/// queued [`TraceEvent::Shed`]s at the earliest drain-safe point (see
/// the module docs for the ordering proof).
#[derive(Debug)]
pub struct OverloadSink<'a, T: TraceSink + ?Sized> {
    inner: &'a mut T,
    governor: GovernorHandle,
    /// Maximum timestamp forwarded to the inner sink so far.
    last_forwarded: u64,
}

impl<T: TraceSink + ?Sized> OverloadSink<'_, T> {
    /// Forward every queued shed the stream has passed, then let the
    /// governor observe `event`. Out of line: most events find no shed
    /// due.
    #[cold]
    #[inline(never)]
    fn flush_due_sheds(&mut self, event: &TraceEvent) {
        loop {
            let due = {
                let mut governor = self.governor.0.borrow_mut();
                match governor.pending_sheds.front() {
                    Some(shed) if shed.at() <= self.last_forwarded => {
                        governor.pending_sheds.pop_front()
                    }
                    _ => {
                        governor.observe(event);
                        None
                    }
                }
            };
            match due {
                Some(shed) => self.inner.record(shed),
                None => break,
            }
        }
    }

    /// Flush every remaining shed (the stream is over, so all cycles are
    /// final) and close the governor's books at the observed horizon.
    /// Must be called before the inner sink's own finish step.
    pub fn finish(self) {
        let mut horizon = self.last_forwarded;
        loop {
            let shed = self.governor.0.borrow_mut().pending_sheds.pop_front();
            let Some(shed) = shed else { break };
            horizon = horizon.max(shed.at());
            self.inner.record(shed);
        }
        self.governor.0.borrow_mut().finish(horizon);
    }
}

impl<T: TraceSink + ?Sized> TraceSink for OverloadSink<'_, T> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        // The governor observes the event unless a queued shed is due
        // first. No borrow is held while the inner sink records: it may
        // call back into the handle.
        let shed_due = {
            let mut governor = self.governor.0.borrow_mut();
            let due = governor
                .pending_sheds
                .front()
                .is_some_and(|shed| shed.at() <= self.last_forwarded);
            if !due {
                governor.observe(&event);
            }
            due
        };
        if shed_due {
            self.flush_due_sheds(&event);
        }
        let at = event.at();
        self.inner.record(event);
        self.last_forwarded = self.last_forwarded.max(at);
    }
}

/// What the overload governor did over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Arrivals offered to the admission gate.
    pub offered: u64,
    /// Arrivals admitted into the simulator.
    pub admitted: u64,
    /// Refusals by [`ShedReason`], indexed queue-full, deadline,
    /// priority, rate-limit.
    pub shed_by_reason: [u64; 4],
    /// Peak in-flight (admitted − finished) depth observed.
    pub max_in_flight: u64,
    /// Effective serving tier at the horizon.
    pub final_tier: ServingTier,
    /// Cycles spent in each tier, indexed by `ServingTier as usize`.
    pub tier_dwell_cycles: [u64; 4],
    /// Effective-tier changes over the run.
    pub tier_transitions: u64,
    /// Cycle the tier last returned to full service (`Some(0)` if it
    /// never degraded, `None` if still degraded at the horizon).
    pub recovered_at: Option<u64>,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Breaker state at the horizon.
    pub breaker_state: BreakerState,
    /// Externally imposed tier floor at the horizon (see
    /// [`GovernorHandle::set_alert_floor`]).
    pub alert_floor: ServingTier,
    /// Times the alert floor engaged (rose above full service).
    pub alert_floor_engagements: u64,
}

impl OverloadReport {
    /// Total arrivals refused.
    pub fn shed(&self) -> u64 {
        self.shed_by_reason.iter().sum()
    }

    /// Refusals for one reason.
    pub fn shed_for(&self, reason: ShedReason) -> u64 {
        self.shed_by_reason[reason_index(reason)]
    }

    /// Fraction of offered arrivals refused (0 for an empty run).
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, Outcome, RunSpec};
    use energy_model::EnergyBreakdown;
    use multicore_sim::{
        tier_cell, Audit, CoreId, CoreIndex, Decision, FallbackLevel, Job, JobExecution,
        LedgerAuditor, NullSink, RecordingSink, Scheduler, Simulator,
    };
    use workloads::{BenchmarkId, OpenLoop};

    /// Fixed-cost policy: first idle core, cycles keyed to the benchmark.
    struct FirstIdle;

    impl Scheduler for FirstIdle {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 400 + 170 * (job.benchmark.0 as u64 % 5),
                        energy: EnergyBreakdown {
                            idle_nj: 0.0,
                            dynamic_nj: 1.0,
                            static_nj: 0.5,
                        },
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
            1.0
        }
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 16,
            slo: crate::SloPolicy::default(),
        }
    }

    /// A governed run of `FirstIdle`: the outcome and its overload report.
    fn governed(
        simulator: &Simulator,
        arrivals: impl IntoIterator<Item = Arrival>,
        engine: &EngineConfig,
        overload: &OverloadConfig,
        tier: Option<TierCell>,
    ) -> (Outcome, OverloadReport) {
        let spec = RunSpec {
            engine: engine.clone(),
            overload: Some(overload.clone()),
            observe: None,
            tier,
        };
        let mut outcome =
            crate::run(simulator, arrivals, &mut FirstIdle, &spec).expect("no plane to bind");
        let report = outcome.overload.take().expect("a governed run reports");
        (outcome, report)
    }

    #[test]
    fn drop_tail_bounds_in_flight_and_conserves_offered_arrivals() {
        // Mean service ~740 cycles on 2 cores; inter-arrival 50 cycles is
        // a ~7x storm, so an unbounded run would queue thousands.
        let source = || OpenLoop::poisson(20_000.0, 20, 7).take(3_000);
        let overload = OverloadConfig {
            queue_capacity: Some(16),
            ..OverloadConfig::disabled()
        };
        let (outcome, report) = governed(
            &Simulator::new(2),
            source(),
            &engine_config(),
            &overload,
            None,
        );
        assert_eq!(report.offered, 3_000);
        assert!(report.shed() > 0, "a 7x storm must shed");
        assert_eq!(report.admitted + report.shed(), report.offered);
        assert_eq!(report.shed_for(ShedReason::QueueFull), report.shed());
        // The admission-decision view lags the true in-flight count by at
        // most one peeked arrival.
        assert!(
            report.max_in_flight <= 17,
            "queue bound violated: {}",
            report.max_in_flight
        );
        assert_eq!(outcome.metrics.jobs_completed, report.admitted);
        assert_eq!(outcome.report.totals.sheds, report.shed());
    }

    #[test]
    fn governed_trace_passes_the_extended_ledger_audit() {
        let source = OpenLoop::poisson(20_000.0, 20, 11).take(800);
        let overload = OverloadConfig {
            queue_capacity: Some(8),
            ..OverloadConfig::disabled()
        };
        let simulator = Simulator::new(2);
        let governor = GovernorHandle::new(&overload, 2, None);
        let mut recording = RecordingSink::new();
        let metrics = {
            let mut sink = governor.sink(&mut recording);
            let metrics = simulator.run_stream(governor.gate(source), &mut FirstIdle, &mut sink);
            sink.finish();
            metrics
        };
        let report = governor.report();
        assert!(report.shed() > 0);
        let expected = Audit {
            admitted: report.offered - report.shed(),
            sheds: report.shed(),
            ..metrics.into()
        };
        let auditor = LedgerAuditor::new(2);
        auditor
            .check(recording.events(), &expected)
            .unwrap_or_else(|violations| panic!("governed audit failed: {violations:?}"));
        // A governor reporting one more offered arrival than it admitted
        // or shed, or a trace that lost one of its sheds, fails the audit.
        let overstated = Audit {
            admitted: expected.admitted + 1,
            ..expected.clone()
        };
        assert!(auditor.check(recording.events(), &overstated).is_err());
        let mut events = recording.into_events();
        let shed = events
            .iter()
            .position(|e| matches!(e, TraceEvent::Shed { .. }))
            .expect("the run shed");
        events.remove(shed);
        assert!(auditor.check(&events, &expected).is_err());
    }

    #[test]
    fn token_bucket_sheds_the_burst_overflow() {
        // 100 arrivals in one burst at cycle 0 against a 10-token bucket
        // with a slow refill: ~90 rate-limit sheds.
        let burst: Vec<Arrival> = (0..100)
            .map(|i| Arrival {
                benchmark: BenchmarkId(i as usize % 20),
                time: i / 10,
                priority: 0,
            })
            .collect();
        let overload = OverloadConfig {
            rate_limit: Some(TokenBucketConfig {
                capacity: 10.0,
                refill_per_mcycle: 1.0,
            }),
            ..OverloadConfig::disabled()
        };
        let (_, report) = governed(&Simulator::new(4), burst, &engine_config(), &overload, None);
        assert_eq!(report.admitted, 10);
        assert_eq!(report.shed_for(ShedReason::RateLimit), 90);
    }

    #[test]
    fn deadline_policy_sheds_arrivals_that_would_wait_too_long() {
        let source = OpenLoop::poisson(25_000.0, 20, 3).take(2_000);
        let overload = OverloadConfig {
            policy: ShedPolicy::DeadlineAge {
                max_wait_cycles: 2_000,
            },
            ..OverloadConfig::disabled()
        };
        let (outcome, report) = governed(
            &Simulator::new(2),
            source,
            &engine_config(),
            &overload,
            None,
        );
        assert!(report.shed_for(ShedReason::Deadline) > 0);
        assert_eq!(report.admitted + report.shed(), report.offered);
        // Every admitted job completes: shedding preserved goodput.
        assert_eq!(outcome.metrics.jobs_completed, report.admitted);
    }

    #[test]
    fn priority_policy_protects_the_urgent_class() {
        let arrivals: Vec<Arrival> = (0..1_000)
            .map(|i| Arrival {
                benchmark: BenchmarkId(i as usize % 20),
                time: i * 30,
                priority: (i % 2) as u8,
            })
            .collect();
        let overload = OverloadConfig {
            policy: ShedPolicy::PriorityAware {
                protect: 1,
                depth_watermark: 4,
            },
            ..OverloadConfig::disabled()
        };
        let (_, report) = governed(
            &Simulator::new(2),
            arrivals,
            &engine_config(),
            &overload,
            None,
        );
        assert!(report.shed_for(ShedReason::Priority) > 0);
        assert_eq!(report.shed(), report.shed_for(ShedReason::Priority));
        // Only priority-0 arrivals are ever shed under this policy.
        assert!(report.shed() <= 500);
    }

    #[test]
    fn brownout_steps_down_under_storm_and_recovers_after() {
        // A storm for the first 300 arrivals (every 30 cycles against
        // ~740-cycle service on 2 cores), then a trickle that lets the
        // backlog drain.
        let arrivals: Vec<Arrival> = (0..300u64)
            .map(|i| Arrival {
                benchmark: BenchmarkId(i as usize % 20),
                time: i * 30,
                priority: 0,
            })
            .chain((0..40u64).map(|i| Arrival {
                benchmark: BenchmarkId(i as usize % 20),
                time: 300 * 30 + 200_000 + i * 20_000,
                priority: 0,
            }))
            .collect();
        let overload = OverloadConfig {
            brownout: Some(BrownoutConfig {
                control_window_cycles: 2_000,
                depth_high: 8,
                depth_low: 3,
                latency_budget_cycles: 5_000,
                breach_fraction: 0.05,
                step_up_after: 2,
                step_down_after: 3,
            }),
            ..OverloadConfig::disabled()
        };
        let cell = tier_cell();
        let (outcome, report) = governed(
            &Simulator::new(2),
            arrivals,
            &engine_config(),
            &overload,
            Some(cell.clone()),
        );
        assert!(
            report.tier_transitions >= 2,
            "storm must degrade and recover: {report:?}"
        );
        assert!(report.tier_dwell_cycles[1..].iter().sum::<u64>() > 0);
        assert_eq!(report.final_tier, ServingTier::Full);
        assert_eq!(cell.get(), ServingTier::Full);
        let recovered = report.recovered_at.expect("must recover");
        assert!(recovered > 0, "recovery happened mid-run");
        // Dwell accounting tiles the horizon the governor observed.
        let dwell: u64 = report.tier_dwell_cycles.iter().sum();
        assert_eq!(dwell, outcome.report.horizon);
    }

    #[test]
    fn an_alert_floor_stamped_before_the_last_tier_step_counts_no_cycle_twice() {
        // One late completion per 1,000-cycle control window steps the
        // brownout down at once; nothing steps it back.
        let overload = OverloadConfig {
            brownout: Some(BrownoutConfig {
                control_window_cycles: 1_000,
                depth_high: 1_000,
                depth_low: 0,
                latency_budget_cycles: 100,
                breach_fraction: 0.0,
                step_up_after: 1,
                step_down_after: 1_000,
            }),
            ..OverloadConfig::disabled()
        };
        let governor = GovernorHandle::new(&overload, 4, None);
        let mut null = NullSink;
        let mut sink = governor.sink(&mut null);
        let completion = |seq: u64, at: u64, arrival: u64| TraceEvent::Completion {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at,
            arrival,
            priority: 0,
        };
        sink.record(completion(0, 500, 0));
        // Closing the first window steps the brownout at 1,000.
        sink.record(completion(1, 1_000, 990));
        assert_eq!(governor.report().tier_transitions, 1);
        // The plane floors the tier at a burn transition 300 cycles
        // earlier than that step.
        governor.set_alert_floor(700, ServingTier::Knn);
        sink.record(completion(2, 2_000, 1_990));
        sink.finish();
        let report = governor.report();
        assert_eq!(report.tier_transitions, 2);
        assert_eq!(report.final_tier, ServingTier::Knn);
        assert_eq!(report.tier_dwell_cycles, [1_000, 0, 1_000, 0]);
        assert_eq!(report.tier_dwell_cycles.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn breaker_trips_on_consecutive_fallbacks_and_half_open_resets() {
        let overload = OverloadConfig {
            breaker: Some(BreakerConfig {
                trip_after: 3,
                cooldown_cycles: 1_000,
            }),
            ..OverloadConfig::disabled()
        };
        let cell = tier_cell();
        let governor = GovernorHandle::new(&overload, 4, Some(cell.clone()));
        let mut null = NullSink;
        let mut sink = governor.sink(&mut null);
        let completion = |seq: u64, at: u64| TraceEvent::Completion {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at,
            arrival: at.saturating_sub(100),
            priority: 0,
        };
        let fallback = |seq: u64, at: u64| TraceEvent::Fallback {
            seq,
            benchmark: BenchmarkId(0),
            at,
            level: FallbackLevel::Knn,
        };
        // Three consecutive fallback-served completions trip the breaker.
        for seq in 0..3u64 {
            let at = 100 + seq * 10;
            sink.record(completion(seq, at));
            sink.record(fallback(seq, at));
        }
        assert_eq!(
            governor.report().breaker_state,
            BreakerState::Open { until: 1_120 }
        );
        assert_eq!(governor.report().breaker_trips, 1);
        assert_eq!(cell.get(), ServingTier::Knn, "breaker floors the tier");
        // A clean completion after the cooldown is the half-open probe
        // succeeding: breaker closes, tier floor lifts.
        sink.record(completion(3, 2_000));
        sink.record(completion(4, 2_050));
        sink.finish();
        let report = governor.report();
        assert_eq!(report.breaker_state, BreakerState::Closed);
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.final_tier, ServingTier::Full);
        assert_eq!(cell.get(), ServingTier::Full);
    }

    #[test]
    fn half_open_failure_re_trips_immediately() {
        let overload = OverloadConfig {
            breaker: Some(BreakerConfig {
                trip_after: 2,
                cooldown_cycles: 500,
            }),
            ..OverloadConfig::disabled()
        };
        let governor = GovernorHandle::new(&overload, 4, None);
        let mut null = NullSink;
        let mut sink = governor.sink(&mut null);
        let completion = |seq: u64, at: u64| TraceEvent::Completion {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at,
            arrival: 0,
            priority: 0,
        };
        let fallback = |seq: u64, at: u64| TraceEvent::Fallback {
            seq,
            benchmark: BenchmarkId(0),
            at,
            level: FallbackLevel::Static,
        };
        for seq in 0..2u64 {
            sink.record(completion(seq, 10 + seq));
            sink.record(fallback(seq, 10 + seq));
        }
        assert_eq!(governor.report().breaker_trips, 1);
        // Past the cooldown, the probe completion is fallback-served:
        // re-trip from half-open without waiting for `trip_after`.
        sink.record(completion(2, 600));
        sink.record(fallback(2, 600));
        sink.finish();
        let report = governor.report();
        assert_eq!(report.breaker_trips, 2);
        assert_eq!(report.breaker_state, BreakerState::Open { until: 1_100 });
    }

    /// An inner sink that calls back into the governor on every event it
    /// is forwarded, as the observability plane (alert floor) and a
    /// `/health` scrape (report) do.
    struct ReentrantSink {
        governor: GovernorHandle,
        recording: RecordingSink,
        reports: u64,
    }

    impl TraceSink for ReentrantSink {
        fn record(&mut self, event: TraceEvent) {
            let report = self.governor.report();
            assert!(report.offered >= report.admitted);
            self.reports += 1;
            let floor = if self.reports.is_multiple_of(2) {
                ServingTier::Distilled
            } else {
                ServingTier::Full
            };
            self.governor.set_alert_floor(event.at(), floor);
            self.recording.record(event);
        }
    }

    #[test]
    fn the_inner_sink_may_call_back_into_the_governor() {
        let source = OpenLoop::poisson(20_000.0, 20, 17).take(1_500);
        let overload = OverloadConfig {
            queue_capacity: Some(8),
            ..OverloadConfig::disabled()
        };
        let simulator = Simulator::new(2);
        let governor = GovernorHandle::new(&overload, 2, Some(tier_cell()));
        let mut inner = ReentrantSink {
            governor: governor.clone(),
            recording: RecordingSink::new(),
            reports: 0,
        };
        let metrics = {
            let mut sink = governor.sink(&mut inner);
            let metrics = simulator.run_stream(governor.gate(source), &mut FirstIdle, &mut sink);
            sink.finish();
            metrics
        };
        let report = governor.report();
        let events = inner.recording.events();
        assert_eq!(inner.reports, events.len() as u64);
        assert!(report.shed() > 0, "the storm must shed");
        assert_eq!(report.offered, 1_500);
        assert_eq!(report.admitted + report.shed(), report.offered);
        assert!(report.alert_floor_engagements > 0);
        let expected = Audit {
            admitted: report.offered - report.shed(),
            sheds: report.shed(),
            ..metrics.into()
        };
        LedgerAuditor::new(2)
            .check(events, &expected)
            .unwrap_or_else(|violations| panic!("re-entrant audit failed: {violations:?}"));
    }

    #[test]
    #[should_panic(expected = "overload config: token bucket capacity")]
    fn a_governor_refuses_a_malformed_config() {
        let overload = OverloadConfig {
            rate_limit: Some(TokenBucketConfig {
                capacity: f64::NAN,
                refill_per_mcycle: 1.0,
            }),
            ..OverloadConfig::disabled()
        };
        GovernorHandle::new(&overload, 2, None);
    }

    #[test]
    fn late_sheds_flush_in_drain_safe_order_through_the_engine_sink() {
        // A governed storm through the full EngineSink path: if a shed
        // were forwarded before an earlier-cycle back-dated idle advance,
        // the metrics sink's drained-window assertions would fire. A
        // clean run with many sheds and tiny windows is the regression
        // test.
        let source = OpenLoop::poisson(25_000.0, 20, 13).take(2_500);
        let overload = OverloadConfig {
            queue_capacity: Some(6),
            ..OverloadConfig::disabled()
        };
        let config = EngineConfig {
            window_cycles: 500,
            snapshot_windows: 2,
            max_snapshots: 8,
            slo: crate::SloPolicy::default(),
        };
        let (outcome, report) = governed(&Simulator::new(2), source, &config, &overload, None);
        assert!(report.shed() > 0);
        assert_eq!(outcome.report.totals.sheds, report.shed());
        // Snapshots conserve the shed count too.
        let snapshot_sheds: u64 = outcome.report.snapshots.iter().map(|s| s.sheds).sum();
        assert!(snapshot_sheds <= report.shed());
    }
}
