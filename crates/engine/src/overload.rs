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
//!    extended conservation invariant `offered = admitted + shed`.
//! 2. **Brownout** — a controller watches per-control-window SLO
//!    pressure (in-flight depth, completion latency vs budget) and steps
//!    the serving path down the degradation ladder
//!    full → distilled → kNN → static via a shared
//!    [`TierCell`], with hysteresis streaks and time-in-tier accounting.
//! 3. **Circuit breaker** — consecutive fallback-served completions trip
//!    the predictor path open (floor = kNN tier); after a cooldown a
//!    half-open probe decides between reset and re-trip.
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
use std::cell::{Cell, RefCell};
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
}

impl Brownout {
    fn new(config: BrownoutConfig) -> Self {
        assert!(
            config.control_window_cycles > 0,
            "brownout control window must be positive"
        );
        Brownout {
            pressure_streak: 0,
            calm_streak: 0,
            tier: ServingTier::Full,
            config,
        }
    }

    /// Evaluate one closed control window against the hysteresis bands;
    /// `completions`/`late` are the window's counters (accumulated in
    /// [`Hot`] and drained by the caller). Returns the (possibly
    /// unchanged) requested tier.
    fn evaluate(&mut self, in_flight: u64, completions: u64, late: u64) -> ServingTier {
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
        self.tier
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
        assert!(config.trip_after > 0, "breaker must tolerate > 0 failures");
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

    fn on_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
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

/// The governor's per-event state: counters the [`AdmissionGate`] and
/// [`OverloadSink`] touch on *every* arrival and event, plus the
/// immutable knobs those touches read. Everything mutable is
/// `Cell`-backed, so the fast path never takes a `RefCell` borrow —
/// the `engine_overload` perf gate bounds this path's cost against the
/// ungoverned engine, and a borrow-flag round trip per event is most
/// of what it would measure.
#[derive(Debug)]
struct Hot {
    // Immutable knobs, copied out of the config at build time.
    num_cores: u64,
    /// `u64::MAX` when the queue is unbounded.
    queue_capacity: u64,
    policy: ShedPolicy,
    has_bucket: bool,
    has_brownout: bool,
    has_breaker: bool,
    /// Only the deadline policy consumes the service EWMA.
    track_service: bool,
    /// Brownout latency budget (unused without a brownout).
    latency_budget: u64,

    offered: Cell<u64>,
    admitted: Cell<u64>,
    in_flight: Cell<u64>,
    max_in_flight: Cell<u64>,
    /// Mirror of `Governor::pending_sheds.len()`: lets the sink skip
    /// the flush borrow when nothing is queued.
    pending: Cell<usize>,
    /// Next brownout control boundary (`u64::MAX` without a brownout).
    window_end: Cell<u64>,
    /// Completions observed in the current control window.
    window_completions: Cell<u64>,
    /// Completions over the latency budget in the current window.
    window_late: Cell<u64>,
    /// Exponential moving average of observed service cycles (α = 0.1),
    /// feeding the deadline policy's projected-wait estimate.
    service_value: Cell<f64>,
    service_primed: Cell<bool>,
}

/// The governor's cold state: everything touched only when something
/// actually happens — a shed, a control-window close, a breaker event,
/// a tier change. One instance per run, shared by the gate and sink
/// through a [`GovernorHandle`].
#[derive(Debug)]
struct Governor {
    bucket: Option<TokenBucket>,
    brownout: Option<Brownout>,
    breaker: Option<Breaker>,
    /// Serving-tier cell the scheduling system reads, if wired.
    cell: Option<TierCell>,

    shed_by_reason: [u64; 4],
    /// Sheds decided but not yet safe to forward (see module docs).
    pending_sheds: std::collections::VecDeque<TraceEvent>,

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

/// Hot and cold state under one `Rc`, so every per-event decision runs
/// on [`Hot`]'s cells and only exceptional paths borrow the
/// [`RefCell`].
#[derive(Debug)]
struct GovernorShared {
    hot: Hot,
    cold: RefCell<Governor>,
}

fn reason_index(reason: ShedReason) -> usize {
    match reason {
        ShedReason::QueueFull => 0,
        ShedReason::Deadline => 1,
        ShedReason::Priority => 2,
        ShedReason::RateLimit => 3,
    }
}

impl GovernorShared {
    fn new(config: &OverloadConfig, num_cores: usize, cell: Option<TierCell>) -> Self {
        GovernorShared {
            hot: Hot {
                num_cores: num_cores.max(1) as u64,
                queue_capacity: config.queue_capacity.unwrap_or(u64::MAX),
                policy: config.policy,
                has_bucket: config.rate_limit.is_some(),
                has_brownout: config.brownout.is_some(),
                has_breaker: config.breaker.is_some(),
                track_service: matches!(config.policy, ShedPolicy::DeadlineAge { .. }),
                latency_budget: config
                    .brownout
                    .map_or(u64::MAX, |b| b.latency_budget_cycles),
                offered: Cell::new(0),
                admitted: Cell::new(0),
                in_flight: Cell::new(0),
                max_in_flight: Cell::new(0),
                pending: Cell::new(0),
                window_end: Cell::new(
                    config
                        .brownout
                        .map_or(u64::MAX, |b| b.control_window_cycles),
                ),
                window_completions: Cell::new(0),
                window_late: Cell::new(0),
                service_value: Cell::new(0.0),
                service_primed: Cell::new(false),
            },
            cold: RefCell::new(Governor {
                bucket: config.rate_limit.map(TokenBucket::new),
                brownout: config.brownout.map(Brownout::new),
                breaker: config.breaker.map(Breaker::new),
                cell,
                shed_by_reason: [0; 4],
                pending_sheds: std::collections::VecDeque::new(),
                alert_floor: ServingTier::Full,
                alert_floor_engagements: 0,
                effective_tier: ServingTier::Full,
                tier_since: 0,
                tier_dwell_cycles: [0; 4],
                tier_transitions: 0,
                recovered_at: Some(0),
            }),
        }
    }

    /// Admission decision for one offered arrival: `None` admits,
    /// `Some(reason)` sheds (the shed event is queued for ordered
    /// flushing). Checks run in a fixed order — queue bound, policy,
    /// rate limiter — and a shed consumes no tokens.
    #[inline]
    fn offer(&self, arrival: &Arrival) -> Option<ShedReason> {
        let hot = &self.hot;
        let offered = hot.offered.get();
        hot.offered.set(offered + 1);
        let reason = self.decide(arrival);
        match reason {
            None => {
                hot.admitted.set(hot.admitted.get() + 1);
                let depth = hot.in_flight.get() + 1;
                hot.in_flight.set(depth);
                if depth > hot.max_in_flight.get() {
                    hot.max_in_flight.set(depth);
                }
            }
            Some(reason) => {
                let mut cold = self.cold.borrow_mut();
                cold.shed_by_reason[reason_index(reason)] += 1;
                cold.pending_sheds.push_back(TraceEvent::Shed {
                    offered,
                    benchmark: arrival.benchmark,
                    at: arrival.time,
                    priority: arrival.priority,
                    reason,
                });
                hot.pending.set(cold.pending_sheds.len());
            }
        }
        reason
    }

    #[inline]
    fn decide(&self, arrival: &Arrival) -> Option<ShedReason> {
        let hot = &self.hot;
        let in_flight = hot.in_flight.get();
        if in_flight >= hot.queue_capacity {
            return Some(ShedReason::QueueFull);
        }
        match hot.policy {
            ShedPolicy::DropTail => {}
            ShedPolicy::DeadlineAge { max_wait_cycles } => {
                if hot.service_primed.get() {
                    let backlog = in_flight.saturating_sub(hot.num_cores);
                    let projected = backlog as f64 / hot.num_cores as f64 * hot.service_value.get();
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
        if hot.has_bucket {
            let mut cold = self.cold.borrow_mut();
            let bucket = cold.bucket.as_mut().expect("bucket exists when has_bucket");
            if !bucket.admit(arrival.time) {
                return Some(ShedReason::RateLimit);
            }
        }
        None
    }

    /// Fold one forwarded trace event into the control loops. Tier-cell
    /// writes happen only while processing arrivals and completions, so
    /// the scheduler's view never changes mid-placement (stall purity
    /// and probe determinism are untouched). The cold `RefCell` is only
    /// borrowed when a control window actually closes or a breaker is
    /// configured — between boundaries every update lands in [`Hot`].
    #[inline]
    fn observe(&self, event: &TraceEvent) {
        let hot = &self.hot;
        match *event {
            TraceEvent::Arrival { at, .. } if at >= hot.window_end.get() || hot.has_breaker => {
                self.control_step(at);
            }
            TraceEvent::Placement { cycles, .. } if hot.track_service => {
                if hot.service_primed.get() {
                    hot.service_value
                        .set(0.9 * hot.service_value.get() + 0.1 * cycles as f64);
                } else {
                    hot.service_value.set(cycles as f64);
                    hot.service_primed.set(true);
                }
            }
            TraceEvent::Completion {
                seq, at, arrival, ..
            } => {
                hot.in_flight.set(hot.in_flight.get().saturating_sub(1));
                if hot.has_brownout {
                    hot.window_completions.set(hot.window_completions.get() + 1);
                    if at - arrival > hot.latency_budget {
                        hot.window_late.set(hot.window_late.get() + 1);
                    }
                }
                if hot.has_breaker {
                    let mut cold = self.cold.borrow_mut();
                    let breaker = cold.breaker.as_mut().expect("breaker exists");
                    breaker.tick(at);
                    if breaker.pending_success.take().is_some() {
                        breaker.on_success();
                    }
                    breaker.pending_success = Some(seq);
                }
                if at >= hot.window_end.get() || hot.has_breaker {
                    self.control_step(at);
                }
            }
            TraceEvent::Fallback { seq, at, .. } if hot.has_breaker => {
                let mut cold = self.cold.borrow_mut();
                let breaker = cold.breaker.as_mut().expect("breaker exists");
                breaker.tick(at);
                if breaker.pending_success == Some(seq) {
                    // The completion we tentatively credited was
                    // actually served by a fallback stage.
                    breaker.pending_success = None;
                }
                breaker.on_failure(at);
                cold.apply_tier(at);
            }
            TraceEvent::Retry { at, abandoned, .. } => {
                if abandoned {
                    hot.in_flight.set(hot.in_flight.get().saturating_sub(1));
                }
                if at >= hot.window_end.get() || hot.has_breaker {
                    self.control_step(at);
                }
            }
            _ => {}
        }
    }

    /// Evaluate every brownout control window closed by time `at`, move
    /// an expired breaker to half-open, and publish the effective tier
    /// ([`apply_tier`](Governor::apply_tier) is a no-op unless it
    /// changed). Cold path: the caller already established that a
    /// boundary passed or a breaker exists.
    #[cold]
    #[inline(never)]
    fn control_step(&self, at: u64) {
        let hot = &self.hot;
        let mut cold = self.cold.borrow_mut();
        let cold = &mut *cold;
        let mut stepped = false;
        if let Some(brownout) = &mut cold.brownout {
            while at >= hot.window_end.get() {
                let completions = hot.window_completions.take();
                let late = hot.window_late.take();
                brownout.evaluate(hot.in_flight.get(), completions, late);
                hot.window_end
                    .set(hot.window_end.get() + brownout.config.control_window_cycles);
                stepped = true;
            }
        }
        if let Some(breaker) = &mut cold.breaker {
            breaker.tick(at);
            stepped = true;
        }
        if stepped {
            cold.apply_tier(at);
        }
    }

    fn report(&self) -> OverloadReport {
        let cold = self.cold.borrow();
        OverloadReport {
            offered: self.hot.offered.get(),
            admitted: self.hot.admitted.get(),
            shed_by_reason: cold.shed_by_reason,
            max_in_flight: self.hot.max_in_flight.get(),
            final_tier: cold.effective_tier,
            tier_dwell_cycles: cold.tier_dwell_cycles,
            tier_transitions: cold.tier_transitions,
            recovered_at: cold.recovered_at,
            breaker_trips: cold.breaker.as_ref().map_or(0, |b| b.trips),
            breaker_state: cold
                .breaker
                .as_ref()
                .map_or(BreakerState::Closed, |b| b.state),
            alert_floor: cold.alert_floor,
            alert_floor_engagements: cold.alert_floor_engagements,
        }
    }
}

impl Governor {
    /// Recompute the effective tier and account the dwell transition.
    /// A no-op unless the requested tier or breaker floor moved since
    /// the last call.
    fn apply_tier(&mut self, at: u64) {
        let requested = self.brownout.as_ref().map_or(ServingTier::Full, |b| b.tier);
        let floor = self
            .breaker
            .as_ref()
            .map_or(ServingTier::Full, |b| b.floor());
        let effective = requested.max(floor).max(self.alert_floor);
        if effective != self.effective_tier {
            self.tier_dwell_cycles[self.effective_tier as usize] +=
                at.saturating_sub(self.tier_since);
            self.tier_since = at;
            self.tier_transitions += 1;
            self.recovered_at = if effective == ServingTier::Full {
                Some(at)
            } else {
                None
            };
            self.effective_tier = effective;
            if let Some(cell) = &self.cell {
                cell.set(effective);
            }
        }
    }

    /// Close the books at the run's horizon.
    fn finish(&mut self, horizon: u64) {
        if let Some(breaker) = &mut self.breaker {
            if breaker.pending_success.take().is_some() {
                breaker.on_success();
            }
        }
        self.tier_dwell_cycles[self.effective_tier as usize] +=
            horizon.saturating_sub(self.tier_since);
        self.tier_since = horizon;
    }
}

/// A cloneable handle to one run's overload governor. Build the
/// [`AdmissionGate`] and [`OverloadSink`] from the same handle, then
/// take the [`OverloadReport`] once the sink is finished.
#[derive(Debug, Clone)]
pub struct GovernorHandle(Rc<GovernorShared>);

impl GovernorHandle {
    /// A governor for `num_cores` cores under `config`. `tier` is the
    /// serving-tier cell the scheduling system reads (share a clone of
    /// the same cell with the system); pass `None` when nothing serves
    /// tiered predictions.
    pub fn new(config: &OverloadConfig, num_cores: usize, tier: Option<TierCell>) -> Self {
        GovernorHandle(Rc::new(GovernorShared::new(config, num_cores, tier)))
    }

    /// Wrap an arrival stream in this governor's admission gate.
    pub fn gate<I>(&self, arrivals: I) -> AdmissionGate<I>
    where
        I: Iterator<Item = Arrival>,
    {
        AdmissionGate {
            inner: arrivals,
            governor: self.0.clone(),
        }
    }

    /// Wrap a trace sink so the governor observes the event stream and
    /// its shed events are interleaved (in drain-safe order).
    pub fn sink<'a, T: TraceSink + ?Sized>(&self, inner: &'a mut T) -> OverloadSink<'a, T> {
        OverloadSink {
            inner,
            governor: self.0.clone(),
            last_forwarded: 0,
        }
    }

    /// Snapshot the overload report. Call after
    /// [`OverloadSink::finish`] so tail sheds and dwell accounting are
    /// closed.
    pub fn report(&self) -> OverloadReport {
        self.0.report()
    }

    /// Impose (or lift, with [`ServingTier::Full`]) an external tier
    /// floor at cycle `at`. The observability plane calls this on
    /// burn-rate alert transitions; the effective tier becomes
    /// `max(brownout request, breaker floor, alert floor)` and dwell
    /// accounting treats the change like any other transition. A no-op
    /// when the floor is unchanged.
    pub fn set_alert_floor(&self, at: u64, floor: ServingTier) {
        let mut cold = self.0.cold.borrow_mut();
        if cold.alert_floor != floor {
            if floor > ServingTier::Full {
                cold.alert_floor_engagements += 1;
            }
            cold.alert_floor = floor;
            cold.apply_tier(at);
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
    governor: Rc<GovernorShared>,
}

impl<I: Iterator<Item = Arrival>> Iterator for AdmissionGate<I> {
    type Item = Arrival;

    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        loop {
            let arrival = self.inner.next()?;
            if self.governor.offer(&arrival).is_none() {
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
    governor: Rc<GovernorShared>,
    /// Maximum timestamp forwarded to the inner sink so far.
    last_forwarded: u64,
}

impl<T: TraceSink + ?Sized> OverloadSink<'_, T> {
    /// Forward every queued shed whose timestamp the forwarded stream
    /// has already passed.
    #[cold]
    #[inline(never)]
    fn flush_safe_sheds(&mut self) {
        loop {
            let shed = {
                let mut cold = self.governor.cold.borrow_mut();
                let shed = match cold.pending_sheds.front() {
                    Some(event) if event.at() <= self.last_forwarded => {
                        cold.pending_sheds.pop_front()
                    }
                    _ => None,
                };
                self.governor.hot.pending.set(cold.pending_sheds.len());
                shed
            };
            match shed {
                Some(event) => self.inner.record(event),
                None => break,
            }
        }
    }

    /// Flush every remaining shed (the stream is over, so all cycles are
    /// final) and close the governor's books at the observed horizon.
    /// Must be called before the inner sink's own finish step.
    pub fn finish(mut self) {
        self.flush_safe_sheds();
        let remaining: Vec<TraceEvent> = {
            let mut cold = self.governor.cold.borrow_mut();
            let remaining = cold.pending_sheds.drain(..).collect();
            self.governor.hot.pending.set(0);
            remaining
        };
        let mut horizon = self.last_forwarded;
        for event in remaining {
            horizon = horizon.max(event.at());
            self.inner.record(event);
        }
        self.governor.cold.borrow_mut().finish(horizon);
    }
}

impl<T: TraceSink + ?Sized> TraceSink for OverloadSink<'_, T> {
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        // Fast path: zero borrows when no sheds are queued — the common
        // case on every run, and the *only* case on a quiescent one,
        // whose per-event cost the `engine_overload` perf gate bounds.
        if self.governor.hot.pending.get() > 0 {
            self.flush_safe_sheds();
        }
        self.governor.observe(&event);
        let at = event.at();
        self.inner.record(event);
        if at > self.last_forwarded {
            self.last_forwarded = at;
        }
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
        tier_cell, CoreId, CoreIndex, Decision, FallbackLevel, Job, JobExecution, LedgerAuditor,
        NullSink, RecordingSink, Scheduler, Simulator,
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
        LedgerAuditor::new(2)
            .check_governed(recording.events(), &metrics, report.offered, report.shed())
            .unwrap_or_else(|violations| panic!("governed audit failed: {violations:?}"));
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
