//! Multi-window SLO burn-rate alerting over the live completion stream.
//!
//! A burn rate is how fast a run is spending its error budget: with an
//! SLO of "99 % of jobs complete within the latency budget", the error
//! budget is 1 % of jobs, and a window in which 2 % of completions
//! breach the budget burns at rate 2.0. Following the classic
//! multi-window construction, a rule only *fires* when both a fast
//! window (quick detection, noisy) and a slow window (confirmation,
//! stable) burn above the firing threshold for a sustained number of
//! evaluations — and only *resolves* after both stay below a strictly
//! lower clearing threshold, so marginal load cannot flap the alert.
//!
//! The engine is fed one call per completion
//! ([`BurnEngine::observe_completion`]) plus periodic clock ticks
//! ([`BurnEngine::advance`]) so quiet periods still roll (empty, good)
//! windows and let firing alerts resolve. Evaluation happens once per
//! base-window boundary; per-completion cost is two compares and two
//! adds per rule. State transitions are recorded as
//! [`AlertTransition`]s for the trace timeline and scrape endpoints.

use std::collections::VecDeque;

/// One burn-rate alerting rule.
///
/// Windows are expressed in base windows (multiples of the engine's
/// `interval_cycles`), mirroring how the
/// [`MetricsSink`](crate::MetricsSink) buckets its time-series.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateRule {
    /// Stable rule name (appears in traces, `/health`, and reports).
    pub name: String,
    /// A completion is *bad* when its latency exceeds this budget.
    pub latency_budget_cycles: u64,
    /// Allowed bad fraction (1 − SLO target); e.g. `0.01` for a 99 % SLO.
    /// Must be positive.
    pub error_budget: f64,
    /// Fast (detection) window length, in base windows. Must be ≥ 1.
    pub fast_windows: u32,
    /// Slow (confirmation) window length, in base windows. Must be
    /// ≥ `fast_windows`.
    pub slow_windows: u32,
    /// Both windows must burn at or above this rate to count towards
    /// firing (burn rate = bad fraction / `error_budget`).
    pub fire_burn_rate: f64,
    /// Both windows must burn strictly below this rate to count towards
    /// resolution. Must be ≤ `fire_burn_rate` (hysteresis band).
    pub clear_burn_rate: f64,
    /// Consecutive over-threshold evaluations (one per base window)
    /// required before the rule fires. Must be ≥ 1; values > 1 make the
    /// pending state observable.
    pub sustain_evals: u32,
    /// Consecutive under-threshold evaluations required before a firing
    /// rule resolves. Must be ≥ 1.
    pub clear_evals: u32,
}

impl BurnRateRule {
    /// A conservative page-worthy default in the spirit of the SRE
    /// workbook's 14.4×/6× pair, scaled to simulation windows: fire on a
    /// 6× burn sustained across 3 fast-window evaluations with a 30
    /// base-window confirmation, clear below 1×.
    pub fn paging(name: &str, latency_budget_cycles: u64) -> Self {
        BurnRateRule {
            name: name.to_string(),
            latency_budget_cycles,
            error_budget: 0.01,
            fast_windows: 3,
            slow_windows: 30,
            fire_burn_rate: 6.0,
            clear_burn_rate: 1.0,
            sustain_evals: 3,
            clear_evals: 5,
        }
    }

    /// What makes this rule unusable, if anything: a non-positive (or
    /// NaN) error budget, zero-length windows, `slow_windows <
    /// fast_windows`, `clear_burn_rate > fire_burn_rate` (or a NaN
    /// threshold), or zero sustain/clear counts.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a short description.
    pub fn validate(&self) -> Result<(), &'static str> {
        let constraints = [
            (self.error_budget > 0.0, "error budget must be positive"),
            (
                self.fast_windows >= 1 && self.slow_windows >= self.fast_windows,
                "windows must satisfy 1 <= fast <= slow",
            ),
            (
                self.clear_burn_rate <= self.fire_burn_rate,
                "clearing threshold above firing threshold",
            ),
            (
                self.sustain_evals >= 1 && self.clear_evals >= 1,
                "sustain/clear evaluation counts must be >= 1",
            ),
        ];
        match constraints.into_iter().find(|&(holds, _)| !holds) {
            Some((_, problem)) => Err(problem),
            None => Ok(()),
        }
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Burn below the firing threshold.
    Inactive,
    /// Burn above the firing threshold but not yet sustained.
    Pending,
    /// Fired: burn sustained over both windows.
    Firing,
}

impl AlertState {
    /// Stable lower-case name (used by exports and `/health`).
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One recorded state transition of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// The base-window boundary cycle the evaluation ran at.
    pub at: u64,
    /// Index of the rule in the engine's rule list.
    pub rule: usize,
    /// The rule's name (duplicated for self-contained exports).
    pub name: String,
    /// State before the evaluation.
    pub from: AlertState,
    /// State after the evaluation.
    pub to: AlertState,
    /// Fast-window burn rate at the evaluation.
    pub fast_burn: f64,
    /// Slow-window burn rate at the evaluation.
    pub slow_burn: f64,
}

#[derive(Debug)]
struct RuleState {
    rule: BurnRateRule,
    // Per-base-window (good, bad) counts, newest at the back; bounded
    // at `slow_windows` entries.
    ring: VecDeque<(u64, u64)>,
    cur_good: u64,
    cur_bad: u64,
    state: AlertState,
    over_streak: u32,
    under_streak: u32,
    fired: u64,
    resolved: u64,
}

impl RuleState {
    fn burn(&self, windows: u32) -> f64 {
        let take = windows as usize;
        let mut good = 0u64;
        let mut bad = 0u64;
        for &(g, b) in self.ring.iter().rev().take(take) {
            good += g;
            bad += b;
        }
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.rule.error_budget
    }
}

/// The burn-rate rule engine. One instance per run; feed it every
/// completion and tick it with the run clock.
#[derive(Debug)]
pub struct BurnEngine {
    interval: u64,
    cur_window: u64,
    /// First cycle past the open window: [`BurnEngine::advance`]'s
    /// fast path is one compare against it, so ticking the engine on
    /// every trace event costs nothing between boundaries.
    next_boundary: u64,
    rules: Vec<RuleState>,
    transitions: Vec<AlertTransition>,
}

impl BurnEngine {
    /// Build an engine over `interval_cycles`-wide base windows.
    ///
    /// # Panics
    ///
    /// On a zero interval or a rule that fails
    /// [`BurnRateRule::validate`].
    pub fn new(interval_cycles: u64, rules: Vec<BurnRateRule>) -> Self {
        assert!(interval_cycles > 0, "base window must be non-empty");
        for rule in &rules {
            if let Err(problem) = rule.validate() {
                panic!("rule {:?}: {problem}", rule.name);
            }
        }
        BurnEngine {
            interval: interval_cycles,
            cur_window: 0,
            next_boundary: interval_cycles,
            rules: rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    ring: VecDeque::new(),
                    cur_good: 0,
                    cur_bad: 0,
                    state: AlertState::Inactive,
                    over_streak: 0,
                    under_streak: 0,
                    fired: 0,
                    resolved: 0,
                })
                .collect(),
            transitions: Vec::new(),
        }
    }

    /// The configured rules, in index order.
    pub fn rules(&self) -> impl Iterator<Item = &BurnRateRule> {
        self.rules.iter().map(|state| &state.rule)
    }

    /// Current state of rule `index`.
    pub fn state(&self, index: usize) -> AlertState {
        self.rules[index].state
    }

    /// Fast/slow burn rates of rule `index` over the closed windows.
    pub fn burn_rates(&self, index: usize) -> (f64, f64) {
        let rule = &self.rules[index];
        (
            rule.burn(rule.rule.fast_windows),
            rule.burn(rule.rule.slow_windows),
        )
    }

    /// `true` when any rule is currently firing.
    pub fn any_firing(&self) -> bool {
        self.rules
            .iter()
            .any(|rule| rule.state == AlertState::Firing)
    }

    /// Total fire transitions across all rules.
    pub fn fired(&self) -> u64 {
        self.rules.iter().map(|rule| rule.fired).sum()
    }

    /// Total resolve transitions across all rules.
    pub fn resolved(&self) -> u64 {
        self.rules.iter().map(|rule| rule.resolved).sum()
    }

    /// Every recorded state transition, in evaluation order.
    #[inline]
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Transitions recorded at or after index `from` (for incremental
    /// forwarding onto a trace timeline).
    pub fn transitions_since(&self, from: usize) -> &[AlertTransition] {
        &self.transitions[from.min(self.transitions.len())..]
    }

    /// Observe one completion with latency `latency_cycles` at cycle
    /// `at`. Rolls base windows (running evaluations) as `at` advances.
    #[inline]
    pub fn observe_completion(&mut self, at: u64, latency_cycles: u64) {
        self.advance(at);
        for rule in &mut self.rules {
            if latency_cycles > rule.rule.latency_budget_cycles {
                rule.cur_bad += 1;
            } else {
                rule.cur_good += 1;
            }
        }
    }

    /// Advance the engine clock to `at`, closing (and evaluating) every
    /// base window that ended at or before it. Quiet windows close as
    /// empty and count as zero burn, which is what lets a firing alert
    /// resolve when the storm passes. Inline so the between-boundary
    /// fast path costs callers one compare per tick.
    #[inline]
    pub fn advance(&mut self, at: u64) {
        if at < self.next_boundary {
            return;
        }
        self.roll_to(at);
    }

    /// The cold half of [`advance`](Self::advance): close and evaluate
    /// every window boundary at or before `at`.
    fn roll_to(&mut self, at: u64) {
        let window = at / self.interval;
        while self.cur_window < window {
            let boundary = (self.cur_window + 1) * self.interval;
            for (index, rule) in self.rules.iter_mut().enumerate() {
                let closed = (rule.cur_good, rule.cur_bad);
                rule.cur_good = 0;
                rule.cur_bad = 0;
                rule.ring.push_back(closed);
                while rule.ring.len() > rule.rule.slow_windows as usize {
                    rule.ring.pop_front();
                }
                let fast = rule.burn(rule.rule.fast_windows);
                let slow = rule.burn(rule.rule.slow_windows);
                let over = fast >= rule.rule.fire_burn_rate && slow >= rule.rule.fire_burn_rate;
                let under = fast < rule.rule.clear_burn_rate && slow < rule.rule.clear_burn_rate;
                let from = rule.state;
                match rule.state {
                    AlertState::Inactive | AlertState::Pending => {
                        if over {
                            rule.over_streak += 1;
                            rule.state = if rule.over_streak >= rule.rule.sustain_evals {
                                rule.fired += 1;
                                AlertState::Firing
                            } else {
                                AlertState::Pending
                            };
                        } else {
                            rule.over_streak = 0;
                            rule.state = AlertState::Inactive;
                        }
                    }
                    AlertState::Firing => {
                        if under {
                            rule.under_streak += 1;
                            if rule.under_streak >= rule.rule.clear_evals {
                                rule.resolved += 1;
                                rule.state = AlertState::Inactive;
                                rule.over_streak = 0;
                            }
                        } else {
                            rule.under_streak = 0;
                        }
                    }
                }
                if rule.state != from {
                    if rule.state != AlertState::Firing {
                        rule.under_streak = 0;
                    }
                    self.transitions.push(AlertTransition {
                        at: boundary,
                        rule: index,
                        name: rule.rule.name.clone(),
                        from,
                        to: rule.state,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                }
            }
            self.cur_window += 1;
        }
        self.next_boundary = (self.cur_window + 1) * self.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> BurnRateRule {
        BurnRateRule {
            name: "p99-burn".to_string(),
            latency_budget_cycles: 1_000,
            error_budget: 0.01,
            fast_windows: 2,
            slow_windows: 6,
            fire_burn_rate: 6.0,
            clear_burn_rate: 1.0,
            sustain_evals: 2,
            clear_evals: 2,
        }
    }

    fn feed(engine: &mut BurnEngine, window: u64, good: u64, bad: u64) {
        let base = window * 100;
        for i in 0..good {
            engine.observe_completion(base + (i % 100), 10);
        }
        for i in 0..bad {
            engine.observe_completion(base + (i % 100), 10_000);
        }
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let mut engine = BurnEngine::new(100, vec![rule()]);
        for window in 0..50 {
            // 1 bad in 200 = 0.5% bad < 1% budget: burn 0.5x.
            feed(&mut engine, window, 199, 1);
        }
        engine.advance(51 * 100);
        assert_eq!(engine.state(0), AlertState::Inactive);
        assert!(engine.transitions().is_empty());
        assert_eq!(engine.fired(), 0);
    }

    #[test]
    fn a_sustained_storm_fires_and_a_quiet_period_resolves() {
        let mut engine = BurnEngine::new(100, vec![rule()]);
        for window in 0..6 {
            feed(&mut engine, window, 100, 0);
        }
        // Storm: 50% bad = 50x burn, for 4 windows.
        for window in 6..10 {
            feed(&mut engine, window, 50, 50);
        }
        engine.advance(8 * 100);
        // After two over-threshold evaluations the rule has fired
        // (sustain_evals = 2); one evaluation in, it was pending.
        assert_eq!(engine.state(0), AlertState::Firing);
        let kinds: Vec<_> = engine
            .transitions()
            .iter()
            .map(|transition| (transition.from, transition.to))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (AlertState::Inactive, AlertState::Pending),
                (AlertState::Pending, AlertState::Firing),
            ]
        );
        // Quiet traffic drains the slow window; the alert resolves only
        // after both windows clear for `clear_evals` evaluations.
        for window in 10..40 {
            feed(&mut engine, window, 100, 0);
        }
        engine.advance(41 * 100);
        assert_eq!(engine.state(0), AlertState::Inactive);
        assert_eq!(engine.fired(), 1);
        assert_eq!(engine.resolved(), 1);
    }

    #[test]
    fn one_bad_window_is_pending_not_firing() {
        // A lone bad window lingers in the 2-window fast view for 2
        // evaluations; requiring 3 sustained evaluations keeps a
        // single-window spike from paging.
        let mut sustained = rule();
        sustained.sustain_evals = 3;
        let mut engine = BurnEngine::new(100, vec![sustained]);
        feed(&mut engine, 0, 0, 100);
        engine.advance(150);
        assert_eq!(engine.state(0), AlertState::Pending);
        // Clean traffic after the spike: the streak dies before firing.
        for window in 1..10 {
            feed(&mut engine, window, 100, 0);
        }
        engine.advance(10_000);
        assert_eq!(engine.state(0), AlertState::Inactive);
        assert_eq!(engine.fired(), 0);
        let kinds: Vec<_> = engine
            .transitions()
            .iter()
            .map(|transition| transition.to)
            .collect();
        assert!(!kinds.contains(&AlertState::Firing), "{kinds:?}");
    }

    #[test]
    fn quiet_gaps_roll_empty_windows_and_zero_burn() {
        let mut engine = BurnEngine::new(100, vec![rule()]);
        feed(&mut engine, 0, 0, 100);
        // A long silent gap: every window in it is empty = zero burn.
        engine.advance(100 * 100);
        assert_eq!(engine.state(0), AlertState::Inactive);
        let (fast, slow) = engine.burn_rates(0);
        assert_eq!((fast, slow), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "error budget must be positive")]
    fn zero_error_budget_is_rejected() {
        let mut bad = rule();
        bad.error_budget = 0.0;
        let _ = BurnEngine::new(100, vec![bad]);
    }
}
