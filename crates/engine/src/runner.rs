//! The one streaming entry point: [`run`] composes the engine sink, the
//! overload governor and the observability plane as a [`RunSpec`] asks.

use crate::engine::{EngineConfig, EngineReport, EngineSink};
use crate::observe::{AlertReport, ObserveConfig, ObservedSink};
use crate::overload::{GovernorHandle, OverloadConfig, OverloadReport};
use crate::serve::ServeStats;
use hetero_telemetry::{BurnRateRule, SpanAssembler};
use multicore_sim::{tier_cell, RunMetrics, Scheduler, Simulator, TierCell};
use std::fmt;
use workloads::Arrival;

/// What one streaming run should compose. [`Default`] is the plain
/// engine: no governor, no observability plane.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// Snapshot windows, ring size and SLO budgets.
    pub engine: EngineConfig,
    /// Run under an overload governor with this configuration.
    pub overload: Option<OverloadConfig>,
    /// Attach the observability plane with this configuration (under a
    /// disabled governor when `overload` is `None`).
    pub observe: Option<ObserveConfig>,
    /// The serving-tier cell shared with the scheduling system. When
    /// `None` and a brownout or an alert floor is configured, a private
    /// cell keeps dwell accounting alive. Unused without a governor.
    pub tier: Option<TierCell>,
}

/// Everything a streaming run distilled.
#[derive(Debug)]
pub struct Outcome {
    /// Bit-exact run metrics over the admitted stream, as the batch
    /// driver would return.
    pub metrics: RunMetrics,
    /// Snapshots, histograms, totals, and the SLO verdict.
    pub report: EngineReport,
    /// What the governor admitted, shed, and degraded; `Some` exactly
    /// when [`RunSpec::overload`] is.
    pub overload: Option<OverloadReport>,
    /// Burn-rate alert outcomes (empty without rules).
    pub alerts: AlertReport,
    /// Assembled spans, when [`ObserveConfig::assemble_spans`] was on
    /// (already [`finish`](SpanAssembler::finish)ed at the horizon).
    pub spans: Option<SpanAssembler>,
    /// What the scrape endpoint answered during the run.
    pub serve_stats: ServeStats,
}

/// A configuration or I/O failure that stops a run before it starts.
#[derive(Debug)]
pub enum EngineError {
    /// The scrape endpoint could not bind `127.0.0.1:port`.
    Bind {
        /// The requested port.
        port: u16,
        /// Why the bind failed.
        source: std::io::Error,
    },
    /// [`ObserveConfig::alert_tier_floor`] is set but the plane was
    /// given no governor to floor.
    FloorWithoutGovernor,
    /// The [`EngineConfig`] fails [`EngineConfig::validate`].
    InvalidEngineConfig {
        /// The constraint it violates.
        problem: &'static str,
    },
    /// The [`OverloadConfig`] fails [`OverloadConfig::validate`].
    InvalidOverload {
        /// The constraint it violates.
        problem: &'static str,
    },
    /// A burn-rate rule in [`ObserveConfig::rules`] fails
    /// [`BurnRateRule::validate`].
    InvalidBurnRule {
        /// The rule's name.
        rule: String,
        /// The constraint it violates.
        problem: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Bind { port, source } => write!(f, "bind 127.0.0.1:{port}: {source}"),
            EngineError::FloorWithoutGovernor => {
                f.write_str("alert tier floor needs the run's governor handle")
            }
            EngineError::InvalidEngineConfig { problem } => write!(f, "engine config: {problem}"),
            EngineError::InvalidOverload { problem } => write!(f, "overload config: {problem}"),
            EngineError::InvalidBurnRule { rule, problem } => {
                write!(f, "burn-rate rule {rule:?}: {problem}")
            }
        }
    }
}

/// The malformed engine, overload and burn-rate configurations that
/// would otherwise panic deep inside the sinks and the governor, checked
/// before anything is built.
fn check_spec(spec: &RunSpec) -> Result<(), EngineError> {
    spec.engine
        .validate()
        .map_err(|problem| EngineError::InvalidEngineConfig { problem })?;
    if let Some(overload) = &spec.overload {
        overload
            .validate()
            .map_err(|problem| EngineError::InvalidOverload { problem })?;
    }
    match &spec.observe {
        Some(observe) => check_rules(&observe.rules),
        None => Ok(()),
    }
}

/// The first of `rules` that fails [`BurnRateRule::validate`], as an
/// [`EngineError::InvalidBurnRule`].
pub(crate) fn check_rules(rules: &[BurnRateRule]) -> Result<(), EngineError> {
    for rule in rules {
        rule.validate()
            .map_err(|problem| EngineError::InvalidBurnRule {
                rule: rule.name.clone(),
                problem,
            })?;
    }
    Ok(())
}

impl std::error::Error for EngineError {}

/// Drive `scheduler` over a time-ordered arrival stream (an
/// [`OpenLoop`](workloads::OpenLoop) process bounded with `.take(n)`, or
/// a materialised plan's `iter().copied()`) to completion in bounded
/// memory. A section of `spec` left `None` costs nothing: the plain run
/// feeds an [`EngineSink`] directly.
///
/// # Errors
///
/// A malformed configuration
/// ([`EngineError::InvalidEngineConfig`],
/// [`InvalidOverload`](EngineError::InvalidOverload),
/// [`InvalidBurnRule`](EngineError::InvalidBurnRule))
/// before anything runs;
/// [`EngineError::FloorWithoutGovernor`] and [`EngineError::Bind`] from
/// the observability plane.
pub fn run<I>(
    simulator: &Simulator,
    arrivals: I,
    scheduler: &mut dyn Scheduler,
    spec: &RunSpec,
) -> Result<Outcome, EngineError>
where
    I: IntoIterator<Item = Arrival>,
{
    check_spec(spec)?;
    let num_cores = simulator.num_cores();
    let config = &spec.engine;
    let governor = |overload: &OverloadConfig| {
        let floor = spec.observe.as_ref().and_then(|o| o.alert_tier_floor);
        let cell = spec
            .tier
            .clone()
            .or_else(|| (overload.brownout.is_some() || floor.is_some()).then(tier_cell));
        GovernorHandle::new(overload, num_cores, cell)
    };
    match (&spec.overload, &spec.observe) {
        (None, None) => {
            let mut sink = EngineSink::new(num_cores, config);
            let metrics = simulator.run_stream(arrivals, scheduler, &mut sink);
            Ok(Outcome {
                metrics,
                report: sink.finish(&config.slo),
                overload: None,
                alerts: AlertReport::default(),
                spans: None,
                serve_stats: ServeStats::default(),
            })
        }
        (Some(overload), None) => {
            let governor = governor(overload);
            let mut sink = EngineSink::new(num_cores, config);
            let mut wrapped = governor.sink(&mut sink);
            let metrics =
                simulator.run_stream(governor.gate(arrivals.into_iter()), scheduler, &mut wrapped);
            wrapped.finish();
            Ok(Outcome {
                metrics,
                report: sink.finish(&config.slo),
                overload: Some(governor.report()),
                alerts: AlertReport::default(),
                spans: None,
                serve_stats: ServeStats::default(),
            })
        }
        (overload, Some(observe)) => {
            let governor = governor(overload.as_ref().unwrap_or(&OverloadConfig::disabled()));
            let mut plane =
                ObservedSink::try_new(num_cores, config, observe, Some(governor.clone()))?;
            let mut wrapped = governor.sink(&mut plane);
            let metrics =
                simulator.run_stream(governor.gate(arrivals.into_iter()), scheduler, &mut wrapped);
            wrapped.finish();
            let plane = plane.finish(config);
            Ok(Outcome {
                metrics,
                report: plane.report,
                overload: overload.is_some().then(|| governor.report()),
                alerts: plane.alerts,
                spans: plane.spans,
                serve_stats: plane.serve_stats,
            })
        }
    }
}
