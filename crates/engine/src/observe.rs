//! The live observability plane: burn-rate alerting, causal span
//! assembly, and the HTTP scrape endpoint, wired around a governed
//! streaming run.
//!
//! A [`run`](crate::run) whose [`RunSpec`](crate::RunSpec) has an
//! `observe` section puts an [`ObservedSink`] between the overload
//! governor and the [`EngineSink`]: every forwarded event still lands in
//! the engine sink first (identical folding, so a fully disabled plane
//! is bit-invisible — property-tested in `crates/bench`), and then, when
//! enabled,
//!
//! * a [`BurnEngine`] folds completions into multi-window SLO burn
//!   rates, with `pending → firing → resolved` transitions recorded as
//!   timeline marks and (optionally) translated into a serving-tier
//!   floor via [`GovernorHandle::set_alert_floor`] — a sustained p99
//!   burn browns the service out, and resolution lifts the floor;
//! * a [`SpanAssembler`] folds the same events into per-job lifecycle
//!   and per-core occupancy spans for the Perfetto export in
//!   `hetero-bench`;
//! * a [`ScrapeServer`] is polled at snapshot boundaries (never per
//!   event), answering `/metrics` (Prometheus text exposition from the
//!   live [`MetricsSink`](hetero_telemetry::MetricsSink)), `/health`
//!   (alert and tier state), and `/snapshot` (the snapshot ring's tail)
//!   without blocking the simulation loop.
//!
//! Building the plane checks its configuration and binds the scrape
//! port up front: [`ObservedSink::try_new`] reports a tier floor without
//! a governor or an unbindable port as an [`EngineError`].
//!
//! See DESIGN.md §16 for the architecture and the burn-rate math.

use crate::engine::{EngineConfig, EngineReport, EngineSink};
use crate::overload::{GovernorHandle, OverloadReport};
use crate::runner::EngineError;
use crate::serve::{Response, ScrapeServer, ServeStats};
use hetero_telemetry::{AlertState, AlertTransition, BurnEngine, BurnRateRule, SpanAssembler};
use multicore_sim::{ServingTier, TraceEvent, TraceSink};
use std::fmt::Write as _;

/// What the observability plane should run. Everything defaults off;
/// [`ObserveConfig::disabled`] is the bit-invisible configuration.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// Burn-rate alert rules evaluated over completion latencies.
    pub rules: Vec<BurnRateRule>,
    /// Assemble causal job/core spans (export-path memory: grows with
    /// the trace).
    pub assemble_spans: bool,
    /// While any rule fires, impose this serving-tier floor on the
    /// governor (lifted on resolve). `None` leaves the ladder alone.
    pub alert_tier_floor: Option<ServingTier>,
    /// Bind the scrape endpoint on `127.0.0.1:port` (`Some(0)` picks a
    /// free port).
    pub serve_port: Option<u16>,
}

impl ObserveConfig {
    /// Every plane component off.
    pub fn disabled() -> Self {
        ObserveConfig::default()
    }

    /// `true` when any component is on.
    pub fn enabled(&self) -> bool {
        !self.rules.is_empty() || self.assemble_spans || self.serve_port.is_some()
    }
}

/// One rule's end-of-run outcome.
#[derive(Debug, Clone)]
pub struct AlertRuleOutcome {
    /// Rule name.
    pub name: String,
    /// State at the horizon.
    pub state: AlertState,
    /// Final (fast, slow) window burn rates.
    pub burn_rates: (f64, f64),
}

/// What the alerting component saw over the run.
#[derive(Debug, Clone, Default)]
pub struct AlertReport {
    /// Per-rule outcomes, in rule order.
    pub rules: Vec<AlertRuleOutcome>,
    /// Every state transition, in evaluation order.
    pub transitions: Vec<AlertTransition>,
    /// `pending → firing` transitions over the run.
    pub fired: u64,
    /// `firing → inactive` resolutions over the run.
    pub resolved: u64,
}

impl AlertReport {
    /// Names of rules still firing at the horizon.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .filter(|rule| rule.state == AlertState::Firing)
            .map(|rule| rule.name.as_str())
            .collect()
    }
}

/// A [`TraceSink`] wrapping an [`EngineSink`] with the observability
/// plane. Feed it through an
/// [`OverloadSink`](crate::overload::OverloadSink) so shed events reach
/// the span assembler too.
#[derive(Debug)]
pub struct ObservedSink {
    engine: EngineSink,
    burn: Option<BurnEngine>,
    assembler: Option<SpanAssembler>,
    server: Option<ScrapeServer>,
    /// Governor to floor while alerts fire (with the configured floor).
    governor: Option<(GovernorHandle, ServingTier)>,
    seen_transitions: usize,
    /// Scrape-poll cadence in cycles (the engine's snapshot span).
    poll_cycles: u64,
    next_poll: u64,
}

impl ObservedSink {
    /// [`try_new`](Self::try_new) for callers that treat a bad
    /// configuration as a bug.
    ///
    /// # Panics
    ///
    /// Panics if a tier floor is configured without a governor, if a
    /// burn-rate rule is malformed, or if the scrape port cannot be
    /// bound.
    pub fn new(
        num_cores: usize,
        config: &EngineConfig,
        observe: &ObserveConfig,
        governor: Option<GovernorHandle>,
    ) -> Self {
        Self::try_new(num_cores, config, observe, governor).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Build the plane around a fresh [`EngineSink`]. `governor` is
    /// required only when [`ObserveConfig::alert_tier_floor`] is set.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidEngineConfig`] when `config` fails
    /// [`EngineConfig::validate`];
    /// [`EngineError::InvalidBurnRule`] when a rule fails
    /// [`BurnRateRule::validate`]; [`EngineError::FloorWithoutGovernor`]
    /// when a tier floor is configured without a governor;
    /// [`EngineError::Bind`] when the scrape port cannot be bound.
    pub fn try_new(
        num_cores: usize,
        config: &EngineConfig,
        observe: &ObserveConfig,
        governor: Option<GovernorHandle>,
    ) -> Result<Self, EngineError> {
        config
            .validate()
            .map_err(|problem| EngineError::InvalidEngineConfig { problem })?;
        crate::runner::check_rules(&observe.rules)?;
        let governor = match (observe.alert_tier_floor, governor) {
            (Some(floor), Some(handle)) => Some((handle, floor)),
            (Some(_), None) => return Err(EngineError::FloorWithoutGovernor),
            (None, _) => None,
        };
        let server = observe
            .serve_port
            .map(|port| {
                ScrapeServer::bind(port).map_err(|source| EngineError::Bind { port, source })
            })
            .transpose()?;
        let burn = (!observe.rules.is_empty())
            .then(|| BurnEngine::new(config.window_cycles, observe.rules.clone()));
        Ok(ObservedSink {
            engine: EngineSink::new(num_cores, config),
            burn,
            assembler: observe.assemble_spans.then(SpanAssembler::new),
            server,
            governor,
            seen_transitions: 0,
            poll_cycles: config.snapshot_cycles(),
            next_poll: config.snapshot_cycles(),
        })
    }

    /// The scrape address, when serving.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(ScrapeServer::addr)
    }

    /// Answer pending scrapes now (also called automatically at every
    /// snapshot boundary).
    pub fn poll_server(&mut self) -> usize {
        let Some(mut server) = self.server.take() else {
            return 0;
        };
        let engine = &self.engine;
        let burn = self.burn.as_ref();
        let governor = self.governor.as_ref().map(|(handle, _)| handle);
        let handled = server.poll(&mut |path| respond(path, engine, burn, governor));
        self.server = Some(server);
        handled
    }

    /// Fold any alert transitions that fired since the last event into
    /// timeline marks and the governor floor.
    fn apply_transitions(&mut self) {
        let Some(burn) = &self.burn else { return };
        let fresh = burn.transitions_since(self.seen_transitions);
        if fresh.is_empty() {
            return;
        }
        let fresh: Vec<AlertTransition> = fresh.to_vec();
        self.seen_transitions += fresh.len();
        let firing = burn.any_firing();
        if let Some(assembler) = &mut self.assembler {
            for transition in &fresh {
                assembler.note_alert(transition.at, &transition.name, transition.to.name());
            }
        }
        if let Some((governor, floor)) = &self.governor {
            // A no-op unless the floor moves.
            let at = fresh.last().expect("non-empty").at;
            let target = if firing { *floor } else { ServingTier::Full };
            governor.set_alert_floor(at, target);
        }
    }

    /// Finish the run at the horizon: close the engine report, the
    /// span assembler, and the alert books.
    pub fn finish(mut self, config: &EngineConfig) -> ObservedPlaneOutcome {
        let alerts = match &mut self.burn {
            Some(burn) => {
                let rules: Vec<AlertRuleOutcome> = burn
                    .rules()
                    .enumerate()
                    .map(|(index, rule)| AlertRuleOutcome {
                        name: rule.name.clone(),
                        state: burn.state(index),
                        burn_rates: burn.burn_rates(index),
                    })
                    .collect();
                AlertReport {
                    rules,
                    transitions: burn.transitions().to_vec(),
                    fired: burn.fired(),
                    resolved: burn.resolved(),
                }
            }
            None => AlertReport::default(),
        };
        let horizon = self.engine.metrics().last_event_at();
        if let Some(assembler) = &mut self.assembler {
            assembler.finish(horizon);
        }
        self.poll_server();
        let serve_stats = self
            .server
            .as_ref()
            .map(ScrapeServer::stats)
            .unwrap_or_default();
        ObservedPlaneOutcome {
            report: self.engine.finish(&config.slo),
            alerts,
            spans: self.assembler,
            serve_stats,
            server: self.server,
        }
    }
}

/// The plane-side pieces of a finished observed run (the caller adds
/// `RunMetrics` and the overload report).
#[derive(Debug)]
pub struct ObservedPlaneOutcome {
    /// The engine report.
    pub report: EngineReport,
    /// Burn-rate alert outcomes.
    pub alerts: AlertReport,
    /// Assembled spans, when enabled.
    pub spans: Option<SpanAssembler>,
    /// Scrape counters.
    pub serve_stats: ServeStats,
    /// The still-bound server, when serving.
    pub server: Option<ScrapeServer>,
}

impl TraceSink for ObservedSink {
    fn record(&mut self, event: TraceEvent) {
        let at = event.at();
        self.engine.record(event);
        if let Some(assembler) = &mut self.assembler {
            assembler.record(event);
        }
        if let Some(burn) = &mut self.burn {
            if let TraceEvent::Completion { at, arrival, .. } = event {
                burn.observe_completion(at, at.saturating_sub(arrival));
            } else {
                burn.advance(at);
            }
            if burn.transitions().len() != self.seen_transitions {
                self.apply_transitions();
            }
        }
        if self.server.is_some() && at >= self.next_poll {
            // Snapshot-boundary cadence, skipping quiet gaps in one step.
            let spans_past = (at - self.next_poll) / self.poll_cycles + 1;
            self.next_poll += spans_past * self.poll_cycles;
            self.poll_server();
        }
    }
}

/// Route one scrape request against the live engine state.
fn respond(
    path: &str,
    engine: &EngineSink,
    burn: Option<&BurnEngine>,
    governor: Option<&GovernorHandle>,
) -> Option<Response> {
    match path {
        "/metrics" => Some(Response::prometheus(
            engine.metrics().report().prometheus("engine"),
        )),
        "/health" => Some(Response::json(health_body(
            engine,
            burn,
            governor.map(GovernorHandle::report).as_ref(),
        ))),
        "/snapshot" => Some(Response::json(snapshot_body(engine))),
        _ => None,
    }
}

/// The `/health` body: overall status, progress counters, per-rule
/// alert states, and the governor's tier view when present. Plain JSON,
/// hand-formatted (this crate deliberately has no JSON dependency).
pub fn health_body(
    engine: &EngineSink,
    burn: Option<&BurnEngine>,
    overload: Option<&OverloadReport>,
) -> String {
    let totals = engine.metrics().totals();
    let firing = burn.is_some_and(BurnEngine::any_firing);
    let degraded = overload.is_some_and(|report| report.final_tier != ServingTier::Full);
    let status = if firing {
        "alerting"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"status\": \"{status}\", \"horizon_cycles\": {}, \"completions\": {}, \"sheds\": {}",
        engine.metrics().last_event_at(),
        totals.completions,
        totals.sheds,
    );
    if let Some(burn) = burn {
        out.push_str(", \"alerts\": [");
        for (index, rule) in burn.rules().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let (fast, slow) = burn.burn_rates(index);
            let _ = write!(
                out,
                "{{\"rule\": \"{}\", \"state\": \"{}\", \"fast_burn\": {:.3}, \"slow_burn\": {:.3}}}",
                json_escape(&rule.name),
                burn.state(index).name(),
                fast,
                slow,
            );
        }
        out.push(']');
    }
    if let Some(report) = overload {
        let _ = write!(
            out,
            ", \"tier\": \"{}\", \"alert_floor\": \"{}\", \"shed\": {}",
            report.final_tier.name(),
            report.alert_floor.name(),
            report.shed(),
        );
    }
    out.push('}');
    out
}

/// The `/snapshot` body: ring length and the most recent snapshot (or
/// `null` before the first boundary closes).
pub fn snapshot_body(engine: &EngineSink) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"emitted\": {}, \"retained\": {}, \"latest\": ",
        engine.snapshots_emitted(),
        engine.snapshots().len(),
    );
    match engine.snapshots().last() {
        Some(snap) => {
            let _ = write!(
                out,
                "{{\"index\": {}, \"start\": {}, \"end\": {}, \"arrivals\": {}, \
                 \"completions\": {}, \"sheds\": {}, \"ready_depth\": {}, \
                 \"p50_latency_cycles\": {}, \"p99_latency_cycles\": {}, \
                 \"energy_nj\": {:.3}, \"mean_utilisation\": {:.6}, \
                 \"throughput_jobs_per_mcycle\": {:.6}, \
                 \"cumulative_completions\": {}}}",
                snap.index,
                snap.start,
                snap.end,
                snap.arrivals,
                snap.completions,
                snap.sheds,
                snap.ready_depth,
                snap.p50_latency_cycles,
                snap.p99_latency_cycles,
                snap.energy_nj,
                snap.mean_utilisation,
                snap.throughput_jobs_per_mcycle(),
                snap.cumulative_completions,
            );
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

fn json_escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloPolicy;
    use crate::{Outcome, OverloadConfig, RunSpec};
    use energy_model::EnergyBreakdown;
    use multicore_sim::{CoreIndex, Decision, Job, JobExecution, Scheduler, Simulator};
    use std::io::{Read as _, Write as _};
    use workloads::{Arrival, OpenLoop};

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

        fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 {
            1.0
        }
    }

    fn engine_config() -> EngineConfig {
        EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 16,
            slo: SloPolicy::default(),
        }
    }

    /// An observed run of `FirstIdle` under a disabled governor.
    fn observed(
        simulator: &Simulator,
        arrivals: impl IntoIterator<Item = Arrival>,
        observe: ObserveConfig,
    ) -> Result<Outcome, EngineError> {
        let spec = RunSpec {
            engine: engine_config(),
            overload: Some(OverloadConfig::disabled()),
            observe: Some(observe),
            tier: None,
        };
        crate::run(simulator, arrivals, &mut FirstIdle, &spec)
    }

    #[test]
    fn observed_run_assembles_spans_that_conserve_jobs() {
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let outcome = observed(
            &Simulator::new(4),
            OpenLoop::poisson(20.0, 20, 5).take(500),
            observe,
        )
        .expect("no port to bind");
        let spans = outcome.spans.expect("spans assembled");
        assert_eq!(spans.arrivals(), 500);
        assert_eq!(spans.completed(), 500);
        assert_eq!(spans.open_jobs(), 0);
        // Every job contributes exactly one queued + one running span.
        let running = spans
            .job_spans()
            .iter()
            .filter(|span| span.phase == hetero_telemetry::JobPhase::Running)
            .count();
        assert_eq!(running, 500);
    }

    #[test]
    fn sustained_burn_fires_floors_the_tier_and_resolves() {
        // Budget 1 cycle of latency: every completion is "bad", so the
        // burn rate saturates and the paging rule must fire; after the
        // stream ends the alert stays firing (no quiet windows), so this
        // drives the floor engagement path.
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", 1)],
            alert_tier_floor: Some(ServingTier::Distilled),
            ..ObserveConfig::disabled()
        };
        let outcome = observed(
            &Simulator::new(2),
            OpenLoop::poisson(50.0, 20, 9).take(4_000),
            observe,
        )
        .expect("no port to bind");
        assert!(outcome.alerts.fired >= 1, "{:?}", outcome.alerts);
        assert_eq!(outcome.alerts.firing(), vec!["p99-latency"]);
        let overload = outcome.overload.expect("governed");
        assert_eq!(overload.alert_floor, ServingTier::Distilled);
        assert!(overload.alert_floor_engagements >= 1);
        assert_eq!(overload.final_tier, ServingTier::Distilled);
        assert!(overload.tier_transitions >= 1);
    }

    #[test]
    fn a_healthy_run_never_fires() {
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", u64::MAX / 2)],
            alert_tier_floor: Some(ServingTier::Distilled),
            ..ObserveConfig::disabled()
        };
        let outcome = observed(
            &Simulator::new(4),
            OpenLoop::poisson(20.0, 20, 3).take(2_000),
            observe,
        )
        .expect("no port to bind");
        assert_eq!(outcome.alerts.fired, 0);
        assert!(outcome.alerts.transitions.is_empty());
        let overload = outcome.overload.expect("governed");
        assert_eq!(overload.alert_floor, ServingTier::Full);
        assert_eq!(overload.alert_floor_engagements, 0);
        assert_eq!(overload.final_tier, ServingTier::Full);
    }

    #[test]
    fn scrape_endpoints_answer_during_a_live_run() {
        let observe = ObserveConfig {
            rules: vec![BurnRateRule::paging("p99-latency", 100_000)],
            serve_port: Some(0),
            ..ObserveConfig::disabled()
        };
        let mut plane = ObservedSink::new(
            2,
            &engine_config(),
            &observe,
            Some(GovernorHandle::new(&OverloadConfig::disabled(), 2, None)),
        );
        let addr = plane.serve_addr().expect("server bound");
        let fetch = move |path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .expect("write");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read");
            out
        };
        // Drive a couple of jobs through the sink so there is state.
        let simulator = Simulator::new(2);
        let metrics = simulator.run_stream(
            OpenLoop::poisson(20.0, 20, 1).take(300),
            &mut FirstIdle,
            &mut plane,
        );
        assert_eq!(metrics.jobs_completed, 300);
        // Request all three endpoints, then poll explicitly (the run is
        // over, so no boundary will poll for us).
        let clients: Vec<std::thread::JoinHandle<String>> = ["/metrics", "/health", "/snapshot"]
            .into_iter()
            .map(|path| {
                let path = path.to_string();
                std::thread::spawn(move || fetch(&path))
            })
            .collect();
        let mut handled = 0;
        for _ in 0..200 {
            handled += plane.poll_server();
            if handled >= 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(handled, 3);
        let replies: Vec<String> = clients
            .into_iter()
            .map(|client| client.join().expect("client"))
            .collect();
        let metrics_reply = replies
            .iter()
            .find(|r| r.contains("# TYPE"))
            .expect("metrics");
        assert!(
            metrics_reply.contains("sched_completions_total"),
            "{metrics_reply}"
        );
        let health = replies
            .iter()
            .find(|r| r.contains("\"status\""))
            .expect("health");
        assert!(health.contains("\"completions\": 300"), "{health}");
        assert!(health.contains("\"alerts\": ["), "{health}");
        let snapshot = replies
            .iter()
            .find(|r| r.contains("\"emitted\""))
            .expect("snapshot");
        assert!(snapshot.contains("\"latest\": {"), "{snapshot}");
        let outcome = plane.finish(&engine_config());
        assert_eq!(outcome.serve_stats.served, 3);
    }

    #[test]
    fn health_and_snapshot_bodies_are_well_formed_when_empty() {
        let plane = ObservedSink::new(2, &engine_config(), &ObserveConfig::disabled(), None);
        let health = health_body(&plane.engine, None, None);
        assert!(health.starts_with("{\"status\": \"ok\""), "{health}");
        let snapshot = snapshot_body(&plane.engine);
        assert!(snapshot.contains("\"latest\": null"), "{snapshot}");
        assert!(snapshot.starts_with('{') && snapshot.ends_with('}'));
    }

    #[test]
    fn a_taken_scrape_port_is_a_bind_error() {
        let held = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let port = held.local_addr().expect("bound").port();
        let observe = ObserveConfig {
            serve_port: Some(port),
            ..ObserveConfig::disabled()
        };
        let result = observed(
            &Simulator::new(2),
            OpenLoop::poisson(20.0, 20, 1).take(10),
            observe,
        );
        match result {
            Err(EngineError::Bind { port: failed, .. }) => assert_eq!(failed, port),
            other => panic!("expected a bind error, got {other:?}"),
        }
    }

    #[test]
    fn a_floor_without_a_governor_is_a_config_error() {
        let observe = ObserveConfig {
            alert_tier_floor: Some(ServingTier::Distilled),
            ..ObserveConfig::disabled()
        };
        let result = ObservedSink::try_new(2, &engine_config(), &observe, None);
        assert!(matches!(result, Err(EngineError::FloorWithoutGovernor)));
    }

    #[test]
    fn an_overflowing_snapshot_span_is_a_plane_config_error() {
        let config = EngineConfig {
            window_cycles: 1 << 63,
            snapshot_windows: 2,
            ..engine_config()
        };
        let result = ObservedSink::try_new(2, &config, &ObserveConfig::disabled(), None);
        assert!(matches!(
            result,
            Err(EngineError::InvalidEngineConfig { problem }) if problem.contains("overflows")
        ));
    }
}
