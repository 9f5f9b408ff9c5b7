//! JSON export of flight-recorder event traces.
//!
//! Converts the [`TraceEvent`] stream recorded by
//! [`multicore_sim::RecordingSink`] into the same hand-rolled
//! [`Json`] documents the experiment binaries persist
//! under `results/`, so traces can be inspected (or diffed across commits)
//! without any external tooling. Events serialise with their exact `f64`
//! operands — a trace file is sufficient to re-run the ledger audit.

use crate::json::Json;
use multicore_sim::{DegradedComponent, PlacementKind, TraceEvent};
use std::collections::BTreeMap;

/// One event as a flat JSON object. The `kind` field carries the stable
/// name from [`TraceEvent::kind_name`]; the remaining keys depend on the
/// kind.
pub fn event_to_json(event: &TraceEvent) -> Json {
    let mut pairs: Vec<(&'static str, Json)> = vec![("kind", Json::str(event.kind_name()))];
    match *event {
        TraceEvent::Arrival {
            seq,
            benchmark,
            at,
            priority,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("priority", Json::UInt(u64::from(priority))));
        }
        TraceEvent::IdleSpan {
            core,
            from,
            to,
            idle_power_nj_per_cycle,
        } => {
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("from", Json::UInt(from)));
            pairs.push(("to", Json::UInt(to)));
            pairs.push((
                "idle_power_nj_per_cycle",
                Json::Num(idle_power_nj_per_cycle),
            ));
        }
        TraceEvent::IdleAdvance {
            from,
            to,
            idle_total_nj,
        } => {
            pairs.push(("from", Json::UInt(from)));
            pairs.push(("to", Json::UInt(to)));
            pairs.push(("idle_total_nj", Json::Num(idle_total_nj)));
        }
        TraceEvent::IdlePower {
            core,
            at,
            idle_power_nj_per_cycle,
        } => {
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push((
                "idle_power_nj_per_cycle",
                Json::Num(idle_power_nj_per_cycle),
            ));
        }
        TraceEvent::Placement {
            seq,
            benchmark,
            core,
            at,
            cycles,
            dynamic_nj,
            static_nj,
            kind,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("cycles", Json::UInt(cycles)));
            pairs.push(("dynamic_nj", Json::Num(dynamic_nj)));
            pairs.push(("static_nj", Json::Num(static_nj)));
            pairs.push((
                "placement",
                Json::str(match kind {
                    PlacementKind::Pass => "pass",
                    PlacementKind::Preemption => "preemption",
                }),
            ));
        }
        TraceEvent::Stall { seq, benchmark, at } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
        }
        TraceEvent::PreemptionProbe {
            seq,
            victim,
            core,
            at,
            granted,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("victim", Json::UInt(victim)));
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("granted", Json::Bool(granted)));
        }
        TraceEvent::Eviction {
            victim,
            core,
            at,
            total_cycles,
            remaining_cycles,
            dynamic_nj,
            static_nj,
        } => {
            pairs.push(("victim", Json::UInt(victim)));
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("total_cycles", Json::UInt(total_cycles)));
            pairs.push(("remaining_cycles", Json::UInt(remaining_cycles)));
            pairs.push(("dynamic_nj", Json::Num(dynamic_nj)));
            pairs.push(("static_nj", Json::Num(static_nj)));
        }
        TraceEvent::Completion {
            seq,
            benchmark,
            core,
            at,
            arrival,
            priority,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("arrival", Json::UInt(arrival)));
            pairs.push(("priority", Json::UInt(u64::from(priority))));
        }
        TraceEvent::Fault {
            seq,
            benchmark,
            core,
            at,
            kind,
            total_cycles,
            executed_cycles,
            dynamic_nj,
            static_nj,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("core", Json::UInt(core.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("fault", Json::str(kind.name())));
            pairs.push(("total_cycles", Json::UInt(total_cycles)));
            pairs.push(("executed_cycles", Json::UInt(executed_cycles)));
            pairs.push(("dynamic_nj", Json::Num(dynamic_nj)));
            pairs.push(("static_nj", Json::Num(static_nj)));
        }
        TraceEvent::Retry {
            seq,
            benchmark,
            at,
            attempt,
            ready_at,
            abandoned,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("attempt", Json::UInt(u64::from(attempt))));
            pairs.push(("ready_at", Json::UInt(ready_at)));
            pairs.push(("abandoned", Json::Bool(abandoned)));
        }
        TraceEvent::Fallback {
            seq,
            benchmark,
            at,
            level,
        } => {
            pairs.push(("seq", Json::UInt(seq)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("level", Json::str(level.name())));
        }
        TraceEvent::Shed {
            offered,
            benchmark,
            at,
            priority,
            reason,
        } => {
            pairs.push(("offered", Json::UInt(offered)));
            pairs.push(("benchmark", Json::UInt(benchmark.0 as u64)));
            pairs.push(("at", Json::UInt(at)));
            pairs.push(("priority", Json::UInt(u64::from(priority))));
            pairs.push(("reason", Json::str(reason.name())));
        }
        TraceEvent::Degraded {
            at,
            component,
            online,
        } => {
            pairs.push(("at", Json::UInt(at)));
            match component {
                DegradedComponent::Core(core) => {
                    pairs.push(("component", Json::str("core")));
                    pairs.push(("core", Json::UInt(core.0 as u64)));
                }
                DegradedComponent::Predictor(health) => {
                    pairs.push(("component", Json::str("predictor")));
                    pairs.push(("health", Json::str(health.name())));
                }
            }
            pairs.push(("online", Json::Bool(online)));
        }
    }
    Json::object(pairs)
}

/// Per-kind event counts, in stable (alphabetical) key order.
pub fn kind_counts(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for event in events {
        *counts.entry(event.kind_name()).or_insert(0) += 1;
    }
    counts
}

/// A full trace document: identifying metadata, per-kind counts, and the
/// complete event stream.
pub fn trace_document(system: &str, discipline: &str, seed: u64, events: &[TraceEvent]) -> Json {
    Json::object([
        ("experiment", Json::str("trace")),
        ("system", Json::str(system)),
        ("discipline", Json::str(discipline)),
        ("seed", Json::UInt(seed)),
        ("events_total", Json::UInt(events.len() as u64)),
        (
            "events_by_kind",
            Json::object(
                kind_counts(events)
                    .into_iter()
                    .map(|(kind, count)| (kind, Json::UInt(count))),
            ),
        ),
        (
            "events",
            Json::Array(events.iter().map(event_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::CoreId;
    use workloads::BenchmarkId;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival {
                seq: 0,
                benchmark: BenchmarkId(2),
                at: 0,
                priority: 1,
            },
            TraceEvent::Placement {
                seq: 0,
                benchmark: BenchmarkId(2),
                core: CoreId(1),
                at: 0,
                cycles: 50,
                dynamic_nj: 1.5,
                static_nj: 0.25,
                kind: PlacementKind::Pass,
            },
            TraceEvent::Completion {
                seq: 0,
                benchmark: BenchmarkId(2),
                core: CoreId(1),
                at: 50,
                arrival: 0,
                priority: 1,
            },
        ]
    }

    #[test]
    fn events_serialise_with_kind_and_operands() {
        let events = sample_events();
        let text = event_to_json(&events[1]).to_pretty();
        assert!(text.contains("\"kind\": \"placement\""), "{text}");
        assert!(text.contains("\"dynamic_nj\": 1.5"), "{text}");
        assert!(text.contains("\"placement\": \"pass\""), "{text}");
    }

    #[test]
    fn document_counts_by_kind() {
        let events = sample_events();
        let counts = kind_counts(&events);
        assert_eq!(counts["arrival"], 1);
        assert_eq!(counts["placement"], 1);
        assert_eq!(counts["completion"], 1);
        let doc = trace_document("proposed", "fifo", 42, &events).to_pretty();
        assert!(doc.contains("\"events_total\": 3"), "{doc}");
        assert!(doc.contains("\"seed\": 42"), "{doc}");
    }

    #[test]
    fn empty_trace_documents_are_well_formed() {
        // A zero-job run records no events; the document must still
        // render and parse back without panicking.
        let doc = trace_document("base", "fifo", 7, &[]);
        let parsed = Json::parse(&doc.to_pretty()).expect("empty trace parses");
        assert_eq!(parsed.get("events_total").and_then(Json::as_u64), Some(0));
        assert_eq!(
            parsed
                .get("events")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(0)
        );
        assert_eq!(kind_counts(&[]).len(), 0);
    }

    #[test]
    fn fault_events_round_trip_through_the_parser() {
        use multicore_sim::{FallbackLevel, FaultKind, PredictorHealth};
        let events = vec![
            TraceEvent::Fault {
                seq: 3,
                benchmark: BenchmarkId(1),
                core: CoreId(2),
                at: 500,
                kind: FaultKind::Crash,
                total_cycles: 400,
                executed_cycles: 120,
                dynamic_nj: 1.25,
                static_nj: 0.5,
            },
            TraceEvent::Retry {
                seq: 3,
                benchmark: BenchmarkId(1),
                at: 500,
                attempt: 1,
                ready_at: 20_500,
                abandoned: false,
            },
            TraceEvent::Fallback {
                seq: 4,
                benchmark: BenchmarkId(0),
                at: 900,
                level: FallbackLevel::Knn,
            },
            TraceEvent::Degraded {
                at: 1_000,
                component: DegradedComponent::Core(CoreId(3)),
                online: false,
            },
            TraceEvent::Degraded {
                at: 1_500,
                component: DegradedComponent::Predictor(PredictorHealth::AnnDown),
                online: false,
            },
        ];
        let doc = trace_document("proposed", "fifo", 9, &events);
        let parsed = Json::parse(&doc.to_pretty()).expect("fault trace parses");
        let rows = parsed.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), events.len());
        assert_eq!(rows[0].get("fault").and_then(Json::as_str), Some("crash"));
        assert_eq!(
            rows[0].get("executed_cycles").and_then(Json::as_u64),
            Some(120)
        );
        assert_eq!(rows[1].get("ready_at").and_then(Json::as_u64), Some(20_500));
        assert_eq!(rows[2].get("level").and_then(Json::as_str), Some("knn"));
        assert_eq!(
            rows[3].get("component").and_then(Json::as_str),
            Some("core")
        );
        assert_eq!(
            rows[4].get("health").and_then(Json::as_str),
            Some("ann_down")
        );
        let by_kind = parsed.get("events_by_kind").unwrap();
        assert_eq!(by_kind.get("degraded").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn truncated_trace_documents_fail_with_a_typed_error() {
        use crate::json::JsonError;
        let text = trace_document("proposed", "fifo", 42, &sample_events()).to_pretty();
        // The document is pure ASCII, so any byte offset is a char
        // boundary.
        let truncated = &text[..text.len() * 2 / 3];
        match Json::parse(truncated) {
            Err(
                JsonError::UnexpectedEof { .. }
                | JsonError::UnexpectedChar { .. }
                | JsonError::InvalidNumber { .. },
            ) => {}
            other => panic!("expected a typed parse error, got {other:?}"),
        }
    }
}
