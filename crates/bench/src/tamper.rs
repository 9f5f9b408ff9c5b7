//! Single-site trace tampering: the one list of mutations that the
//! `audit` bin's self-test and the audit property suite apply to recorded
//! traces. Each perturbs exactly one accounting site in a copy of the
//! trace, and [`LedgerAuditor::check`](multicore_sim::LedgerAuditor::check)
//! must reject every tampered stream.

use multicore_sim::TraceEvent;

/// A single-site trace perturbation; `None` when the trace has no event
/// of the targeted kind.
pub type Mutation = fn(&[TraceEvent]) -> Option<Vec<TraceEvent>>;

/// Every mutation, by name.
pub const MUTATIONS: [(&str, Mutation); 14] = [
    ("drop first arrival", |e| drop_first(e, "arrival")),
    ("drop first idle advance", |e| drop_first(e, "idle_advance")),
    ("drop first idle-power announcement", |e| {
        drop_first(e, "idle_power")
    }),
    ("drop first placement", |e| drop_first(e, "placement")),
    ("drop first stall offer", |e| drop_first(e, "stall")),
    ("drop first eviction", |e| drop_first(e, "eviction")),
    ("drop first completion", |e| drop_first(e, "completion")),
    ("drop last completion", |events| {
        let index = events.iter().rposition(|e| e.kind_name() == "completion")?;
        let mut tampered = events.to_vec();
        tampered.remove(index);
        Some(tampered)
    }),
    ("inflate a placement's dynamic energy", |events| {
        edit_first(events, |e| match e {
            TraceEvent::Placement { dynamic_nj, .. } => {
                *dynamic_nj += 0.5;
                true
            }
            _ => false,
        })
    }),
    ("double a placement's static energy", |events| {
        edit_first(events, |e| match e {
            TraceEvent::Placement { static_nj, .. } => {
                *static_nj *= 2.0;
                true
            }
            _ => false,
        })
    }),
    ("discount an announced idle power", |events| {
        edit_first(events, |e| match e {
            TraceEvent::IdlePower {
                idle_power_nj_per_cycle,
                ..
            } => {
                *idle_power_nj_per_cycle *= 0.5;
                true
            }
            _ => false,
        })
    }),
    ("stretch an idle advance", |events| {
        edit_first(events, |e| match e {
            TraceEvent::IdleAdvance { to, .. } => {
                *to += 1;
                true
            }
            _ => false,
        })
    }),
    ("forge an eviction's remaining cycles", |events| {
        edit_first(events, |e| match e {
            TraceEvent::Eviction {
                remaining_cycles, ..
            } => {
                *remaining_cycles += 1;
                true
            }
            _ => false,
        })
    }),
    ("shift a completion's timestamp", |events| {
        edit_first(events, |e| match e {
            TraceEvent::Completion { at, .. } => {
                *at += 1;
                true
            }
            _ => false,
        })
    }),
];

/// `events` without the first event of `kind` (a
/// [`TraceEvent::kind_name`]).
fn drop_first(events: &[TraceEvent], kind: &str) -> Option<Vec<TraceEvent>> {
    let index = events.iter().position(|e| e.kind_name() == kind)?;
    let mut tampered = events.to_vec();
    tampered.remove(index);
    Some(tampered)
}

/// `events` with `edit` applied to the first event it accepts.
fn edit_first(events: &[TraceEvent], edit: fn(&mut TraceEvent) -> bool) -> Option<Vec<TraceEvent>> {
    let mut tampered = events.to_vec();
    tampered.iter_mut().any(edit).then_some(tampered)
}
