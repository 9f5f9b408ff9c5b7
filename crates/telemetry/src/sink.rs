//! `MetricsSink`: folds the simulator's typed event stream into
//! operational metrics as the run executes.
//!
//! The sink implements [`multicore_sim::TraceSink`], so it attaches to
//! [`Simulator::run_with_sink`](multicore_sim::Simulator) like any other
//! recorder — but instead of keeping the (potentially huge) raw stream it
//! aggregates on the fly:
//!
//! * **per-core time-series** at a configurable cycle interval: busy /
//!   idle / offline cycles and utilisation, idle-leakage energy, plus the
//!   window's arrivals, placements, completions, stall offers and
//!   episodes, evictions, faults, retries, fallbacks, net dynamic/static
//!   energy, and the ready-queue depth sampled at the window boundary;
//! * **run-wide histograms** (log-linear, bounded relative error) of job
//!   latency (completion − arrival), per-job energy (net of eviction and
//!   fault refunds, summed across retry attempts), and stall-episode
//!   duration (first stall offer to the placement that ends it);
//! * **run totals** mirroring the window counters.
//!
//! The sink is passive: it never influences the simulation, so a run
//! with a `MetricsSink` attached returns `RunMetrics` bit-identical to
//! the reference loop `hetero_oracles::sim::run_reference` — enforced by
//! property tests in `crates/bench/tests/telemetry_properties.rs` and
//! held within a gated cost budget by the `sim_metrics_overhead` stage
//! of `perf_pipeline`.
//!
//! Each event is folded once. A window accumulates its share of the
//! run in a [`RunTotals`] of its own, and one counter step updates the
//! run and the window together. An eviction and a fault both cut a
//! placement short, so one arm refunds the unexecuted share with the
//! simulator's own expression (`remaining / total`; a zero-cycle
//! placement refunds nothing), which keeps the net energies on the
//! ledger's bits. Idle stretches, idle spans and offline spans are
//! back-dated (charged when they end), and one clip step splits each
//! into the windows it overlaps; windows are addressed by index
//! (`at / interval`), which makes that back-fill exact.
//!
//! An [`TraceEvent::IdleAdvance`] carries the simulator's own idle-energy
//! ledger sum as the run total, so the sink's idle energy matches the
//! ledger to the bit without re-deriving it, and the advance costs the
//! sink one store. For the per-core window slots the sink tracks the
//! idle cores and their announced idle power itself ([`IdleCores`], fed
//! by placements, completions, evictions, faults, core transitions and
//! [`TraceEvent::IdlePower`]) and keeps one open idle stretch per idle
//! core, `(since, power)`. A stretch is charged to the windows it covers
//! when an event ends it or changes its power, so a core costs work only
//! when its own idle state moves, however many advances the stretch
//! spans. A power change splits the stretch at the simulator's clock as
//! the stream shows it (the latest advance's end or core event's
//! stamp): an announcement is stamped with the end of the advance it
//! precedes but applies from its start. The per-core
//! [`TraceEvent::IdleSpan`] charges its one core and adds its own product
//! to the total.

use crate::histogram::Histogram;
use multicore_sim::{DegradedComponent, FaultKind, IdleCores, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Sentinel for "job is not in a stall episode".
const NOT_STALLED: u64 = u64::MAX;

/// Per-job accounting, alive only while the job is in flight. Slots are
/// addressed by sequence number relative to `job_base` and retired on the
/// job's terminal event (completion or abandonment), so the table's size
/// tracks the number of jobs in flight — not the run length. That bound
/// is what lets a streaming run push tens of millions of jobs through one
/// sink in O(1) steady-state memory.
#[derive(Debug, Clone)]
struct JobSlot {
    /// Net energy charged so far, in nJ (refunds subtracted).
    energy_nj: f64,
    /// Stall-episode start, or [`NOT_STALLED`].
    stall_since: u64,
    /// Terminal event seen; the slot is waiting for front-compaction.
    retired: bool,
}

impl Default for JobSlot {
    fn default() -> Self {
        JobSlot {
            energy_nj: 0.0,
            stall_since: NOT_STALLED,
            retired: false,
        }
    }
}

/// Accumulator for one time window: the window's share of the run
/// counters, plus per-core slots as parallel arrays indexed by core.
#[derive(Debug, Clone, Default)]
struct WindowAcc {
    /// The window's counters and net busy energies (its per-core idle
    /// energy lives in `idle_energy_nj`).
    totals: RunTotals,
    /// Per core: cycles sat idle.
    idle_cycles: Vec<u64>,
    /// Per core: cycles offline, back-filled at recovery.
    offline_cycles: Vec<u64>,
    /// Per core: idle-leakage energy, in nJ.
    idle_energy_nj: Vec<f64>,
    /// Ready-queue depth at the window's end boundary, recorded
    /// chronologically; `None` until the stream passes the boundary.
    ready_depth_end: Option<u64>,
}

impl WindowAcc {
    /// This accumulator emptied for reuse, with zeroed slots for
    /// `num_cores` cores (allocating only if its slots were never sized).
    fn recycled(self, num_cores: usize) -> WindowAcc {
        let (mut idle_cycles, mut offline_cycles, mut idle_energy_nj) =
            (self.idle_cycles, self.offline_cycles, self.idle_energy_nj);
        idle_cycles.clear();
        idle_cycles.resize(num_cores, 0);
        offline_cycles.clear();
        offline_cycles.resize(num_cores, 0);
        idle_energy_nj.clear();
        idle_energy_nj.resize(num_cores, 0.0);
        WindowAcc {
            idle_cycles,
            offline_cycles,
            idle_energy_nj,
            ..WindowAcc::default()
        }
    }

    /// Core `core`'s `(idle cycles, offline cycles, idle energy)`; zero
    /// for a window that was never written.
    fn core(&self, core: usize) -> (u64, u64, f64) {
        (
            self.idle_cycles.get(core).copied().unwrap_or(0),
            self.offline_cycles.get(core).copied().unwrap_or(0),
            self.idle_energy_nj.get(core).copied().unwrap_or(0.0),
        )
    }
}

/// Run-wide event totals (the counters of every window summed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    /// Jobs that entered the ready queue.
    pub arrivals: u64,
    /// Executions started (including preemption grabs and retries).
    pub placements: u64,
    /// Jobs run to completion.
    pub completions: u64,
    /// Stall decisions returned by the policy (one per offer).
    pub stall_offers: u64,
    /// Distinct stall episodes (first offer after being placeable).
    pub stall_episodes: u64,
    /// Preemption evictions committed.
    pub evictions: u64,
    /// Preemption probes issued (granted or declined).
    pub preemption_probes: u64,
    /// Probes the policy accepted.
    pub preemptions_granted: u64,
    /// Injected faults that struck an execution.
    pub faults: u64,
    /// Retries scheduled after crash/watchdog failures.
    pub retries: u64,
    /// Jobs abandoned at the retry cap.
    pub abandoned: u64,
    /// Completions served by a degraded predictor stage.
    pub fallbacks: u64,
    /// Component availability transitions.
    pub degraded_transitions: u64,
    /// Offered arrivals refused by the admission governor (these jobs
    /// never entered the ready queue).
    pub sheds: u64,
    /// Net dynamic energy charged, in nJ (refunds subtracted).
    pub dynamic_nj: f64,
    /// Net busy-leakage energy charged, in nJ.
    pub static_nj: f64,
    /// Idle-leakage energy accrued, in nJ.
    pub idle_energy_nj: f64,
}

/// One core's slice of a finished [`SeriesPoint`].
#[derive(Debug, Clone, Copy)]
pub struct CorePoint {
    /// Cycles spent executing jobs in this window.
    pub busy_cycles: u64,
    /// Cycles sat idle (leakage only).
    pub idle_cycles: u64,
    /// Cycles offline (core-outage fault).
    pub offline_cycles: u64,
    /// Idle-leakage energy accrued in this window, in nJ.
    pub idle_energy_nj: f64,
    /// `busy / (busy + idle + offline)`; 0 for an empty window.
    pub utilisation: f64,
}

/// One window of the per-core time-series.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// Window index (`start = index * interval`).
    pub index: usize,
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered (truncated at the run's end for
    /// the final window).
    pub end: u64,
    /// Jobs that arrived in this window.
    pub arrivals: u64,
    /// Executions started.
    pub placements: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Stall offers.
    pub stall_offers: u64,
    /// Stall episodes opened.
    pub stall_episodes: u64,
    /// Evictions committed.
    pub evictions: u64,
    /// Preemption probes issued.
    pub preemption_probes: u64,
    /// Faults struck.
    pub faults: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Fallback-served completions.
    pub fallbacks: u64,
    /// Offered arrivals shed by the admission governor in this window.
    pub sheds: u64,
    /// Ready-queue depth at the window's end boundary.
    pub ready_depth: u64,
    /// Net dynamic energy charged in this window, in nJ (eviction and
    /// fault refunds land in the window of the refunding event, so a
    /// window can go negative — that is honest rate accounting).
    pub dynamic_nj: f64,
    /// Net busy-leakage energy charged, in nJ.
    pub static_nj: f64,
    /// Per-core breakdown.
    pub cores: Vec<CorePoint>,
}

impl SeriesPoint {
    /// Total energy charged in this window (dynamic + static + idle), nJ.
    pub fn energy_nj(&self) -> f64 {
        let idle: f64 = self.cores.iter().map(|c| c.idle_energy_nj).sum();
        self.dynamic_nj + self.static_nj + idle
    }

    /// Energy rate over the window, in nJ per cycle.
    pub fn energy_rate_nj_per_cycle(&self) -> f64 {
        let span = self.end.saturating_sub(self.start);
        if span == 0 {
            0.0
        } else {
            self.energy_nj() / span as f64
        }
    }

    /// Mean utilisation across cores.
    pub fn mean_utilisation(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.utilisation).sum::<f64>() / self.cores.len() as f64
    }
}

/// Everything a [`MetricsSink`] distilled from one run.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Time-series interval in cycles.
    pub interval: u64,
    /// Cores covered.
    pub num_cores: usize,
    /// Last event timestamp seen (the observed horizon).
    pub horizon: u64,
    /// The per-core time-series, one point per window, in time order.
    pub points: Vec<SeriesPoint>,
    /// Job latency (completion − arrival), in cycles.
    pub latency_cycles: Histogram,
    /// Per-job energy net of refunds, in nJ (rounded to integer nJ).
    pub job_energy_nj: Histogram,
    /// Stall-episode duration, in cycles.
    pub stall_cycles: Histogram,
    /// Run-wide counters.
    pub totals: RunTotals,
}

impl TelemetryReport {
    /// Whole-run utilisation per core (busy over covered cycles).
    pub fn per_core_utilisation(&self) -> Vec<f64> {
        let mut busy = vec![0u64; self.num_cores];
        let mut covered = vec![0u64; self.num_cores];
        for point in &self.points {
            let span = point.end.saturating_sub(point.start);
            for (core, acc) in point.cores.iter().enumerate() {
                busy[core] += acc.busy_cycles;
                covered[core] += span;
            }
        }
        busy.iter()
            .zip(&covered)
            .map(|(&b, &c)| if c == 0 { 0.0 } else { b as f64 / c as f64 })
            .collect()
    }

    /// Whole-run mean utilisation across cores.
    pub fn mean_utilisation(&self) -> f64 {
        let per_core = self.per_core_utilisation();
        if per_core.is_empty() {
            return 0.0;
        }
        per_core.iter().sum::<f64>() / per_core.len() as f64
    }
}

/// The folding sink. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    interval: u64,
    num_cores: usize,
    /// Live window accumulators; `windows[i]` covers global window index
    /// `window_base + i`. Windows below `window_base` were handed out by
    /// [`drain_points`](Self::drain_points) and may no longer be written.
    windows: VecDeque<WindowAcc>,
    /// Drained windows kept for reuse, so steady-state folding does not
    /// allocate window slots.
    spare: Vec<WindowAcc>,
    /// Global index of the first retained window (0 until drained).
    window_base: usize,
    /// Windows `[0, depth_recorded)` have their boundary depth sampled.
    depth_recorded: usize,
    /// `(depth_recorded + 1) * interval`, cached so the per-event cursor
    /// check in [`advance`](Self::advance) is a single compare.
    next_boundary: u64,
    /// Cached bounds of the most recently addressed window, so the
    /// common case (event in the same window as its predecessor) skips
    /// the `at / interval` division.
    cur_win: usize,
    cur_lo: u64,
    cur_hi: u64,
    ready: u64,
    /// Crash/watchdog retries waiting for their backoff to elapse.
    pending_ready: BinaryHeap<Reverse<u64>>,
    /// In-flight job slots; `jobs[i]` is sequence number `job_base + i`.
    jobs: VecDeque<JobSlot>,
    /// Sequence number of the first retained job slot.
    job_base: u64,
    /// Offline-transition cycle per core, while offline.
    core_offline_since: Vec<Option<u64>>,
    /// The idle cores and their announced idle power.
    idle: IdleCores,
    /// Per idle core: the open idle stretch, `(since, power)`, not yet
    /// charged to the windows.
    idle_since: Vec<Option<(u64, f64)>>,
    /// The simulator's clock as the stream shows it: the end of the
    /// latest advance or the stamp of the latest core event. An
    /// [`IdlePower`](TraceEvent::IdlePower) applies from here.
    clock: u64,
    latency: Histogram,
    job_energy_hist: Histogram,
    stall_hist: Histogram,
    totals: RunTotals,
    last_at: u64,
}

impl MetricsSink {
    /// A sink for `num_cores` cores, snapshotting the time-series every
    /// `interval_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles == 0`.
    pub fn new(num_cores: usize, interval_cycles: u64) -> Self {
        assert!(interval_cycles > 0, "interval must be positive");
        MetricsSink {
            interval: interval_cycles,
            num_cores,
            windows: VecDeque::new(),
            spare: Vec::new(),
            window_base: 0,
            depth_recorded: 0,
            next_boundary: interval_cycles,
            cur_win: 0,
            cur_lo: 0,
            cur_hi: interval_cycles,
            ready: 0,
            pending_ready: BinaryHeap::new(),
            jobs: VecDeque::new(),
            job_base: 0,
            core_offline_since: vec![None; num_cores],
            idle: IdleCores::new(num_cores),
            idle_since: vec![None; num_cores],
            clock: 0,
            latency: Histogram::new(),
            job_energy_hist: Histogram::new(),
            stall_hist: Histogram::new(),
            totals: RunTotals::default(),
            last_at: 0,
        }
    }

    /// Forget everything and prepare for another run (buffers are kept).
    pub fn reset(&mut self) {
        self.spare.extend(self.windows.drain(..));
        self.window_base = 0;
        self.depth_recorded = 0;
        self.next_boundary = self.interval;
        self.cur_win = 0;
        self.cur_lo = 0;
        self.cur_hi = self.interval;
        self.ready = 0;
        self.pending_ready.clear();
        self.jobs.clear();
        self.job_base = 0;
        self.core_offline_since.iter_mut().for_each(|c| *c = None);
        self.idle = IdleCores::new(self.num_cores);
        self.idle_since.iter_mut().for_each(|c| *c = None);
        self.clock = 0;
        self.latency.reset();
        self.job_energy_hist.reset();
        self.stall_hist.reset();
        self.totals = RunTotals::default();
        self.last_at = 0;
    }

    /// Run-wide counters accumulated so far.
    pub fn totals(&self) -> &RunTotals {
        &self.totals
    }

    /// Job-latency histogram accumulated so far.
    pub fn latency_cycles(&self) -> &Histogram {
        &self.latency
    }

    /// Per-job energy histogram accumulated so far.
    pub fn job_energy_nj(&self) -> &Histogram {
        &self.job_energy_hist
    }

    /// Stall-episode duration histogram accumulated so far.
    pub fn stall_cycles(&self) -> &Histogram {
        &self.stall_hist
    }

    /// Timestamp of the latest event folded so far.
    pub fn last_event_at(&self) -> u64 {
        self.last_at
    }

    /// Global index of the first window still retained (0 unless
    /// [`drain_points`](Self::drain_points) has handed earlier windows
    /// out).
    pub fn drained_below(&self) -> usize {
        self.window_base
    }

    /// Assemble the finished report: time-series points with derived
    /// utilisation, the three histograms, and the totals. Non-destructive
    /// — the sink can keep accumulating (or be [`reset`](Self::reset)).
    /// After a [`drain_points`](Self::drain_points) call the series covers
    /// only the retained tail; histograms and totals are always run-wide.
    pub fn report(&self) -> TelemetryReport {
        let window_count = (self.window_base + self.windows.len())
            .max((self.last_at / self.interval) as usize + usize::from(self.last_at > 0));
        let empty = WindowAcc::default();
        let points = (self.window_base..window_count)
            .map(|index| {
                let acc = self.windows.get(index - self.window_base).unwrap_or(&empty);
                let start = index as u64 * self.interval;
                let end = (start + self.interval).min(self.last_at.max(start));
                self.point(index, acc, end)
            })
            .collect();
        TelemetryReport {
            interval: self.interval,
            num_cores: self.num_cores,
            horizon: self.last_at,
            points,
            latency_cycles: self.latency.clone(),
            job_energy_nj: self.job_energy_hist.clone(),
            stall_cycles: self.stall_hist.clone(),
            totals: self.totals,
        }
    }

    /// Window accumulator for global index `idx`, growing the table as
    /// needed.
    #[inline]
    fn window_mut(&mut self, idx: usize) -> &mut WindowAcc {
        assert!(
            idx >= self.window_base,
            "event targets drained window {idx} (first retained: {})",
            self.window_base
        );
        let rel = idx - self.window_base;
        if rel >= self.windows.len() {
            self.grow_windows(rel + 1);
        }
        &mut self.windows[rel]
    }

    /// Retain `len` windows, taking new ones from the spare (drained)
    /// windows first. Kept out of line so the per-event lookup stays
    /// small enough to inline.
    #[inline(never)]
    fn grow_windows(&mut self, len: usize) {
        while self.windows.len() < len {
            let acc = self.spare.pop().unwrap_or_default();
            self.windows.push_back(acc.recycled(self.num_cores));
        }
    }

    /// Emit and discard every *finished* window strictly before cycle
    /// `before`, in time order — the streaming counterpart of
    /// [`report`](Self::report)'s series. Totals and histograms are
    /// untouched, so cumulative statistics survive; only the per-window
    /// series memory is released. This is what bounds a long run's sink
    /// to O(in-flight) state. The drained accumulators are kept and
    /// reused for later windows.
    ///
    /// The caller must guarantee that every event timestamped before the
    /// drained boundary has already been recorded. In a simulator run
    /// that holds for any `before <= last_event_at()` except right after
    /// an [`IdlePower`](TraceEvent::IdlePower): events are emitted in
    /// clock order and back-dated spans (idle back-fill, offline
    /// recovery) never start before the event that precedes them, but an
    /// announcement is stamped with the end of the advance it precedes,
    /// whose cycles are not final until that advance is recorded.
    /// Cores still offline or idle at the drain point have their outage
    /// or idle stretch overlaid onto the drained windows, and its start
    /// is advanced so the event that ends it back-fills only retained
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `before > last_event_at()` — those windows may still
    /// receive events.
    pub fn drain_points(&mut self, before: u64) -> Vec<SeriesPoint> {
        assert!(
            before <= self.last_at,
            "cannot drain windows at {before}: only cycles below {} are final",
            self.last_at
        );
        let limit = (before / self.interval) as usize;
        let mut points = Vec::with_capacity(limit.saturating_sub(self.window_base));
        while self.window_base < limit {
            let index = self.window_base;
            let acc = self.windows.pop_front().unwrap_or_default();
            self.window_base += 1;
            let end = (index as u64 + 1) * self.interval;
            points.push(self.point(index, &acc, end));
            // The point overlaid each still-offline core's outage and
            // each open idle stretch up to `end`: advance their starts
            // past it, so the back-fill when they end stays in retained
            // windows and nothing is double-counted.
            for since in self.core_offline_since.iter_mut().flatten() {
                *since = (*since).max(end);
            }
            for (since, _) in self.idle_since.iter_mut().flatten() {
                *since = (*since).max(end);
            }
            self.spare.push(acc);
        }
        points
    }

    /// The series point of window `index`, closed at `end` (the window's
    /// end, or the last event's cycle in a window still filling). A core
    /// still offline has no recovery event yet to back-fill its outage,
    /// and a core still idle no event yet to charge its stretch, so each
    /// is overlaid up to `end`.
    fn point(&self, index: usize, acc: &WindowAcc, end: u64) -> SeriesPoint {
        let start = index as u64 * self.interval;
        let span = end - start;
        let cores = (0..self.num_cores)
            .map(|core| {
                let (mut idle_cycles, mut offline, mut idle_energy_nj) = acc.core(core);
                if let Some(since) = self.core_offline_since[core] {
                    offline += overlap(since, end, start, end);
                }
                if let Some((since, power)) = self.idle_since[core] {
                    let cycles = overlap(since, end, start, end);
                    idle_cycles += cycles;
                    idle_energy_nj += power * cycles as f64;
                }
                let busy = span.saturating_sub(idle_cycles + offline);
                CorePoint {
                    busy_cycles: busy,
                    idle_cycles,
                    offline_cycles: offline,
                    idle_energy_nj,
                    utilisation: if span == 0 {
                        0.0
                    } else {
                        busy as f64 / span as f64
                    },
                }
            })
            .collect();
        let t = &acc.totals;
        SeriesPoint {
            index,
            start,
            end,
            arrivals: t.arrivals,
            placements: t.placements,
            completions: t.completions,
            stall_offers: t.stall_offers,
            stall_episodes: t.stall_episodes,
            evictions: t.evictions,
            preemption_probes: t.preemption_probes,
            faults: t.faults,
            retries: t.retries,
            fallbacks: t.fallbacks,
            sheds: t.sheds,
            ready_depth: acc.ready_depth_end.unwrap_or(self.ready),
            dynamic_nj: t.dynamic_nj,
            static_nj: t.static_nj,
            cores,
        }
    }

    /// Move retries whose backoff elapsed by `upto` into the ready count.
    #[inline]
    fn admit_ready(&mut self, upto: u64) {
        while let Some(&Reverse(t)) = self.pending_ready.peek() {
            if t > upto {
                break;
            }
            self.pending_ready.pop();
            self.ready += 1;
        }
    }

    /// Window index of `at`, via the cached bounds when possible.
    #[inline]
    fn window_index(&mut self, at: u64) -> usize {
        if at >= self.cur_lo && at < self.cur_hi {
            return self.cur_win;
        }
        let idx = (at / self.interval) as usize;
        self.cur_win = idx;
        self.cur_lo = idx as u64 * self.interval;
        self.cur_hi = self.cur_lo + self.interval;
        idx
    }

    /// Advance the chronological cursor to `at`: sample the ready-queue
    /// depth at every window boundary passed and admit elapsed retries.
    #[inline]
    fn advance(&mut self, at: u64) {
        while self.next_boundary <= at {
            // Depth at the boundary includes retries ready before it.
            self.admit_ready(self.next_boundary - 1);
            let ready = self.ready;
            let idx = self.depth_recorded;
            self.window_mut(idx).ready_depth_end = Some(ready);
            self.depth_recorded += 1;
            self.next_boundary += self.interval;
        }
        if !self.pending_ready.is_empty() {
            self.admit_ready(at);
        }
        if at > self.last_at {
            self.last_at = at;
        }
    }

    /// In-flight slot for job `seq`, growing the table to cover it.
    #[inline]
    fn job_slot(&mut self, seq: u64) -> &mut JobSlot {
        debug_assert!(
            seq >= self.job_base,
            "event for retired job {seq} (first live: {})",
            self.job_base
        );
        let idx = (seq - self.job_base) as usize;
        if idx >= self.jobs.len() {
            self.jobs.resize(idx + 1, JobSlot::default());
        }
        &mut self.jobs[idx]
    }

    /// Mark `seq` terminal and release every leading retired slot. Jobs
    /// complete roughly in arrival order, so the amortised cost is O(1)
    /// and the deque length stays at the in-flight job count.
    #[inline]
    fn retire_job(&mut self, seq: u64) {
        self.job_slot(seq).retired = true;
        while self.jobs.front().is_some_and(|slot| slot.retired) {
            self.jobs.pop_front();
            self.job_base += 1;
        }
    }

    /// Job slots currently held (in-flight jobs plus unretired stragglers)
    /// — the quantity the streaming memory bound is about.
    pub fn live_job_slots(&self) -> usize {
        self.jobs.len()
    }

    /// Apply one counter step to the run totals and to window `window`'s
    /// share of them.
    #[inline]
    fn count(&mut self, window: usize, step: impl Fn(&mut RunTotals)) {
        step(&mut self.totals);
        step(&mut self.window_mut(window).totals);
    }

    /// Clip the back-dated span `[from, to)` into the windows it
    /// overlaps, handing `charge` each window with the span's cycles in
    /// it. Window lookup goes through the cached bounds (a span usually
    /// sits inside one window).
    #[inline]
    fn clip(&mut self, from: u64, to: u64, charge: impl Fn(&mut WindowAcc, u64)) {
        let mut cursor = from;
        while cursor < to {
            let idx = self.window_index(cursor);
            let chunk = to.min(self.cur_hi) - cursor;
            charge(self.window_mut(idx), chunk);
            cursor += chunk;
        }
    }

    /// Charge `core` idle over `[from, to)` at `power` to the windows.
    #[inline]
    fn charge_idle(&mut self, core: usize, from: u64, to: u64, power: f64) {
        self.clip(from, to, |w, chunk| {
            w.idle_cycles[core] += chunk;
            w.idle_energy_nj[core] += power * chunk as f64;
        });
    }

    /// `core`'s idle power is `power` (`None`: not idle) from cycle
    /// `at`: if that moved it, charge its open stretch up to `at` and
    /// open the next one there.
    #[inline]
    fn set_idle(&mut self, core: usize, power: Option<f64>, at: u64) {
        let open = self.idle_since[core];
        if open.map(|(_, was)| was.to_bits()) == power.map(f64::to_bits) {
            return;
        }
        if let Some((since, was)) = open {
            self.charge_idle(core, since, at, was);
        }
        self.idle_since[core] = power.map(|power| (at, power));
    }
}

/// Cycles of `[a_from, a_to)` overlapping `[b_from, b_to)`.
fn overlap(a_from: u64, a_to: u64, b_from: u64, b_to: u64) -> u64 {
    let lo = a_from.max(b_from);
    let hi = a_to.min(b_to);
    hi.saturating_sub(lo)
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: TraceEvent) {
        let at = event.at();
        self.advance(at);
        if let Some((core, power)) = self.idle.observe(&event) {
            // An announcement applies from the start of the advance it
            // precedes, which is the clock; every other core event
            // happens at the clock.
            if !matches!(event, TraceEvent::IdlePower { .. }) {
                self.clock = at;
            }
            self.set_idle(core.0, power, self.clock);
        }
        // An idle advance only carries the run total, an idle span covers
        // earlier cycles and is clipped into windows, and an idle-power
        // announcement only updates the idle table: skip the shared
        // lookup.
        match event {
            TraceEvent::IdleAdvance { idle_total_nj, .. } => {
                // The run total is the simulator's, carried by the
                // advance; the open stretches are charged when they end.
                self.totals.idle_energy_nj = idle_total_nj;
                self.clock = at;
                return;
            }
            TraceEvent::IdleSpan {
                core,
                from,
                to,
                idle_power_nj_per_cycle: power,
            } => {
                self.charge_idle(core.0, from, to, power);
                self.totals.idle_energy_nj += power * (to - from) as f64;
                return;
            }
            TraceEvent::IdlePower { .. } => return,
            _ => {}
        }
        let window = self.window_index(at);
        match event {
            TraceEvent::Arrival { seq, .. } => {
                self.job_slot(seq);
                self.ready += 1;
                self.count(window, |t| t.arrivals += 1);
            }
            TraceEvent::IdleSpan { .. }
            | TraceEvent::IdleAdvance { .. }
            | TraceEvent::IdlePower { .. } => unreachable!("handled above"),
            TraceEvent::Placement {
                seq,
                at,
                dynamic_nj,
                static_nj,
                ..
            } => {
                let slot = self.job_slot(seq);
                slot.energy_nj += dynamic_nj + static_nj;
                let stall_since = slot.stall_since;
                if stall_since != NOT_STALLED {
                    slot.stall_since = NOT_STALLED;
                    self.stall_hist.record(at - stall_since);
                }
                self.ready = self.ready.saturating_sub(1);
                self.count(window, |t| {
                    t.placements += 1;
                    t.dynamic_nj += dynamic_nj;
                    t.static_nj += static_nj;
                });
            }
            TraceEvent::Stall { seq, at, .. } => {
                let slot = self.job_slot(seq);
                let opened = slot.stall_since == NOT_STALLED;
                if opened {
                    slot.stall_since = at;
                }
                self.count(window, |t| {
                    t.stall_offers += 1;
                    t.stall_episodes += u64::from(opened);
                });
            }
            TraceEvent::PreemptionProbe { granted, .. } => {
                self.count(window, |t| {
                    t.preemption_probes += 1;
                    t.preemptions_granted += u64::from(granted);
                });
            }
            // An eviction or a fault cuts a placement short: refund the
            // unexecuted share of its charge, as the simulator does.
            TraceEvent::Eviction {
                victim: seq,
                total_cycles,
                dynamic_nj,
                static_nj,
                ..
            }
            | TraceEvent::Fault {
                seq,
                total_cycles,
                dynamic_nj,
                static_nj,
                ..
            } => {
                // Evicted and outage victims requeue at once; crash and
                // watchdog victims park until their Retry re-admits them.
                let (remaining, requeued, evicted) = match event {
                    TraceEvent::Eviction {
                        remaining_cycles, ..
                    } => (remaining_cycles, true, true),
                    TraceEvent::Fault {
                        kind,
                        executed_cycles,
                        ..
                    } => (
                        total_cycles - executed_cycles,
                        kind == FaultKind::CoreOutage,
                        false,
                    ),
                    _ => unreachable!("matched an eviction or a fault"),
                };
                let fraction = if total_cycles == 0 {
                    0.0
                } else {
                    remaining as f64 / total_cycles as f64
                };
                let dynamic_refund = dynamic_nj * fraction;
                let static_refund = static_nj * fraction;
                self.job_slot(seq).energy_nj -= dynamic_refund + static_refund;
                self.ready += u64::from(requeued);
                self.count(window, |t| {
                    t.evictions += u64::from(evicted);
                    t.faults += u64::from(!evicted);
                    t.dynamic_nj -= dynamic_refund;
                    t.static_nj -= static_refund;
                });
            }
            TraceEvent::Completion {
                seq, at, arrival, ..
            } => {
                let energy_nj = self.job_slot(seq).energy_nj;
                self.latency.record(at - arrival);
                self.job_energy_hist.record_f64(energy_nj);
                self.retire_job(seq);
                self.count(window, |t| t.completions += 1);
            }
            TraceEvent::Retry {
                seq,
                ready_at,
                abandoned,
                ..
            } => {
                if abandoned {
                    self.retire_job(seq);
                    self.totals.abandoned += 1;
                } else {
                    self.count(window, |t| t.retries += 1);
                    self.pending_ready.push(Reverse(ready_at));
                }
            }
            TraceEvent::Fallback { .. } => self.count(window, |t| t.fallbacks += 1),
            // Shed jobs never entered the ready queue, so depth and
            // job-slot state are untouched: only the counters move.
            TraceEvent::Shed { .. } => self.count(window, |t| t.sheds += 1),
            TraceEvent::Degraded {
                at,
                component,
                online,
            } => {
                self.totals.degraded_transitions += 1;
                if let DegradedComponent::Core(core) = component {
                    if online {
                        if let Some(since) = self.core_offline_since[core.0].take() {
                            self.clip(since, at, |w, chunk| {
                                w.offline_cycles[core.0] += chunk;
                            });
                        }
                    } else {
                        self.core_offline_since[core.0] = Some(at);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::{CoreId, PlacementKind};
    use workloads::BenchmarkId;

    fn arrival(seq: u64, at: u64) -> TraceEvent {
        TraceEvent::Arrival {
            seq,
            benchmark: BenchmarkId(0),
            at,
            priority: 3,
        }
    }

    fn placement(seq: u64, core: usize, at: u64, cycles: u64, nj: f64) -> TraceEvent {
        TraceEvent::Placement {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(core),
            at,
            cycles,
            dynamic_nj: nj,
            static_nj: 0.0,
            kind: PlacementKind::Pass,
        }
    }

    fn completion(seq: u64, core: usize, at: u64, arrival: u64) -> TraceEvent {
        TraceEvent::Completion {
            seq,
            benchmark: BenchmarkId(0),
            core: CoreId(core),
            at,
            arrival,
            priority: 3,
        }
    }

    #[test]
    fn folds_a_simple_run_into_series_and_histograms() {
        let mut sink = MetricsSink::new(2, 100);
        sink.record(arrival(0, 10));
        sink.record(placement(0, 0, 10, 40, 5.0));
        sink.record(TraceEvent::IdleSpan {
            core: CoreId(1),
            from: 0,
            to: 150,
            idle_power_nj_per_cycle: 1.0,
        });
        sink.record(completion(0, 0, 50, 10));
        sink.record(arrival(1, 120));
        sink.record(placement(1, 0, 120, 40, 7.0));
        sink.record(completion(1, 0, 160, 120));

        let report = sink.report();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.totals.arrivals, 2);
        assert_eq!(report.totals.completions, 2);
        assert_eq!(report.latency_cycles.count(), 2);
        assert_eq!(report.latency_cycles.max(), 40);
        assert_eq!(report.job_energy_nj.quantile(1.0), 7);

        // Window 0: core 1 idle for its first 100 cycles.
        let w0 = &report.points[0];
        assert_eq!(w0.arrivals, 1);
        assert_eq!(w0.cores[1].idle_cycles, 100);
        assert!((w0.cores[1].idle_energy_nj - 100.0).abs() < 1e-9);
        // Ready depth at the cycle-100 boundary: job 0 placed, none waiting.
        assert_eq!(w0.ready_depth, 0);
        // Window 1 is truncated at the last event.
        let w1 = &report.points[1];
        assert_eq!(w1.end, 160);
        assert_eq!(w1.completions, 1);
        assert_eq!(w1.cores[1].idle_cycles, 50);
    }

    #[test]
    fn stall_episodes_measure_first_offer_to_placement() {
        let mut sink = MetricsSink::new(1, 1_000);
        sink.record(arrival(0, 0));
        sink.record(placement(0, 0, 0, 500, 1.0));
        sink.record(arrival(1, 10));
        for at in [10u64, 200, 400] {
            sink.record(TraceEvent::Stall {
                seq: 1,
                benchmark: BenchmarkId(0),
                at,
            });
        }
        sink.record(completion(0, 0, 500, 0));
        sink.record(placement(1, 0, 500, 100, 1.0));
        sink.record(completion(1, 0, 600, 10));

        let report = sink.report();
        assert_eq!(report.totals.stall_offers, 3);
        assert_eq!(report.totals.stall_episodes, 1);
        assert_eq!(report.stall_cycles.count(), 1);
        // One episode: first offer at 10, placed at 500.
        assert_eq!(report.stall_cycles.max(), 490);
    }

    #[test]
    fn eviction_refunds_reduce_job_energy_and_requeue() {
        let mut sink = MetricsSink::new(1, 1_000);
        sink.record(arrival(0, 0));
        sink.record(placement(0, 0, 0, 100, 10.0));
        sink.record(TraceEvent::Eviction {
            victim: 0,
            core: CoreId(0),
            at: 50,
            total_cycles: 100,
            remaining_cycles: 50,
            dynamic_nj: 10.0,
            static_nj: 0.0,
        });
        sink.record(placement(0, 0, 60, 100, 10.0));
        sink.record(completion(0, 0, 160, 0));

        let report = sink.report();
        assert_eq!(report.totals.evictions, 1);
        // 10 charged, 5 refunded, 10 charged again = 15 net.
        assert_eq!(report.job_energy_nj.max(), 15);
        assert!((report.totals.dynamic_nj - 15.0).abs() < 1e-9);
    }

    #[test]
    fn ready_depth_is_sampled_at_boundaries_with_retry_backoff() {
        let mut sink = MetricsSink::new(1, 100);
        sink.record(arrival(0, 10)); // depth 1
        sink.record(TraceEvent::Retry {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 20,
            attempt: 1,
            ready_at: 250,
            abandoned: false,
        });
        // The retry heap admits seq 0 again at cycle 250.
        sink.record(arrival(1, 320)); // depth becomes 2 + 1 = 3? No:
                                      // job 0 arrived (1), retried -> still counted ready (this
                                      // synthetic stream never placed it, so depth stays 1), the
                                      // pending retry adds another at 250, arrival 1 adds one.
        let report = sink.report();
        assert_eq!(report.points[0].ready_depth, 1, "boundary at 100");
        assert_eq!(report.points[1].ready_depth, 1, "boundary at 200");
        assert_eq!(
            report.points[2].ready_depth, 2,
            "boundary at 300: retry admitted"
        );
        assert_eq!(report.points[3].ready_depth, 3, "tail window: arrival 1");
    }

    #[test]
    fn completed_jobs_release_their_slots() {
        let mut sink = MetricsSink::new(1, 1_000);
        for seq in 0..100u64 {
            let at = seq * 10;
            sink.record(arrival(seq, at));
            sink.record(placement(seq, 0, at, 5, 1.0));
            sink.record(completion(seq, 0, at + 5, at));
            assert_eq!(sink.live_job_slots(), 0, "after job {seq} completed");
        }
        assert_eq!(sink.totals().completions, 100);
        assert_eq!(sink.latency_cycles().count(), 100);
    }

    #[test]
    fn out_of_order_completions_compact_lazily() {
        let mut sink = MetricsSink::new(2, 1_000);
        sink.record(arrival(0, 0));
        sink.record(arrival(1, 0));
        sink.record(placement(0, 0, 0, 100, 1.0));
        sink.record(placement(1, 1, 0, 50, 1.0));
        // Job 1 finishes first: slot 0 is still live, nothing pops.
        sink.record(completion(1, 1, 50, 0));
        assert_eq!(sink.live_job_slots(), 2);
        // Job 0 finishes: both slots release.
        sink.record(completion(0, 0, 100, 0));
        assert_eq!(sink.live_job_slots(), 0);
    }

    #[test]
    fn drain_points_matches_the_batch_report() {
        // Two identical event streams; one drained mid-run. The drained
        // prefix plus the tail report must equal the undrained report.
        let feed = |sink: &mut MetricsSink| {
            sink.record(arrival(0, 10));
            sink.record(placement(0, 0, 10, 40, 5.0));
            sink.record(TraceEvent::IdleSpan {
                core: CoreId(1),
                from: 0,
                to: 150,
                idle_power_nj_per_cycle: 1.0,
            });
            sink.record(completion(0, 0, 50, 10));
            sink.record(arrival(1, 260));
            sink.record(placement(1, 0, 260, 40, 7.0));
            sink.record(completion(1, 0, 300, 260));
        };
        let mut batch = MetricsSink::new(2, 100);
        feed(&mut batch);
        let expected = batch.report();

        let mut streamed = MetricsSink::new(2, 100);
        feed(&mut streamed);
        let drained = streamed.drain_points(200);
        assert_eq!(drained.len(), 2);
        assert_eq!(streamed.drained_below(), 2);
        let tail = streamed.report();
        // Windows 2 and 3 (the zero-span window opened at the 300-cycle
        // boundary) remain.
        assert_eq!(tail.points.len(), 2);

        let recombined: Vec<&SeriesPoint> = drained.iter().chain(tail.points.iter()).collect();
        assert_eq!(recombined.len(), expected.points.len());
        for (got, want) in recombined.iter().zip(expected.points.iter()) {
            assert_eq!(got.index, want.index);
            assert_eq!(got.start, want.start);
            assert_eq!(got.end, want.end);
            assert_eq!(got.arrivals, want.arrivals);
            assert_eq!(got.completions, want.completions);
            assert_eq!(got.ready_depth, want.ready_depth);
            assert_eq!(got.dynamic_nj.to_bits(), want.dynamic_nj.to_bits());
            for (gc, wc) in got.cores.iter().zip(want.cores.iter()) {
                assert_eq!(gc.busy_cycles, wc.busy_cycles);
                assert_eq!(gc.idle_cycles, wc.idle_cycles);
                assert_eq!(gc.offline_cycles, wc.offline_cycles);
                assert_eq!(gc.idle_energy_nj.to_bits(), wc.idle_energy_nj.to_bits());
            }
        }
        // Cumulative statistics are untouched by draining.
        assert_eq!(tail.totals, expected.totals);
        assert_eq!(tail.latency_cycles, expected.latency_cycles);
    }

    #[test]
    fn drain_covers_cores_still_offline_without_double_counting() {
        let offline_at_25 = |sink: &mut MetricsSink| {
            sink.record(arrival(0, 10));
            sink.record(placement(0, 0, 10, 240, 5.0));
            sink.record(TraceEvent::Degraded {
                at: 25,
                component: DegradedComponent::Core(CoreId(1)),
                online: false,
            });
            sink.record(completion(0, 0, 250, 10));
            // Core 1 recovers after the drain boundary.
            sink.record(TraceEvent::Degraded {
                at: 270,
                component: DegradedComponent::Core(CoreId(1)),
                online: true,
            });
            sink.record(arrival(1, 290));
            sink.record(placement(1, 0, 290, 10, 1.0));
            sink.record(completion(1, 0, 300, 290));
        };
        let mut batch = MetricsSink::new(2, 100);
        offline_at_25(&mut batch);
        let expected = batch.report();

        let mut streamed = MetricsSink::new(2, 100);
        streamed.record(arrival(0, 10));
        streamed.record(placement(0, 0, 10, 240, 5.0));
        streamed.record(TraceEvent::Degraded {
            at: 25,
            component: DegradedComponent::Core(CoreId(1)),
            online: false,
        });
        streamed.record(completion(0, 0, 250, 10));
        // Drain windows 0 and 1 while core 1 is still down.
        let drained = streamed.drain_points(200);
        streamed.record(TraceEvent::Degraded {
            at: 270,
            component: DegradedComponent::Core(CoreId(1)),
            online: true,
        });
        streamed.record(arrival(1, 290));
        streamed.record(placement(1, 0, 290, 10, 1.0));
        streamed.record(completion(1, 0, 300, 290));
        let tail = streamed.report();

        let recombined: Vec<&SeriesPoint> = drained.iter().chain(tail.points.iter()).collect();
        for (got, want) in recombined.iter().zip(expected.points.iter()) {
            assert_eq!(
                got.cores[1].offline_cycles, want.cores[1].offline_cycles,
                "window {}",
                want.index
            );
        }
        // Total outage: cycles 25..270 = 245, split 75 + 100 + 70.
        let outage: u64 = recombined.iter().map(|p| p.cores[1].offline_cycles).sum();
        assert_eq!(outage, 245);
    }

    fn idle_power(core: usize, at: u64, power: f64) -> TraceEvent {
        TraceEvent::IdlePower {
            core: CoreId(core),
            at,
            idle_power_nj_per_cycle: power,
        }
    }

    fn idle_advance(from: u64, to: u64, idle_total_nj: f64) -> TraceEvent {
        TraceEvent::IdleAdvance {
            from,
            to,
            idle_total_nj,
        }
    }

    /// Per core of window `index`: `(idle cycles, idle energy bits)`.
    fn idle_slots(report: &TelemetryReport, index: usize) -> Vec<(u64, u64)> {
        report.points[index]
            .cores
            .iter()
            .map(|c| (c.idle_cycles, c.idle_energy_nj.to_bits()))
            .collect()
    }

    #[test]
    fn announcements_sharing_a_stamp_apply_from_the_advance_start() {
        // Core 2 takes a job at 100; cores 0 and 1 are announced with
        // the stamp 300 of the advance [100, 300) they precede. Both are
        // idle from 100, not from their stamp.
        let mut sink = MetricsSink::new(3, 150);
        sink.record(arrival(0, 100));
        sink.record(placement(0, 2, 100, 400, 1.0));
        sink.record(idle_power(0, 300, 1.0));
        sink.record(idle_power(1, 300, 2.0));
        sink.record(idle_advance(100, 300, 600.0));
        let report = sink.report();
        assert_eq!(report.totals.idle_energy_nj, 600.0);
        let bits = f64::to_bits;
        assert_eq!(
            idle_slots(&report, 0),
            vec![(50, bits(50.0)), (50, bits(100.0)), (0, bits(0.0))]
        );
        assert_eq!(
            idle_slots(&report, 1),
            vec![(150, bits(150.0)), (150, bits(300.0)), (0, bits(0.0))]
        );
    }

    #[test]
    fn a_power_change_splits_an_idle_stretch_at_the_clock() {
        // Core 0 idles at 1 nJ/cycle over [0, 100), then at 3 nJ/cycle
        // over the advance [100, 250) whose announcement is stamped 250.
        let feed = |sink: &mut MetricsSink| {
            sink.record(idle_power(0, 100, 1.0));
            sink.record(idle_power(1, 100, 1.0));
            sink.record(idle_advance(0, 100, 200.0));
            sink.record(arrival(0, 100));
            sink.record(placement(0, 1, 100, 150, 1.0));
            sink.record(idle_power(0, 250, 3.0));
            sink.record(idle_advance(100, 250, 650.0));
            sink.record(completion(0, 1, 250, 100));
        };
        let bits = f64::to_bits;
        let mut sink = MetricsSink::new(2, 200);
        feed(&mut sink);
        let report = sink.report();
        assert_eq!(
            idle_slots(&report, 0),
            vec![(200, bits(100.0 + 300.0)), (100, bits(100.0))]
        );
        // Window [200, 250): core 0 stays on its new power, and core 1,
        // idle again from 250, has no idle cycles yet.
        assert_eq!(
            idle_slots(&report, 1),
            vec![(50, bits(150.0)), (0, bits(0.0))]
        );
        // A report in the middle overlays the open stretch at its power.
        let mut early = MetricsSink::new(2, 200);
        early.record(idle_power(0, 100, 1.0));
        early.record(idle_power(1, 100, 1.0));
        early.record(idle_advance(0, 100, 200.0));
        assert_eq!(
            idle_slots(&early.report(), 0),
            vec![(100, bits(100.0)), (100, bits(100.0))]
        );
    }

    #[test]
    #[should_panic(expected = "cannot drain")]
    fn draining_the_future_is_rejected() {
        let mut sink = MetricsSink::new(1, 100);
        sink.record(arrival(0, 10));
        let _ = sink.drain_points(500);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sink = MetricsSink::new(2, 100);
        sink.record(arrival(0, 10));
        sink.record(placement(0, 0, 10, 40, 5.0));
        sink.record(completion(0, 0, 50, 10));
        sink.reset();
        assert_eq!(sink.totals(), &RunTotals::default());
        assert!(sink.latency_cycles().is_empty());
        assert!(sink.report().points.is_empty());
        assert_eq!(sink.live_job_slots(), 0);
        assert_eq!(sink.drained_below(), 0);
    }
}
