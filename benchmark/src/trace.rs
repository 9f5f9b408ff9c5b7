//! The traced run's instrumentation: timing adapters over the program's
//! public traits, and the per-rep [`Tracer`] they report to.
//!
//! Every boundary (arrival `next`, admission, `schedule`, `on_complete`,
//! `idle_power_nj_per_cycle`, `TraceSink::record`) is counted on every
//! call and timed on a seeded sample of one call in [`SAMPLE_EVERY`], then
//! extrapolated; setup and finish blocks are timed whenever they run.
//! Timing every call is not an option: at 256 cores the loop emits ~420
//! events per job, and `paper` makes ~43M energy-centric `schedule` calls
//! per rep, where one timed call costs ~100 ns.
//!
//! The adapters' own cost is taken out where it lands. Inside a span, the
//! clock reads are measured in place: every timed call is preceded by an
//! empty span at the same boundary, and the layer's mean empty span is
//! subtracted from its spans. (An empty span timed in a tight loop reads
//! ~10% less than one taken between the simulator's calls, and at 1-in-64
//! sampling every nanosecond per span is ~7% of a 256-core rep.) Outside
//! spans, the bookkeeping of an untimed call and the cost a timed call adds
//! to its caller are calibrated ([`calibrate`]). A layer's self time is its
//! span minus the spans nested inside it; the simulator's own time is the
//! rep's wall time minus every top-level span and the instrumentation cost
//! outside spans.

use crate::stack::SystemKind;
use multicore_sim::{CoreId, CoreIndex, Decision, Job, Scheduler, TraceEvent, TraceSink};
use std::cell::{Cell, RefCell};
use std::time::Instant;
use workloads::Arrival;

/// One in this many high-frequency calls is timed, on average.
pub const SAMPLE_EVERY: u64 = 64;

/// Most spans kept in memory per workload run.
pub const SPAN_CAP: usize = 200_000;

/// A timed boundary, named after the crate behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Arrival generation (`workloads`).
    Workloads,
    /// The admission gate (`engine::overload`), excluding generation.
    Admission,
    /// `Scheduler::schedule` of one system (`core`).
    Schedule(SystemKind),
    /// `Scheduler::on_complete` of one system (`core`).
    OnComplete(SystemKind),
    /// `Scheduler::idle_power_nj_per_cycle`, any system (`core`).
    IdlePower,
    /// `EngineSink` fed directly by the loop or by the governor.
    SinkEngine,
    /// The governor's `OverloadSink`, excluding the sink it feeds.
    SinkOverload,
    /// The observability plane's `ObservedSink` (its engine sink and
    /// scrape polling included).
    SinkObserved,
    /// Closing the sinks' books after the loop ends.
    SinkFinish,
}

impl Layer {
    /// Number of distinct layers.
    pub const COUNT: usize = 15;

    /// Every layer, in index order.
    pub fn all() -> impl Iterator<Item = Layer> {
        [Layer::Workloads, Layer::Admission]
            .into_iter()
            .chain(SystemKind::ALL.map(Layer::Schedule))
            .chain(SystemKind::ALL.map(Layer::OnComplete))
            .chain([
                Layer::IdlePower,
                Layer::SinkEngine,
                Layer::SinkOverload,
                Layer::SinkObserved,
                Layer::SinkFinish,
            ])
    }

    /// Dense index.
    pub fn index(self) -> usize {
        match self {
            Layer::Workloads => 0,
            Layer::Admission => 1,
            Layer::Schedule(kind) => 2 + kind.index(),
            Layer::OnComplete(kind) => 6 + kind.index(),
            Layer::IdlePower => 10,
            Layer::SinkEngine => 11,
            Layer::SinkOverload => 12,
            Layer::SinkObserved => 13,
            Layer::SinkFinish => 14,
        }
    }

    /// Span name in the trace file.
    pub fn name(self) -> String {
        match self {
            Layer::Workloads => "workloads.next".to_string(),
            Layer::Admission => "admission.next".to_string(),
            Layer::Schedule(kind) => format!("core.{}.schedule", kind.name()),
            Layer::OnComplete(kind) => format!("core.{}.on_complete", kind.name()),
            Layer::IdlePower => "core.idle_power".to_string(),
            Layer::SinkEngine => "sink.engine".to_string(),
            Layer::SinkOverload => "sink.overload".to_string(),
            Layer::SinkObserved => "sink.observed".to_string(),
            Layer::SinkFinish => "sink.finish".to_string(),
        }
    }
}

/// Accumulated cost of one layer over a rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls that were timed.
    timed: u64,
    /// Timed calls that had no timed parent.
    top_timed: u64,
    busy_ns: f64,
    self_ns: f64,
    /// Busy time of the spans that had no timed parent.
    top_ns: f64,
    /// Empty spans taken at this boundary, and their summed length.
    empties: u64,
    empty_ns: f64,
}

impl LayerTotals {
    /// Timed sums are scaled by calls / timed calls.
    fn scale(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.calls as f64 / self.timed as f64
        }
    }

    /// Estimated time inside the layer, nested layers included, in s.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns * self.scale() * 1e-9
    }

    /// Estimated time inside the layer itself, in s.
    pub fn self_s(&self) -> f64 {
        self.self_ns * self.scale() * 1e-9
    }

    /// Estimated time of the layer's top-level spans, in s.
    fn top_s(&self) -> f64 {
        self.top_ns * self.scale() * 1e-9
    }

    /// Mean length of an empty span at this boundary, in ns.
    fn empty_mean_ns(&self) -> f64 {
        if self.empties == 0 {
            0.0
        } else {
            self.empty_ns / self.empties as f64
        }
    }
}

/// The adapters' costs outside spans on this host, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    /// Added to the caller by one counted, timed call: the empty span, the
    /// bookkeeping and the parts of the clock reads outside the span.
    pub child_ns: f64,
    /// One counted call left untimed (count and sample countdown).
    pub count_ns: f64,
}

/// One kept span. `parent` is the enclosing timed layer (`None`: the
/// simulator loop or the rep itself); `job_seq` ties the spans of one job.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// Start, in ns since the workload run began.
    pub start_ns: u64,
    /// Duration, instrumentation cost subtracted, in ns.
    pub dur_ns: u64,
    /// Enclosing timed layer.
    pub parent: Option<Layer>,
    /// The job the call was about, when it names one.
    pub job_seq: Option<u64>,
}

struct Frame {
    layer: Layer,
    start: Instant,
    /// Summed durations of the timed children.
    child_ns: f64,
    children: u32,
}

/// What the tracer saw over one rep.
#[derive(Debug, Default)]
pub struct RepTrace {
    /// Per-layer totals, by [`Layer::index`].
    totals: [LayerTotals; Layer::COUNT],
    /// Trace events the simulator emitted.
    pub events: u64,
    /// Of which idle spans.
    pub idle_spans: u64,
    /// `Decision::Run` answers per system, by [`SystemKind::index`].
    pub runs: [u64; 4],
    /// Duration of every timed proposed-system `schedule` call, in ns.
    pub proposed_schedule_ns: Vec<f64>,
    /// Kept spans.
    pub spans: Vec<Span>,
    calibration: Calibration,
}

impl RepTrace {
    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Estimated cost of the instrumentation outside spans, in s: the
    /// bookkeeping of untimed calls and what each top-level timed call
    /// adds around its span.
    pub fn instrumentation_s(&self) -> f64 {
        let cal = self.calibration;
        let outside_ns: f64 = self
            .totals
            .iter()
            .map(|t| (t.calls - t.timed) as f64 * cal.count_ns + t.top_timed as f64 * cal.child_ns)
            .sum();
        outside_ns * 1e-9
    }

    /// The simulator loop's own time in a rep of `wall_s`: what no
    /// top-level span and no instrumentation outside spans accounts for.
    /// Negative when the spans over-claim the rep.
    pub fn sim_self_s(&self, wall_s: f64) -> f64 {
        let top_s: f64 = self.totals.iter().map(LayerTotals::top_s).sum();
        wall_s - top_s - self.instrumentation_s()
    }

    /// Mean empty span over every boundary, in ns.
    pub fn empty_span_ns(&self) -> f64 {
        let (count, sum) = self
            .totals
            .iter()
            .fold((0, 0.0), |(c, s), t| (c + t.empties, s + t.empty_ns));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

/// Collects spans and counts for one rep. Single-threaded: the adapters
/// share it by reference.
///
/// A call made while no adapter call is in progress is timed on a seeded
/// sample; a call nested in another follows it, timed exactly when its
/// caller is, so a layer's self time subtracts the same calls it was
/// measured with.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rng: Cell<u64>,
    /// Top-level calls left before the next sampled one.
    countdown: Cell<u64>,
    /// Adapter calls in progress, and whether the innermost is timed.
    depth: Cell<u32>,
    timing: Cell<bool>,
    /// Calls per layer, by [`Layer::index`].
    calls: [Cell<u64>; Layer::COUNT],
    events: Cell<u64>,
    idle_spans: Cell<u64>,
    span_budget: usize,
    frames: RefCell<Vec<Frame>>,
    trace: RefCell<RepTrace>,
}

impl Tracer {
    /// A tracer that records nothing (untraced reps).
    pub fn disabled() -> Self {
        Self::with(false, Instant::now(), Calibration::default(), 0, 0)
    }

    /// An active tracer. `epoch` anchors span timestamps, `calibration`
    /// is subtracted outside spans, `seed` drives sampling and at most
    /// `span_budget` spans are kept.
    pub fn new(epoch: Instant, calibration: Calibration, seed: u64, span_budget: usize) -> Self {
        Self::with(true, epoch, calibration, seed, span_budget)
    }

    fn with(
        enabled: bool,
        epoch: Instant,
        calibration: Calibration,
        seed: u64,
        span_budget: usize,
    ) -> Self {
        let tracer = Tracer {
            enabled,
            epoch,
            rng: Cell::new(seed),
            countdown: Cell::new(0),
            depth: Cell::new(0),
            timing: Cell::new(false),
            calls: Default::default(),
            events: Cell::new(0),
            idle_spans: Cell::new(0),
            span_budget,
            frames: RefCell::new(Vec::with_capacity(8)),
            trace: RefCell::new(RepTrace {
                calibration,
                ..RepTrace::default()
            }),
        };
        tracer.countdown.set(tracer.gap());
        tracer
    }

    /// The rep's record.
    pub fn finish(self) -> RepTrace {
        let mut trace = self.trace.into_inner();
        for (totals, calls) in trace.totals.iter_mut().zip(&self.calls) {
            totals.calls = calls.get();
        }
        trace.events = self.events.get();
        trace.idle_spans = self.idle_spans.get();
        trace
    }

    /// A seeded gap between sampled calls, uniform in
    /// `1..2 * SAMPLE_EVERY` (SplitMix64), so one call in [`SAMPLE_EVERY`]
    /// is sampled on average and no call pattern aliases with the sample.
    fn gap(&self) -> u64 {
        let state = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(state);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + (z ^ (z >> 31)) % (2 * SAMPLE_EVERY - 1)
    }

    /// Whether this top-level call is sampled.
    #[inline(always)]
    fn sample(&self) -> bool {
        let left = self.countdown.get() - 1;
        if left == 0 {
            self.countdown.set(self.gap());
            true
        } else {
            self.countdown.set(left);
            false
        }
    }

    #[inline(never)]
    fn enter(&self, layer: Layer) {
        self.frames.borrow_mut().push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0.0,
            children: 0,
        });
    }

    /// An empty span at `layer`'s boundary: what the clock reads and the
    /// bookkeeping inside a span cost here.
    #[inline(never)]
    fn empty(&self, layer: Layer) {
        self.enter(layer);
        let end = Instant::now();
        let frame = self
            .frames
            .borrow_mut()
            .pop()
            .expect("the frame just entered");
        let totals = &mut self.trace.borrow_mut().totals[layer.index()];
        totals.empties += 1;
        totals.empty_ns += (end - frame.start).as_nanos() as f64;
    }

    /// Close the innermost span; returns its duration in ns and keeps it
    /// in the span list while the budget lasts.
    #[inline(never)]
    fn exit(&self, job_seq: Option<u64>) -> f64 {
        let end = Instant::now();
        let mut frames = self.frames.borrow_mut();
        let frame = frames.pop().expect("exit matches an enter");
        let mut trace = self.trace.borrow_mut();
        let cal = trace.calibration;
        let totals = &mut trace.totals[frame.layer.index()];
        let raw = (end - frame.start).as_nanos() as f64;
        let dur =
            (raw - totals.empty_mean_ns() - f64::from(frame.children) * cal.child_ns).max(0.0);
        let parent = frames.last_mut().map(|parent| {
            parent.child_ns += dur;
            parent.children += 1;
            parent.layer
        });
        totals.timed += 1;
        totals.busy_ns += dur;
        totals.self_ns += (dur - frame.child_ns).max(0.0);
        if parent.is_none() {
            totals.top_timed += 1;
            totals.top_ns += dur;
        }
        if trace.spans.len() < self.span_budget {
            trace.spans.push(Span {
                layer: frame.layer,
                start_ns: (frame.start - self.epoch).as_nanos() as u64,
                dur_ns: dur as u64,
                parent,
                job_seq,
            });
        }
        dur
    }

    /// One call of `layer`: counted, and timed when sampled (`always`:
    /// whenever it is not nested in an untimed call). Returns the call's
    /// duration in ns when it was timed. Inlined, so the call compiles as
    /// it does untraced; the bookkeeping of a timed call stays out of line.
    #[inline(always)]
    fn call<R>(
        &self,
        layer: Layer,
        job_seq: Option<u64>,
        always: bool,
        f: impl FnOnce() -> R,
    ) -> (R, Option<f64>) {
        let calls = &self.calls[layer.index()];
        calls.set(calls.get() + 1);
        let depth = self.depth.get();
        let timed = if depth == 0 {
            always || self.sample()
        } else {
            self.timing.get()
        };
        self.depth.set(depth + 1);
        let outer = self.timing.replace(timed);
        let result = if timed {
            self.empty(layer);
            self.enter(layer);
            let result = f();
            (result, Some(self.exit(job_seq)))
        } else {
            (f(), None)
        };
        self.timing.set(outer);
        self.depth.set(depth);
        result
    }

    /// Time `f` as one call of `layer` (a no-op wrapper when disabled).
    pub fn block<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.call(layer, None, true, f).0
    }
}

/// Measure the adapters' costs outside spans (medians of five batches): a
/// timed call as its caller sees it, and a top-level sink event left
/// untimed.
pub fn calibrate() -> Calibration {
    const CALLS: u32 = 20_000;
    let tracer = Tracer::new(Instant::now(), Calibration::default(), 1, 0);
    let self_ns = |layer: Layer| tracer.trace.borrow().totals[layer.index()].self_ns;
    let mut child = Vec::new();
    let mut count = Vec::new();
    for _ in 0..5 {
        // A parent around one empty child: the parent's self time is what
        // the child's instrumentation adds to it.
        let before = self_ns(Layer::Admission);
        for _ in 0..CALLS {
            tracer.block(Layer::Admission, || {
                tracer.call(Layer::Workloads, None, false, || ())
            });
        }
        child.push((self_ns(Layer::Admission) - before) / f64::from(CALLS));

        // The sample never fires while the countdown is this high.
        tracer.countdown.set(u64::MAX);
        let mut null = multicore_sim::NullSink;
        let mut sink = TimedSink::<_, true>::new(&mut null, &tracer, Layer::SinkEngine);
        let start = Instant::now();
        for _ in 0..CALLS {
            sink.record(std::hint::black_box(TraceEvent::IdleSpan {
                core: CoreId(0),
                from: 0,
                to: 1,
                idle_power_nj_per_cycle: 0.0,
            }));
        }
        count.push(start.elapsed().as_nanos() as f64 / f64::from(CALLS));
        tracer.countdown.set(tracer.gap());
    }
    Calibration {
        child_ns: crate::stats::median(&mut child),
        count_ns: crate::stats::median(&mut count),
    }
}

/// A `Scheduler` adapter counting and sampling `schedule`, `on_complete`
/// and `idle_power_nj_per_cycle`.
pub struct Timed<'a, S: Scheduler + ?Sized> {
    inner: &'a mut S,
    tracer: &'a Tracer,
    kind: SystemKind,
}

impl<'a, S: Scheduler + ?Sized> Timed<'a, S> {
    /// Wrap `inner`, reporting as `kind`.
    pub fn new(inner: &'a mut S, tracer: &'a Tracer, kind: SystemKind) -> Self {
        Timed {
            inner,
            tracer,
            kind,
        }
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Timed<'_, S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        let inner = &mut self.inner;
        let (decision, ns) =
            self.tracer
                .call(Layer::Schedule(self.kind), Some(job.seq), false, || {
                    inner.schedule(job, cores, now)
                });
        let mut trace = self.tracer.trace.borrow_mut();
        if matches!(decision, Decision::Run { .. }) {
            trace.runs[self.kind.index()] += 1;
        }
        if let (SystemKind::Proposed, Some(ns)) = (self.kind, ns) {
            trace.proposed_schedule_ns.push(ns);
        }
        decision
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.tracer
            .call(Layer::IdlePower, None, false, || {
                self.inner.idle_power_nj_per_cycle(core)
            })
            .0
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        let inner = &mut self.inner;
        self.tracer
            .call(Layer::OnComplete(self.kind), Some(job.seq), false, || {
                inner.on_complete(job, core, now)
            });
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// The job an event is about, in the simulator's admitted-job numbering.
fn event_seq(event: &TraceEvent) -> Option<u64> {
    match *event {
        TraceEvent::Arrival { seq, .. }
        | TraceEvent::Placement { seq, .. }
        | TraceEvent::Stall { seq, .. }
        | TraceEvent::Completion { seq, .. } => Some(seq),
        _ => None,
    }
}

/// A `TraceSink` adapter. With `ON = false` it forwards and compiles away;
/// with `ON = true` it counts every event and times a sample. The events
/// the simulator emits are those reaching a sink at the top level.
pub struct TimedSink<'a, T: TraceSink + ?Sized, const ON: bool> {
    inner: &'a mut T,
    tracer: &'a Tracer,
    layer: Layer,
}

impl<'a, T: TraceSink + ?Sized, const ON: bool> TimedSink<'a, T, ON> {
    /// Wrap `inner`, reporting as `layer`.
    pub fn new(inner: &'a mut T, tracer: &'a Tracer, layer: Layer) -> Self {
        TimedSink {
            inner,
            tracer,
            layer,
        }
    }
}

impl<T: TraceSink + ?Sized, const ON: bool> TraceSink for TimedSink<'_, T, ON> {
    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        if !ON {
            self.inner.record(event);
            return;
        }
        let tracer = self.tracer;
        if tracer.depth.get() == 0 {
            tracer.events.set(tracer.events.get() + 1);
            if matches!(event, TraceEvent::IdleSpan { .. }) {
                tracer.idle_spans.set(tracer.idle_spans.get() + 1);
            }
        }
        let inner = &mut self.inner;
        tracer.call(self.layer, event_seq(&event), false, || inner.record(event));
    }

    #[inline(always)]
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

/// An arrival-iterator adapter counting and sampling `next` when `ON`.
pub struct TimedIter<'a, I, const ON: bool> {
    inner: I,
    tracer: &'a Tracer,
    layer: Layer,
}

impl<'a, I, const ON: bool> TimedIter<'a, I, ON> {
    /// Wrap `inner`, reporting as `layer`.
    pub fn new(inner: I, tracer: &'a Tracer, layer: Layer) -> Self {
        TimedIter {
            inner,
            tracer,
            layer,
        }
    }
}

impl<I: Iterator<Item = Arrival>, const ON: bool> Iterator for TimedIter<'_, I, ON> {
    type Item = Arrival;

    #[inline(always)]
    fn next(&mut self) -> Option<Arrival> {
        if !ON {
            return self.inner.next();
        }
        let inner = &mut self.inner;
        self.tracer.call(self.layer, None, false, || inner.next()).0
    }
}
