//! Span profiler: nestable timed scopes for the offline pipeline.
//!
//! A [`SpanRecorder`] hands out RAII [`Span`] guards; dropping a guard
//! stamps the elapsed wall time into the recorder. Guards nest — a span
//! opened while another is live is recorded one level deeper — and the
//! finished profile renders as an indented tree:
//!
//! ```text
//! oracle_build                 412.8 ms
//!   oracle_characterise        409.1 ms
//! predictor_train              233.4 ms
//!   predictor_dataset            1.2 ms
//!   predictor_bagging          219.0 ms
//!   predictor_memoize           13.1 ms
//! ```
//!
//! The recorder also implements
//! [`hetero_core::StageObserver`], so it plugs straight into the
//! observed variants of the oracle build and predictor training.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still-open) span, in start order.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Scope name.
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Elapsed wall time in nanoseconds (0 while still open).
    pub nanos: u128,
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<SpanRecord>,
    /// Indices into `records` of the currently-open spans, innermost
    /// last, with each span's start instant.
    open: Vec<(usize, Instant)>,
    /// Close calls that arrived with no span open (observer bugs);
    /// counted instead of panicking so a misbehaving stage can't poison
    /// the profile of the rest of the run.
    unmatched_closes: u64,
}

/// Collects nested timed scopes. Interior-mutable so guards only need a
/// shared reference; spans must close in LIFO order (RAII guarantees
/// this for scoped guards).
#[derive(Debug, Default)]
pub struct SpanRecorder {
    inner: RefCell<Inner>,
}

impl SpanRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// Open a scope; the returned guard records it when dropped.
    ///
    /// ```
    /// use hetero_telemetry::SpanRecorder;
    ///
    /// let recorder = SpanRecorder::new();
    /// {
    ///     let _outer = recorder.span("outer");
    ///     let _inner = recorder.span("inner");
    /// }
    /// let records = recorder.records();
    /// assert_eq!(records[0].name, "outer");
    /// assert_eq!(records[1].depth, 1);
    /// ```
    pub fn span(&self, name: &str) -> Span<'_> {
        self.open(name);
        Span { recorder: self }
    }

    fn open(&self, name: &str) {
        let mut inner = self.inner.borrow_mut();
        let depth = inner.open.len();
        let index = inner.records.len();
        inner.records.push(SpanRecord {
            name: name.to_owned(),
            depth,
            nanos: 0,
        });
        inner.open.push((index, Instant::now()));
    }

    fn close(&self) {
        let mut inner = self.inner.borrow_mut();
        if let Some((index, start)) = inner.open.pop() {
            inner.records[index].nanos = start.elapsed().as_nanos();
        } else {
            inner.unmatched_closes += 1;
        }
    }

    /// Snapshot of all spans in start order.
    ///
    /// A span still open at snapshot time appears with `nanos == 0` —
    /// that zero is the *defined* "left open at run end" marker, not a
    /// measurement.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.borrow().records.clone()
    }

    /// Spans currently open (opened but not yet closed).
    pub fn open_count(&self) -> usize {
        self.inner.borrow().open.len()
    }

    /// Close calls that found no open span (unbalanced observer exits).
    pub fn unmatched_closes(&self) -> u64 {
        self.inner.borrow().unmatched_closes
    }

    /// The indented text profile (milliseconds, one line per span).
    pub fn report(&self) -> String {
        let inner = self.inner.borrow();
        let width = inner
            .records
            .iter()
            .map(|r| r.name.len() + 2 * r.depth)
            .max()
            .unwrap_or(0)
            .max(20);
        let mut out = String::new();
        for record in &inner.records {
            let label = format!("{:indent$}{}", "", record.name, indent = 2 * record.depth);
            let _ = writeln!(
                out,
                "{label:<width$}  {:>10.3} ms",
                record.nanos as f64 / 1e6
            );
        }
        out
    }
}

/// RAII guard for one open scope; see [`SpanRecorder::span`].
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a SpanRecorder,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.recorder.close();
    }
}

impl hetero_core::StageObserver for SpanRecorder {
    fn enter(&mut self, stage: &'static str) {
        self.open(stage);
    }

    fn exit(&mut self, _stage: &'static str) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_in_start_order() {
        let recorder = SpanRecorder::new();
        {
            let _a = recorder.span("a");
            {
                let _b = recorder.span("b");
            }
            let _c = recorder.span("c");
        }
        let records = recorder.records();
        let shape: Vec<(&str, usize)> =
            records.iter().map(|r| (r.name.as_str(), r.depth)).collect();
        assert_eq!(shape, [("a", 0), ("b", 1), ("c", 1)]);
        // Closed spans carry a measured duration; the outer span covers
        // its children.
        assert!(records.iter().all(|r| r.nanos > 0));
        assert!(records[0].nanos >= records[1].nanos);
    }

    #[test]
    fn report_indents_by_depth() {
        let recorder = SpanRecorder::new();
        {
            let _a = recorder.span("top");
            let _b = recorder.span("nested");
        }
        let report = recorder.report();
        let lines: Vec<&str> = report.lines().collect();
        assert!(lines[0].starts_with("top"));
        assert!(lines[1].starts_with("  nested"));
        assert!(lines.iter().all(|l| l.ends_with("ms")));
    }

    #[test]
    fn a_span_left_open_at_run_end_reads_zero() {
        use hetero_core::StageObserver;
        let mut recorder = SpanRecorder::new();
        recorder.enter("outer");
        recorder.enter("leaked");
        // The run ends here with both spans still open: the defined
        // behavior is that snapshots show them with nanos == 0, at the
        // depths they were opened at.
        assert_eq!(recorder.open_count(), 2);
        let records = recorder.records();
        assert!(records.iter().all(|r| r.nanos == 0), "{records:?}");
        assert_eq!(records[1].depth, 1);
        assert_eq!(recorder.unmatched_closes(), 0);
    }

    #[test]
    fn unbalanced_closes_are_counted_not_panics() {
        use hetero_core::StageObserver;
        let mut recorder = SpanRecorder::new();
        // An exit with nothing open is an observer bug, not a crash.
        recorder.exit("phantom");
        assert_eq!(recorder.unmatched_closes(), 1);
        // A balanced pair still records normally afterwards...
        recorder.enter("real");
        recorder.exit("real");
        // ...and over-closing afterwards only bumps the counter again.
        recorder.exit("real");
        recorder.exit("real");
        assert_eq!(recorder.unmatched_closes(), 3);
        let records = recorder.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "real");
        assert!(records[0].nanos > 0);
        assert_eq!(recorder.open_count(), 0);
    }

    #[test]
    fn interleaved_unbalanced_sequences_keep_depths_consistent() {
        use hetero_core::StageObserver;
        let mut recorder = SpanRecorder::new();
        recorder.enter("a");
        recorder.enter("b");
        recorder.enter("c");
        recorder.exit("c");
        recorder.exit("b");
        // "a" stays open; a new top-level-looking stage nests under it.
        recorder.enter("d");
        recorder.exit("d");
        recorder.exit("a");
        recorder.exit("too-many");
        let shape: Vec<(String, usize)> = recorder
            .records()
            .iter()
            .map(|r| (r.name.clone(), r.depth))
            .collect();
        assert_eq!(
            shape,
            [
                ("a".to_string(), 0),
                ("b".to_string(), 1),
                ("c".to_string(), 2),
                ("d".to_string(), 1),
            ]
        );
        assert_eq!(recorder.unmatched_closes(), 1);
        assert_eq!(recorder.open_count(), 0);
    }

    #[test]
    fn stage_observer_brackets_become_spans() {
        use hetero_core::StageObserver;
        let mut recorder = SpanRecorder::new();
        recorder.enter("stage_a");
        recorder.enter("stage_b");
        recorder.exit("stage_b");
        recorder.exit("stage_a");
        let records = recorder.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].depth, 1);
        assert!(records[0].nanos >= records[1].nanos);
    }
}
