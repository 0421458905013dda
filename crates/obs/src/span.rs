//! RAII span timers with a thread-local span stack.
//!
//! [`ObsSpan::enter`] costs one relaxed atomic load when observability
//! is fully disabled. When metrics are on, dropping the span records
//! its duration into the global per-stage histogram; when span tracing
//! is on, it additionally pushes a [`SpanRecord`] (stage, duration,
//! nesting depth) onto a bounded thread-local ring that the owner of
//! the thread drains with [`drain_thread_spans`] — this is what backs
//! the `fixy stream --trace` per-frame stage table.
//!
//! The ring overwrites oldest-first at 1024 records, so enabling spans
//! in a long-lived server thread that never drains cannot grow memory
//! without bound. A [`FrameClock`] chains back-to-back spans so they
//! share clock reads.

use crate::registry::Stage;
use crate::{recorder, spans_enabled};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::Instant;

/// Most completed spans retained per thread before oldest are dropped.
const THREAD_RING_CAP: usize = 1024;

/// A completed span, as drained by [`drain_thread_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub stage: Stage,
    pub dur_us: u64,
    /// Nesting depth at entry (0 = outermost traced span).
    pub depth: u8,
}

struct ThreadSpans {
    depth: u8,
    completed: VecDeque<SpanRecord>,
}

thread_local! {
    static THREAD_SPANS: RefCell<ThreadSpans> = const {
        RefCell::new(ThreadSpans { depth: 0, completed: VecDeque::new() })
    };
    /// While a [`FrameClock`] lives: where the next span starts.
    static EDGE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// An in-flight stage timing, closed on drop.
#[must_use = "the span measures until it is dropped"]
#[derive(Debug)]
pub struct ObsSpan {
    stage: Stage,
    /// `None` when observability was off at entry — drop is a no-op.
    start: Option<Instant>,
    /// Depth at entry, tracked only while span tracing is on.
    traced_depth: Option<u8>,
}

impl ObsSpan {
    #[inline]
    pub fn enter(stage: Stage) -> ObsSpan {
        if crate::state_bits() == 0 {
            return ObsSpan { stage, start: None, traced_depth: None };
        }
        Self::enter_slow(stage)
    }

    #[cold]
    fn enter_slow(stage: Stage) -> ObsSpan {
        let traced_depth = if spans_enabled() {
            Some(THREAD_SPANS.with(|s| {
                let mut s = s.borrow_mut();
                let d = s.depth;
                s.depth = s.depth.saturating_add(1);
                d
            }))
        } else {
            None
        };
        let start = EDGE.get().unwrap_or_else(Instant::now);
        ObsSpan { stage, start: Some(start), traced_depth }
    }
}

impl Drop for ObsSpan {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        EDGE.set(EDGE.get().map(|_| end));
        let dur_us = micros(end - start);
        if let Some(metrics) = recorder() {
            metrics.stage(self.stage).record(dur_us);
        }
        if let Some(depth) = self.traced_depth {
            THREAD_SPANS.with(|s| {
                let mut s = s.borrow_mut();
                s.depth = s.depth.saturating_sub(1);
                if s.completed.len() == THREAD_RING_CAP {
                    s.completed.pop_front();
                }
                s.completed.push_back(SpanRecord { stage: self.stage, dur_us, depth });
            });
        }
    }
}

/// Times back-to-back spans on this thread (a served frame) with one
/// clock read per stage boundary instead of two per span: until the
/// clock drops, a span starts where the previous one ended (the first
/// at the clock's start), so un-spanned code between spans is billed to
/// the later one.
#[must_use = "spans chain only while the clock lives"]
#[derive(Debug)]
pub struct FrameClock {
    /// `None` when observability was off at start: spans time alone.
    start: Option<Instant>,
}

impl FrameClock {
    pub fn start() -> FrameClock {
        let start = (crate::state_bits() != 0).then(Instant::now);
        EDGE.set(start);
        FrameClock { start }
    }

    /// Microseconds from the start to the end of the last span closed
    /// since; `None` when observability was off at start.
    pub fn elapsed_us(&self) -> Option<u64> {
        Some(micros(EDGE.get()? - self.start?))
    }
}

impl Drop for FrameClock {
    fn drop(&mut self) {
        EDGE.set(None);
    }
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Drain and return this thread's completed spans, in completion order.
pub fn drain_thread_spans() -> Vec<SpanRecord> {
    THREAD_SPANS.with(|s| s.borrow_mut().completed.drain(..).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::test_guard();
        crate::disable_all();
        drop(ObsSpan::enter(Stage::Assemble));
        assert!(drain_thread_spans().is_empty());
    }

    #[test]
    fn ring_is_bounded() {
        let _g = crate::test_guard();
        crate::enable_spans();
        for _ in 0..(THREAD_RING_CAP + 10) {
            drop(ObsSpan::enter(Stage::Push));
        }
        let drained = drain_thread_spans();
        crate::disable_all();
        assert_eq!(drained.len(), THREAD_RING_CAP);
    }

    #[test]
    fn frame_clock_chains_spans_end_to_start() {
        let _g = crate::test_guard();
        crate::enable_spans();
        let clock = FrameClock::start();
        let first = ObsSpan::enter(Stage::Push);
        assert_eq!(first.start, clock.start, "the first span starts with the clock");
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(first);
        let edge = EDGE.get();
        let second = ObsSpan::enter(Stage::Snapshot);
        assert_eq!(second.start, edge, "the next span starts where the last ended");
        drop(second);
        let us = clock.elapsed_us().unwrap();
        drop(clock);
        assert!(EDGE.get().is_none(), "dropping the clock ends the chain");
        let spans = drain_thread_spans();
        crate::disable_all();
        // The spans tile the clock's time, up to per-span rounding.
        let sum = spans[0].dur_us + spans[1].dur_us;
        assert!(spans[0].dur_us >= 2000, "{spans:?}");
        assert!((sum..=sum + 1).contains(&us), "{us} vs {spans:?}");
    }

    #[test]
    fn nesting_depth_recorded() {
        let _g = crate::test_guard();
        crate::enable_spans();
        {
            let _outer = ObsSpan::enter(Stage::Rank);
            drop(ObsSpan::enter(Stage::Score));
        }
        let drained = drain_thread_spans();
        crate::disable_all();
        // Inner completes first.
        assert_eq!(drained.len(), 2);
        assert_eq!((drained[0].stage, drained[0].depth), (Stage::Score, 1));
        assert_eq!((drained[1].stage, drained[1].depth), (Stage::Rank, 0));
    }
}
