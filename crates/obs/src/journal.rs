//! A bounded ring-buffer event journal for postmortems.
//!
//! Coarse-grained events only (session opens/closes/rejects, stranded
//! frames) — never per-frame — so a `Mutex` around the ring is fine;
//! the hot paths never touch it. The global instance is reached through
//! [`crate::journal_event`], which is gated like the metric recorder.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One journal entry: a static label plus two free-form operands whose
/// meaning the label defines (session ids, counts, frame indices...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Monotonic sequence number over the journal's lifetime; gaps
    /// after wraparound reveal how many events were overwritten.
    pub seq: u64,
    pub label: &'static str,
    pub a: u64,
    pub b: u64,
}

#[derive(Debug)]
struct Ring {
    next_seq: u64,
    events: VecDeque<JournalEvent>,
}

/// Fixed-capacity event ring; oldest entries are overwritten.
#[derive(Debug)]
pub struct Journal {
    cap: usize,
    ring: Mutex<Ring>,
}

impl Journal {
    pub const fn new(cap: usize) -> Self {
        Journal {
            cap,
            ring: Mutex::new(Ring { next_seq: 0, events: VecDeque::new() }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn push(&self, label: &'static str, a: u64, b: u64) {
        let mut ring = self.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.cap {
            ring.events.pop_front();
        }
        ring.events.push_back(JournalEvent { seq, label, a, b });
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<JournalEvent> {
        let ring = self.lock();
        let skip = ring.events.len().saturating_sub(n);
        ring.events.iter().skip(skip).copied().collect()
    }

    /// Events recorded and retained right now.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        let mut ring = self.lock();
        ring.events.clear();
        ring.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_seq() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.push("ev", i, 0);
        }
        let recent = j.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0], JournalEvent { seq: 2, label: "ev", a: 2, b: 0 });
        assert_eq!(recent[2], JournalEvent { seq: 4, label: "ev", a: 4, b: 0 });
        assert_eq!(j.lock().next_seq, 5);
        assert_eq!(j.recent(1).len(), 1);
        assert_eq!(j.recent(1)[0].seq, 4);
    }
}
