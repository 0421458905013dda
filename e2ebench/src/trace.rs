//! In-memory spans recorded around calls into the program, and the
//! self-time tables built from them.
//!
//! Spans live only in the benchmark: the program itself is not
//! instrumented here. A span's self time is its duration minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `key` identifies the scene or frame it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe span sink with one time base.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            base: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent ends.
    pub fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Run `f` inside a span and return its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        key: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.record(Span { id, parent, name, key, start_ns, end_ns });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span sink poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Per-unit self-time rows that add up to a measured wall time through
/// an `other` row.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub title: String,
    pub unit: &'static str,
    pub rows: Vec<(String, f64)>,
    pub total_label: String,
    pub total: f64,
}

impl LayerTable {
    /// The remainder: measured wall time not covered by the rows.
    pub fn other(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    pub fn render(&self) -> String {
        let mut out = format!("{} ({})\n", self.title, self.unit);
        let share = |v: f64| if self.total > 0.0 { 100.0 * v / self.total } else { 0.0 };
        for (name, v) in self.rows.iter().chain([&("other".to_string(), self.other())]) {
            let _ = writeln!(out, "  {name:<28} {v:>12.4} {:>6.1}%", share(*v));
        }
        let _ = writeln!(out, "  {:<28} {:>12.4} {:>6.1}%", self.total_label, self.total, 100.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "frame",
                key: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "a",
                key: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 2,
                parent: Some(0),
                name: "b",
                key: 0,
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["frame"], (30, 1));
        assert_eq!(t["a"], (30, 1));
        assert_eq!(t["b"], (40, 1));
    }

    #[test]
    fn table_rows_add_up_through_other() {
        let t = LayerTable {
            title: "x".into(),
            unit: "ms",
            rows: vec![("a".into(), 1.0), ("b".into(), 2.5)],
            total_label: "wall".into(),
            total: 4.0,
        };
        assert_eq!(t.other(), 0.5);
    }
}
