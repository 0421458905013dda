//! Integration tests for `loa_obs`: Prometheus exposition golden
//! format, label escaping, histogram bucket/quantile properties, and
//! concurrent-increment correctness.
//!
//! Everything here uses *local* `Metrics`/`Histogram` instances — the
//! primitives are deliberately ungated — so these tests neither flip
//! nor observe the process-wide enable bits and can run in parallel
//! with anything.

use loa_obs::{
    bucket_index, bucket_upper_bound, text, Counter, Histogram, Metrics, Stage, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;

/// Golden exposition output: exact lines for a counter, a gauge, and a
/// small histogram, in the order the registry renders them.
#[test]
fn prometheus_golden_format() {
    let m = Metrics::new();
    m.frames.add(7);
    m.frames_invalid.add(2);
    m.active_sessions.set(3.0);
    m.cold_start_us.set(76.5);
    m.frame_latency_us.record(1); // bucket le="1"
    m.frame_latency_us.record(3); // bucket le="4"
    m.frame_latency_us.record(900); // bucket le="1024"
    let out = m.render_prometheus();

    for expected in [
        "# HELP loa_frames_total Frames scored by the audit service\n",
        "# TYPE loa_frames_total counter\n",
        "loa_frames_total 7\n",
        "# TYPE loa_frames_invalid_total counter\n",
        "loa_frames_invalid_total 2\n",
        "# TYPE loa_active_sessions gauge\n",
        "loa_active_sessions 3\n",
        "loa_cold_start_us 76.5\n",
        "# TYPE loa_frame_latency_us histogram\n",
        "loa_frame_latency_us_bucket{le=\"1\"} 1\n",
        "loa_frame_latency_us_bucket{le=\"2\"} 1\n",
        "loa_frame_latency_us_bucket{le=\"4\"} 2\n",
        "loa_frame_latency_us_bucket{le=\"512\"} 2\n",
        "loa_frame_latency_us_bucket{le=\"1024\"} 3\n",
        "loa_frame_latency_us_bucket{le=\"+Inf\"} 3\n",
        "loa_frame_latency_us_sum 904\n",
        "loa_frame_latency_us_count 3\n",
        "# TYPE loa_stage_duration_us histogram\n",
        "loa_stage_duration_us_bucket{stage=\"assemble\",le=\"1\"} 0\n",
        "loa_stage_duration_us_bucket{stage=\"rescore\",le=\"+Inf\"} 0\n",
        "loa_stage_duration_us_sum{stage=\"rank\"} 0\n",
        "loa_stage_duration_us_count{stage=\"rank\"} 0\n",
    ] {
        assert!(out.contains(expected), "missing {expected:?} in:\n{out}");
    }

    // Every non-comment line is `name[{labels}] value`.
    for line in out.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        assert!(!series.is_empty());
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
    }
}

#[test]
fn stage_histograms_render_per_stage_series() {
    let m = Metrics::new();
    m.stage(Stage::Rank).record(10);
    m.stage(Stage::Rank).record(20);
    let out = m.render_prometheus();
    assert!(out.contains("loa_stage_duration_us_count{stage=\"rank\"} 2\n"));
    assert!(out.contains("loa_stage_duration_us_sum{stage=\"rank\"} 30\n"));
    assert!(out.contains("loa_stage_duration_us_bucket{stage=\"rank\",le=\"16\"} 1\n"));
    assert!(out.contains("loa_stage_duration_us_bucket{stage=\"rank\",le=\"32\"} 2\n"));
    // Only one HELP/TYPE header for the whole labeled family.
    assert_eq!(out.matches("# TYPE loa_stage_duration_us histogram").count(), 1);
}

#[test]
fn label_escaping() {
    assert_eq!(text::escape_label_value("plain"), "plain");
    assert_eq!(text::escape_label_value("a\"b"), "a\\\"b");
    assert_eq!(text::escape_label_value("a\\b"), "a\\\\b");
    assert_eq!(text::escape_label_value("a\nb"), "a\\nb");
    assert_eq!(text::escape_label_value("\\\"\n"), "\\\\\\\"\\n");

    let h = Histogram::new();
    h.record(5);
    let mut out = String::new();
    text::push_histogram(&mut out, "h", "help", &[("app", "say \"hi\"\nok\\done")], &h);
    assert!(
        out.contains("h_bucket{app=\"say \\\"hi\\\"\\nok\\\\done\",le=\"8\"} 1"),
        "escaped labels missing in:\n{out}"
    );
    // The rendered output must stay newline-clean: one series item per line.
    for line in out.lines() {
        assert!(line
            .rsplit_once(' ')
            .is_some_and(|(_, v)| v.parse::<f64>().is_ok() || line.starts_with('#')));
    }
}

#[test]
fn histogram_bucket_lines_are_cumulative_and_end_at_count() {
    let h = Histogram::new();
    for v in [0u64, 1, 1, 2, 900, 70_000_000_000] {
        h.record(v);
    }
    let mut out = String::new();
    text::push_histogram(&mut out, "lat", "help", &[], &h);
    let mut last = 0u64;
    let mut bucket_lines = 0usize;
    for line in out.lines().filter(|l| l.starts_with("lat_bucket")) {
        let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(v >= last, "bucket counts must be cumulative: {line}");
        last = v;
        bucket_lines += 1;
    }
    assert_eq!(bucket_lines, HISTOGRAM_BUCKETS);
    assert_eq!(last, h.count());
    assert!(out.contains("le=\"+Inf\"} 6"));
}

#[test]
fn concurrent_increments_are_exact() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let counter = Counter::new();
    let hist = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(i % 1000);
                }
            });
            let _ = t;
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total);
    assert_eq!(hist.count(), total);
    assert_eq!(hist.bucket_counts().iter().sum::<u64>(), total);
    assert_eq!(
        hist.sum(),
        THREADS as u64 * (0..PER_THREAD).map(|i| i % 1000).sum::<u64>()
    );
    assert_eq!(hist.max_value(), 999);
}

// Bucket bounds are consistent: every value lands in the unique bucket
// whose half-open range contains it; quantile estimates are monotone in
// `q`, bounded by `[0, max]`, and never leave the bucket holding the
// target rank.
proptest! {
    #[test]
    fn prop_bucket_index_brackets_value(v in 0u64..u64::MAX / 2) {
        let i = bucket_index(v);
        if i < HISTOGRAM_BUCKETS - 1 {
            prop_assert!(v <= bucket_upper_bound(i));
        }
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn prop_quantiles_monotone_and_bounded(
        values in proptest::collection::vec(0u64..2_000_000, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let lo = h.quantile(lo_q);
        let hi = h.quantile(hi_q);
        prop_assert!(lo <= hi, "quantile({lo_q})={lo} > quantile({hi_q})={hi}");
        let max = *values.iter().max().unwrap();
        prop_assert!(hi <= max);
        prop_assert_eq!(h.quantile(1.0), max);
        prop_assert_eq!(h.max_value(), max);
    }

    #[test]
    fn prop_quantile_stays_in_rank_bucket(
        values in proptest::collection::vec(0u64..100_000, 1..100),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        // Exact rank over the sorted values, mirroring the estimator's
        // ceil-rank convention.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let est = h.quantile(q);
        // The estimate must land in the same log2 bucket as the exact
        // rank statistic (or exactly on its boundary).
        let eb = bucket_index(exact);
        let lo = if eb == 0 { 0 } else { bucket_upper_bound(eb - 1) };
        prop_assert!(est >= lo, "est={est} below bucket lower bound {lo} (exact={exact})");
        prop_assert!(est <= bucket_upper_bound(eb).min(h.max_value().max(lo)),
            "est={est} above bucket of exact={exact}");
    }
}
