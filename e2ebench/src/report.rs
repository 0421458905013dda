//! Results: the metric lists, the printed report, the JSON result line,
//! provenance, and the self-test and compare modes.

use crate::corpus::{self, Workload, WORKLOADS};
use crate::live::{self, PhaseResult};
use crate::stats::quartiles;
use crate::trace::{LayerTable, Tracer};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric { name: name.to_string(), value, unit: unit.to_string() }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything one run produced.
pub struct Outcome {
    provenance: Vec<(&'static str, String)>,
    trace: bool,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    checks: Vec<(bool, String)>,
    lines: Vec<String>,
    tables: Vec<LayerTable>,
    pub phases: Vec<PhaseResult>,
    pub spans: Option<Vec<(&'static str, Tracer)>>,
}

impl Outcome {
    pub fn new(provenance: Vec<(&'static str, String)>, trace: bool) -> Self {
        Outcome {
            provenance,
            trace,
            e2e: Vec::new(),
            layer: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            checks: Vec::new(),
            lines: Vec::new(),
            tables: Vec::new(),
            phases: Vec::new(),
            spans: None,
        }
    }

    fn checked(&mut self, m: Metric) -> Metric {
        if !m.value.is_finite() {
            self.check(false, format!("{} is finite", m.name));
        }
        m
    }

    pub fn e2e(&mut self, m: Metric) {
        let m = self.checked(m);
        self.e2e.push(m);
    }

    pub fn layer(&mut self, m: Metric) {
        let m = self.checked(m);
        self.layer.push(m);
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    pub fn table(&mut self, table: LayerTable) {
        self.tables.push(table);
    }

    /// A correctness check; any failure makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        self.correct &= ok;
        self.checks.push((ok, what));
    }

    /// The human-readable report.
    pub fn text(&self) -> String {
        let mut out = String::from("provenance:\n");
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "  {k}: {v}");
        }
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for (ok, what) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(
            out,
            "operations: attempted {}, failed {}",
            self.attempted, self.failed
        );
        let _ = writeln!(out, "end-to-end metrics:");
        for m in &self.e2e {
            let _ = writeln!(out, "  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        // Untraced runs already have the per-layer numbers the timed work
        // gives (throughput, latencies, precision); traced runs add the rest.
        let _ = writeln!(out, "per-layer metrics:");
        for m in &self.layer {
            let _ = writeln!(out, "  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for t in &self.tables {
            out.push_str(&t.render());
        }
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn last_line(&self) -> String {
        let metrics = if self.trace { &self.layer } else { &self.e2e };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics_json(metrics)
        )
    }

    /// The full result with provenance, checks, phases and tables.
    pub fn result_json(&self) -> String {
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(ok, what)| format!("{{\"ok\": {ok}, \"what\": {}}}", json_str(what)))
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": {}, \"round\": {}, \"rate\": {}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \
                     \"probes\": {}, \"latency_p50_ms\": {}, \"latency_p99_ms\": {}, \"gen_lag_p99_ms\": {}, \
                     \"backlog_q1\": {}, \"backlog_end\": {}, \"backlog_max\": {}, \"fps\": {}, \"met_limit\": {}}}",
                    json_str(p.name),
                    p.round.map_or("null".into(), |r| r.to_string()),
                    p.rate.map_or("null".into(), json_num),
                    p.attempted,
                    p.attempted - p.failed.min(p.attempted),
                    p.failed,
                    p.latency_ms.len(),
                    json_num(p.latency_ms.median()),
                    json_num(p.latency_ms.quantile(0.99)),
                    json_num(p.lag_ms.quantile(0.99)),
                    p.backlog_q1,
                    p.backlog_end,
                    p.backlog_max,
                    json_num(p.fps()),
                    p.met_limit()
                )
            })
            .collect();
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                let rows: Vec<String> = t
                    .rows
                    .iter()
                    .chain([&("other".to_string(), t.other())])
                    .map(|(n, v)| format!("[{}, {}]", json_str(n), json_num(*v)))
                    .collect();
                format!(
                    "{{\"title\": {}, \"unit\": {}, \"rows\": [{}], \"total\": {}}}",
                    json_str(&t.title),
                    json_str(t.unit),
                    rows.join(", "),
                    json_num(t.total)
                )
            })
            .collect();
        format!(
            "{{\"provenance\": {{{}}}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"checks\": [{}], \"metrics\": {}, \"layer_metrics\": {}, \"phases\": [{}], \"tables\": [{}]}}\n",
            prov.join(", "),
            self.trace,
            self.correct,
            self.attempted,
            self.failed,
            checks.join(", "),
            metrics_json(&self.e2e),
            metrics_json(&self.layer),
            phases.join(", "),
            tables.join(", ")
        )
    }
}

/// One serving phase, for the printed report.
pub fn phase_line(p: &PhaseResult) -> String {
    let mut s = format!(
        "serve phase {:<7} round {} attempted {}, succeeded {}, failed {}",
        p.name,
        p.round.map_or("-".into(), |r| r.to_string()),
        p.attempted,
        p.attempted - p.failed.min(p.attempted),
        p.failed
    );
    match p.rate {
        Some(rate) => {
            let _ = write!(
                s,
                "; offered {rate} frames/s; frame latency {}; generator lag p99 {:.3} ms; \
                 probe backlog first quarter {}, end {}, max {}; p99 <= {} ms without a growing backlog: {}",
                p.latency_ms.describe("ms"),
                p.lag_ms.quantile(0.99),
                p.backlog_q1,
                p.backlog_end,
                p.backlog_max,
                live::LIMIT_MS,
                if p.met_limit() { "yes" } else { "no" }
            );
        }
        None if p.fps() > 0.0 => {
            let _ = write!(s, "; {:.1} frames/s with {} frames in flight", p.fps(), live::WINDOW);
        }
        None => {}
    }
    s
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn rustc_version() -> String {
    Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out here, read from `.git` without leaving the
/// working directory; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown (not a git checkout)".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn provenance(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    paths: &[PathBuf],
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (lyft, internal) = workload.mix(smoke);
    let (train_lyft, train_internal) = corpus::train_mix(smoke);
    let bytes: u64 = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let rates = corpus::RATES;
    vec![
        ("nproc", nproc.to_string()),
        ("workers", rayon::current_num_threads().to_string()),
        ("rustc", rustc_version()),
        ("git_commit", git_commit()),
        ("workload", workload.name().to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("smoke", smoke.to_string()),
        ("app", crate::setup::APP.name().to_string()),
        (
            "corpus",
            format!(
                "{} scenes ({lyft} lyft-like 25 s at 5 Hz, {internal} internal-like 15 s at 10 Hz{}), \
                 stored as .{}, {bytes} bytes; training {train_lyft} lyft-like + {train_internal} internal-like",
                paths.len(),
                if smoke { ", shortened to 4 s" } else { "" },
                workload.format().extension()
            ),
        ),
        (
            "serve",
            format!(
                "{} sessions on one loopback connection, probe every {} frames, closed loop {} frames in flight, \
                 frozen rates low {} mid {} high {} frames/s",
                live::SLOTS,
                live::PROBE_EVERY,
                live::WINDOW,
                rates[0],
                rates[1],
                rates[2]
            ),
        ),
    ]
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

/// `(name, unit, bound)` of each end-to-end metric and `(name, unit)` of
/// each per-layer metric, from `BENCHMARK.json` in the working
/// directory.
struct Declared {
    end_to_end: Vec<(String, String, f64)>,
    per_layer: Vec<(String, String)>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn declared() -> Result<Declared, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = |key: &str| -> Result<Vec<(String, String, Option<f64>)>, String> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                Ok((
                    s("name").ok_or("metric without a name")?,
                    s("unit").ok_or("metric without a unit")?,
                    m.get("bound").and_then(number),
                ))
            })
            .collect()
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?
            .into_iter()
            .map(|(n, u, b)| (n, u, b.unwrap_or(0.0)))
            .collect(),
        per_layer: list("per_layer")?.into_iter().map(|(n, u, _)| (n, u)).collect(),
    })
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// Smoke-size runs of every workload, untraced and traced: each must be
/// correct and print every declared metric with its declared unit.
pub fn self_test() -> Result<ExitCode, String> {
    let decl = declared()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = 0;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let expected: Vec<(String, String)> = if trace == "1" {
                decl.per_layer.clone()
            } else {
                decl.end_to_end
                    .iter()
                    .map(|(n, u, _)| (n.clone(), u.clone()))
                    .collect()
            };
            let problems =
                check_result(out.status.success(), stdout.lines().last().unwrap_or(""), &expected);
            let label = format!("{} --trace {trace}", w.name());
            if problems.is_empty() {
                println!("self-test ok: {label}: {} metrics with units", expected.len());
            } else {
                failures += 1;
                for p in problems {
                    println!("self-test FAILED: {label}: {p}");
                }
            }
        }
    }
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn check_result(exited_ok: bool, line: &str, expected: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    if !exited_ok {
        problems.push("non-zero exit".to_string());
    }
    let v = match serde_json::parse_value(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("last line is not JSON: {e:?}")],
    };
    let keys: Vec<&str> = v.as_object().unwrap_or(&[]).iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("result keys {keys:?}"));
    }
    if !matches!(v.get("correct"), Some(Value::Bool(true))) {
        problems.push("not correct".into());
    }
    if v.get("attempted").and_then(number).unwrap_or(0.0) < 1.0 {
        problems.push("attempted < 1".into());
    }
    let metrics = v.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
    for (name, unit) in expected {
        match metrics.iter().find(|(k, _)| k == name).map(|(_, m)| m) {
            None => problems.push(format!("missing metric {name}")),
            Some(m) => {
                if m.get("unit").and_then(Value::as_str) != Some(unit.as_str()) {
                    problems.push(format!("{name}: unit is not {unit}"));
                }
                if !m.get("value").and_then(number).is_some_and(f64::is_finite) {
                    problems.push(format!("{name}: no finite value"));
                }
            }
        }
    }
    for (name, _) in metrics {
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("undeclared metric {name}"));
        }
    }
    problems
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

/// Values of every (workload, metric) over the result files in `dir`.
fn load_results(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let workload = v
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Value::as_str)
            .ok_or(format!("{}: no provenance.workload", path.display()))?
            .to_string();
        for key in ["metrics", "layer_metrics"] {
            for (name, m) in v.get(key).and_then(Value::as_object).unwrap_or(&[]) {
                if let Some(x) = m.get("value").and_then(number) {
                    out.entry((workload.clone(), name.clone())).or_default().push(x);
                }
            }
        }
    }
    Ok(out)
}

/// Print each (metric, workload) median and quartiles of two result
/// sets, and whether the medians agree within the metric's bound.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let decl = declared()?;
    let (ra, rb) = (load_results(a)?, load_results(b)?);
    println!(
        "{:<11} {:<26} {:>36} {:>36} {:>8} {:>6}  agree",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    let fmt = |v: &[f64]| match quartiles(v) {
        Some((q1, med, q3)) => format!("{med:.4} [{q1:.4}, {q3:.4}] ({})", v.len()),
        None => format!("{:.4} (n={})", v.first().copied().unwrap_or(f64::NAN), v.len()),
    };
    let median = |v: &[f64]| quartiles(v).map_or(v.first().copied().unwrap_or(f64::NAN), |q| q.1);
    let mut keys: Vec<&(String, String)> = ra.keys().chain(rb.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let (va, vb) = (
            ra.get(key).map_or(&[][..], Vec::as_slice),
            rb.get(key).map_or(&[][..], Vec::as_slice),
        );
        let bound = decl
            .end_to_end
            .iter()
            .find(|(n, _, _)| *n == key.1)
            .map(|(_, _, b)| *b);
        // Undefined against an empty side or a zero median.
        let change = (median(vb) - median(va)) / median(va).abs();
        let agree = match bound {
            Some(b) if change.is_finite() => {
                if change.abs() <= b {
                    "yes"
                } else {
                    "NO"
                }
            }
            _ => "-",
        };
        println!(
            "{:<11} {:<26} {:>36} {:>36} {:>8} {:>6}  {agree}",
            key.0,
            key.1,
            fmt(va),
            fmt(vb),
            if change.is_finite() { format!("{:+.1}%", 100.0 * change) } else { "-".into() },
            bound.map_or("-".into(), |b| format!("{b}")),
        );
    }
    Ok(())
}
