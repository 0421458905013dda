//! End-to-end benchmark of batch rank and live serving.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload batch_fscb --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --self-test
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --compare DIR_A DIR_B
//! ```
//!
//! A run generates its corpus from the seed in a child process, then in
//! this process sets up (fit, `.flcb` round trip, serving context, bind)
//! and alternates slices of batch rank and more set-up with rounds of
//! live serving for `--seconds`, and checks every worklist. `--trace 1`
//! adds traced and replica passes that give the per-layer numbers. The
//! last line of stdout is the JSON result; the full result, with
//! provenance, is written under `e2ebench/work/results/`.

mod batch;
mod corpus;
mod live;
mod report;
mod setup;
mod stats;
mod trace;

use corpus::{CorpusDirs, Workload};
use report::{Metric, Outcome};
use stats::Sample;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Where runs keep their corpus, traces and results, relative to the
/// repository root.
const WORK_DIR: &str = "e2ebench/work";
/// Set-up rounds before each serving round, besides the first one;
/// `setup_s` is the median over all of them.
const SETUP_ROUNDS_PER_SLICE: usize = 2;
/// Share of `--seconds` each traced stage (batch, serving replica) adds
/// to a `--trace 1` run.
const TRACE_SHARE: f64 = 0.1;
/// Serving phases whose `CLOSE` round trips make `close_ms_*`: the ones
/// loaded lightly enough that a close does not wait behind a queue.
const CLOSE_PHASES: [&str; 2] = ["low", "mid"];
/// Share of `--seconds` spent on timed batch passes; the rest goes to
/// the serving rounds.
const BATCH_SHARE: f64 = 0.3;
/// Share of each serving round spent in the closed-loop phase; the three
/// open-loop phases split the rest.
const CLOSED_SHARE: f64 = 0.5;
/// Repetitions of the low/mid/high/closed serving phases; each latency
/// is the median over rounds.
const SERVE_ROUNDS: usize = 8;

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    "usage: e2ebench --workload <batch_fscb|batch_json|serve_live> --seed <n> --seconds <s> \
     --trace <0|1> [--smoke]\n       e2ebench --self-test\n       e2ebench --compare <dir> <dir>"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen_child(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("--self-test") => report::self_test(),
        Some("--compare") if args.len() == 3 => {
            report::compare(Path::new(&args[1]), Path::new(&args[2])).map(|()| ExitCode::SUCCESS)
        }
        _ => parse_run(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// `gen <workload> <seed> <dir> <smoke>`: the corpus generator child.
fn gen_child(args: &[String]) -> Result<(), String> {
    let [workload, seed, dir, smoke] = args else {
        return Err("gen takes <workload> <seed> <dir> <0|1>".into());
    };
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let seed = seed.parse::<u64>().map_err(|e| e.to_string())?;
    corpus::generate(workload, seed, smoke == "1", Path::new(dir))
}

/// Generate the corpus in a separate process, so its memory and time
/// stay out of this process's numbers.
fn generate_corpus(a: &RunArgs, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("gen")
        .arg(a.workload.name())
        .arg(a.seed.to_string())
        .arg(dir)
        .arg(if a.smoke { "1" } else { "0" })
        .status()
        .map_err(|e| format!("corpus generator: {e}"))?;
    if !status.success() {
        return Err(format!("corpus generator failed: {status}"));
    }
    Ok(())
}

fn run(a: &RunArgs) -> Result<ExitCode, String> {
    let tag = format!(
        "{}-s{}{}",
        a.workload.name(),
        a.seed,
        if a.smoke { "-smoke" } else { "" }
    );
    let work = Path::new(WORK_DIR);
    let root = work.join(&tag);
    generate_corpus(a, &root)?;
    let result = measure(a, &root);
    // The corpus is cheap to regenerate from the seed; keep only results.
    let _ = std::fs::remove_dir_all(&root);
    let outcome = result?;
    let results = work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let name = format!("{tag}-t{}", u8::from(a.trace));
    if let Some(spans) = &outcome.spans {
        for (stage, tracer) in spans {
            tracer
                .write_jsonl(&results.join(format!("{name}-{stage}-spans.jsonl")))
                .map_err(|e| format!("writing spans: {e}"))?;
        }
    }
    std::fs::write(results.join(format!("{name}.json")), outcome.result_json())
        .map_err(|e| format!("writing result: {e}"))?;
    print!("{}", outcome.text());
    println!("{}", outcome.last_line());
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn corpus_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let paths = loa_ingest::CorpusSource::open(dir)
        .map_err(|e| e.to_string())?
        .into_paths();
    if paths.is_empty() {
        return Err(format!("empty corpus {}", dir.display()));
    }
    Ok(paths)
}

fn measure(a: &RunArgs, root: &Path) -> Result<Outcome, String> {
    let dirs = CorpusDirs::under(root);
    let paths = corpus_paths(&dirs.corpus)?;
    let mut out = Outcome::new(
        report::provenance(a.workload, a.seed, a.seconds, a.trace, a.smoke, &paths),
        a.trace,
    );
    let seconds = Duration::from_secs_f64(a.seconds);
    let n = paths.len() as u64;

    // Set-up, then the untimed batch warm-up and reference.
    let lib_path = root.join("library.flcb");
    let mut times = setup::SetupTimes::default();
    let ready = setup::round(&dirs.train, &lib_path, &mut times)?;
    batch::warm_up(&paths, &ready.library)?;
    let reference = batch::reference(&paths, &ready.library)?;
    let scenes = live::load_scenes(&paths, corpus::LIVE_PROFILE)?;

    // Timed work. Each serving round is preceded by a slice of batch
    // passes and more set-up rounds, so every metric samples the whole
    // run rather than one stretch of it.
    let mut measured = batch::Measured::default();
    let slice = seconds.mul_f64(BATCH_SHARE / SERVE_ROUNDS as f64);
    let mut between = || -> Result<(), String> {
        batch::measure(&paths, &ready.library, slice, &mut measured);
        for _ in 0..SETUP_ROUNDS_PER_SLICE {
            setup::round(&dirs.train, &lib_path, &mut times)?;
        }
        Ok(())
    };
    let round = seconds.mul_f64((1.0 - BATCH_SHARE) / SERVE_ROUNDS as f64);
    let plan = live::Plan {
        rates: corpus::RATES,
        rounds: SERVE_ROUNDS,
        open_dur: round.mul_f64((1.0 - CLOSED_SHARE) / 3.0),
        closed_dur: round.mul_f64(CLOSED_SHARE),
    };
    let tcp = live::run_tcp(&scenes, &ready.ctx, ready.listener, plan, &mut between)?;
    let summary = live::summarise(&tcp, &scenes, &reference.worklists);

    let setup_total = Sample::new(times.total.clone());
    out.e2e(Metric::new("setup_s", setup_total.median(), "s"));
    out.line(format!(
        "setup: {} (load + fit on {} training scenes, .flcb write and read, context, bind)",
        setup_total.describe("s"),
        ready.train_scenes
    ));

    out.attempted += n * (measured.pass_s.len() as u64 + measured.failed_passes);
    out.failed += n * measured.failed_passes;
    let pass = Sample::new(measured.pass_s.clone());
    let scene_rates = Sample::new(measured.pass_s.iter().map(|s| n as f64 / s).collect());
    out.layer(Metric::new("scenes_per_s", scene_rates.median(), "1/s"));
    out.line(format!(
        "batch: {n} scenes per pass, {} passes; pass time {}; rate {}",
        pass.len(),
        pass.describe("s"),
        scene_rates.describe("scenes/s")
    ));
    out.line(format!(
        "batch: precision@10 {:.4} (mean over scenes, injected-error audit)",
        reference.precision_at_10
    ));
    let bad = measured.digests.iter().filter(|&&d| d != reference.digest).count();
    out.check(
        bad == 0,
        format!(
            "batch merged worklist equals sequential() on {}/{} passes",
            measured.digests.len() - bad,
            measured.digests.len()
        ),
    );

    out.attempted += summary.attempted;
    out.failed += summary.failed;
    // Each serving number is the median over rounds of that round's value.
    let over_rounds = |name: &str, f: &dyn Fn(&live::PhaseResult) -> f64| {
        Sample::new(summary.phases.iter().filter(|p| p.name == name).map(f).collect()).median()
    };
    for name in live::OPEN_PHASES {
        let p50 = over_rounds(name, &|p| p.latency_ms.median());
        let p99 = over_rounds(name, &|p| p.latency_ms.quantile(0.99));
        out.layer(Metric::new(&format!("frame_p50_ms.{name}"), p50, "ms"));
        out.layer(Metric::new(&format!("frame_p99_ms.{name}"), p99, "ms"));
    }
    // Frames completed over all closed-loop time.
    let closed: Vec<&live::PhaseResult> =
        summary.phases.iter().filter(|p| p.name == "closed").collect();
    let peak_fps = closed.iter().map(|p| p.frames as f64).sum::<f64>()
        / closed.iter().map(|p| p.secs).sum::<f64>();
    out.layer(Metric::new("peak_fps", peak_fps, "1/s"));
    // CLOSE round trips of the low and mid phases, pooled over rounds.
    let close = Sample::new(
        summary
            .phases
            .iter()
            .filter(|p| CLOSE_PHASES.contains(&p.name))
            .flat_map(|p| p.close_ms.values().to_vec())
            .collect(),
    );
    out.layer(Metric::new("close_ms_p50", close.median(), "ms"));
    out.layer(Metric::new("close_ms_p90", close.quantile(0.9), "ms"));
    out.layer(Metric::new("precision_at_10", reference.precision_at_10, "ratio"));
    for p in &summary.phases {
        out.line(report::phase_line(p));
    }
    out.line(format!(
        "serve: CLOSE round trip in the low and mid phases {}",
        close.describe("ms")
    ));
    out.phases = summary.phases.clone();
    for m in &summary.mismatches {
        out.line(format!("mismatch: {m}"));
    }
    out.check(
        summary.mismatches.is_empty() && summary.closes_checked > 0,
        format!(
            "{} serve CLOSE worklists equal batch, bit for bit",
            summary.closes_checked
        ),
    );

    // Peak memory of the untraced work, before any traced pass.
    out.e2e(Metric::new("peak_rss_mb", report::peak_rss_mb()?, "MB"));

    // Per-layer numbers.
    if a.trace {
        let setup_layer = [
            ("ingest.train_load_ms", &times.train_load),
            ("core.learn_ms", &times.learn),
            ("core.flcb_write_ms", &times.flcb_write),
            ("core.flcb_read_ms", &times.flcb_read),
            ("serve.context_ms", &times.context),
            ("serve.bind_ms", &times.bind),
        ];
        let rows: Vec<(String, f64)> = setup_layer
            .iter()
            .map(|(name, v)| (name.to_string(), setup::median_ms(v)))
            .collect();
        for (name, v) in &rows {
            out.layer(Metric::new(name, *v, "ms"));
        }
        out.table(trace::LayerTable {
            title: "set-up, median of each step vs median round".into(),
            unit: "ms",
            rows,
            total_label: "setup round".into(),
            total: setup::median_ms(&times.total),
        });

        let batch_tracer = trace::Tracer::default();
        let traced = batch::trace(
            &paths,
            &ready.library,
            &reference,
            pass.median(),
            seconds.mul_f64(TRACE_SHARE),
            &batch_tracer,
        )?;
        for (name, v, unit) in &traced.layer {
            out.layer(Metric::new(name, *v, unit));
        }
        out.line(format!(
            "trace overhead: traced parallel pass median {:.4} s vs untraced {:.4} s",
            traced.pass_s,
            pass.median()
        ));
        out.table(traced.table);
        out.check(
            traced.mismatches.is_empty(),
            "batch replica worklists equal the pipeline's".into(),
        );

        let serve_tracer = trace::Tracer::default();
        let rep = live::replica(
            &scenes,
            &ready.ctx,
            &ready.library,
            seconds.mul_f64(TRACE_SHARE),
            &serve_tracer,
        )?;
        for (name, v, unit) in &rep.layer {
            out.layer(Metric::new(name, *v, unit));
        }
        let low_p50_us = over_rounds("low", &|p| p.latency_ms.median()) * 1e3;
        out.layer(Metric::new("serve.outside_us", low_p50_us - rep.frame_p50_us, "us"));
        out.table(rep.table);
        out.check(
            rep.mismatches.is_empty(),
            "serve replica worklists equal AuditService's".into(),
        );

        let open: Vec<&live::PhaseResult> =
            summary.phases.iter().filter(|p| p.rate.is_some()).collect();
        out.layer(Metric::new(
            "serve.engine_reuse_frac",
            summary.engine_reuse_frac,
            "ratio",
        ));
        out.layer(Metric::new("serve.bytes_per_frame", summary.bytes_per_frame, "bytes"));
        let lags = Sample::new(open.iter().flat_map(|p| p.lag_ms.values().to_vec()).collect());
        out.layer(Metric::new("bench.gen_lag_ms_p99", lags.quantile(0.99), "ms"));
        out.layer(Metric::new(
            "bench.probe_backlog_max",
            open.iter().map(|p| p.backlog_max as f64).fold(0.0, f64::max),
            "count",
        ));
        out.spans = Some(vec![("batch", batch_tracer), ("serve", serve_tracer)]);
    }

    out.layer(Metric::new(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    ));
    Ok(out)
}
