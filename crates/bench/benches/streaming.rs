//! Streaming-ingest benchmarks: the three pieces of `loa_ingest`.
//!
//! * `streaming/assemble_streamed` vs `assemble_batch` — the full
//!   frame-by-frame path (begin/push/finalize) against the one-shot
//!   engine; the delta is the price of incremental availability (both
//!   run the same staged internals, so it should be ≈0).
//! * `streaming/push_and_snapshot_per_frame` — the live regime: push one
//!   frame, materialize the partial-scene snapshot; divide the median by
//!   the frame count for per-frame latency.
//! * `streaming/fscb_decode_scene` — binary scene loading from disk.
//! * `streaming/json_decode_tree` vs `json_decode_streamed` (short and
//!   full-size scene) — the two JSON decode paths: materialize a
//!   `Value` tree then walk it, vs `from_json_stream` straight from
//!   bytes. Both run on the same streaming lexer; the delta is the
//!   cost of the intermediate tree.
//! * `streaming/rank_corpus_streamed` vs `rank_corpus_buffered` — a
//!   scene-directory rank through `process_stream` + `CorpusSource`
//!   (O(workers) scenes resident) against load-everything + `run`.
//! * `streaming/incremental_rescore_per_frame` vs
//!   `full_rescore_per_frame` — the pair `fixy stream --compare-full`
//!   runs (a whole `loa_serve::Session` frame, labelled worklist
//!   included, vs push + `ServeContext::full_worklist` of a fresh
//!   snapshot), on a short and a long scene. Divide medians by the
//!   frame count for per-frame cost: the full path grows with scene
//!   length, the incremental path stays flat.
//!
//! * `streaming/obs_recorder_absent_per_frame` vs
//!   `obs_recorder_installed_per_frame` — the same session replay with
//!   `loa_obs` recording off vs on. The delta is the whole cost of the
//!   instrumentation (`bench_obs_overhead` also hard-asserts it stays
//!   under 3% or 2us per frame, so a regression fails the bench run
//!   itself, not just the numbers).
//!
//! Set `FIXY_BENCH_SMOKE=1` to run on a miniature scene with 3 samples —
//! the CI smoke mode that keeps the bench compiling *and* executing.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fixy_core::prelude::*;
use fixy_core::Learner;
use loa_data::{generate_scene, DatasetProfile, Frame, SceneData};
use loa_ingest::{CorpusSource, StreamingAssembler};
use loa_serve::{ServeApp, ServeContext, Session};
use std::hint::black_box;
use std::path::PathBuf;

fn smoke() -> bool {
    std::env::var_os("FIXY_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn scene_data(name: &str, seed: u64) -> SceneData {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    if smoke() {
        cfg.world.duration = 3.0;
        cfg.lidar.beam_count = 240;
    }
    generate_scene(&cfg, name, seed)
}

/// A 5 s scene (1.5 s in smoke mode).
fn short_scene(name: &str, seed: u64) -> SceneData {
    let mut cfg = DatasetProfile::InternalLike.scene_config();
    cfg.world.duration = if smoke() { 1.5 } else { 5.0 };
    if smoke() {
        cfg.lidar.beam_count = 240;
    }
    generate_scene(&cfg, name, seed)
}

fn bench_streamed_assembly(c: &mut Criterion) {
    let data = scene_data("stream-eval", 4242);
    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 20 });

    let mut assembler = StreamingAssembler::new(AssemblyConfig::default());
    group.bench_function("assemble_streamed", |b| {
        b.iter(|| {
            let scene = assembler.assemble_streamed(black_box(&data)).expect("stream");
            black_box(scene.n_tracks())
        })
    });

    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    group.bench_function("assemble_batch", |b| {
        b.iter(|| {
            let scene = engine.assemble(black_box(&data));
            black_box(scene.n_tracks())
        })
    });

    // The live regime: every pushed frame is followed by a partial-scene
    // snapshot (what an online ranker would score).
    group.bench_function("push_and_snapshot_per_frame", |b| {
        b.iter(|| {
            assembler.begin(data.frame_dt);
            let mut acc = 0usize;
            for frame in &data.frames {
                assembler.push_frame(black_box(frame)).expect("push");
                acc += assembler.snapshot().n_tracks();
            }
            let scene = assembler.finalize().expect("finalize");
            black_box((acc, scene.n_tracks()))
        })
    });

    group.finish();
}

fn bench_scene_decode(c: &mut Criterion) {
    let full = scene_data("stream-decode", 77);
    let short = short_scene("stream-decode-short", 77);
    let dir = std::env::temp_dir().join("fixy_bench_streaming_decode");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let fscb_path = dir.join("scene.fscb");
    loa_ingest::write_scene(&full, &fscb_path).expect("save fscb");

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    group.bench_function("fscb_decode_scene", |b| {
        b.iter(|| {
            let scene = loa_ingest::read_scene(black_box(&fscb_path)).expect("fscb");
            black_box(scene.frames.len())
        })
    });

    // Decode from an in-memory string so both JSON paths measure pure
    // decode, not disk. Historical context for the snapshots: before
    // the streaming lexer, the tree parser's per-character UTF-8
    // re-validation made the full-size decode take ~43.5 s; both paths
    // below run on the linear-time lexer, and the streamed one also
    // skips the intermediate tree.
    for (label, data) in [("short", &short), ("full", &full)] {
        let json = serde_json::to_string(data).expect("serialize scene");
        group.bench_function(BenchmarkId::new("json_decode_tree", label), |b| {
            b.iter(|| {
                let scene: SceneData =
                    serde_json::from_str_via_tree(black_box(&json)).expect("tree decode");
                black_box(scene.frames.len())
            })
        });
        group.bench_function(BenchmarkId::new("json_decode_streamed", label), |b| {
            b.iter(|| {
                let scene: SceneData = serde_json::from_str(black_box(&json)).expect("streamed");
                black_box(scene.frames.len())
            })
        });
    }

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_corpus_rank(c: &mut Criterion) {
    let n_scenes = if smoke() { 2 } else { 4 };
    let finder = MissingTrackFinder::default();
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("stream-train-{i}"), 500 + i))
        .collect();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");

    let dir = std::env::temp_dir().join("fixy_bench_streaming_corpus");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths: Vec<PathBuf> = (0..n_scenes)
        .map(|i| {
            let data = scene_data(&format!("corpus-{i:02}"), 900 + i as u64);
            let path = dir.join(format!("corpus-{i:02}.fscb"));
            loa_ingest::write_scene(&data, &path).expect("write");
            path
        })
        .collect();

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    group.bench_function("rank_corpus_streamed", |b| {
        b.iter(|| {
            let source = CorpusSource::open(black_box(&dir)).expect("corpus");
            let counts = ScenePipeline::new(MissingTrackFinder::default())
                .process_stream(
                    &library,
                    source.into_paths(),
                    |p| loa_ingest::load_scene_auto(&p),
                    |r| r.candidates.len(),
                )
                .expect("stream rank");
            black_box(counts.iter().sum::<usize>())
        })
    });

    group.bench_function("rank_corpus_buffered", |b| {
        b.iter(|| {
            let scenes: Vec<SceneData> = paths
                .iter()
                .map(|p| loa_ingest::read_scene(p).expect("read"))
                .collect();
            let ranked = ScenePipeline::new(MissingTrackFinder::default())
                .run(&library, scenes)
                .expect("buffered rank");
            black_box(ranked.iter().map(|r| r.candidates.len()).sum::<usize>())
        })
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing-tracks serving context fitted on two training scenes.
fn missing_tracks_context(name: &str, seed: u64) -> ServeContext {
    let app = ServeApp::MissingTracks;
    let train: Vec<_> = (0..2)
        .map(|i| scene_data(&format!("{name}-train-{i}"), seed + i))
        .collect();
    let library = Learner::new().fit(&app.feature_set(), &train).expect("fit");
    ServeContext::new(app, library).expect("context")
}

/// Replay a whole scene through `session` in index order, as `fixy
/// stream` does: every push must release its frame.
fn replay(session: &mut Session<'_>, data: &SceneData, frames: Vec<Frame>) -> usize {
    session.begin(&data.id, data.frame_dt).expect("valid frame_dt");
    let mut acc = 0usize;
    for frame in frames {
        assert_eq!(session.push(black_box(frame)).expect("push"), 1);
        acc += session.worklist_entries().len();
    }
    acc + session.close().entries.len()
}

fn bench_incremental_rescore(c: &mut Criterion) {
    let ctx = missing_tracks_context("incr", 600);
    let long = scene_data("incr-long", 4321);
    let short = short_scene("incr-short", 4321);

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    for (label, data) in [("short", &short), ("long", &long)] {
        // O(Δ): the whole session frame, labelled worklist included. The
        // frames are cloned outside the timed region (a push takes
        // ownership).
        group.bench_function(BenchmarkId::new("incremental_rescore_per_frame", label), |b| {
            let mut session = Session::new(&ctx, 1, usize::MAX);
            b.iter_batched(
                || data.frames.clone(),
                |frames| replay(&mut session, data, frames),
                BatchSize::LargeInput,
            )
        });

        // O(scene): push, then snapshot + compile + score + rank from
        // scratch every frame — the `--compare-full` reference.
        group.bench_function(BenchmarkId::new("full_rescore_per_frame", label), |b| {
            let mut assembler = StreamingAssembler::new(ctx.app().assembly());
            b.iter(|| {
                assembler.begin(data.frame_dt);
                let mut acc = 0usize;
                for frame in &data.frames {
                    assembler.push_frame(black_box(frame)).expect("push");
                    acc += ctx.full_worklist(&assembler.snapshot()).expect("rank").len();
                }
                assembler.finalize().expect("finalize");
                black_box(acc)
            })
        });
    }

    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    let ctx = missing_tracks_context("obs", 700);
    let data = short_scene("obs-overhead", 8901);

    // The instrumented hot loop is the session replay: every `loa_obs`
    // touchpoint on the streaming path fires there (Push/Snapshot/
    // Rescore/Score/Rank spans, cache and ingest counters, dirty-set
    // histogram, per-frame latency).
    let mut session = Session::new(&ctx, 1, usize::MAX);

    let mut group = c.benchmark_group("streaming");
    group.sample_size(if smoke() { 3 } else { 10 });

    loa_obs::disable_all();
    group.bench_function("obs_recorder_absent_per_frame", |b| {
        b.iter_batched(
            || data.frames.clone(),
            |frames| replay(&mut session, &data, frames),
            BatchSize::LargeInput,
        )
    });
    loa_obs::enable_metrics();
    group.bench_function("obs_recorder_installed_per_frame", |b| {
        b.iter_batched(
            || data.frames.clone(),
            |frames| replay(&mut session, &data, frames),
            BatchSize::LargeInput,
        )
    });
    loa_obs::disable_all();
    group.finish();

    // Hard gate, not just a snapshot: best-of-K replays with the
    // recorder absent vs installed. Installed must cost <3% — or, for
    // tiny smoke scenes where 3% is below timer noise, <2us/frame.
    let best_of = |session: &mut Session<'_>| {
        let reps = if smoke() { 3 } else { 7 };
        (0..reps)
            .map(|_| {
                let frames = data.frames.clone();
                let t0 = std::time::Instant::now();
                black_box(replay(session, &data, frames));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    replay(&mut session, &data, data.frames.clone()); // warm caches/allocations
    loa_obs::disable_all();
    let off = best_of(&mut session);
    loa_obs::enable_metrics();
    let on = best_of(&mut session);
    loa_obs::disable_all();
    let per_frame_overhead_us = (on - off).max(0.0) / data.frames.len() as f64 * 1e6;
    assert!(
        on <= off * 1.03 || per_frame_overhead_us < 2.0,
        "loa_obs instrumentation overhead too high: {:.1}us vs {:.1}us per replay \
         ({per_frame_overhead_us:.2}us per frame)",
        on * 1e6,
        off * 1e6,
    );
}

criterion_group!(
    benches,
    bench_streamed_assembly,
    bench_scene_decode,
    bench_corpus_rank,
    bench_incremental_rescore,
    bench_obs_overhead
);
criterion_main!(benches);
