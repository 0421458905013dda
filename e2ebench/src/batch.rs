//! Batch rank: `ScenePipeline::process_stream` over a `CorpusSource`,
//! merged with `merge_ranked` — the path `fixy rank <dir>` takes.

use crate::stats::Sample;
use crate::trace::{self, LayerTable, Span, Tracer};
use fixy_core::apps::MissingTrackFinder;
use fixy_core::{
    merge_ranked, AssemblyConfig, AssemblyEngine, BatchCandidate, FeatureLibrary, RankedScene,
    Scene, ScenePipeline,
};
use loa_data::ObjectClass;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One scene's worklist: `(class, score)`, best first.
pub type Worklist = Vec<(ObjectClass, f64)>;

const TOP_K: usize = 10;

fn pipeline() -> ScenePipeline<MissingTrackFinder> {
    ScenePipeline::new(MissingTrackFinder::default())
}

fn load(path: PathBuf) -> Result<loa_data::SceneData, loa_ingest::IngestError> {
    loa_ingest::load_scene_auto(&path)
}

/// The `post` step of a pass: drop the scene's frames and assembled
/// graph, keeping what the merge needs, so a pass holds O(workers)
/// scenes in memory as `fixy rank` does.
fn slim(mut r: RankedScene) -> RankedScene {
    r.data.frames = Vec::new();
    r.scene = Scene::from_parts(Vec::new(), Vec::new(), Vec::new(), r.data.frame_dt, 0);
    r
}

/// Order-sensitive digest of a merged worklist, bit-exact in scores.
fn digest(merged: &[BatchCandidate]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for c in merged {
        c.scene_id.hash(&mut h);
        c.candidate.track.0.hash(&mut h);
        c.candidate.class.name().hash(&mut h);
        c.candidate.score.to_bits().hash(&mut h);
    }
    h.finish()
}

/// The untimed reference: the sequential pipeline's digest, per-scene
/// worklists and precision@10 against the injected-error audit.
pub struct Reference {
    pub digest: u64,
    pub worklists: HashMap<String, Worklist>,
    pub precision_at_10: f64,
    pub seq_pass_s: f64,
    pub obs_per_scene: f64,
    pub tracks_per_scene: f64,
}

pub fn reference(paths: &[PathBuf], library: &FeatureLibrary) -> Result<Reference, String> {
    // Grade each scene against its injected-error audit inside `post`,
    // while its data and assembled scene are still at hand.
    let t = Instant::now();
    let graded = pipeline()
        .sequential()
        .process_stream(library, paths.to_vec(), load, |r| {
            let relevance: Vec<bool> = r
                .candidates
                .iter()
                .take(TOP_K)
                .map(|c| loa_eval::resolve::is_missing_track_hit(&r.data, &r.scene, c.track))
                .collect();
            let precision = loa_eval::metrics::precision_at_k(&relevance, TOP_K);
            let sizes = (r.scene.n_observations(), r.scene.n_tracks());
            (slim(r), precision, sizes)
        })
        .map_err(|e| format!("sequential pipeline: {e}"))?;
    let seq_pass_s = t.elapsed().as_secs_f64();
    let mut precisions = Vec::new();
    let mut worklists = HashMap::new();
    let (mut obs, mut tracks) = (0usize, 0usize);
    let mut ranked = Vec::with_capacity(graded.len());
    for (r, precision, (n_obs, n_tracks)) in graded {
        precisions.extend(precision);
        worklists.insert(
            r.id.clone(),
            r.candidates.iter().map(|c| (c.class, c.score)).collect(),
        );
        obs += n_obs;
        tracks += n_tracks;
        ranked.push(r);
    }
    let n = ranked.len().max(1) as f64;
    Ok(Reference {
        digest: digest(&merge_ranked(ranked)),
        worklists,
        precision_at_10: Sample::new(precisions).mean(),
        seq_pass_s,
        obs_per_scene: obs as f64 / n,
        tracks_per_scene: tracks as f64 / n,
    })
}

/// Timed parallel passes.
#[derive(Debug, Default)]
pub struct Measured {
    pub pass_s: Vec<f64>,
    pub digests: Vec<u64>,
    pub failed_passes: u64,
}

fn one_pass(paths: &[PathBuf], library: &FeatureLibrary) -> Result<u64, String> {
    let ranked = pipeline()
        .process_stream(library, paths.to_vec(), load, slim)
        .map_err(|e| e.to_string())?;
    Ok(digest(&merge_ranked(ranked)))
}

/// The untimed warm-up pass: page cache, allocator and worker engines.
pub fn warm_up(paths: &[PathBuf], library: &FeatureLibrary) -> Result<(), String> {
    one_pass(paths, library).map(|_| ())
}

/// Add timed parallel passes to `out` for `budget` (at least one pass).
pub fn measure(paths: &[PathBuf], library: &FeatureLibrary, budget: Duration, out: &mut Measured) {
    let start = Instant::now();
    let passes = out.pass_s.len();
    while out.pass_s.len() == passes || start.elapsed() < budget {
        let t = Instant::now();
        match one_pass(paths, library) {
            Ok(d) => {
                out.pass_s.push(t.elapsed().as_secs_f64());
                out.digests.push(d);
            }
            Err(e) => {
                eprintln!("batch pass failed: {e}");
                out.failed_passes += 1;
                break;
            }
        }
    }
}

/// Per-layer numbers from the traced passes.
pub struct Traced {
    /// Median traced parallel pass, seconds.
    pub pass_s: f64,
    pub table: LayerTable,
    pub layer: Vec<(&'static str, f64, &'static str)>,
    pub mismatches: Vec<String>,
}

/// Traced parallel passes (spans from the `load` and `post` closures),
/// then a sequential replica of the per-scene steps, then sequential
/// pipeline passes; each for about a third of `budget`.
pub fn trace(
    paths: &[PathBuf],
    library: &FeatureLibrary,
    reference: &Reference,
    untraced_pass_s: f64,
    budget: Duration,
    tracer: &Tracer,
) -> Result<Traced, String> {
    let third = budget / 3;
    let workers = rayon::current_num_threads();
    let n = paths.len();

    // Traced parallel passes: a `pipeline.scene` span per scene from the
    // start of its `load` to its `post`, with `pipeline.decode` inside.
    let ids: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let starts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut traced_pass_s = Vec::new();
    let start = Instant::now();
    while traced_pass_s.len() < 2 || start.elapsed() < third {
        let pass_id = tracer.id();
        let pass_start = tracer.now_ns();
        let t = Instant::now();
        let tokens: Vec<(usize, PathBuf)> = paths.iter().cloned().enumerate().collect();
        let ranked: Vec<RankedScene> = pipeline()
            .process_stream(
                library,
                tokens,
                |(i, path): (usize, PathBuf)| {
                    let id = tracer.id();
                    ids[i].store(u64::from(id), Ordering::Relaxed);
                    starts[i].store(tracer.now_ns(), Ordering::Relaxed);
                    tracer.time("pipeline.decode", Some(id), i as u64, || load(path))
                },
                |r: RankedScene| {
                    let i = r.index;
                    tracer.record(Span {
                        id: ids[i].load(Ordering::Relaxed) as u32,
                        parent: None,
                        name: "pipeline.scene",
                        key: i as u64,
                        start_ns: starts[i].load(Ordering::Relaxed),
                        end_ns: tracer.now_ns(),
                    });
                    slim(r)
                },
            )
            .map_err(|e| format!("traced pass: {e}"))?;
        let merged = tracer.time("pipeline.merge", Some(pass_id), 0, || merge_ranked(ranked));
        traced_pass_s.push(t.elapsed().as_secs_f64());
        tracer.record(Span {
            id: pass_id,
            parent: None,
            name: "pipeline.pass",
            key: 0,
            start_ns: pass_start,
            end_ns: tracer.now_ns(),
        });
        if digest(&merged) != reference.digest {
            return Err("traced pass worklist differs from the sequential pipeline".into());
        }
    }

    // Sequential replica of the per-scene steps.
    let finder = MissingTrackFinder::default();
    let features = finder.feature_set();
    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    let mut bytes = 0u64;
    let mut replica_scenes = 0u64;
    let mut mismatches = Vec::new();
    let start = Instant::now();
    while replica_scenes < n as u64 || start.elapsed() < third {
        for (i, path) in paths.iter().enumerate() {
            let key = i as u64;
            let parent = tracer.id();
            let t0 = tracer.now_ns();
            let data = tracer
                .time("ingest.decode", Some(parent), key, || {
                    loa_ingest::load_scene_auto(path)
                })
                .map_err(|e| format!("replica decode: {e}"))?;
            let scene = tracer.time("core.assemble", Some(parent), key, || engine.assemble(&data));
            let scorer = tracer
                .time("core.compile", Some(parent), key, || {
                    fixy_core::score::ScoreEngine::new(&scene, &features, library)
                })
                .map_err(|e| format!("replica compile: {e}"))?;
            let scores = tracer.time("core.score", Some(parent), key, || scorer.score_all_tracks());
            let ranked =
                tracer.time("core.rank", Some(parent), key, || finder.rank_scored(&scene, scores));
            tracer.record(Span {
                id: parent,
                parent: None,
                name: "batch.scene",
                key,
                start_ns: t0,
                end_ns: tracer.now_ns(),
            });
            bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            replica_scenes += 1;
            let got: Worklist = ranked.iter().map(|c| (c.class, c.score)).collect();
            if !same_worklist(reference.worklists.get(&data.id), &got) {
                mismatches.push(format!("batch replica worklist differs on {}", data.id));
            }
        }
    }

    // Sequential pipeline passes: the single-thread baseline.
    let mut seq_pass_s = vec![reference.seq_pass_s];
    let start = Instant::now();
    while start.elapsed() < third {
        let t = Instant::now();
        pipeline()
            .sequential()
            .process_stream(library, paths.to_vec(), load, |r| r.candidates.len())
            .map_err(|e| format!("sequential pass: {e}"))?;
        seq_pass_s.push(t.elapsed().as_secs_f64());
    }

    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let per_scene_ms = |name: &str| {
        own.get(name)
            .map_or(0.0, |&(ns, count)| ns as f64 / 1e6 / count.max(1) as f64)
    };
    let replica_decode_ns = own.get("ingest.decode").map_or(0, |&(ns, _)| ns);
    let decode_ms = per_scene_ms("ingest.decode");
    let scene_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "pipeline.scene").collect();
    let pipeline_scene_ms = scene_spans.iter().map(|s| s.dur_ns()).sum::<u64>() as f64
        / 1e6
        / scene_spans.len().max(1) as f64;
    let traced_wall_s: f64 = traced_pass_s.iter().sum();
    let busy_s = scene_spans.iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9;
    let merge_ms = per_scene_ms("pipeline.merge");
    let seq_rate = n as f64 / Sample::new(seq_pass_s).median();
    let par_rate = n as f64 / untraced_pass_s;
    let traced_median = Sample::new(traced_pass_s).median();

    let table = LayerTable {
        title: "batch scene, sequential replica rows vs parallel pipeline per-scene time".into(),
        unit: "ms per scene",
        rows: vec![
            ("ingest.decode".into(), decode_ms),
            ("core.assemble".into(), per_scene_ms("core.assemble")),
            ("core.compile".into(), per_scene_ms("core.compile")),
            ("core.score".into(), per_scene_ms("core.score")),
            ("core.rank".into(), per_scene_ms("core.rank")),
        ],
        total_label: "pipeline.scene (load → post)".into(),
        total: pipeline_scene_ms,
    };
    let layer = vec![
        ("ingest.decode_ms", decode_ms, "ms"),
        (
            "ingest.decode_mb_per_s",
            bytes as f64 / 1e6 / (replica_decode_ns as f64 / 1e9),
            "MB/s",
        ),
        ("core.assemble_ms", per_scene_ms("core.assemble"), "ms"),
        ("core.compile_ms", per_scene_ms("core.compile"), "ms"),
        ("core.score_ms", per_scene_ms("core.score"), "ms"),
        ("core.rank_ms", per_scene_ms("core.rank"), "ms"),
        ("core.other_ms", table.other(), "ms"),
        (
            "pipeline.busy_frac",
            busy_s / (workers as f64 * traced_wall_s),
            "ratio",
        ),
        ("pipeline.merge_ms", merge_ms, "ms"),
        ("pipeline.seq_scenes_per_s", seq_rate, "1/s"),
        ("pipeline.speedup", par_rate / seq_rate, "ratio"),
        (
            "ingest.bytes_per_scene",
            bytes as f64 / replica_scenes as f64,
            "bytes",
        ),
        ("core.obs_per_scene", reference.obs_per_scene, "count"),
        ("core.tracks_per_scene", reference.tracks_per_scene, "count"),
        (
            "bench.trace_overhead_frac",
            traced_median / untraced_pass_s - 1.0,
            "ratio",
        ),
    ];
    Ok(Traced { pass_s: traced_median, table, layer, mismatches })
}

/// Bit-exact comparison of a worklist against the reference.
pub fn same_worklist(reference: Option<&Worklist>, got: &[(ObjectClass, f64)]) -> bool {
    reference.is_some_and(|r| {
        r.len() == got.len()
            && r.iter()
                .zip(got)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    })
}
