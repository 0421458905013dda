//! End-to-end pipeline integration tests: generate → corrupt → learn →
//! assemble → compile → score → rank, across crate boundaries.

use fixy::data::{generate_scene, DatasetProfile, ObservationSource, SceneConfig};
use fixy::prelude::*;

fn small_cfg() -> SceneConfig {
    let mut cfg = DatasetProfile::LyftLike.scene_config();
    cfg.world.duration = 6.0;
    cfg.lidar.beam_count = 300;
    cfg
}

fn train_library(finder_features: &FeatureSet, n: usize, seed: u64) -> FeatureLibrary {
    let cfg = small_cfg();
    let train: Vec<_> = (0..n)
        .map(|i| generate_scene(&cfg, &format!("pl-train-{i}"), seed + i as u64))
        .collect();
    Learner::new().fit(finder_features, &train).expect("fit")
}

#[test]
fn full_missing_track_pipeline() {
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 3, 9000);
    let cfg = small_cfg();

    let mut total_candidates = 0usize;
    for seed in 0..3 {
        let data = generate_scene(&cfg, &format!("pl-eval-{seed}"), 9100 + seed);
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let ranked = finder.rank(&scene, &library).expect("rank");
        total_candidates += ranked.len();
        // Structural invariants of the output.
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranking must be sorted");
        }
        for c in &ranked {
            assert!(c.score.is_finite());
            assert!(c.score <= 0.0);
            assert!(c.n_obs > 0);
            let track = scene.track(c.track);
            assert!(!scene.track_has_source(track, ObservationSource::Human));
        }
    }
    assert!(total_candidates > 0, "pipeline should surface candidates");
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let finder = MissingTrackFinder::default();
    let library1 = train_library(&finder.feature_set(), 2, 9500);
    let library2 = train_library(&finder.feature_set(), 2, 9500);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-det", 9999);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank(&scene, &library1).expect("rank");
    let r2 = finder.rank(&scene, &library2).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn library_survives_serialization() {
    // A fitted library can be persisted and reloaded without changing any
    // ranking — required for the offline/online split in deployment.
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 9700);
    let json = serde_json::to_string(&library).expect("serialize");
    let reloaded: FeatureLibrary = serde_json::from_str(&json).expect("deserialize");

    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-serde", 9800);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let r1 = finder.rank(&scene, &library).expect("rank");
    let r2 = finder.rank(&scene, &reloaded).expect("rank");
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.track, b.track);
        assert!((a.score - b.score).abs() < 1e-12);
    }
}

#[test]
fn scene_roundtrips_through_disk() {
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-io", 9901);
    let dir = std::env::temp_dir().join("fixy_pipeline_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scene.json");
    fixy::data::io::save_scene(&data, &path).expect("save");
    let loaded = fixy::data::io::load_scene(&path).expect("load");
    std::fs::remove_file(&path).ok();

    // Assembling the loaded scene gives the identical structure.
    let s1 = Scene::assemble(&data, &AssemblyConfig::default());
    let s2 = Scene::assemble(&loaded, &AssemblyConfig::default());
    assert_eq!(s1.n_observations(), s2.n_observations());
    assert_eq!(s1.n_bundles(), s2.n_bundles());
    assert_eq!(s1.n_tracks(), s2.n_tracks());
}

#[test]
fn assembly_engine_matches_scene_assemble_field_for_field() {
    // The staged, buffer-reusing AssemblyEngine is the pipeline's
    // assembly path; it must produce exactly what the one-shot
    // Scene::assemble produces — same observations, same bundles, same
    // tracks, same order — across configs and across reuse.
    use fixy::core::AssemblyEngine;

    let cfg = small_cfg();
    let mut engine = AssemblyEngine::new(AssemblyConfig::default());
    for seed in 0..4 {
        let data = generate_scene(&cfg, &format!("ae-{seed}"), 7700 + seed);
        for (name, assembly) in [
            ("default", AssemblyConfig::default()),
            ("model_only", AssemblyConfig::model_only()),
            ("human_only", AssemblyConfig::human_only()),
        ] {
            engine.set_config(assembly);
            let engine_scene = engine.assemble(&data);
            let reference = Scene::assemble(&data, &assembly);
            // Scene's derived PartialEq spans every field: observations,
            // both CSR membership arenas and their offsets, frame_dt,
            // n_frames.
            assert_eq!(engine_scene, reference, "{name} seed {seed} diverged");
        }
    }
}

#[test]
fn scene_pipeline_parallel_is_byte_identical_to_sequential() {
    // The batch engine's core contract: fanning scenes out to workers
    // must not change a single bit of any score or the merge order.
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8800);
    let cfg = small_cfg();
    let batch: Vec<_> = (0..8)
        .map(|i| generate_scene(&cfg, &format!("sp-batch-{i}"), 8900 + i))
        .collect();

    let parallel = ScenePipeline::new(MissingTrackFinder::default())
        .run_merged(&library, batch.clone())
        .expect("parallel run");
    let sequential = ScenePipeline::new(MissingTrackFinder::default())
        .sequential()
        .run_merged(&library, batch)
        .expect("sequential run");

    assert!(!parallel.is_empty(), "batch should surface candidates");
    assert_eq!(parallel.len(), sequential.len());
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.scene_id, s.scene_id);
        assert_eq!(p.scene_index, s.scene_index);
        assert_eq!(p.candidate.track, s.candidate.track);
        assert_eq!(
            p.candidate.score.to_bits(),
            s.candidate.score.to_bits(),
            "scores must match bit-for-bit"
        );
    }
}

#[test]
fn scene_pipeline_empty_and_single_scene() {
    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8700);
    let pipeline = ScenePipeline::new(MissingTrackFinder::default());

    // Empty batch: empty worklist, no error.
    let empty = pipeline.run_merged(&library, Vec::new()).expect("empty batch");
    assert!(empty.is_empty());

    // Single scene: the batch result equals the direct single-scene rank.
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-single", 8750);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = finder.rank(&scene, &library).expect("rank");
    let batched = pipeline.run_merged(&library, vec![data]).expect("single batch");
    assert_eq!(batched.len(), direct.len());
    for (b, d) in batched.iter().zip(&direct) {
        assert_eq!(b.scene_id, "sp-single");
        assert_eq!(b.candidate.track, d.track);
        assert_eq!(b.candidate.score.to_bits(), d.score.to_bits());
    }
}

#[test]
fn indexed_sweep_matches_generic_component_scoring_bit_for_bit() {
    // The score engine's fast path (ComponentIndex slice lookup + fold)
    // and the generic per-candidate path (set rebuild over the graph)
    // must agree bit-for-bit: both fold the same factors in the same
    // (ascending id) order. This pins the equivalence the single-sweep
    // APIs rely on.
    use fixy::core::score::ScoreEngine;
    use fixy::graph::ScopeMode;

    let finder = MissingTrackFinder::default();
    let library = train_library(&finder.feature_set(), 2, 9700);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "pl-sweep", 9777);
    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let features = finder.feature_set();
    let engine = ScoreEngine::new(&scene, &features, &library).expect("compile");

    let sweep = engine.score_all_tracks();
    assert_eq!(sweep.len(), scene.n_tracks());
    for (track, fast) in sweep {
        let obs = scene.track_obs(scene.track(track));
        let vars = engine.compiled().vars_of(&obs);
        let generic = engine
            .compiled()
            .graph
            .score_component(&vars, ScopeMode::Within, |info| info.probability);
        assert_eq!(fast.factor_count, generic.factor_count, "track {track:?}");
        assert_eq!(fast.zeroed, generic.zeroed, "track {track:?}");
        match (fast.score, generic.score) {
            (Some(a), Some(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "track {track:?} diverges")
            }
            (a, b) => assert_eq!(a, b, "track {track:?}"),
        }
    }

    let bundle_sweep = engine.score_all_bundles();
    assert_eq!(bundle_sweep.len(), scene.n_bundles());
    for (bundle, fast) in bundle_sweep {
        let vars = engine.compiled().vars_of(scene.bundle_obs(bundle));
        let generic = engine
            .compiled()
            .graph
            .score_component(&vars, ScopeMode::Within, |info| info.probability);
        assert_eq!(fast.factor_count, generic.factor_count, "bundle {bundle:?}");
        match (fast.score, generic.score) {
            (Some(a), Some(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "bundle {bundle:?} diverges")
            }
            (a, b) => assert_eq!(a, b, "bundle {bundle:?}"),
        }
    }
}

#[test]
fn fuzzed_batch_is_byte_identical_across_runs_and_vs_sequential() {
    // The fuzzer's corpus through the batch engine: repeated parallel
    // runs and the sequential reference must agree bit-for-bit, and
    // regenerating the corpus from the same seed must too — the
    // conformance harness depends on this reproducibility.
    use fixy::data::fuzz::ScenarioFuzzer;

    let fuzzer = ScenarioFuzzer::new(7);
    let train = fuzzer.training_corpus(2);
    let finder = MissingTrackFinder::default();
    let library = Learner::new().fit(&finder.feature_set(), &train).expect("fit");
    let batch = fuzzer.corpus(6);

    let runs: Vec<Vec<BatchCandidate>> = (0..2)
        .map(|_| {
            ScenePipeline::new(MissingTrackFinder::default())
                .run_merged(&library, fuzzer.corpus(6))
                .expect("parallel run")
        })
        .collect();
    let sequential = ScenePipeline::new(MissingTrackFinder::default())
        .sequential()
        .run_merged(&library, batch)
        .expect("sequential run");

    assert!(!sequential.is_empty(), "fuzzed batch should surface candidates");
    for run in &runs {
        assert_eq!(run.len(), sequential.len());
        for (p, s) in run.iter().zip(&sequential) {
            assert_eq!(p.scene_id, s.scene_id);
            assert_eq!(p.scene_index, s.scene_index);
            assert_eq!(p.candidate.track, s.candidate.track);
            assert_eq!(
                p.candidate.score.to_bits(),
                s.candidate.score.to_bits(),
                "scores must match bit-for-bit"
            );
        }
    }
}

#[test]
fn bundle_level_pipeline_matches_direct_rank() {
    // The generalized SceneRanker: a bundle-level app through the batch
    // engine equals its direct per-scene ranking.
    let finder = MissingObsFinder::default();
    let library = train_library(&finder.feature_set(), 2, 8600);
    let cfg = small_cfg();
    let data = generate_scene(&cfg, "sp-bundle", 8650);

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let direct = finder.rank(&scene, &library).expect("rank");
    let batched = ScenePipeline::new(MissingObsFinder::default())
        .run_merged(&library, vec![data])
        .expect("bundle batch");
    assert_eq!(batched.len(), direct.len());
    for (b, d) in batched.iter().zip(&direct) {
        assert_eq!(b.candidate.bundle, d.bundle);
        assert_eq!(b.candidate.score.to_bits(), d.score.to_bits());
    }
}

#[test]
fn all_three_applications_run_on_one_scene() {
    let cfg = small_cfg();
    let train: Vec<_> = (0..3)
        .map(|i| generate_scene(&cfg, &format!("pl3-train-{i}"), 9600 + i))
        .collect();
    let data = generate_scene(&cfg, "pl3-eval", 9650);

    let mt = MissingTrackFinder::default();
    let mo = MissingObsFinder::default();
    let me = ModelErrorFinder::default();

    let mt_lib = Learner::new().fit(&mt.feature_set(), &train).expect("fit mt");
    let mo_lib = Learner::new().fit(&mo.feature_set(), &train).expect("fit mo");
    let me_lib = Learner::new().fit(&me.feature_set(), &train).expect("fit me");

    let scene = Scene::assemble(&data, &AssemblyConfig::default());
    let model_scene = Scene::assemble(&data, &AssemblyConfig::model_only());

    mt.rank(&scene, &mt_lib).expect("missing tracks");
    mo.rank(&scene, &mo_lib).expect("missing obs");
    me.rank(&model_scene, &me_lib, &Default::default())
        .expect("model errors");
}

/// The learner's worker pool is invisible in the library: fitting on 1,
/// 2 and 3 workers writes byte-identical `.flcb` bytes for every app's
/// feature set and assembly preset, and for a feature set with a joint
/// KDE. `fit` and `fit_assembled` on the thread-pool width agree too.
#[test]
fn learner_pool_writes_identical_libraries_at_every_worker_count() {
    use fixy::core::features::{MotionVectorFeature, VelocityFeature, VolumeFeature};
    use fixy::core::flcb::encode_library;
    use fixy::core::BoundFeature;
    use fixy::serve::ServeApp;
    use std::sync::Arc;

    let train = fixy::data::ScenarioFuzzer::new(41).training_corpus(5);
    let joint = FeatureSet::new(vec![
        BoundFeature::plain(Arc::new(VolumeFeature)),
        BoundFeature::plain(Arc::new(MotionVectorFeature)),
        BoundFeature::plain(Arc::new(VelocityFeature)),
    ]);
    let mut cases: Vec<(&str, AssemblyConfig, FeatureSet)> = ServeApp::ALL
        .iter()
        .map(|app| (app.name(), app.assembly(), app.feature_set()))
        .collect();
    cases.push(("joint", Learner::new().assembly, joint));

    for (name, assembly, features) in &cases {
        let learner = Learner { assembly: *assembly };
        let fit = |workers| {
            let library = learner.fit_with_workers(workers, features, &train).expect("fit");
            encode_library(name, &library)
        };
        let reference = fit(1);
        for workers in [2, 3] {
            assert!(
                fit(workers) == reference,
                "{name}: {workers} workers changed the library"
            );
        }
        let library = learner.fit(features, &train).expect("fit");
        assert!(encode_library(name, &library) == reference, "{name}: fit");
        let assembled: Vec<Scene> =
            train.iter().map(|data| Scene::assemble(data, assembly)).collect();
        let library = learner.fit_assembled(features, &assembled).expect("fit_assembled");
        assert!(encode_library(name, &library) == reference, "{name}: fit_assembled");
    }
    let joint_library = Learner::new().fit(&cases[4].2, &train).unwrap();
    assert!(matches!(
        joint_library.get("motion_vector"),
        Some(fixy::core::FittedDistribution::Joint(_))
    ));
}

/// A feature that never applies: it collects no samples.
#[derive(Debug)]
struct NeverFeature(&'static str);

impl Feature for NeverFeature {
    fn name(&self) -> &str {
        self.0
    }

    fn kind(&self) -> FeatureKind {
        FeatureKind::Observation
    }

    fn value(&self, _scene: &Scene, _target: &FeatureTarget<'_>) -> Option<FeatureValue> {
        None
    }
}

/// The first *declared* feature with no samples is the error, at every
/// worker count — even when a later one, or one of another kind, has
/// none either.
#[test]
fn first_declared_feature_without_samples_is_the_error_at_every_worker_count() {
    use fixy::core::features::{VelocityFeature, VolumeFeature};
    use fixy::core::BoundFeature;
    use std::sync::Arc;

    let train = fixy::data::ScenarioFuzzer::new(43).training_corpus(3);
    let features = FeatureSet::new(vec![
        BoundFeature::plain(Arc::new(VolumeFeature)),
        BoundFeature::plain(Arc::new(NeverFeature("never_first"))),
        BoundFeature::plain(Arc::new(VelocityFeature)),
        BoundFeature::plain(Arc::new(NeverFeature("never_second"))),
    ]);
    for workers in 1..=4 {
        match Learner::new().fit_with_workers(workers, &features, &train) {
            Err(FixyError::NoTrainingData { feature }) => {
                assert_eq!(feature, "never_first", "{workers} workers")
            }
            other => panic!("{workers} workers: expected NoTrainingData, got {other:?}"),
        }
        // No scenes at all: the first learned feature is the error.
        match Learner::new().fit_with_workers(workers, &features, &[]) {
            Err(FixyError::NoTrainingData { feature }) => assert_eq!(feature, "volume"),
            other => panic!("{workers} workers, no scenes: got {other:?}"),
        }
    }
}
