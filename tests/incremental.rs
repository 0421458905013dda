//! Incremental re-scoring conformance: the acceptance bar of the O(Δ)
//! path.
//!
//! The contract is **bit-identity**: after every pushed frame, scores
//! served by `IncrementalScorer` (cached components + dirty-set
//! invalidation) must equal a from-scratch `ScoreEngine` compile+score
//! of the same snapshot — same f64 bits, same factor counts, same
//! zeroed flags — across fuzzed corpora, all three `AssemblyConfig`
//! presets (each paired with the application feature set that actually
//! runs on it), assembler/scorer reuse across scenes, and the
//! empty/single-frame edges.

use fixy::core::{IncrementalScorer, Learner};
use fixy::data::ScenarioFuzzer;
use fixy::ingest::StreamingAssembler;
use fixy::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A preset paired with the app feature set that runs on it, plus the
/// library fitted for that pairing (fitting is the expensive part, so
/// each is done once per process).
struct Fixture {
    name: &'static str,
    config: AssemblyConfig,
    features: FeatureSet,
    library: FeatureLibrary,
}

fn fixtures() -> &'static [Fixture; 3] {
    static FIXTURES: OnceLock<[Fixture; 3]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let train = ScenarioFuzzer::new(41).training_corpus(2);
        let fit = |cfg: AssemblyConfig, features: FeatureSet, name| {
            let library = Learner { assembly: cfg }.fit(&features, &train).expect("fit");
            Fixture { name, config: cfg, features, library }
        };
        [
            // All four factor kinds (obs/bundle/transition/track).
            fit(
                AssemblyConfig::default(),
                MissingTrackFinder::default().feature_set(),
                "default+missing_tracks",
            ),
            // Inverted AOFs; no bundle factors, so components start
            // disconnected and merge only when the count feature fires.
            fit(
                AssemblyConfig::model_only(),
                ModelErrorFinder::default().feature_set(),
                "model_only+model_errors",
            ),
            fit(
                AssemblyConfig::human_only(),
                LabelAuditFinder::default().feature_set(),
                "human_only+label_audit",
            ),
        ]
    })
}

fn empty_scene(frame_dt: f64) -> Scene {
    Scene::from_parts(vec![], vec![], vec![], frame_dt, 0)
}

/// Stream `data` through one (assembler, scorer) pair, asserting after
/// every frame that track and bundle scores match a from-scratch batch
/// compile+score of the identical snapshot, bit for bit.
fn assert_stream_matches_batch(
    fx: &Fixture,
    assembler: &mut StreamingAssembler,
    scorer: &mut IncrementalScorer<'_>,
    data: &fixy::data::SceneData,
    ctx: &str,
) -> Scene {
    assembler.begin(data.frame_dt);
    scorer.begin();
    let mut scene = empty_scene(data.frame_dt);
    for (k, frame) in data.frames.iter().enumerate() {
        assembler.push_frame(frame).expect("push");
        assembler.update_snapshot(&mut scene).expect("update");
        let delta = assembler.last_delta().expect("delta");
        assert_eq!(delta.frame, k, "{ctx}: delta frame");
        scorer.rescore_delta(&scene, delta);

        let batch = ScoreEngine::new(&scene, &fx.features, &fx.library).expect("batch");
        let bt = batch.score_all_tracks();
        let it = scorer.score_all_tracks(&scene);
        assert_eq!(bt.len(), it.len(), "{ctx} frame {k}: track count");
        for ((btk, bs), (itk, is_)) in bt.iter().zip(&it) {
            assert_eq!(btk, itk, "{ctx} frame {k}");
            assert_eq!(
                bs.score.map(f64::to_bits),
                is_.score.map(f64::to_bits),
                "{ctx} frame {k}: track {btk:?} score bits"
            );
            assert_eq!(bs.factor_count, is_.factor_count, "{ctx} frame {k}: track {btk:?}");
            assert_eq!(bs.zeroed, is_.zeroed, "{ctx} frame {k}: track {btk:?}");
        }
        let bb = batch.score_all_bundles();
        let ib = scorer.score_all_bundles(&scene);
        assert_eq!(bb.len(), ib.len(), "{ctx} frame {k}: bundle count");
        for ((bbk, bs), (ibk, is_)) in bb.iter().zip(&ib) {
            assert_eq!(bbk, ibk, "{ctx} frame {k}");
            assert_eq!(
                bs.score.map(f64::to_bits),
                is_.score.map(f64::to_bits),
                "{ctx} frame {k}: bundle {bbk:?} score bits"
            );
            assert_eq!(bs.factor_count, is_.factor_count, "{ctx} frame {k}: bundle {bbk:?}");
        }
    }
    let final_scene = assembler.finalize().expect("finalize");
    assert_eq!(scene, final_scene, "{ctx}: grown snapshot != finalized scene");
    final_scene
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The tentpole contract: incremental ≡ batch after every frame, for
    // every preset × feature-set pairing, on fuzzed scenes (which inject
    // the full error taxonomy — class swaps, drops, ghosts — so late
    // association and component merges occur organically).
    #[test]
    fn prop_incremental_scores_equal_batch(seed in 0u64..300, index in 0u64..60) {
        for fx in fixtures() {
            let data = ScenarioFuzzer::new(seed).scene(index);
            let mut assembler = StreamingAssembler::new(fx.config);
            let mut scorer =
                IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
            assert_stream_matches_batch(
                fx,
                &mut assembler,
                &mut scorer,
                &data,
                &format!("{} seed {} scene {}", fx.name, seed, index),
            );
        }
    }

    // Reuse: one assembler + one scorer across consecutive scenes; state
    // from a previous scene must be invisible in the next one's scores.
    #[test]
    fn prop_reuse_across_scenes_is_clean(seed in 0u64..300, start in 0u64..40) {
        let fx = &fixtures()[0];
        let mut assembler = StreamingAssembler::new(fx.config);
        let mut scorer = IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
        for index in start..start + 3 {
            let data = ScenarioFuzzer::new(seed).scene(index);
            assert_stream_matches_batch(
                fx,
                &mut assembler,
                &mut scorer,
                &data,
                &format!("reuse seed {} scene {}", seed, index),
            );
        }
    }
}

/// The rank layer too: per-frame incremental worklists equal the batch
/// finders' worklists on the same snapshot (labels and score bits), for
/// a track-ranking app and a bundle-ranking app, including the excluded
/// set of `ModelErrorFinder`.
#[test]
fn incremental_worklists_equal_batch_worklists() {
    let track_fx = &fixtures()[1]; // model_only + ModelErrorFinder
    let bundle_fx = &fixtures()[0]; // default + MissingTrackFinder features

    let finder = ModelErrorFinder::default();
    let data = ScenarioFuzzer::new(77).scene(3);
    let mut assembler = StreamingAssembler::new(track_fx.config);
    let mut scorer = IncrementalScorer::new(&track_fx.features, &track_fx.library).expect("scorer");
    assembler.begin(data.frame_dt);
    let mut scene = empty_scene(data.frame_dt);
    let mut excluded: BTreeSet<ObsIdx> = BTreeSet::new();
    for frame in &data.frames {
        assembler.push_frame(frame).unwrap();
        assembler.update_snapshot(&mut scene).unwrap();
        scorer.rescore_delta(&scene, assembler.last_delta().unwrap());
        // Grow the exclusion set as the stream runs, like a live deploy
        // folding in ad-hoc assertion hits.
        if scene.n_observations() > 4 {
            excluded.insert(ObsIdx(scene.n_observations() / 2));
        }
        let incr = finder.rank_scored(&scene, scorer.score_all_tracks(&scene), &excluded);
        let batch = finder.rank(&scene, &track_fx.library, &excluded).unwrap();
        assert_eq!(incr.len(), batch.len());
        for (a, b) in incr.iter().zip(&batch) {
            assert_eq!(a.track, b.track);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    // Bundle ranking path (MissingObsFinder-shaped via BundleAuditFinder
    // machinery is covered by the score-level proptest; here rank
    // cached bundle scores with the full feature set).
    let finder = MissingObsFinder::default();
    let features = finder.feature_set();
    let library = Learner::new()
        .fit(&features, &ScenarioFuzzer::new(41).training_corpus(2))
        .unwrap();
    let data = ScenarioFuzzer::new(78).scene(5);
    let mut assembler = StreamingAssembler::new(bundle_fx.config);
    let mut scorer = IncrementalScorer::new(&features, &library).expect("scorer");
    assembler.begin(data.frame_dt);
    let mut scene = empty_scene(data.frame_dt);
    for frame in &data.frames {
        assembler.push_frame(frame).unwrap();
        assembler.update_snapshot(&mut scene).unwrap();
        scorer.rescore_delta(&scene, assembler.last_delta().unwrap());
        let incr = finder.rank_scored(&scene, scorer.score_all_bundles(&scene));
        let batch = finder.rank(&scene, &library).unwrap();
        assert_eq!(incr.len(), batch.len());
        for (a, b) in incr.iter().zip(&batch) {
            assert_eq!(a.bundle, b.bundle);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

/// Edges: a scene with zero frames and a scene cut to a single frame.
#[test]
fn empty_and_single_frame_scenes() {
    let fx = &fixtures()[0];

    // Zero frames: begin + finalize with no pushes; nothing to score.
    let mut assembler = StreamingAssembler::new(fx.config);
    let mut scorer = IncrementalScorer::new(&fx.features, &fx.library).expect("scorer");
    assembler.begin(0.2);
    scorer.begin();
    assert!(assembler.last_delta().is_none());
    let scene = assembler.finalize().expect("finalize empty");
    assert_eq!(scene.n_observations(), 0);
    assert!(scorer.score_all_tracks(&scene).is_empty());
    assert!(scorer.score_all_bundles(&scene).is_empty());

    // One frame: the degenerate stream still matches batch.
    let mut data = ScenarioFuzzer::new(91).scene(2);
    data.frames.truncate(1);
    assert_stream_matches_batch(fx, &mut assembler, &mut scorer, &data, "single-frame");
}
