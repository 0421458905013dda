//! Scoring OBTs over the compiled factor graph (Section 6).
//!
//! The score of an observation is `Σ ln(f_i(π_i(ω)))` over its factors;
//! the score of any component is the sum over its observations,
//! normalized by the number of features connecting to the component.
//! Components touched by an AOF-zeroed factor are excluded from ranking.

use crate::compile::{compile_scene, CompiledScene};
use crate::error::FixyError;
use crate::feature::FeatureSet;
use crate::learner::FeatureLibrary;
use crate::scene::{BundleIdx, ObsIdx, Scene, TrackIdx};
use loa_graph::{ComponentId, ComponentScore, ScopeMode};
use serde::{Deserialize, Serialize};

/// Scoring options.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ScoreOptions {
    /// Which factors count for a component (Section 6 normalization uses
    /// fully-contained factors — see `loa_graph::ScopeMode`).
    pub scope: ScopeMode,
}

/// Whole-scene score sweeps — what an application ranks from.
///
/// Implemented by the batch [`ScoreEngine`] (a compiled scene) and the
/// streaming [`IncrementalScorer`](crate::IncrementalScorer) (cached
/// components), which score bit-identically; one rank function over
/// this trait serves both paths.
pub trait ScoreSweep {
    /// Every track's score, in track order.
    fn track_scores(&mut self, scene: &Scene) -> Vec<(TrackIdx, ComponentScore)>;
    /// Every bundle's score, in bundle order.
    fn bundle_scores(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)>;
}

/// A scene compiled and ready to score.
pub struct ScoreEngine<'a> {
    scene: &'a Scene,
    compiled: CompiledScene,
    options: ScoreOptions,
}

impl<'a> ScoreEngine<'a> {
    /// Compile `scene` against `features`/`library` and wrap it for
    /// scoring.
    pub fn new(
        scene: &'a Scene,
        features: &FeatureSet,
        library: &FeatureLibrary,
    ) -> Result<Self, FixyError> {
        Self::with_options(scene, features, library, ScoreOptions::default())
    }

    pub fn with_options(
        scene: &'a Scene,
        features: &FeatureSet,
        library: &FeatureLibrary,
        options: ScoreOptions,
    ) -> Result<Self, FixyError> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Compile);
        let compiled = compile_scene(scene, features, library)?;
        Ok(ScoreEngine { scene, compiled, options })
    }

    pub fn scene(&self) -> &Scene {
        self.scene
    }

    pub fn compiled(&self) -> &CompiledScene {
        &self.compiled
    }

    /// If `obs` yields exactly one whole connected component of the
    /// compiled graph (each observation in the same component, as many
    /// observations as the component has variables; assembly guarantees
    /// candidates never repeat an observation), return its component id.
    /// For a full component `Within` and `Touching` factor sets coincide
    /// (no factor crosses a component boundary), so the indexed fast path
    /// is score-equivalent to the generic path under either scope mode.
    fn whole_component_of(&self, mut obs: impl Iterator<Item = ObsIdx>) -> Option<ComponentId> {
        let first = obs.next()?;
        let components = &self.compiled.components;
        let comp = components.component_of(self.compiled.vars[first.0]);
        let mut count = 1usize;
        for o in obs {
            if components.component_of(self.compiled.vars[o.0]) != comp {
                return None;
            }
            count += 1;
        }
        (components.vars(comp).len() == count).then_some(comp)
    }

    fn score_whole_component(&self, comp: ComponentId) -> ComponentScore {
        self.compiled
            .graph
            .score_indexed_component(&self.compiled.components, comp, |info| info.probability)
    }

    fn score_obs_set(&self, obs: &[ObsIdx]) -> ComponentScore {
        if let Some(comp) = self.whole_component_of(obs.iter().copied()) {
            return self.score_whole_component(comp);
        }
        let vars = self.compiled.vars_of(obs);
        self.compiled
            .graph
            .score_component(&vars, self.options.scope, |info| info.probability)
    }

    /// Score an observation bundle.
    pub fn score_bundle(&self, bundle: BundleIdx) -> ComponentScore {
        self.score_obs_set(self.scene.bundle_obs(bundle))
    }

    /// Score a track.
    pub fn score_track(&self, track: TrackIdx) -> ComponentScore {
        // Fast path without materializing the obs list: check the track's
        // observations form one whole component, then fold its factors.
        if let Some(comp) = self.whole_component_of(self.scene.track_obs_iter(track)) {
            return self.score_whole_component(comp);
        }
        // Generic fallback, without re-running the whole-component check
        // score_obs_set would repeat.
        let obs: Vec<ObsIdx> = self.scene.track_obs_iter(track).collect();
        let vars = self.compiled.vars_of(&obs);
        self.compiled
            .graph
            .score_component(&vars, self.options.scope, |info| info.probability)
    }

    /// Score every track, in track order.
    ///
    /// Equivalent to calling [`score_track`](Self::score_track) per track
    /// — the intended API for the applications. When every candidate is a
    /// whole component of its compiled graph (true for the paper apps:
    /// their feature sets add no factors that cross candidate boundaries)
    /// each factor is folded exactly once, so the sweep is `O(V + E)` for
    /// the scene; candidates that are not whole components fall back to
    /// the per-candidate generic path.
    pub fn score_all_tracks(&self) -> Vec<(TrackIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        self.scene
            .tracks()
            .iter()
            .map(|t| (t.idx, self.score_track(t.idx)))
            .collect()
    }

    /// Score every bundle, in bundle order (see
    /// [`score_all_tracks`](Self::score_all_tracks) for the cost model).
    pub fn score_all_bundles(&self) -> Vec<(BundleIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        self.scene
            .bundles()
            .iter()
            .map(|b| (b.idx, self.score_bundle(b.idx)))
            .collect()
    }
}

/// `scene` must be the scene the engine was compiled from.
impl ScoreSweep for ScoreEngine<'_> {
    fn track_scores(&mut self, scene: &Scene) -> Vec<(TrackIdx, ComponentScore)> {
        debug_assert!(std::ptr::eq(scene, self.scene), "sweep over a different scene");
        self.score_all_tracks()
    }

    fn bundle_scores(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        debug_assert!(std::ptr::eq(scene, self.scene), "sweep over a different scene");
        self.score_all_bundles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aof::Aof;
    use crate::feature::{
        BoundFeature, Feature, FeatureKind, FeatureSet, FeatureTarget, FeatureValue,
        ProbabilityModel,
    };
    use crate::scene::{AssemblyConfig, Observation, Scene};
    use loa_data::{FrameId, ObjectClass, ObservationSource};
    use loa_geom::{Box3, Vec2};
    use std::sync::Arc;

    /// A manual observation feature with a fixed probability.
    struct FixedObs(f64);
    impl Feature for FixedObs {
        fn name(&self) -> &str {
            "fixed_obs"
        }
        fn kind(&self) -> FeatureKind {
            FeatureKind::Observation
        }
        fn probability_model(&self) -> ProbabilityModel {
            ProbabilityModel::Manual
        }
        fn value(&self, _: &Scene, t: &FeatureTarget<'_>) -> Option<FeatureValue> {
            match t {
                FeatureTarget::Obs(_) => Some(FeatureValue::scalar(self.0)),
                _ => None,
            }
        }
    }

    /// A manual transition feature with a fixed probability.
    struct FixedTrans(f64);
    impl Feature for FixedTrans {
        fn name(&self) -> &str {
            "fixed_trans"
        }
        fn kind(&self) -> FeatureKind {
            FeatureKind::Transition
        }
        fn probability_model(&self) -> ProbabilityModel {
            ProbabilityModel::Manual
        }
        fn value(&self, _: &Scene, t: &FeatureTarget<'_>) -> Option<FeatureValue> {
            match t {
                FeatureTarget::Transition(..) => Some(FeatureValue::scalar(self.0)),
                _ => None,
            }
        }
    }

    /// Two observations in two bundles forming one track — the Section 6
    /// worked example's structure.
    fn worked_example_scene() -> Scene {
        let mk_obs = |i: usize, frame: u32| Observation {
            idx: crate::scene::ObsIdx(i),
            frame: FrameId(frame),
            source: ObservationSource::Model,
            source_index: 0,
            bbox: Box3::on_ground(10.0 + frame as f64, 0.0, 0.0, 4.0, 2.0, 1.6, 0.0),
            class: ObjectClass::Truck,
            confidence: Some(0.9),
            world_center: Vec2::new(10.0 + frame as f64, 0.0),
        };
        Scene::from_parts(
            vec![mk_obs(0, 0), mk_obs(1, 1)],
            vec![
                (FrameId(0), vec![crate::scene::ObsIdx(0)]),
                (FrameId(1), vec![crate::scene::ObsIdx(1)]),
            ],
            vec![vec![crate::scene::BundleIdx(0), crate::scene::BundleIdx(1)]],
            0.2,
            2,
        )
    }

    /// Section 6, verbatim: volumes score 0.37 / 0.39, velocity 0.21 —
    /// track score must be (ln .37 + ln .39 + ln .21) / 3 = −1.17.
    ///
    /// We reproduce it with two fixed obs features with those values plus a
    /// fixed transition. Since FixedObs gives the same p to both
    /// observations, we instead verify against the exact expectation
    /// computed from our factor values.
    #[test]
    fn worked_example_section_6() {
        let scene = worked_example_scene();
        // Feature probabilities chosen so the three factors carry 0.37,
        // 0.39, 0.21 — per-obs features cannot differ per obs here, so use
        // per-obs p = sqrt(0.37 * 0.39) ≈ both volumes' geometric mean;
        // the normalized log score is identical to the paper's example
        // because ln is additive.
        let p_obs = (0.37f64 * 0.39).sqrt();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(p_obs))),
            BoundFeature::plain(Arc::new(FixedTrans(0.21))),
        ]);
        let library = FeatureLibrary::default();
        let engine = ScoreEngine::new(&scene, &features, &library).unwrap();
        let score = engine.score_track(TrackIdx(0));
        assert_eq!(score.factor_count, 3);
        let s = score.score.unwrap();
        let expected = (0.37f64.ln() + 0.39f64.ln() + 0.21f64.ln()) / 3.0;
        assert!((s - expected).abs() < 1e-12, "{s} vs {expected}");
        assert!((s - (-1.17)).abs() < 0.005, "paper reports −1.17, got {s}");
    }

    #[test]
    fn zeroed_factor_excludes_component() {
        let scene = worked_example_scene();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(0.5))),
            BoundFeature::new(Arc::new(FixedTrans(0.5)), Aof::Zero),
        ]);
        let engine = ScoreEngine::new(&scene, &features, &FeatureLibrary::default()).unwrap();
        let score = engine.score_track(TrackIdx(0));
        assert!(score.zeroed);
        assert_eq!(score.score, None);
    }

    #[test]
    fn observation_scope_excludes_transition_by_default() {
        let scene = worked_example_scene();
        let features = FeatureSet::new(vec![
            BoundFeature::plain(Arc::new(FixedObs(0.5))),
            BoundFeature::plain(Arc::new(FixedTrans(0.9))),
        ]);
        let engine = ScoreEngine::new(&scene, &features, &FeatureLibrary::default()).unwrap();
        // A single observation's Within-score sees only its obs factor.
        let s = engine.score_obs_set(&[crate::scene::ObsIdx(0)]);
        assert_eq!(s.factor_count, 1);
        assert!((s.score.unwrap() - 0.5f64.ln()).abs() < 1e-12);
        // Touching scope would pull in the transition factor too.
        let touching = ScoreEngine::with_options(
            &scene,
            &features,
            &FeatureLibrary::default(),
            ScoreOptions { scope: ScopeMode::Touching },
        )
        .unwrap();
        let s = touching.score_obs_set(&[crate::scene::ObsIdx(0)]);
        assert_eq!(s.factor_count, 2);
    }

    #[test]
    fn inverted_aof_flips_ranking() {
        let scene = worked_example_scene();
        let likely = FeatureSet::new(vec![BoundFeature::plain(Arc::new(FixedObs(0.9)))]);
        let unlikely =
            FeatureSet::new(vec![BoundFeature::new(Arc::new(FixedObs(0.9)), Aof::Invert)]);
        let library = FeatureLibrary::default();
        let e1 = ScoreEngine::new(&scene, &likely, &library).unwrap();
        let e2 = ScoreEngine::new(&scene, &unlikely, &library).unwrap();
        let s1 = e1.score_track(TrackIdx(0)).score.unwrap();
        let s2 = e2.score_track(TrackIdx(0)).score.unwrap();
        // p=0.9: identity ln(0.9) ≈ −0.105; inverted ln(0.1) ≈ −2.303.
        assert!(s1 > s2);
    }

    #[test]
    fn end_to_end_scoring_on_generated_scene() {
        let mut cfg = loa_data::DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        let data = loa_data::generate_scene(&cfg, "score-e2e", 21);
        let library = crate::learner::Learner::new()
            .fit(&FeatureSet::paper_default(), std::slice::from_ref(&data))
            .unwrap();
        let scene = Scene::assemble(&data, &AssemblyConfig::default());
        let engine = ScoreEngine::new(&scene, &FeatureSet::paper_default(), &library).unwrap();
        let mut scored = 0;
        for t in scene.tracks() {
            let s = engine.score_track(t.idx);
            if let Some(v) = s.score {
                assert!(v.is_finite());
                assert!(v <= 0.0, "normalized log-likelihoods are non-positive");
                scored += 1;
            }
        }
        assert!(scored > 0, "no track survived AOF filtering");
    }
}
