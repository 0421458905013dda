//! O(Δ) incremental re-scoring over streaming snapshots.
//!
//! The streaming path scores the partial scene after every pushed frame;
//! compiling and scoring from scratch makes that O(scene) per frame —
//! per-frame latency *grows* with scene length, which a resident audit
//! service over long-lived sessions cannot afford. [`IncrementalScorer`]
//! makes it O(Δ): factor values and per-component scores are cached
//! across frames, and a pushed frame re-scores only what its
//! [`FrameDelta`] invalidates.
//!
//! ## Why per-entity factor stores suffice
//!
//! Under the Section 4.3 compilation semantics no factor's scope spans
//! two tracks (observation and bundle factors live inside one bundle,
//! transition and track factors inside one track), so connected
//! components never span tracks, and a candidate's `Within` factor set
//! has a closed form:
//!
//! * a **track**'s factors are exactly the factors anchored at its own
//!   observations (scope ⊆ track-obs ⟺ scope\[0\] ∈ track-obs);
//! * a **bundle**'s factors are its members' observation factors, its own
//!   bundle factors, and its track's factors iff the track has exactly
//!   this one bundle (transition scopes span two bundles, never one).
//!
//! Factor *values* stay valid across frames because every shipped
//! feature is target-local (a bundle factor depends only on its bundle,
//! a track factor only on its track — locked by the `tests/incremental.rs`
//! proptests); a track's factors are re-evaluated whenever the track
//! itself changes.
//!
//! ## Bit-identity with the batch path
//!
//! `compile_scene` assigns factor ids lexicographically in
//! `(feature_index, target-visit-order)`, and both batch score paths
//! fold factors in ascending id order. Per feature the visit order is:
//! observation index, bundle index, `(track, later-bundle)` for
//! transitions, track index. Sorting gathered factors by
//! `(feature_index, key)` with those keys therefore reproduces the
//! batch fold order **exactly** — f64 addition is not associative, so
//! this is what makes incremental scores bit-identical, not merely
//! close (the correctness bar, locked by proptests).
//!
//! ## Cache lifecycle
//!
//! Per frame, [`rescore_delta`](IncrementalScorer::rescore_delta)
//! ingests assembly facts (no snapshot diffing): new observations
//! become union-find variables with their observation factors; new
//! bundles contribute bundle factors and scope unions; changed tracks
//! re-evaluate their track factors, append the new transition factor,
//! and drop their cached scores. Components whose membership or factor
//! set changed surface through the
//! [`DeltaComponentIndex`] dirty set and lose their cached component
//! scores; everything else is served from cache on the next
//! [`score_all_tracks`](IncrementalScorer::score_all_tracks) /
//! [`score_all_bundles`](IncrementalScorer::score_all_bundles) sweep.

use crate::error::FixyError;
use crate::feature::{FeatureKind, FeatureSet, FeatureTarget, ProbabilityModel};
use crate::learner::{FeatureLibrary, FittedDistribution, PreparedDistribution};
use crate::scene::{BundleIdx, FrameDelta, ObsIdx, Scene, TrackIdx};
use crate::score::ScoreSweep;
use loa_graph::{normalized_log_score, ComponentScore, DeltaComponentIndex, VarId};
use std::collections::HashMap;

/// One cached factor, anchored at its scope's first observation.
#[derive(Debug, Clone, Copy)]
struct FactorRec {
    /// Index into the feature set (primary batch-order sort key).
    feature: u32,
    kind: FeatureKind,
    /// Batch-order tiebreak within the feature: obs index / bundle index
    /// / `(track << 32) | later_bundle` / track index (see module docs).
    key: u64,
    /// AOF-transformed probability, as `compile_scene` would store it.
    prob: f64,
}

/// Incremental counterpart of [`crate::score::ScoreEngine`]: same scores
/// (bit-identical, default `Within` scope), O(Δ) per streamed frame.
///
/// Each frame's [`FrameDelta`] goes to [`rescore_delta`](Self::rescore_delta)
/// in frame order (the streaming assembler's `update_rescored` does this);
/// sweeps then read the cached component scores. The one loop that
/// drives it frame by frame is `loa_serve::Session`.
pub struct IncrementalScorer<'a> {
    features: &'a FeatureSet,
    /// Pre-resolved distributions, one slot per feature (None for manual
    /// features / the other resolution form).
    prepared: Vec<Option<&'a PreparedDistribution>>,
    joint: Vec<Option<&'a FittedDistribution>>,
    /// Feature indices by kind, in feature-set order.
    obs_features: Vec<usize>,
    bundle_features: Vec<usize>,
    transition_features: Vec<usize>,
    track_features: Vec<usize>,

    /// Persistent union-find over observation variables (`VarId` ==
    /// observation index) with the dirty set.
    index: DeltaComponentIndex,
    /// Factors anchored at each observation (scope\[0\]).
    attached: Vec<Vec<FactorRec>>,

    /// Cached per-candidate scores, invalidated by assembly facts.
    track_cache: Vec<Option<ComponentScore>>,
    bundle_cache: Vec<Option<ComponentScore>>,
    /// Cached whole-component scores keyed by union-find root, evicted
    /// through the dirty set.
    comp_cache: HashMap<usize, ComponentScore>,

    /// Watermarks: counts already ingested.
    n_obs: usize,
    n_bundles: usize,

    // Scratch (reused across frames).
    gather: Vec<(u32, u64, f64)>,
    scope: Vec<VarId>,
}

impl<'a> IncrementalScorer<'a> {
    /// Bind a feature set and fitted library. Fails like `compile_scene`
    /// when a learned feature has no library entry (manual features need
    /// none), so the per-frame path cannot fail halfway.
    pub fn new(features: &'a FeatureSet, library: &'a FeatureLibrary) -> Result<Self, FixyError> {
        let mut prepared = Vec::with_capacity(features.len());
        let mut joint = Vec::with_capacity(features.len());
        let mut by_kind: [Vec<usize>; 4] = Default::default();
        for (fi, bf) in features.features.iter().enumerate() {
            let name = bf.feature.name();
            let (p, j) = match bf.feature.probability_model() {
                ProbabilityModel::Manual => (None, None),
                ProbabilityModel::LearnedJointKde => {
                    let j = library.get(name);
                    if j.is_none() {
                        return Err(FixyError::MissingDistribution { feature: name.to_string() });
                    }
                    (None, j)
                }
                _ => {
                    let p = library.get_prepared(name);
                    if p.is_none() {
                        return Err(FixyError::MissingDistribution { feature: name.to_string() });
                    }
                    (p, None)
                }
            };
            prepared.push(p);
            joint.push(j);
            let slot = match bf.feature.kind() {
                FeatureKind::Observation => 0,
                FeatureKind::Bundle => 1,
                FeatureKind::Transition => 2,
                FeatureKind::Track => 3,
            };
            by_kind[slot].push(fi);
        }
        let [obs_features, bundle_features, transition_features, track_features] = by_kind;
        Ok(IncrementalScorer {
            features,
            prepared,
            joint,
            obs_features,
            bundle_features,
            transition_features,
            track_features,
            index: DeltaComponentIndex::new(),
            attached: Vec::new(),
            track_cache: Vec::new(),
            bundle_cache: Vec::new(),
            comp_cache: HashMap::new(),
            n_obs: 0,
            n_bundles: 0,
            gather: Vec::new(),
            scope: Vec::new(),
        })
    }

    /// Start a new scene (pair with the assembler's `begin`). Drops all
    /// cached state; allocations survive for reuse across scenes.
    pub fn begin(&mut self) {
        self.index.clear();
        self.attached.clear();
        self.track_cache.clear();
        self.bundle_cache.clear();
        self.comp_cache.clear();
        self.n_obs = 0;
        self.n_bundles = 0;
    }

    /// Ingest one frame's assembly delta against the snapshot covering
    /// it, invalidating exactly the caches the frame touched. Returns the
    /// number of components invalidated (they re-score lazily on the
    /// next query).
    ///
    /// # Panics
    /// If deltas are skipped or replayed: `delta.obs_start` /
    /// `bundle_start` must equal the counts already ingested.
    pub fn rescore_delta(&mut self, scene: &Scene, delta: &FrameDelta) -> usize {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rescore);
        assert_eq!(
            self.n_obs, delta.obs_start,
            "rescore_delta: deltas must be applied in frame order from an empty scorer"
        );
        assert_eq!(
            self.n_bundles, delta.bundle_start,
            "rescore_delta: bundle watermark mismatch"
        );

        // 1. New observations: fresh singleton variables + their
        //    observation factors (key = obs index).
        for o in delta.obs_start..scene.n_observations() {
            let v = self.index.add_var();
            debug_assert_eq!(v.0, o, "VarId == ObsIdx by construction");
            self.attached.push(Vec::new());
            for k in 0..self.obs_features.len() {
                let fi = self.obs_features[k];
                let p = self.eval(scene, fi, &FeatureTarget::Obs(scene.obs(ObsIdx(o))));
                if let Some(p) = p {
                    self.attached[o].push(FactorRec {
                        feature: fi as u32,
                        kind: FeatureKind::Observation,
                        key: o as u64,
                        prob: p,
                    });
                }
            }
        }

        // 2. New bundles: bundle factors (key = bundle index) anchored at
        //    the first member, scope-unioning the members.
        for b in delta.bundle_start..scene.n_bundles() {
            self.bundle_cache.push(None);
            let members = scene.bundle_obs(BundleIdx(b));
            for k in 0..self.bundle_features.len() {
                let fi = self.bundle_features[k];
                let p = self.eval(scene, fi, &FeatureTarget::Bundle(scene.bundle(BundleIdx(b))));
                if let Some(p) = p {
                    self.attached[members[0].0].push(FactorRec {
                        feature: fi as u32,
                        kind: FeatureKind::Bundle,
                        key: b as u64,
                        prob: p,
                    });
                    self.scope.clear();
                    self.scope.extend(members.iter().map(|o| VarId(o.0)));
                    self.index.union_scope(&self.scope);
                }
            }
        }

        // 3. Changed tracks: new ones get cache slots; extended ones drop
        //    their cached score, gain the new trailing transition factor,
        //    and re-evaluate their track factors (track-local values
        //    change with the track — e.g. the count crossing its
        //    threshold, which is what merges previously-separate bundle
        //    components mid-stream).
        for ti in 0..delta.changed_tracks.len() {
            let t = delta.changed_tracks[ti];
            let bundles = scene.track_bundles(t);
            let is_new = t.0 >= self.track_cache.len();
            if is_new {
                debug_assert_eq!(t.0, self.track_cache.len(), "new tracks are contiguous");
                self.track_cache.push(None);
            } else {
                self.track_cache[t.0] = None;
                // The only *old* bundle whose `Within` factor set can
                // change is the first bundle of a track going 1 → 2
                // bundles (it loses containment of the track factor).
                if bundles.len() == 2 {
                    self.bundle_cache[bundles[0].0] = None;
                }
            }

            // 3a. The frame's new transition: always the trailing pair
            //     (tracks extend at most one bundle per frame, always at
            //     the end). Earlier transitions are untouched.
            if !is_new && !self.transition_features.is_empty() {
                let pair_a = bundles[bundles.len() - 2];
                let pair_b = bundles[bundles.len() - 1];
                let dt = (scene
                    .bundle(pair_b)
                    .frame
                    .0
                    .saturating_sub(scene.bundle(pair_a).frame.0)) as f64
                    * scene.frame_dt;
                for k in 0..self.transition_features.len() {
                    let fi = self.transition_features[k];
                    let target =
                        FeatureTarget::Transition(scene.bundle(pair_a), scene.bundle(pair_b), dt);
                    let p = self.eval(scene, fi, &target);
                    if let Some(p) = p {
                        let anchor = scene.bundle_obs(pair_a)[0].0;
                        self.attached[anchor].push(FactorRec {
                            feature: fi as u32,
                            kind: FeatureKind::Transition,
                            key: ((t.0 as u64) << 32) | pair_b.0 as u64,
                            prob: p,
                        });
                        self.scope.clear();
                        self.scope.extend(scene.bundle_obs(pair_a).iter().map(|o| VarId(o.0)));
                        self.scope.extend(scene.bundle_obs(pair_b).iter().map(|o| VarId(o.0)));
                        self.index.union_scope(&self.scope);
                    }
                }
            }

            // 3b. Track factors (key = track index): replace wholesale —
            //     the track changed, so its factor values may have too.
            if !self.track_features.is_empty() {
                let first_var = scene.bundle_obs(bundles[0])[0].0;
                let before = self.attached[first_var].len();
                self.attached[first_var].retain(|r| r.kind != FeatureKind::Track);
                let removed = self.attached[first_var].len() != before;
                let mut added = false;
                for k in 0..self.track_features.len() {
                    let fi = self.track_features[k];
                    let p = self.eval(scene, fi, &FeatureTarget::Track(scene.track(t)));
                    if let Some(p) = p {
                        self.attached[first_var].push(FactorRec {
                            feature: fi as u32,
                            kind: FeatureKind::Track,
                            key: t.0 as u64,
                            prob: p,
                        });
                        self.scope.clear();
                        self.scope.extend(scene.track_obs_iter(t).map(|o| VarId(o.0)));
                        self.index.union_scope(&self.scope);
                        added = true;
                    }
                }
                if removed && !added {
                    // A factor disappeared without a replacement union —
                    // the component still changed.
                    self.index.mark_dirty(VarId(first_var));
                }
            }
        }

        // 4. Evict the cached scores of every dirtied component.
        let dirty = self.index.take_dirty();
        for root in &dirty {
            self.comp_cache.remove(&root.0);
        }

        self.n_obs = scene.n_observations();
        self.n_bundles = scene.n_bundles();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.dirty_components.record(dirty.len() as u64);
        }
        dirty.len()
    }

    /// Evaluate one feature on a target — the exact probability
    /// resolution `compile_scene` performs, including the AOF.
    fn eval(&self, scene: &Scene, fi: usize, target: &FeatureTarget<'_>) -> Option<f64> {
        let bf = &self.features.features[fi];
        let feature = bf.feature.as_ref();
        let p = match feature.probability_model() {
            ProbabilityModel::Manual => feature.value(scene, target)?.x,
            ProbabilityModel::LearnedJointKde => {
                let v = feature.vector_value(scene, target)?;
                self.joint[fi].expect("validated in new").probability_vector(&v)
            }
            _ => {
                let v = feature.value(scene, target)?;
                self.prepared[fi].expect("validated in new").probability(&v)
            }
        };
        Some(bf.aof.apply(p))
    }

    /// If `obs` is exactly one whole component, its root.
    fn whole_root_of(&mut self, mut obs: impl Iterator<Item = ObsIdx>) -> Option<VarId> {
        let first = obs.next()?;
        let root = self.index.find(VarId(first.0));
        let mut count = 1usize;
        for o in obs {
            if self.index.find(VarId(o.0)) != root {
                return None;
            }
            count += 1;
        }
        (self.index.members_of_root(root).len() == count).then_some(root)
    }

    /// Sort the gathered factors into batch order and fold.
    fn fold_gathered(gather: &mut [(u32, u64, f64)]) -> ComponentScore {
        gather.sort_unstable_by_key(|&(feature, key, _)| (feature, key));
        normalized_log_score(gather.iter().map(|&(_, _, p)| p))
    }

    /// Score a whole component through the root-keyed cache.
    fn component_score(&mut self, root: VarId) -> ComponentScore {
        if let Some(&s) = self.comp_cache.get(&root.0) {
            return s;
        }
        self.gather.clear();
        for &v in self.index.members_of_root(root) {
            for rec in &self.attached[v.0] {
                self.gather.push((rec.feature, rec.key, rec.prob));
            }
        }
        let s = Self::fold_gathered(&mut self.gather);
        self.comp_cache.insert(root.0, s);
        s
    }

    /// Score a track (default `Within` scope) — bit-identical to
    /// `ScoreEngine::score_track` on the same snapshot, served from cache
    /// when the track is unchanged since the last pass.
    pub fn score_track(&mut self, scene: &Scene, track: TrackIdx) -> ComponentScore {
        self.score_track_inner(scene, track).0
    }

    /// [`score_track`](Self::score_track) plus whether the per-track
    /// cache served it — the sweeps aggregate these into the global
    /// hit/miss counters once per pass instead of per candidate.
    fn score_track_inner(&mut self, scene: &Scene, track: TrackIdx) -> (ComponentScore, bool) {
        if let Some(s) = self.track_cache[track.0] {
            return (s, true);
        }
        let s = if let Some(root) = self.whole_root_of(scene.track_obs_iter(track)) {
            self.component_score(root)
        } else {
            // Generic path: every factor anchored at the track's own
            // observations belongs to it (no factor spans tracks).
            self.gather.clear();
            for o in scene.track_obs_iter(track) {
                for rec in &self.attached[o.0] {
                    self.gather.push((rec.feature, rec.key, rec.prob));
                }
            }
            Self::fold_gathered(&mut self.gather)
        };
        self.track_cache[track.0] = Some(s);
        (s, false)
    }

    /// Score a bundle — bit-identical to `ScoreEngine::score_bundle`.
    pub fn score_bundle(&mut self, scene: &Scene, bundle: BundleIdx) -> ComponentScore {
        self.score_bundle_inner(scene, bundle).0
    }

    fn score_bundle_inner(&mut self, scene: &Scene, bundle: BundleIdx) -> (ComponentScore, bool) {
        if let Some(s) = self.bundle_cache[bundle.0] {
            return (s, true);
        }
        let members = scene.bundle_obs(bundle);
        let s = if let Some(root) = self.whole_root_of(members.iter().copied()) {
            self.component_score(root)
        } else {
            self.gather.clear();
            for &o in members {
                for rec in &self.attached[o.0] {
                    let include = match rec.kind {
                        // Single-obs scope, inside by membership.
                        FeatureKind::Observation => true,
                        // An anchor inside this bundle can only carry
                        // this bundle's own factors.
                        FeatureKind::Bundle => {
                            debug_assert_eq!(rec.key, bundle.0 as u64);
                            true
                        }
                        // Transition scopes span two bundles — never
                        // contained in one.
                        FeatureKind::Transition => false,
                        // A track factor fits inside the bundle iff the
                        // track is exactly this one bundle.
                        FeatureKind::Track => {
                            scene.track_bundles(TrackIdx(rec.key as usize)).len() == 1
                        }
                    };
                    if include {
                        self.gather.push((rec.feature, rec.key, rec.prob));
                    }
                }
            }
            Self::fold_gathered(&mut self.gather)
        };
        self.bundle_cache[bundle.0] = Some(s);
        (s, false)
    }

    /// Score every track, in track order — the incremental counterpart
    /// of `ScoreEngine::score_all_tracks`, O(Δ) when served from cache.
    pub fn score_all_tracks(&mut self, scene: &Scene) -> Vec<(TrackIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        let mut hits = 0u64;
        let out: Vec<_> = (0..scene.n_tracks())
            .map(|t| {
                let (s, hit) = self.score_track_inner(scene, TrackIdx(t));
                hits += hit as u64;
                (TrackIdx(t), s)
            })
            .collect();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.cache_hits.add(hits);
            metrics.cache_misses.add(out.len() as u64 - hits);
        }
        out
    }

    /// Score every bundle, in bundle order.
    pub fn score_all_bundles(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Score);
        let mut hits = 0u64;
        let out: Vec<_> = (0..scene.n_bundles())
            .map(|b| {
                let (s, hit) = self.score_bundle_inner(scene, BundleIdx(b));
                hits += hit as u64;
                (BundleIdx(b), s)
            })
            .collect();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.cache_hits.add(hits);
            metrics.cache_misses.add(out.len() as u64 - hits);
        }
        out
    }
}

impl ScoreSweep for IncrementalScorer<'_> {
    fn track_scores(&mut self, scene: &Scene) -> Vec<(TrackIdx, ComponentScore)> {
        self.score_all_tracks(scene)
    }

    fn bundle_scores(&mut self, scene: &Scene) -> Vec<(BundleIdx, ComponentScore)> {
        self.score_all_bundles(scene)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureSet;
    use crate::learner::Learner;
    use crate::scene::{AssemblyConfig, AssemblyEngine};
    use crate::score::ScoreEngine;
    use loa_data::{generate_scene, DatasetProfile, SceneData};

    fn tiny(seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 4.0;
        cfg.lidar.beam_count = 240;
        generate_scene(&cfg, "incr-test", seed)
    }

    fn assert_scores_match(
        batch: &[(TrackIdx, ComponentScore)],
        incr: &[(TrackIdx, ComponentScore)],
        ctx: &str,
    ) {
        assert_eq!(batch.len(), incr.len(), "{ctx}: track count");
        for ((bt, bs), (it, is_)) in batch.iter().zip(incr) {
            assert_eq!(bt, it, "{ctx}");
            assert_eq!(
                bs.score.map(f64::to_bits),
                is_.score.map(f64::to_bits),
                "{ctx}: track {bt:?} score"
            );
            assert_eq!(bs.factor_count, is_.factor_count, "{ctx}: track {bt:?} factor count");
            assert_eq!(bs.zeroed, is_.zeroed, "{ctx}: track {bt:?} zeroed");
        }
    }

    /// Frame-by-frame replay: after every frame, track AND bundle scores
    /// must be bit-identical to a from-scratch compile+score of the same
    /// snapshot. paper_default exercises all four factor kinds.
    #[test]
    fn replay_matches_batch_bit_for_bit() {
        let data = tiny(31);
        let features = FeatureSet::paper_default();
        let library = Learner::new().fit(&features, std::slice::from_ref(&data)).unwrap();
        let mut engine = AssemblyEngine::new(AssemblyConfig::default());
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        engine.begin(data.frame_dt);
        let mut scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        for frame in &data.frames {
            engine.push_frame(frame);
            engine.update_snapshot(&mut scene);
            scorer.rescore_delta(&scene, engine.last_delta().unwrap());

            let batch = ScoreEngine::new(&scene, &features, &library).unwrap();
            assert_scores_match(
                &batch.score_all_tracks(),
                &scorer.score_all_tracks(&scene),
                &format!("frame {}", scene.n_frames - 1),
            );
            let bb = batch.score_all_bundles();
            let ib = scorer.score_all_bundles(&scene);
            assert_eq!(bb.len(), ib.len());
            for ((bi, bs), (ii, is_)) in bb.iter().zip(&ib) {
                assert_eq!(bi, ii);
                assert_eq!(bs.score.map(f64::to_bits), is_.score.map(f64::to_bits));
                assert_eq!(bs.factor_count, is_.factor_count);
            }
        }
    }

    /// The count feature crossing its threshold mid-stream merges
    /// previously separate bundle components — the late-association case.
    /// ModelErrorFinder's set (count min_obs 3, no bundle factors) makes
    /// every track start as disconnected per-bundle components.
    #[test]
    fn mid_stream_component_merges_match_batch() {
        let data = tiny(32);
        let finder = crate::apps::ModelErrorFinder::default();
        let features = finder.feature_set();
        let library = Learner { assembly: AssemblyConfig::model_only() }
            .fit(&features, std::slice::from_ref(&data))
            .unwrap();
        let mut engine = AssemblyEngine::new(AssemblyConfig::model_only());
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        engine.begin(data.frame_dt);
        let mut scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], data.frame_dt, 0);
        let mut invalidations = 0usize;
        for frame in &data.frames {
            engine.push_frame(frame);
            engine.update_snapshot(&mut scene);
            invalidations += scorer.rescore_delta(&scene, engine.last_delta().unwrap());
            let batch = ScoreEngine::new(&scene, &features, &library).unwrap();
            assert_scores_match(
                &batch.score_all_tracks(),
                &scorer.score_all_tracks(&scene),
                &format!("frame {}", scene.n_frames - 1),
            );
        }
        assert!(invalidations > 0, "no component was ever invalidated");
        // Genuine merges occurred: some track has >= 3 observations, so
        // its count factor united its bundles' components.
        assert!(
            scene
                .tracks()
                .iter()
                .any(|t| scene.track_obs_iter(t.idx).count() >= 3),
            "corpus produced no track long enough to merge"
        );
    }

    /// Missing library entries fail at construction, like compile_scene.
    #[test]
    fn missing_distribution_is_an_error() {
        let features = FeatureSet::paper_default();
        let empty = FeatureLibrary::default();
        match IncrementalScorer::new(&features, &empty) {
            Err(FixyError::MissingDistribution { .. }) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => panic!("expected MissingDistribution"),
        }
    }

    /// Empty scorer on an empty scene: no panic, no candidates.
    #[test]
    fn empty_scene_scores_nothing() {
        let features = FeatureSet::default();
        let library = FeatureLibrary::default();
        let mut scorer = IncrementalScorer::new(&features, &library).unwrap();
        let scene = crate::scene::Scene::from_parts(vec![], vec![], vec![], 0.2, 0);
        assert!(scorer.score_all_tracks(&scene).is_empty());
        assert!(scorer.score_all_bundles(&scene).is_empty());
    }
}
