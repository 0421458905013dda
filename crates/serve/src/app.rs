//! The audit application descriptor shared by every surface.
//!
//! An application (Section 7) is an assembly preset, a feature set with
//! its AOFs, and a candidate filter, all run on one LOA engine.
//! [`ServeApp`] names each one once: `fixy learn` fits its feature set,
//! batch `fixy rank` runs its ranker, and `fixy stream` and the resident
//! sessions print its [`worklist`](ServeApp::worklist).

use fixy_core::apps::{LabelAuditFinder, MissingObsFinder, MissingTrackFinder};
use fixy_core::rank::TrackCandidate;
use fixy_core::{AssemblyConfig, FeatureSet, Scene, SceneRanker, ScoreSweep};
use loa_baselines::MaExcludedModelErrors;

/// The audit application a surface runs: the three paper apps plus the
/// label audit, covering all three assembly presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeApp {
    /// Missing human tracks in model output (default assembly).
    #[default]
    MissingTracks,
    /// Missing per-frame observations in human tracks (default assembly).
    MissingObs,
    /// Model-error ranking with ad-hoc-assertion exclusion (model-only
    /// assembly).
    ModelErrors,
    /// Implausibly-labeled human tracks (human-only assembly).
    LabelAudit,
}

impl ServeApp {
    /// Every app, in `--app` listing order.
    pub const ALL: [ServeApp; 4] = [
        ServeApp::MissingTracks,
        ServeApp::MissingObs,
        ServeApp::ModelErrors,
        ServeApp::LabelAudit,
    ];

    /// CLI / library-file name.
    pub fn name(self) -> &'static str {
        match self {
            ServeApp::MissingTracks => "missing-tracks",
            ServeApp::MissingObs => "missing-obs",
            ServeApp::ModelErrors => "model-errors",
            ServeApp::LabelAudit => "label-audit",
        }
    }

    /// Parse a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|app| app.name() == s)
    }

    /// The assembly preset this app's scenes are built with.
    pub fn assembly(self) -> AssemblyConfig {
        match self {
            ServeApp::MissingTracks | ServeApp::MissingObs => AssemblyConfig::default(),
            ServeApp::ModelErrors => MaExcludedModelErrors::default().assembly(),
            ServeApp::LabelAudit => LabelAuditFinder::default().assembly(),
        }
    }

    /// The app's feature set — what its library must be fitted for.
    pub fn feature_set(self) -> FeatureSet {
        match self {
            ServeApp::MissingTracks => MissingTrackFinder::default().feature_set(),
            ServeApp::MissingObs => MissingObsFinder::default().feature_set(),
            ServeApp::ModelErrors => MaExcludedModelErrors::default().finder.feature_set(),
            ServeApp::LabelAudit => LabelAuditFinder::default().feature_set(),
        }
    }

    /// The app's `(label, score)` worklist for `scene`, best first — the
    /// rows `fixy stream` and session worklists print. `scores` is a
    /// [`ScoreEngine`](fixy_core::score::ScoreEngine) compiled from
    /// `scene` or an [`IncrementalScorer`](fixy_core::IncrementalScorer)
    /// that has seen every frame of it; both give the same bits.
    pub fn worklist(self, scene: &Scene, scores: &mut impl ScoreSweep) -> Vec<(String, f64)> {
        let _span = loa_obs::ObsSpan::enter(loa_obs::Stage::Rank);
        let tracks = |ranked: Vec<TrackCandidate>| {
            ranked.into_iter().map(|c| (c.class.to_string(), c.score)).collect()
        };
        match self {
            ServeApp::MissingTracks => {
                tracks(MissingTrackFinder::default().rank_scored(scene, scores.track_scores(scene)))
            }
            ServeApp::MissingObs => MissingObsFinder::default()
                .rank_scored(scene, scores.bundle_scores(scene))
                .into_iter()
                .map(|c| {
                    let frame = scene.bundle(c.bundle).frame.0;
                    (format!("frame {frame} {}", c.class), c.score)
                })
                .collect(),
            ServeApp::ModelErrors => {
                let ranker = MaExcludedModelErrors::default();
                let excluded = ranker.excluded(scene);
                tracks(
                    ranker
                        .finder
                        .rank_scored(scene, scores.track_scores(scene), &excluded),
                )
            }
            ServeApp::LabelAudit => {
                tracks(LabelAuditFinder::default().rank_scored(scene, scores.track_scores(scene)))
            }
        }
    }
}
