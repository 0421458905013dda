//! Core dataset record types.
//!
//! A generated scene carries three parallel views of the world per frame:
//!
//! * the simulation ground truth ([`GtBox`]) — what is actually there,
//! * the vendor's human labels ([`LabeledBox`]) — possibly with injected
//!   errors,
//! * the ML model's detections ([`Detection`]) — noisy, with ghosts.
//!
//! Ground-truth provenance fields (`gt_track`, [`DetectionProvenance`])
//! exist **only for evaluation**: they let the harness decide whether a
//! flagged candidate is a real error without a human auditor. The Fixy
//! engine never reads them.

use crate::class::ObjectClass;
use loa_geom::{Box3, Pose2};
use serde::{Deserialize, Serialize};

/// Persistent identity of a simulated actor (ground-truth track).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TrackId(pub u64);

/// Frame index within a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FrameId(pub u32);

/// Identity of an injected persistent ghost track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GhostId(pub u32);

/// Where an observation came from (the paper's "observation sources").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObservationSource {
    /// Vendor-provided human label.
    Human,
    /// LIDAR ML model prediction.
    Model,
    /// Expert auditor label (simulated: the ground truth itself).
    Auditor,
}

/// Ground truth for one actor in one frame (ego-frame box).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GtBox {
    pub track: TrackId,
    pub class: ObjectClass,
    /// Box in the ego frame of this frame.
    pub bbox: Box3,
    /// Simulated LIDAR returns on this object this frame.
    pub lidar_points: u32,
    /// Fraction of the object's angular extent shadowed by nearer objects.
    pub occlusion: f64,
    /// Whether the object counts as perceivable this frame (in range, not
    /// fully occluded, enough returns). Only visible boxes are candidates
    /// for labeling/detection and for counting as labeling errors.
    pub visible: bool,
}

/// A human-proposed label (ego-frame box).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabeledBox {
    pub bbox: Box3,
    pub class: ObjectClass,
    /// Evaluation-only provenance: which ground-truth actor this label
    /// annotates. The Fixy engine must not read this.
    pub gt_track: TrackId,
}

/// Why a detection exists (evaluation-only provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionProvenance {
    /// Detection of a real object.
    TrueObject(TrackId),
    /// Short-lived clutter false positive (1–2 frames).
    Clutter,
    /// A frame of a persistent, geometrically inconsistent ghost track —
    /// the Section 8.4 model-error class ad-hoc assertions miss.
    PersistentGhost(GhostId),
    /// Duplicate box on an already-detected object.
    Duplicate(TrackId),
}

impl DetectionProvenance {
    /// True when the detection does not correspond to a real object.
    pub fn is_false_positive(self) -> bool {
        !matches!(self, DetectionProvenance::TrueObject(_))
    }
}

/// One ML-model detection (ego-frame box).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detection {
    pub bbox: Box3,
    pub class: ObjectClass,
    /// Model confidence in `[0, 1]`.
    pub confidence: f64,
    /// Evaluation-only provenance. The Fixy engine must not read this.
    pub provenance: DetectionProvenance,
    /// Evaluation-only: whether `class` matches the ground truth class (for
    /// true-object detections; vacuously true otherwise).
    pub class_correct: bool,
    /// Evaluation-only: true when a true-object detection was given a
    /// grossly wrong box (the Section 8.4 localization-error class).
    pub localization_error: bool,
}

impl Detection {
    /// Whether this detection is erroneous in the Section 8.4 sense: a
    /// false positive, a misclassification, or a gross localization error.
    pub fn is_model_error(&self) -> bool {
        self.provenance.is_false_positive() || !self.class_correct || self.localization_error
    }
}

/// One frame of a scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Frame {
    pub index: FrameId,
    /// Seconds since the start of the scene.
    pub timestamp: f64,
    /// Ego pose in the world frame.
    pub ego_pose: Pose2,
    /// Ground truth (ego-frame), including invisible actors.
    pub gt: Vec<GtBox>,
    /// Vendor labels (ego-frame).
    pub human_labels: Vec<LabeledBox>,
    /// Model detections (ego-frame).
    pub detections: Vec<Detection>,
}

impl Frame {
    /// Visible ground-truth boxes only.
    pub fn visible_gt(&self) -> impl Iterator<Item = &GtBox> {
        self.gt.iter().filter(|g| g.visible)
    }

    /// Validate the frame's own contents (box validity, detection
    /// confidence range): what streaming consumers check per frame, and
    /// what [`SceneData::validate`] runs on every frame.
    pub fn validate(&self) -> Result<(), String> {
        let i = self.index.0;
        if self.gt.iter().any(|g| !g.bbox.is_valid()) {
            return Err(format!("invalid gt box in frame {i}"));
        }
        if self.human_labels.iter().any(|l| !l.bbox.is_valid()) {
            return Err(format!("invalid label box in frame {i}"));
        }
        for d in &self.detections {
            if !d.bbox.is_valid() {
                return Err(format!("invalid detection box in frame {i}"));
            }
            if !(0.0..=1.0).contains(&d.confidence) {
                return Err(format!("confidence {} out of range in frame {i}", d.confidence));
            }
        }
        Ok(())
    }
}

/// A record of one entirely-missed track (the most egregious vendor error).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MissingTrack {
    pub track: TrackId,
    pub class: ObjectClass,
    /// Frames in which the object was visible (and hence should have been
    /// labeled).
    pub visible_frames: Vec<FrameId>,
}

/// A record of one missing label within an otherwise-labeled track.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MissingBox {
    pub track: TrackId,
    pub class: ObjectClass,
    pub frame: FrameId,
}

/// A record of one vendor class flip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassFlip {
    pub track: TrackId,
    pub frame: FrameId,
    pub true_class: ObjectClass,
    pub labeled_class: ObjectClass,
}

/// A record of one whole-track class swap: the vendor drew correct boxes
/// for the object but tagged every one of them with a grossly wrong class
/// (pedestrian labeled as truck). Distinct from the per-frame
/// [`ClassFlip`], which models rare flips between *confusable* classes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSwap {
    pub track: TrackId,
    pub true_class: ObjectClass,
    pub labeled_class: ObjectClass,
    /// Frames whose label carries the swapped class.
    pub frames: Vec<FrameId>,
}

/// A record of one injected inconsistent bundle (Figure 7): a spurious
/// model box stacked on a human label of the same object in one frame,
/// overlapping it in BEV but wildly inconsistent in volume (and class).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InconsistentBundle {
    /// The ground-truth actor whose label the spurious box overlaps.
    pub track: TrackId,
    pub frame: FrameId,
    pub true_class: ObjectClass,
    /// Class reported by the spurious model box.
    pub spurious_class: ObjectClass,
}

/// Everything the generator injected — the exact audit the paper needed
/// expert auditors for.
#[derive(Debug, Clone, Default, Serialize)]
pub struct InjectedErrors {
    /// Tracks the vendor missed entirely (Section 8.2's target).
    pub missing_tracks: Vec<MissingTrack>,
    /// Per-frame label misses inside labeled tracks (Section 8.3's target).
    pub missing_boxes: Vec<MissingBox>,
    /// Vendor class flips.
    pub class_flips: Vec<ClassFlip>,
    /// Whole-track class swaps (the fuzzer's typed label error).
    pub class_swaps: Vec<ClassSwap>,
    /// Persistent ghost tracks injected into the detector output
    /// (Section 8.4's target), with their frame spans.
    pub ghost_tracks: Vec<(GhostId, Vec<FrameId>)>,
    /// Injected inconsistent bundles (Figure 7's error shape).
    pub inconsistent_bundles: Vec<InconsistentBundle>,
}

// Hand-written for backward compatibility: scene JSON written before the
// fuzzer's typed taxonomy existed has no `class_swaps` /
// `inconsistent_bundles` keys; those records default to empty instead of
// failing the load. The original four fields stay required.
impl serde::Deserialize for InjectedErrors {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn required<T: serde::Deserialize>(
            v: &serde::Value,
            field: &'static str,
        ) -> Result<T, serde::DeError> {
            match v.get(field) {
                Some(x) => T::from_json_value(x),
                None => Err(serde::DeError::custom(format!("missing field `{field}`"))),
            }
        }
        fn optional<T: serde::Deserialize + Default>(
            v: &serde::Value,
            field: &str,
        ) -> Result<T, serde::DeError> {
            match v.get(field) {
                Some(x) => T::from_json_value(x),
                None => Ok(T::default()),
            }
        }
        if v.as_object().is_none() {
            return Err(serde::DeError::custom(format!(
                "expected object for InjectedErrors, got {v:?}"
            )));
        }
        Ok(InjectedErrors {
            missing_tracks: required(v, "missing_tracks")?,
            missing_boxes: required(v, "missing_boxes")?,
            class_flips: required(v, "class_flips")?,
            class_swaps: optional(v, "class_swaps")?,
            ghost_tracks: required(v, "ghost_tracks")?,
            inconsistent_bundles: optional(v, "inconsistent_bundles")?,
        })
    }

    // Same legacy contract, streaming: the two taxonomy fields default
    // to empty when their keys are absent; the original four stay
    // required; unknown keys are skipped.
    fn from_json_stream(r: &mut serde::json::JsonReader<'_>) -> Result<Self, serde::DeError> {
        fn take<T: serde::Deserialize>(
            slot: Option<T>,
            field: &'static str,
        ) -> Result<T, serde::DeError> {
            slot.ok_or_else(|| serde::DeError::custom(format!("missing field `{field}`")))
        }
        let mut missing_tracks = None;
        let mut missing_boxes = None;
        let mut class_flips = None;
        let mut class_swaps = None;
        let mut ghost_tracks = None;
        let mut inconsistent_bundles = None;
        r.begin_object()?;
        loop {
            match r.next_key()? {
                None => break,
                Some("missing_tracks") => {
                    missing_tracks = Some(serde::Deserialize::from_json_stream(r)?)
                }
                Some("missing_boxes") => {
                    missing_boxes = Some(serde::Deserialize::from_json_stream(r)?)
                }
                Some("class_flips") => class_flips = Some(serde::Deserialize::from_json_stream(r)?),
                Some("class_swaps") => class_swaps = Some(serde::Deserialize::from_json_stream(r)?),
                Some("ghost_tracks") => {
                    ghost_tracks = Some(serde::Deserialize::from_json_stream(r)?)
                }
                Some("inconsistent_bundles") => {
                    inconsistent_bundles = Some(serde::Deserialize::from_json_stream(r)?)
                }
                Some(_) => r.skip_value()?,
            }
        }
        Ok(InjectedErrors {
            missing_tracks: take(missing_tracks, "missing_tracks")?,
            missing_boxes: take(missing_boxes, "missing_boxes")?,
            class_flips: take(class_flips, "class_flips")?,
            class_swaps: class_swaps.unwrap_or_default(),
            ghost_tracks: take(ghost_tracks, "ghost_tracks")?,
            inconsistent_bundles: inconsistent_bundles.unwrap_or_default(),
        })
    }
}

impl InjectedErrors {
    /// Total number of injected vendor label errors.
    pub fn label_error_count(&self) -> usize {
        self.missing_tracks.len()
            + self.missing_boxes.len()
            + self.class_flips.len()
            + self.class_swaps.len()
    }

    /// Whether the scene contains any vendor label error.
    pub fn has_label_errors(&self) -> bool {
        self.label_error_count() > 0
    }
}

/// A complete generated scene.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SceneData {
    /// Stable scene identifier (profile name + index + seed).
    pub id: String,
    /// Seconds between frames.
    pub frame_dt: f64,
    pub frames: Vec<Frame>,
    /// The injected-error audit for evaluation.
    pub injected: InjectedErrors,
}

impl SceneData {
    /// Scene duration in seconds.
    pub fn duration(&self) -> f64 {
        self.frame_dt * self.frames.len() as f64
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The frame-period check of [`validate`](Self::validate), for
    /// readers that see a scene header before its frames.
    pub fn validate_frame_dt(frame_dt: f64) -> Result<(), String> {
        if !(frame_dt.is_finite() && frame_dt > 0.0) {
            return Err(format!("bad frame_dt {frame_dt}"));
        }
        Ok(())
    }

    /// Validate structural invariants (frame ordering, box validity).
    /// Generated scenes always pass; loaders run this on untrusted input.
    pub fn validate(&self) -> Result<(), String> {
        if self.frames.is_empty() {
            return Err("scene has no frames".into());
        }
        Self::validate_frame_dt(self.frame_dt)?;
        for (i, frame) in self.frames.iter().enumerate() {
            if frame.index.0 as usize != i {
                return Err(format!("frame {} has index {:?}", i, frame.index));
            }
            frame.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_geom::{Size3, Vec3};

    fn mk_box() -> Box3 {
        Box3::new(Vec3::new(5.0, 0.0, 0.8), Size3::new(4.5, 1.9, 1.6), 0.0)
    }

    fn mk_frame(i: u32) -> Frame {
        Frame {
            index: FrameId(i),
            timestamp: i as f64 * 0.2,
            ego_pose: Pose2::identity(),
            gt: vec![GtBox {
                track: TrackId(1),
                class: ObjectClass::Car,
                bbox: mk_box(),
                lidar_points: 120,
                occlusion: 0.0,
                visible: true,
            }],
            human_labels: vec![],
            detections: vec![],
        }
    }

    #[test]
    fn provenance_false_positive_classification() {
        assert!(!DetectionProvenance::TrueObject(TrackId(1)).is_false_positive());
        assert!(DetectionProvenance::Clutter.is_false_positive());
        assert!(DetectionProvenance::PersistentGhost(GhostId(0)).is_false_positive());
        assert!(DetectionProvenance::Duplicate(TrackId(1)).is_false_positive());
    }

    #[test]
    fn detection_model_error_logic() {
        let mut d = Detection {
            bbox: mk_box(),
            class: ObjectClass::Car,
            confidence: 0.9,
            provenance: DetectionProvenance::TrueObject(TrackId(1)),
            class_correct: true,
            localization_error: false,
        };
        assert!(!d.is_model_error());
        d.localization_error = true;
        assert!(d.is_model_error());
        d.localization_error = false;
        d.class_correct = false;
        assert!(d.is_model_error());
        d.class_correct = true;
        d.provenance = DetectionProvenance::Clutter;
        assert!(d.is_model_error());
    }

    #[test]
    fn scene_accessors() {
        let scene = SceneData {
            id: "test".into(),
            frame_dt: 0.2,
            frames: vec![mk_frame(0), mk_frame(1), mk_frame(2)],
            injected: InjectedErrors::default(),
        };
        assert_eq!(scene.frame_count(), 3);
        assert!((scene.duration() - 0.6).abs() < 1e-12);
        scene.validate().unwrap();
    }

    #[test]
    fn validation_rejects_malformed_scenes() {
        let empty = SceneData {
            id: "e".into(),
            frame_dt: 0.2,
            frames: vec![],
            injected: InjectedErrors::default(),
        };
        assert!(empty.validate().is_err());

        let mut bad_dt = SceneData {
            id: "d".into(),
            frame_dt: 0.0,
            frames: vec![mk_frame(0)],
            injected: InjectedErrors::default(),
        };
        assert!(bad_dt.validate().is_err());
        bad_dt.frame_dt = f64::NAN;
        assert!(bad_dt.validate().is_err());

        let mut bad_index = SceneData {
            id: "i".into(),
            frame_dt: 0.2,
            frames: vec![mk_frame(5)],
            injected: InjectedErrors::default(),
        };
        assert!(bad_index.validate().is_err());
        bad_index.frames[0].index = FrameId(0);
        bad_index.validate().unwrap();

        let mut bad_conf = bad_index.clone();
        bad_conf.frames[0].detections.push(Detection {
            bbox: mk_box(),
            class: ObjectClass::Car,
            confidence: 1.5,
            provenance: DetectionProvenance::Clutter,
            class_correct: true,
            localization_error: false,
        });
        assert!(bad_conf.validate().is_err());
        assert_eq!(
            bad_conf.frames[0].validate(),
            Err("confidence 1.5 out of range in frame 0".to_string())
        );
    }

    #[test]
    fn injected_error_counting() {
        let mut inj = InjectedErrors::default();
        assert!(!inj.has_label_errors());
        inj.missing_tracks.push(MissingTrack {
            track: TrackId(3),
            class: ObjectClass::Truck,
            visible_frames: vec![FrameId(0), FrameId(1)],
        });
        inj.missing_boxes.push(MissingBox {
            track: TrackId(4),
            class: ObjectClass::Car,
            frame: FrameId(2),
        });
        assert_eq!(inj.label_error_count(), 2);
        assert!(inj.has_label_errors());
    }

    #[test]
    fn serde_roundtrip() {
        let scene = SceneData {
            id: "rt".into(),
            frame_dt: 0.2,
            frames: vec![mk_frame(0)],
            injected: InjectedErrors::default(),
        };
        let json = serde_json::to_string(&scene).unwrap();
        let back: SceneData = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "rt");
        assert_eq!(back.frames.len(), 1);
        assert_eq!(back.frames[0].gt[0].track, TrackId(1));
    }
}
