//! One audit session: the only streaming loop.
//!
//! A [`Session`] owns a [`StreamingAssembler`], an [`IncrementalScorer`]
//! bound to the shared context, and a [`ReorderBuffer`] in front of
//! them. A pushed frame is validated and handed to the buffer; every
//! frame it releases runs `push_frame` then `update_rescored`, and the
//! app's worklist is re-ranked from the cached component scores. `fixy
//! stream` replays a scene through one session (window 1, no frame
//! budget), [`AuditService`](crate::AuditService) runs one per live
//! stream, and the `streaming` bench times it. The engines' buffers
//! outlive streams: [`Session::close`] drops the scene and worklist,
//! and [`Session::begin`] resets the engines for the next stream.

use crate::app::ServeApp;
use crate::error::ServeError;
use crate::protocol::{SessionStats, Worklist};
use fixy_core::score::ScoreEngine;
use fixy_core::{FeatureLibrary, FeatureSet, FixyError, IncrementalScorer, Scene};
use loa_data::{Frame, SceneData};
use loa_ingest::{ReorderBuffer, StreamingAssembler};

/// The shared, read-only serving state: app, feature set, fitted
/// library. Every session (across every connection) borrows one
/// context, so the library is resident exactly once no matter how many
/// streams are live.
#[derive(Debug)]
pub struct ServeContext {
    app: ServeApp,
    features: FeatureSet,
    library: FeatureLibrary,
}

impl ServeContext {
    /// Bind an app to its fitted library. Fails up front (not per
    /// session) when a learned feature has no library entry.
    pub fn new(app: ServeApp, library: FeatureLibrary) -> Result<Self, ServeError> {
        let features = app.feature_set();
        // Validate once so sessions cannot fail halfway through opening.
        IncrementalScorer::new(&features, &library)?;
        Ok(ServeContext { app, features, library })
    }

    pub fn app(&self) -> ServeApp {
        self.app
    }

    /// The app's worklist for `scene` from a fresh [`ScoreEngine`]: the
    /// reference a session's worklist equals, bit for bit.
    pub fn full_worklist(&self, scene: &Scene) -> Result<Vec<(String, f64)>, FixyError> {
        let mut engine = ScoreEngine::new(scene, &self.features, &self.library)?;
        Ok(self.app.worklist(scene, &mut engine))
    }
}

/// One audit stream: its engines, grown snapshot, latest worklist, and
/// delivery stats. Reusable: [`begin`](Self::begin) starts a stream,
/// [`close`](Self::close) ends it, and the engines' allocations survive
/// from one stream to the next.
pub struct Session<'c> {
    app: ServeApp,
    scene_id: String,
    assembler: StreamingAssembler,
    scorer: IncrementalScorer<'c>,
    reorder: ReorderBuffer,
    scene: Scene,
    worklist: Vec<(String, f64)>,
    stats: SessionStats,
    max_frames: usize,
    released: Vec<Frame>,
    /// Per-frame accept→rank latency for *this* stream, recorded only
    /// while metrics are enabled; quantiles surface in
    /// [`SessionStats`] through `STATS` replies and the close worklist.
    latency: loa_obs::Histogram,
}

impl<'c> Session<'c> {
    /// Build a session's engines over `ctx`, with a reorder window of
    /// `window` frames and a frame budget of `max_frames` indexes. Call
    /// [`begin`](Self::begin) before the first push.
    pub fn new(ctx: &'c ServeContext, window: u32, max_frames: usize) -> Self {
        Session {
            app: ctx.app,
            scene_id: String::new(),
            assembler: StreamingAssembler::new(ctx.app.assembly()),
            scorer: IncrementalScorer::new(&ctx.features, &ctx.library)
                .expect("validated at ServeContext::new"),
            reorder: ReorderBuffer::new(window),
            scene: empty_scene(0.0),
            worklist: Vec::new(),
            stats: SessionStats::default(),
            max_frames,
            released: Vec::new(),
            latency: loa_obs::Histogram::new(),
        }
    }

    /// Start a stream: reset every engine (their buffers survive), the
    /// scene, the worklist and the stats. A `frame_dt` batch `rank`
    /// rejects is refused with rank's message
    /// ([`ServeError::InvalidScene`]) and leaves the session untouched.
    pub fn begin(&mut self, scene_id: &str, frame_dt: f64) -> Result<(), ServeError> {
        SceneData::validate_frame_dt(frame_dt)
            .map_err(|reason| ServeError::InvalidScene { reason })?;
        self.assembler.begin(frame_dt);
        self.scorer.begin();
        self.reorder.begin();
        self.scene_id = scene_id.to_string();
        self.scene = empty_scene(frame_dt);
        self.worklist.clear();
        self.stats = SessionStats::default();
        self.latency = loa_obs::Histogram::new();
        Ok(())
    }

    /// The partial scene over every released frame, grown in place.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// A fresh materialization of the partial scene from the assembler —
    /// equal to [`scene`](Self::scene), but built without the in-place
    /// growth path, so it can check it.
    pub fn snapshot(&self) -> Scene {
        self.assembler.snapshot()
    }

    /// Accept one frame from the transport. The frame is validated
    /// before the reorder buffer sees it. Recoverable rejections
    /// ([`ServeError::is_frame_recoverable`]) leave the session fully
    /// usable; the caller decides whether to absorb them into stats
    /// (the service does) or surface them (`fixy stream` does). Returns
    /// the number of frames released and scored by this call.
    pub fn push(&mut self, frame: Frame) -> Result<usize, ServeError> {
        let index = frame.index.0;
        if index as usize >= self.max_frames {
            return Err(ServeError::FrameLimit { frame: index, max: self.max_frames });
        }
        if let Err(reason) = frame.validate() {
            if let Some(metrics) = loa_obs::recorder() {
                metrics.frames_invalid.inc();
            }
            return Err(ServeError::InvalidFrame { frame: index, reason });
        }
        // One clock read per stage boundary for the whole frame.
        let clock = loa_obs::FrameClock::start();
        self.released.clear();
        self.reorder.accept_into(frame, &mut self.released)?;
        self.stats.duplicates_dropped = self.reorder.duplicates_dropped();
        if self.released.is_empty() {
            return Ok(0);
        }
        // The O(Δ) hot loop, once per released frame: the scorer's cache
        // contract needs every delta applied in order.
        for frame in &self.released {
            self.assembler.push_frame(frame)?;
            self.assembler.update_rescored(&mut self.scene, &mut self.scorer)?;
        }
        self.stats.frames += self.released.len() as u64;
        self.stats.reordered = self.reorder.reordered_released();
        self.worklist = self.app.worklist(&self.scene, &mut self.scorer);
        if let (Some(us), Some(metrics)) = (clock.elapsed_us(), loa_obs::recorder()) {
            self.latency.record(us);
            metrics.frame_latency_us.record(us);
            metrics.frames.add(self.released.len() as u64);
        }
        Ok(self.released.len())
    }

    /// Record a recoverable per-frame rejection: bump the counter and
    /// keep the first message for the close-time report.
    pub(crate) fn record_reject(&mut self, message: String) {
        self.stats.rejected += 1;
        if self.stats.first_reject.is_none() {
            self.stats.first_reject = Some(message);
        }
    }

    /// The latest worklist entries (after the last released frame).
    pub fn worklist_entries(&self) -> &[(String, f64)] {
        &self.worklist
    }

    /// A live copy of the delivery stats — what a `STATS` request
    /// returns mid-session, with the moment-in-time fields filled: frames
    /// currently parked in the reorder buffer and the latency quantile
    /// estimates.
    pub fn stats_snapshot(&self) -> SessionStats {
        let mut stats = self.stats.clone();
        stats.parked = self.reorder.pending() as u64;
        stats.frame_p50_us = self.latency.p50();
        stats.frame_p99_us = self.latency.p99();
        stats.frame_max_us = self.latency.max_value();
        stats
    }

    /// End the stream and return its final worklist. The grown scene
    /// and any released frames are dropped; the engines stay, ready for
    /// the next [`begin`](Self::begin).
    pub fn close(&mut self) -> Worklist {
        let mut stats = std::mem::take(&mut self.stats);
        stats.stranded = self.reorder.take_stranded().len() as u64;
        stats.frame_p50_us = self.latency.p50();
        stats.frame_p99_us = self.latency.p99();
        stats.frame_max_us = self.latency.max_value();
        self.scene = empty_scene(0.0);
        self.released.clear();
        Worklist {
            scene_id: std::mem::take(&mut self.scene_id),
            entries: std::mem::take(&mut self.worklist),
            stats,
        }
    }
}

/// The scene a stream's snapshot grows from.
fn empty_scene(frame_dt: f64) -> Scene {
    Scene::from_parts(vec![], vec![], vec![], frame_dt, 0)
}
