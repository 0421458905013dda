//! The resident session table: many concurrent streams over one shared
//! context.
//!
//! [`AuditService`] is the transport-agnostic core of the server — the
//! TCP layer ([`crate::server`]) owns one per connection, the `serving`
//! bench drives one in-process, and tests exercise it without a socket.
//! It enforces the resource bounds that make residency safe (session
//! cap, per-session frame budget, bounded reorder windows) and recycles
//! sessions across churn: a closed [`Session`] keeps its assembler,
//! scorer, and reorder buffer and goes to a pool, and the next open
//! reuses it via [`Session::begin`] — so steady-state session turnover
//! rebuilds no engines.

use crate::error::ServeError;
use crate::protocol::{SessionStats, Worklist};
use crate::session::{ServeContext, Session};
use loa_data::Frame;
use std::collections::HashMap;

/// Resource bounds of a service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceCfg {
    /// Reorder-buffer window per session (frames a transport may deliver
    /// early before the stream errors).
    pub window: u32,
    /// Per-session frame budget: a frame index at or past this is
    /// rejected (recoverably), bounding each session's memory.
    pub max_frames: usize,
    /// Maximum concurrently open sessions.
    pub max_sessions: usize,
}

impl Default for ServiceCfg {
    fn default() -> Self {
        ServiceCfg { window: 8, max_frames: 100_000, max_sessions: 4096 }
    }
}

/// A multi-session audit service over one borrowed [`ServeContext`].
pub struct AuditService<'c> {
    ctx: &'c ServeContext,
    cfg: ServiceCfg,
    sessions: HashMap<u32, Session<'c>>,
    /// Closed sessions, engines kept, scene and worklist dropped.
    pool: Vec<Session<'c>>,
    engines_built: u64,
    sessions_served: u64,
}

impl<'c> AuditService<'c> {
    pub fn new(ctx: &'c ServeContext, cfg: ServiceCfg) -> Self {
        AuditService {
            ctx,
            cfg,
            sessions: HashMap::new(),
            pool: Vec::new(),
            engines_built: 0,
            sessions_served: 0,
        }
    }

    /// Currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Sessions closed so far (the churn the engine pool absorbed).
    pub fn sessions_served(&self) -> u64 {
        self.sessions_served
    }

    /// Sessions (engine trios) built from scratch — stays flat under
    /// session churn because closes feed the pool.
    pub fn engines_built(&self) -> u64 {
        self.engines_built
    }

    /// Open a session. `session` ids are chosen by the client and must
    /// not collide with a live session.
    pub fn open(&mut self, session: u32, scene_id: &str, frame_dt: f64) -> Result<(), ServeError> {
        if self.sessions.contains_key(&session) {
            return Err(ServeError::SessionExists(session));
        }
        if self.sessions.len() >= self.cfg.max_sessions {
            return Err(ServeError::SessionLimit { max: self.cfg.max_sessions });
        }
        let pooled = self.pool.pop();
        if let Some(metrics) = loa_obs::recorder() {
            metrics.sessions_opened.inc();
            metrics.active_sessions.add(1.0);
            if pooled.is_some() {
                metrics.engines_reused.inc();
            } else {
                metrics.engines_built.inc();
            }
        }
        loa_obs::journal_event("session_open", session as u64, self.sessions.len() as u64 + 1);
        let mut sess = pooled.unwrap_or_else(|| {
            self.engines_built += 1;
            Session::new(self.ctx, self.cfg.window, self.cfg.max_frames)
        });
        sess.begin(scene_id, frame_dt);
        self.sessions.insert(session, sess);
        Ok(())
    }

    /// Feed one frame. Recoverable rejections (beyond-window,
    /// over-budget, invalid frame contents) are absorbed into the
    /// session's stats — the session and the connection both survive;
    /// the stats surface at close.
    pub fn frame(&mut self, session: u32, frame: Frame) -> Result<(), ServeError> {
        let sess = self
            .sessions
            .get_mut(&session)
            .ok_or(ServeError::UnknownSession(session))?;
        match sess.push(frame) {
            Ok(_) => Ok(()),
            Err(e) if e.is_frame_recoverable() => {
                loa_obs::journal_event("frame_reject", session as u64, frame_index(&e));
                sess.record_reject(e.to_string());
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Feed one `.fscb` frame-record payload off the wire.
    pub fn frame_record(&mut self, session: u32, payload: &[u8]) -> Result<(), ServeError> {
        let frame = loa_ingest::decode_frame_record(payload)?;
        self.frame(session, frame)
    }

    /// The session's latest worklist entries without closing it.
    pub fn peek(&self, session: u32) -> Result<&[(String, f64)], ServeError> {
        self.sessions
            .get(&session)
            .map(|s| s.worklist_entries())
            .ok_or(ServeError::UnknownSession(session))
    }

    /// A live delivery-stats snapshot for an open session — the `STATS`
    /// request, mid-session, without disturbing the stream.
    pub fn stats(&self, session: u32) -> Result<SessionStats, ServeError> {
        self.sessions
            .get(&session)
            .map(|s| s.stats_snapshot())
            .ok_or(ServeError::UnknownSession(session))
    }

    /// Close a session: final worklist out, session back to the pool.
    pub fn close(&mut self, session: u32) -> Result<Worklist, ServeError> {
        let mut sess = self
            .sessions
            .remove(&session)
            .ok_or(ServeError::UnknownSession(session))?;
        let worklist = sess.close();
        self.pool.push(sess);
        self.sessions_served += 1;
        if let Some(metrics) = loa_obs::recorder() {
            metrics.sessions_closed.inc();
            metrics.active_sessions.add(-1.0);
        }
        loa_obs::journal_event("session_close", session as u64, worklist.stats.frames);
        if worklist.stats.stranded > 0 {
            loa_obs::journal_event("session_stranded", session as u64, worklist.stats.stranded);
        }
        Ok(worklist)
    }
}

/// Best-effort frame index out of a recoverable rejection, for the
/// journal's numeric operand.
fn frame_index(e: &ServeError) -> u64 {
    match e {
        ServeError::FrameLimit { frame, .. } | ServeError::InvalidFrame { frame, .. } => {
            *frame as u64
        }
        ServeError::Ingest(loa_ingest::IngestError::ReorderWindowExceeded { frame, .. }) => {
            *frame as u64
        }
        _ => 0,
    }
}
