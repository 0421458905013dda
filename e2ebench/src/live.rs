//! Live serving: `loa_serve::serve` on a loopback listener in this
//! process, fed over one connection by a two-thread generator (a writer
//! on the schedule, a reader for replies).
//!
//! 32 sessions replay whole scenes as pre-encoded `FRAME` records,
//! round-robin. When a scene ends its session sends `CLOSE` and the slot
//! opens the next scene, so sessions churn through the engine pool. A
//! `STATS` probe follows every 4th frame of each session; replies come
//! in request order, so a probe's reply time minus the due time of the
//! frame before it is that frame's latency.
//!
//! Phases: an untimed closed-loop warm-up that starts the slots one by
//! one (so sessions sit at evenly spread scene positions), open-loop
//! phases at the workload's frozen `low`/`mid`/`high` rates, one
//! closed-loop phase with a fixed number of frames in flight
//! (`peak_fps`), and an untimed drain that finishes every open scene so
//! each `CLOSE` worklist can be checked against batch.

use crate::batch::{same_worklist, Worklist};
use crate::stats::Sample;
use crate::trace::{self, LayerTable, Tracer};
use fixy_core::apps::MissingTrackFinder;
use fixy_core::{FeatureLibrary, IncrementalScorer, Scene};
use loa_data::Frame;
use loa_ingest::{ReorderBuffer, StreamingAssembler};
use loa_serve::protocol::{read_response, write_preamble, write_request};
use loa_serve::{AuditService, Request, Response, ServeContext, ServiceCfg};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Concurrent sessions on the connection.
pub const SLOTS: usize = 32;
/// A `STATS` probe follows every this-many frames of each session.
pub const PROBE_EVERY: usize = 4;
/// Frames in flight in the closed-loop phase.
pub const WINDOW: u64 = 256;
/// The latency limit on a frame's p99.
pub const LIMIT_MS: f64 = 5.0;
/// How long a phase's outstanding probes may take to be answered after
/// its last frame was sent before they count as failed.
const GRACE: Duration = Duration::from_secs(2);
/// Longest wait for a reply the closed loop needs before giving up.
const STALL: Duration = Duration::from_secs(20);

/// One scene ready to replay: its frames pre-encoded as `.fscb` records.
pub struct LiveScene {
    pub id: String,
    pub frame_dt: f64,
    pub records: Vec<Vec<u8>>,
}

/// Load and pre-encode (untimed) the scenes of `profile`, which the
/// corpus names in each scene id.
pub fn load_scenes(paths: &[PathBuf], profile: &str) -> Result<Vec<LiveScene>, String> {
    paths
        .iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(profile))
        })
        .map(|p| {
            let data =
                loa_ingest::load_scene_auto(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(LiveScene {
                records: data.frames.iter().map(loa_ingest::encode_frame_record).collect(),
                id: data.id,
                frame_dt: data.frame_dt,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The schedule
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub enum Event {
    Open { session: u32, scene: usize },
    Frame { session: u32, scene: usize, frame: usize },
    Probe { session: u32 },
    Close { session: u32, scene: usize },
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Idle,
    Live { session: u32, scene: usize, next: usize },
    Done,
}

/// The deterministic order of requests: slots round-robin, each sending
/// the next frame of its scene.
pub struct Schedule {
    lens: Vec<usize>,
    slots: Vec<Slot>,
    cursor: usize,
    round: usize,
    stagger: usize,
    next_scene: usize,
    next_session: u32,
    draining: bool,
}

impl Schedule {
    pub fn new(scenes: &[LiveScene]) -> Self {
        let lens: Vec<usize> = scenes.iter().map(|s| s.records.len()).collect();
        let mean = lens.iter().sum::<usize>() / lens.len().max(1);
        Schedule {
            lens,
            slots: vec![Slot::Idle; SLOTS],
            cursor: 0,
            round: 0,
            stagger: (mean / SLOTS).max(1),
            next_scene: 0,
            next_session: 1,
            draining: false,
        }
    }

    /// Every slot has started its first scene.
    pub fn warm(&self) -> bool {
        self.slots.iter().all(|s| !matches!(s, Slot::Idle))
    }

    /// From now on a finished scene closes its slot for good.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    fn open(&mut self, slot: usize, out: &mut Vec<Event>) {
        let session = self.next_session;
        self.next_session += 1;
        let scene = self.next_scene % self.lens.len();
        self.next_scene += 1;
        out.push(Event::Open { session, scene });
        self.slots[slot] = Slot::Live { session, scene, next: 0 };
    }

    /// Append the next step's events: one frame, with the `CLOSE`/`OPEN`
    /// of a scene change before it and a probe after it where due.
    /// Returns false once draining has closed every slot.
    pub fn step(&mut self, out: &mut Vec<Event>) -> bool {
        loop {
            if self.slots.iter().all(|s| matches!(s, Slot::Done)) {
                return false;
            }
            let j = self.cursor;
            self.cursor += 1;
            if self.cursor == SLOTS {
                self.cursor = 0;
                self.round += 1;
            }
            match self.slots[j] {
                Slot::Done => continue,
                Slot::Idle if self.draining => {
                    self.slots[j] = Slot::Done;
                    continue;
                }
                Slot::Idle if self.round < j * self.stagger => continue,
                Slot::Idle => self.open(j, out),
                Slot::Live { session, scene, next } if next == self.lens[scene] => {
                    out.push(Event::Close { session, scene });
                    if self.draining {
                        self.slots[j] = Slot::Done;
                        return true;
                    }
                    self.open(j, out);
                }
                Slot::Live { .. } => {}
            }
            let Slot::Live { session, scene, next } = &mut self.slots[j] else {
                unreachable!("slot opened above")
            };
            out.push(Event::Frame { session: *session, scene: *scene, frame: *next });
            *next += 1;
            if (*next + j).is_multiple_of(PROBE_EVERY) {
                out.push(Event::Probe { session: *session });
            }
            return true;
        }
    }
}

// ---------------------------------------------------------------------------
// The TCP run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Opened,
    Probe,
    Barrier,
    Worklist,
    Bye,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    kind: Kind,
    session: u32,
    scene: usize,
    phase: usize,
    due: Instant,
    sent: Instant,
    frame_seq: u64,
}

struct Reply {
    pending: Pending,
    at: Instant,
    error: Option<String>,
    /// `CLOSE` replies: the worklist entries and rejected-frame count.
    worklist: Option<(Vec<(String, f64)>, u64)>,
}

#[derive(Default)]
struct Progress {
    replies: u64,
    probes: u64,
    acked_seq: u64,
    dead: bool,
}

#[derive(Default)]
struct Shared {
    progress: Mutex<Progress>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.progress.lock().expect("progress lock poisoned")
    }

    /// Wait until `done` holds or `deadline` passes; returns `done`.
    fn wait(&self, deadline: Instant, done: impl Fn(&Progress) -> bool) -> bool {
        let mut p = self.lock();
        loop {
            if done(&p) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline || p.dead {
                return false;
            }
            p = self
                .cv
                .wait_timeout(p, deadline - now)
                .expect("progress lock poisoned")
                .0;
        }
    }
}

fn read_loop(
    mut reader: BufReader<TcpStream>,
    rx: mpsc::Receiver<Pending>,
    shared: &Shared,
) -> Result<Vec<Reply>, String> {
    let mut replies = Vec::new();
    let result = loop {
        let resp = match read_response(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => break Err("server closed the connection".to_string()),
            Err(e) => break Err(format!("read: {e}")),
        };
        let at = Instant::now();
        let Ok(pending) = rx.recv() else { break Err("reply without a request".into()) };
        let mut reply = Reply { pending, at, error: None, worklist: None };
        let expected = match (&resp, pending.kind) {
            (Response::Opened { session }, Kind::Opened) => *session == pending.session,
            (Response::Stats { session, .. }, Kind::Probe | Kind::Barrier) => {
                *session == pending.session
            }
            (Response::Worklist { session, worklist }, Kind::Worklist) => {
                reply.worklist = Some((worklist.entries.clone(), worklist.stats.rejected));
                *session == pending.session
            }
            (Response::Bye, Kind::Bye) => true,
            (Response::Error { message, .. }, _) => {
                reply.error = Some(message.clone());
                true
            }
            _ => false,
        };
        if !expected {
            reply.error = Some(format!("unexpected reply {resp:?} to {:?}", pending.kind));
        }
        {
            let mut p = shared.lock();
            p.replies += 1;
            if pending.kind == Kind::Probe {
                p.probes += 1;
            }
            p.acked_seq = p.acked_seq.max(pending.frame_seq);
        }
        shared.cv.notify_all();
        replies.push(reply);
        if pending.kind == Kind::Bye {
            break Ok(());
        }
    };
    shared.lock().dead = true;
    shared.cv.notify_all();
    result.map(|()| replies)
}

/// What one phase sent and saw, as the writer recorded it.
#[derive(Debug, Clone)]
pub struct PhaseLog {
    pub name: &'static str,
    /// Which repetition of the timed phases; `None` for warm-up and drain.
    pub round: Option<usize>,
    pub rate: Option<f64>,
    pub start: Instant,
    /// When the phase's last reply arrived or its grace ran out.
    pub deadline: Instant,
    pub frames: u64,
    pub probes: u64,
    pub requests: u64,
    pub lag_ms: Vec<f64>,
    pub backlog_q1: u64,
    pub backlog_end: u64,
    pub backlog_max: u64,
    /// Closed loop: when the barrier after the last frame was answered.
    pub completed: Option<Instant>,
}

struct Writer<'a> {
    out: BufWriter<TcpStream>,
    tx: mpsc::Sender<Pending>,
    shared: &'a Shared,
    scenes: &'a [LiveScene],
    frames_sent: u64,
    probes_sent: u64,
    expecting: u64,
    last_session: u32,
    frame_bytes: u64,
    events: Vec<Event>,
}

impl Writer<'_> {
    fn request(&mut self, req: &Request, pending: Pending) -> Result<(), String> {
        self.expecting += 1;
        self.tx
            .send(pending)
            .map_err(|_| "reply reader is gone".to_string())?;
        write_request(&mut self.out, req).map_err(|e| format!("write: {e}"))
    }

    fn pending(
        &self,
        kind: Kind,
        session: u32,
        scene: usize,
        phase: usize,
        due: Instant,
    ) -> Pending {
        Pending {
            kind,
            session,
            scene,
            phase,
            due,
            sent: Instant::now(),
            frame_seq: self.frames_sent,
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Send one schedule step due at `due`; false when the schedule is
    /// drained.
    fn step(
        &mut self,
        sched: &mut Schedule,
        log: &mut PhaseLog,
        phase: usize,
        due: Instant,
    ) -> Result<bool, String> {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let more = sched.step(&mut events);
        for ev in &events {
            log.requests += 1;
            match *ev {
                Event::Open { session, scene } => {
                    let s = &self.scenes[scene];
                    let req =
                        Request::Open { session, scene_id: s.id.clone(), frame_dt: s.frame_dt };
                    let p = self.pending(Kind::Opened, session, scene, phase, due);
                    self.request(&req, p)?;
                }
                Event::Frame { session, scene, frame } => {
                    let record = self.scenes[scene].records[frame].clone();
                    self.frame_bytes += 9 + record.len() as u64;
                    write_request(&mut self.out, &Request::Frame { session, record })
                        .map_err(|e| format!("write: {e}"))?;
                    self.frames_sent += 1;
                    self.last_session = session;
                    log.frames += 1;
                }
                Event::Probe { session } => {
                    let p = self.pending(Kind::Probe, session, usize::MAX, phase, due);
                    self.probes_sent += 1;
                    log.probes += 1;
                    self.request(&Request::Stats { session }, p)?;
                }
                Event::Close { session, scene } => {
                    let p = self.pending(Kind::Worklist, session, scene, phase, due);
                    self.request(&Request::Close { session }, p)?;
                }
            }
        }
        self.events = events;
        Ok(more)
    }

    fn probe_backlog(&self) -> u64 {
        self.probes_sent - self.shared.lock().probes
    }

    /// Flush and wait for every outstanding reply, up to `limit`.
    fn settle(&mut self, limit: Duration) -> Result<bool, String> {
        self.flush()?;
        let expecting = self.expecting;
        Ok(self.shared.wait(Instant::now() + limit, |p| p.replies >= expecting))
    }

    /// A `STATS` on the last session that carried a frame: its reply
    /// proves every frame sent so far was processed.
    fn barrier(&mut self, phase: usize) -> Result<bool, String> {
        let now = Instant::now();
        let session = self.last_session;
        let p = self.pending(Kind::Barrier, session, usize::MAX, phase, now);
        self.request(&Request::Stats { session }, p)?;
        self.settle(STALL)
    }

    fn new_log(name: &'static str, round: Option<usize>, rate: Option<f64>) -> PhaseLog {
        let now = Instant::now();
        PhaseLog {
            name,
            round,
            rate,
            start: now,
            deadline: now,
            frames: 0,
            probes: 0,
            requests: 0,
            lag_ms: Vec::new(),
            backlog_q1: 0,
            backlog_end: 0,
            backlog_max: 0,
            completed: None,
        }
    }

    fn open_loop(
        &mut self,
        sched: &mut Schedule,
        phase: usize,
        name: &'static str,
        round: usize,
        rate: f64,
        dur: Duration,
    ) -> Result<PhaseLog, String> {
        let mut log = Self::new_log(name, Some(round), Some(rate));
        let t0 = log.start;
        let mut q1_taken = false;
        for i in 0u64.. {
            let offset = Duration::from_secs_f64(i as f64 / rate);
            if offset >= dur {
                break;
            }
            let due = t0 + offset;
            let now = Instant::now();
            if due > now {
                self.flush()?;
                std::thread::sleep(due - now);
            }
            log.lag_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            self.step(sched, &mut log, phase, due)?;
            let backlog = self.probe_backlog();
            log.backlog_max = log.backlog_max.max(backlog);
            if !q1_taken && offset >= dur / 4 {
                log.backlog_q1 = backlog;
                q1_taken = true;
            }
        }
        self.flush()?;
        log.backlog_end = self.probe_backlog();
        self.settle(GRACE)?;
        log.deadline = Instant::now();
        Ok(log)
    }

    /// Keep `WINDOW` frames in flight until `stop` says so or the
    /// schedule is drained.
    fn closed_loop(
        &mut self,
        sched: &mut Schedule,
        phase: usize,
        name: &'static str,
        round: Option<usize>,
        stop: impl Fn(&Schedule, Instant) -> bool,
    ) -> Result<PhaseLog, String> {
        let mut drained = false;
        let mut log = Self::new_log(name, round, None);
        loop {
            if stop(sched, log.start) {
                break;
            }
            if self.frames_sent - self.shared.lock().acked_seq >= WINDOW {
                self.flush()?;
                let need = self.frames_sent - WINDOW + 1;
                if !self.shared.wait(Instant::now() + STALL, |p| p.acked_seq >= need) {
                    return Err(format!("{name}: no progress for {STALL:?}"));
                }
            }
            let due = Instant::now();
            if !self.step(sched, &mut log, phase, due)? {
                drained = true;
                break;
            }
            log.backlog_max = log.backlog_max.max(self.probe_backlog());
        }
        // Drained, every session's last request was a CLOSE awaiting its
        // reply; otherwise the last frame's session is still open.
        let settled = if drained { self.settle(STALL)? } else { self.barrier(phase)? };
        if !settled {
            return Err(format!("{name}: outstanding replies not answered within {STALL:?}"));
        }
        let now = Instant::now();
        log.completed = Some(now);
        log.deadline = now;
        Ok(log)
    }
}

/// Everything the TCP run measured.
pub struct LiveRun {
    pub phases: Vec<PhaseLog>,
    replies: Vec<Reply>,
    pub frame_bytes: u64,
    pub frames_sent: u64,
    pub sessions_opened: u64,
    pub engines_built: u64,
}

/// The open-loop phase names, in order.
pub const OPEN_PHASES: [&str; 3] = ["low", "mid", "high"];

/// The timed serving phases of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Offered frames/s of the `low`, `mid` and `high` phases.
    pub rates: [f64; 3],
    /// Repetitions of the three open-loop phases and the closed loop.
    pub rounds: usize,
    pub open_dur: Duration,
    pub closed_dur: Duration,
}

/// Serve `scenes` over loopback: warm-up; the plan's rounds, each
/// preceded by a call to `between` (the connection idles meanwhile);
/// then the drain.
pub fn run_tcp(
    scenes: &[LiveScene],
    ctx: &ServeContext,
    listener: TcpListener,
    plan: Plan,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<LiveRun, String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // `fixy serve` records metrics for its whole life; do the same.
    loa_obs::enable_metrics();
    loa_obs::reset();
    let shared = Shared::default();
    std::thread::scope(|s| {
        let server = s.spawn(|| loa_serve::serve(listener, ctx, ServiceCfg::default()));
        let result = drive(scenes, addr, plan, between, &shared, s);
        if result.is_err() {
            // Stop the server even if the generator failed midway, so the
            // scope can join it.
            if let Ok(client) = loa_serve::FeedClient::connect(addr) {
                let _ = client.shutdown();
            }
        }
        let summary = server.join().map_err(|_| "server thread panicked".to_string())?;
        summary.map_err(|e| format!("server: {e}"))?;
        let mut run = result?;
        if let Some(m) = loa_obs::recorder() {
            run.sessions_opened = m.sessions_opened.get();
            run.engines_built = m.engines_built.get();
        }
        Ok(run)
    })
}

fn drive<'scope, 'env>(
    scenes: &'env [LiveScene],
    addr: std::net::SocketAddr,
    plan: Plan,
    between: &mut dyn FnMut() -> Result<(), String>,
    shared: &'env Shared,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> Result<LiveRun, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let (tx, rx) = mpsc::channel();
    let reader = scope.spawn(move || read_loop(reader, rx, shared));
    let mut w = Writer {
        out: BufWriter::with_capacity(64 << 10, stream),
        tx,
        shared,
        scenes,
        frames_sent: 0,
        probes_sent: 0,
        expecting: 0,
        last_session: 0,
        frame_bytes: 0,
        events: Vec::new(),
    };
    let mut phases = Vec::new();
    let outcome = (|| -> Result<(), String> {
        write_preamble(&mut w.out).map_err(|e| e.to_string())?;
        let mut sched = Schedule::new(scenes);
        phases.push(w.closed_loop(&mut sched, 0, "warmup", None, |s, _| s.warm())?);
        for round in 0..plan.rounds {
            between()?;
            for (&name, &rate) in OPEN_PHASES.iter().zip(&plan.rates) {
                let log =
                    w.open_loop(&mut sched, phases.len(), name, round, rate, plan.open_dur)?;
                phases.push(log);
            }
            let log = w.closed_loop(&mut sched, phases.len(), "closed", Some(round), |_, t0| {
                t0.elapsed() >= plan.closed_dur
            })?;
            phases.push(log);
        }
        sched.drain();
        let drain = phases.len();
        phases.push(w.closed_loop(&mut sched, drain, "drain", None, |_, _| false)?);
        let p = w.pending(Kind::Bye, 0, usize::MAX, drain, Instant::now());
        w.request(&Request::Shutdown, p)?;
        w.flush()
    })();
    let Writer { out, tx, frame_bytes, frames_sent, .. } = w;
    drop(tx);
    if outcome.is_err() {
        // Unblock the reader: the server keeps the socket open otherwise.
        let _ = out.get_ref().shutdown(std::net::Shutdown::Both);
    }
    let replies = reader.join().map_err(|_| "reply reader panicked".to_string())?;
    outcome?;
    Ok(LiveRun {
        phases,
        replies: replies?,
        frame_bytes,
        frames_sent,
        sessions_opened: 0,
        engines_built: 0,
    })
}

/// One phase's accounting, from the writer's log and the replies.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub name: &'static str,
    pub round: Option<usize>,
    pub rate: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub latency_ms: Sample,
    /// `CLOSE` round trips of sessions closed in this phase.
    pub close_ms: Sample,
    pub lag_ms: Sample,
    pub backlog_q1: u64,
    pub backlog_end: u64,
    pub backlog_max: u64,
    /// Closed loop: frames sent and seconds until the last was answered.
    pub frames: u64,
    pub secs: f64,
}

impl PhaseResult {
    /// Closed-loop frames per second; 0 for open-loop phases.
    pub fn fps(&self) -> f64 {
        if self.secs > 0.0 {
            self.frames as f64 / self.secs
        } else {
            0.0
        }
    }

    /// p99 within the limit, no failed probe, and no backlog growth
    /// beyond one probe per session between the first quarter and the end.
    pub fn met_limit(&self) -> bool {
        self.failed == 0
            && self.latency_ms.quantile(0.99) <= LIMIT_MS
            && self.backlog_end <= self.backlog_q1 + SLOTS as u64
    }
}

/// The TCP run, checked and summarised.
pub struct LiveSummary {
    pub phases: Vec<PhaseResult>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub closes_checked: usize,
    pub bytes_per_frame: f64,
    pub engine_reuse_frac: f64,
}

pub fn summarise(
    run: &LiveRun,
    scenes: &[LiveScene],
    reference: &HashMap<String, Worklist>,
) -> LiveSummary {
    let mut phases: Vec<PhaseResult> = run
        .phases
        .iter()
        .map(|log| PhaseResult {
            name: log.name,
            round: log.round,
            rate: log.rate,
            attempted: log.requests,
            failed: 0,
            latency_ms: Sample::default(),
            close_ms: Sample::default(),
            lag_ms: Sample::new(log.lag_ms.clone()),
            backlog_q1: log.backlog_q1,
            backlog_end: log.backlog_end,
            backlog_max: log.backlog_max,
            frames: log.frames,
            secs: log
                .completed
                .map_or(0.0, |c| c.duration_since(log.start).as_secs_f64()),
        })
        .collect();
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    let mut answered_probes = vec![0u64; phases.len()];
    let mut close_ms: Vec<Vec<f64>> = vec![Vec::new(); phases.len()];
    let mut mismatches = Vec::new();
    let mut closes_checked = 0;
    for r in &run.replies {
        let p = r.pending;
        let Some(phase) = phases.get_mut(p.phase) else { continue };
        if let Some(e) = &r.error {
            phase.failed += 1;
            mismatches.push(format!("{:?} on session {}: {e}", p.kind, p.session));
            continue;
        }
        let log = &run.phases[p.phase];
        let in_time = r.at <= log.deadline;
        match p.kind {
            Kind::Probe if in_time => {
                answered_probes[p.phase] += 1;
                latencies[p.phase].push(r.at.duration_since(p.due).as_secs_f64() * 1e3);
            }
            Kind::Worklist => {
                close_ms[p.phase].push(r.at.duration_since(p.sent).as_secs_f64() * 1e3);
                if let Some((entries, rejected)) = &r.worklist {
                    phase.failed += rejected;
                    let scene = &scenes[p.scene];
                    let got: Option<Vec<_>> = entries
                        .iter()
                        .map(|(label, score)| Some((parse_class(label)?, *score)))
                        .collect();
                    closes_checked += 1;
                    if !got.is_some_and(|g| same_worklist(reference.get(&scene.id), &g)) {
                        mismatches.push(format!(
                            "serve CLOSE worklist differs from batch on {}",
                            scene.id
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    for (i, (phase, log)) in phases.iter_mut().zip(&run.phases).enumerate() {
        if log.rate.is_some() {
            phase.failed += log.probes - answered_probes[i];
        }
        phase.latency_ms = Sample::new(std::mem::take(&mut latencies[i]));
        phase.close_ms = Sample::new(std::mem::take(&mut close_ms[i]));
    }
    let attempted = phases.iter().map(|p| p.attempted).sum();
    let failed = phases.iter().map(|p| p.failed).sum();
    LiveSummary {
        phases,
        attempted,
        failed,
        mismatches,
        closes_checked,
        bytes_per_frame: run.frame_bytes as f64 / run.frames_sent.max(1) as f64,
        engine_reuse_frac: 1.0 - run.engines_built as f64 / run.sessions_opened.max(1) as f64,
    }
}

fn parse_class(label: &str) -> Option<loa_data::ObjectClass> {
    loa_data::ObjectClass::ALL.into_iter().find(|c| c.name() == label)
}

// ---------------------------------------------------------------------------
// The in-process replica
// ---------------------------------------------------------------------------

/// The per-session engine trio, as `loa_serve::Session` holds it.
struct Engines<'l> {
    assembler: StreamingAssembler,
    scorer: IncrementalScorer<'l>,
    reorder: ReorderBuffer,
    scene: Scene,
    released: Vec<Frame>,
    worklist: Vec<(String, f64)>,
}

/// Per-layer numbers from the replica.
pub struct Replicated {
    pub table: LayerTable,
    pub layer: Vec<(&'static str, f64, &'static str)>,
    pub frame_p50_us: f64,
    pub mismatches: Vec<String>,
}

/// Replay the TCP run's schedule in process for `budget`: each frame
/// goes through the client wire write, the server wire read, the real
/// `AuditService::frame_record`, and a replica of the session loop whose
/// steps are timed one by one. Every `CLOSE` checks the replica's
/// worklist against the service's.
pub fn replica(
    scenes: &[LiveScene],
    ctx: &ServeContext,
    library: &FeatureLibrary,
    budget: Duration,
    tracer: &Tracer,
) -> Result<Replicated, String> {
    let cfg = ServiceCfg::default();
    let finder = MissingTrackFinder::default();
    let features = finder.feature_set();
    let assembly = ctx.app().assembly();
    let mut svc = AuditService::new(ctx, cfg);
    let mut live: HashMap<u32, Engines<'_>> = HashMap::new();
    let mut pool: Vec<Engines<'_>> = Vec::new();
    let mut sched = Schedule::new(scenes);
    let mut events = Vec::new();
    let mut mismatches = Vec::new();
    let (mut frames, mut dirty, mut tracks) = (0u64, 0u64, 0u64);
    let mut frame_record_us = Vec::new();
    let mut wire = Vec::new();
    let start = Instant::now();
    while !sched.warm() || start.elapsed() < budget {
        events.clear();
        sched.step(&mut events);
        for ev in &events {
            match *ev {
                Event::Open { session, scene } => {
                    let s = &scenes[scene];
                    tracer
                        .time("serve.open", None, u64::from(session), || {
                            svc.open(session, &s.id, s.frame_dt)
                        })
                        .map_err(|e| format!("replica open: {e}"))?;
                    let mut e = match pool.pop() {
                        Some(e) => e,
                        None => Engines {
                            assembler: StreamingAssembler::new(assembly),
                            scorer: IncrementalScorer::new(&features, library)
                                .map_err(|e| format!("replica scorer: {e}"))?,
                            reorder: ReorderBuffer::new(cfg.window),
                            scene: Scene::from_parts(vec![], vec![], vec![], s.frame_dt, 0),
                            released: Vec::new(),
                            worklist: Vec::new(),
                        },
                    };
                    e.assembler.begin(s.frame_dt);
                    e.scorer.begin();
                    e.reorder.begin();
                    e.scene = Scene::from_parts(vec![], vec![], vec![], s.frame_dt, 0);
                    e.worklist.clear();
                    live.insert(session, e);
                }
                Event::Frame { session, scene, frame } => {
                    let key = frames;
                    frames += 1;
                    let original = loa_ingest::decode_frame_record(&scenes[scene].records[frame])
                        .map_err(|e| format!("replica decode: {e}"))?;
                    // Client: encode and frame the request.
                    wire.clear();
                    tracer
                        .time("serve.wire_write", None, key, || {
                            let record = loa_ingest::encode_frame_record(&original);
                            write_request(&mut wire, &Request::Frame { session, record })
                        })
                        .map_err(|e| format!("replica write: {e}"))?;
                    // Server: read the envelope.
                    let req = tracer
                        .time("wire.read_request", None, key, || {
                            loa_serve::protocol::read_request(&mut &wire[..])
                        })
                        .map_err(|e| format!("replica read: {e}"))?;
                    let Some(Request::Frame { record, .. }) = req else {
                        return Err("replica read back a non-frame request".into());
                    };
                    // The real service, as one unit.
                    let t = Instant::now();
                    tracer
                        .time("serve.frame_record", None, key, || {
                            svc.frame_record(session, &record)
                        })
                        .map_err(|e| format!("service frame: {e}"))?;
                    frame_record_us.push(t.elapsed().as_secs_f64() * 1e6);
                    // The replica, step by step.
                    let e = live.get_mut(&session).ok_or("replica frame for a closed session")?;
                    let parent = tracer.id();
                    let t0 = tracer.now_ns();
                    let f = tracer
                        .time("wire.decode", Some(parent), key, || {
                            loa_ingest::decode_frame_record(&record)
                        })
                        .map_err(|e| format!("replica decode: {e}"))?;
                    e.released.clear();
                    tracer
                        .time("ingest.reorder", Some(parent), key, || {
                            e.reorder.accept_into(f, &mut e.released)
                        })
                        .map_err(|e| format!("replica reorder: {e}"))?;
                    for f in &e.released {
                        tracer
                            .time("ingest.push", Some(parent), key, || e.assembler.push_frame(f))
                            .map_err(|e| format!("replica push: {e}"))?;
                        tracer
                            .time("ingest.snapshot", Some(parent), key, || {
                                e.assembler.update_snapshot(&mut e.scene)
                            })
                            .map_err(|e| format!("replica snapshot: {e}"))?;
                        let delta = e.assembler.last_delta().ok_or("no delta after push")?;
                        dirty += tracer.time("core.rescore", Some(parent), key, || {
                            e.scorer.rescore_delta(&e.scene, delta)
                        }) as u64;
                    }
                    if !e.released.is_empty() {
                        tracks += e.scene.n_tracks() as u64;
                        let scores = tracer.time("core.sweep", Some(parent), key, || {
                            e.scorer.score_all_tracks(&e.scene)
                        });
                        e.worklist = tracer.time("core.rank", Some(parent), key, || {
                            finder
                                .rank_scored(&e.scene, scores)
                                .into_iter()
                                .map(|c| (c.class.to_string(), c.score))
                                .collect()
                        });
                    }
                    tracer.record(trace::Span {
                        id: parent,
                        parent: None,
                        name: "serve.replica_frame",
                        key,
                        start_ns: t0,
                        end_ns: tracer.now_ns(),
                    });
                }
                Event::Probe { session } => {
                    svc.stats(session).map_err(|e| format!("replica stats: {e}"))?;
                }
                Event::Close { session, scene } => {
                    let wl = tracer
                        .time("serve.close", None, u64::from(session), || svc.close(session))
                        .map_err(|e| format!("replica close: {e}"))?;
                    let e = live.remove(&session).ok_or("replica close of an unknown session")?;
                    let same = wl.entries.len() == e.worklist.len()
                        && wl
                            .entries
                            .iter()
                            .zip(&e.worklist)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                    if !same {
                        mismatches.push(format!(
                            "serve replica worklist differs on {}",
                            scenes[scene].id
                        ));
                    }
                    pool.push(e);
                }
            }
        }
    }

    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let per = |name: &str, n: u64| {
        own.get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / n.max(1) as f64)
    };
    let per_span = |name: &str| {
        own.get(name)
            .map_or(0.0, |&(ns, c)| ns as f64 / 1e3 / c.max(1) as f64)
    };
    let frame_us = Sample::new(frame_record_us);
    let table = LayerTable {
        title: "served frame, replica rows vs AuditService::frame_record".into(),
        unit: "us per frame",
        rows: [
            "wire.decode",
            "ingest.reorder",
            "ingest.push",
            "ingest.snapshot",
            "core.rescore",
            "core.sweep",
            "core.rank",
        ]
        .into_iter()
        .map(|n| (n.to_string(), per(n, frames)))
        .collect(),
        total_label: "serve.frame_record (mean)".into(),
        total: frame_us.mean(),
    };
    let layer = vec![
        ("serve.wire_write_us", per("serve.wire_write", frames), "us"),
        (
            "serve.wire_read_us",
            per("wire.read_request", frames) + per("wire.decode", frames),
            "us",
        ),
        ("ingest.reorder_us", per("ingest.reorder", frames), "us"),
        ("ingest.push_us", per("ingest.push", frames), "us"),
        ("ingest.snapshot_us", per("ingest.snapshot", frames), "us"),
        ("core.rescore_us", per("core.rescore", frames), "us"),
        ("core.sweep_us", per("core.sweep", frames), "us"),
        ("core.rank_us", per("core.rank", frames), "us"),
        ("serve.frame_us", frame_us.mean(), "us"),
        ("serve.frame_other_us", table.other(), "us"),
        ("serve.open_us", per_span("serve.open"), "us"),
        ("serve.close_us", per_span("serve.close"), "us"),
        ("core.tracks_per_frame", tracks as f64 / frames.max(1) as f64, "count"),
        ("core.dirty_per_frame", dirty as f64 / frames.max(1) as f64, "count"),
        ("core.sweep_useful_frac", dirty as f64 / tracks.max(1) as f64, "ratio"),
    ];
    Ok(Replicated { table, layer, frame_p50_us: frame_us.median(), mismatches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenes(lens: &[usize]) -> Vec<LiveScene> {
        lens.iter()
            .enumerate()
            .map(|(i, &n)| LiveScene {
                id: format!("s{i}"),
                frame_dt: 0.2,
                records: vec![Vec::new(); n],
            })
            .collect()
    }

    #[test]
    fn every_session_replays_its_scene_in_order_and_drains() {
        let scenes = scenes(&[7, 9, 5]);
        let mut sched = Schedule::new(&scenes);
        let mut events = Vec::new();
        for _ in 0..2_000 {
            sched.step(&mut events);
        }
        assert!(sched.warm());
        sched.drain();
        while sched.step(&mut events) {}
        let mut open: HashMap<u32, (usize, usize)> = HashMap::new();
        let mut closed = 0;
        for ev in &events {
            match *ev {
                Event::Open { session, scene } => {
                    assert!(open.insert(session, (scene, 0)).is_none())
                }
                Event::Frame { session, scene, frame } => {
                    let (s, next) = open.get_mut(&session).expect("frame of an open session");
                    assert_eq!((*s, *next), (scene, frame), "frames in order");
                    *next += 1;
                }
                Event::Probe { session } => assert!(open.contains_key(&session)),
                Event::Close { session, scene } => {
                    let (s, next) = open.remove(&session).expect("close of an open session");
                    assert_eq!((s, next), (scene, scenes[scene].records.len()), "whole scene");
                    closed += 1;
                }
            }
        }
        assert!(open.is_empty(), "drain closes every session");
        assert!(closed > SLOTS);
    }

    #[test]
    fn probes_follow_every_fourth_frame_of_a_session() {
        let scenes = scenes(&[40]);
        let mut sched = Schedule::new(&scenes);
        let mut events = Vec::new();
        for _ in 0..5_000 {
            sched.step(&mut events);
        }
        let mut frames: HashMap<u32, usize> = HashMap::new();
        let mut probes: HashMap<u32, usize> = HashMap::new();
        for ev in &events {
            match *ev {
                Event::Frame { session, .. } => *frames.entry(session).or_default() += 1,
                Event::Probe { session } => *probes.entry(session).or_default() += 1,
                _ => {}
            }
        }
        for (session, n) in frames {
            let p = probes.get(&session).copied().unwrap_or(0);
            assert!(
                p.abs_diff(n / PROBE_EVERY) <= 1,
                "session {session}: {p} probes for {n} frames"
            );
        }
    }
}
