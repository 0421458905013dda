//! # loa_serve — the resident multi-session audit service
//!
//! The deployment shape of the reproduction. The paper's fleet framing
//! (and Model Assertions' runtime-monitoring story) is LOA running
//! *continuously*: thousands of concurrent streams, each audited as it
//! records — not a one-shot CLI over files. This crate is that resident
//! layer over the PR 5/6 streaming machinery:
//!
//! * **App descriptor** — [`ServeApp`]: the one definition of each
//!   audit application (assembly preset, feature set, worklist) that
//!   `fixy learn`, `rank`, `stream` and `serve` all share, so an app
//!   means the same thing offline and live.
//! * **Sessions** — [`Session`], the one streaming loop `fixy stream`
//!   and `fixy serve` share: the incremental pair
//!   ([`loa_ingest::StreamingAssembler`] +
//!   [`fixy_core::IncrementalScorer`], ranked by
//!   [`ServeApp::worklist`]) behind per-frame validation and a bounded
//!   [`loa_ingest::ReorderBuffer`], so the per-frame cost stays O(Δ)
//!   and transport jitter inside the window is absorbed instead of
//!   fatal. Its in-order worklist equals
//!   [`ServeContext::full_worklist`] of the batch-assembled scene
//!   (locked by `tests/serve.rs`).
//! * **Session table** — [`AuditService`]: bounded concurrent sessions,
//!   a per-session frame budget, and session pooling — a closed session
//!   keeps its engines for the next open, so steady-state churn rebuilds
//!   no engines.
//! * **Wire protocol** — [`protocol`]: preamble + tagged length-prefixed
//!   envelopes whose frame payloads are exactly the `.fscb` frame-record
//!   bytes, so recorded scenes replay over the wire without recoding.
//!   `OPEN`/`CLOSE`/`SHUTDOWN` are request/response; `FRAME` is
//!   fire-and-forget (no per-frame ack, no write-path deadlock).
//! * **TCP front-end** — [`serve`]: one handler thread and one
//!   connection-scoped [`AuditService`] per accepted connection, all
//!   borrowing one [`ServeContext`] (the fitted library is resident
//!   once). [`FeedClient`] is the replay side.
//!
//! Everything fails typed ([`ServeError`]); per-frame rejections the
//! session can survive (beyond-window, over-budget, invalid frame
//! contents) are absorbed into
//! [`SessionStats`] and reported with the final worklist — or live,
//! mid-session, through the `STATS` request/response pair.
//!
//! The serving layer is instrumented with `loa_obs` (frames, per-frame
//! latency histograms, active sessions, engine-pool reuse, wire bytes;
//! all free while the recorder is off), and [`serve_metrics`] exposes
//! the global registry as a Prometheus text endpoint for `fixy serve
//! --metrics-addr`.

pub mod app;
pub mod client;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;

pub use app::ServeApp;
pub use client::{delivery_order, FeedClient};
pub use error::ServeError;
pub use metrics::serve_metrics;
pub use protocol::{Request, Response, SessionStats, Worklist};
pub use server::{serve, ServeSummary};
pub use service::{AuditService, ServiceCfg};
pub use session::{ServeContext, Session};
