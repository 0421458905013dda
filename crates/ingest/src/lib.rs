//! # loa_ingest — streaming scene ingest
//!
//! The live-deployment I/O layer of the reproduction. The paper's
//! fleet-scale framing assumes scenes arrive continuously from vehicles;
//! this crate removes the two batch-shaped bottlenecks that assumption
//! exposes:
//!
//! * **Incremental assembly** — [`StreamingAssembler`] accepts frames
//!   one at a time and extends bundles/tracks immediately through the
//!   staged `AssemblyEngine` internals, with partial-scene snapshots for
//!   scoring before end-of-scene. `finalize()` output is field-for-field
//!   identical to batch [`Scene::assemble`](fixy_core::Scene::assemble)
//!   (the conformance proptests in `tests/ingest.rs` lock it). Each push
//!   also surfaces a [`FrameDelta`] of assembly facts
//!   ([`last_delta`](StreamingAssembler::last_delta)) and can grow a
//!   snapshot in place
//!   ([`update_snapshot`](StreamingAssembler::update_snapshot)), feeding
//!   the O(Δ) incremental re-scoring path
//!   ([`fixy_core::IncrementalScorer`]; equivalence proptests in
//!   `tests/incremental.rs`).
//!   [`update_rescored`](StreamingAssembler::update_rescored) runs both
//!   steps in the order the scorer needs, once per pushed frame. The
//!   live loop around it (validate → reorder → push → rescore → rank)
//!   is `loa_serve::Session`, shared by `fixy stream` and `fixy serve`.
//! * **Binary scene format** — [`fscb`]: a compact, frame-framed
//!   on-disk layout ([`FrameWriter`]/[`FrameReader`]) decodable
//!   frame-by-frame straight into the assembler, with exact `f64`
//!   round-tripping against scene JSON.
//! * **Streamed corpus source** — [`CorpusSource`], a sorted lazy
//!   directory walk (JSON or `.fscb` by extension) that feeds
//!   `ScenePipeline::process_stream` while keeping at most O(workers)
//!   scenes in memory.
//!
//! Everything fails typed ([`IngestError`]): out-of-order or duplicate
//! frames, truncated or corrupt binary scenes, empty corpora.

pub mod assembler;
pub mod corpus;
pub mod error;
pub mod fscb;
pub mod reorder;

pub use assembler::StreamingAssembler;
pub use corpus::{load_scene_auto, CorpusSource};
pub use error::IngestError;
pub use fixy_core::FrameDelta;
pub use fscb::{
    decode_frame_record, encode_frame_record, read_scene, write_scene, FrameReader, FrameWriter,
    FSCB_EXTENSION,
};
pub use reorder::{ReorderBuffer, ReorderOutcome};
