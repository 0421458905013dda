//! Streamed corpus sources: a deterministic directory walk yielding
//! scenes one at a time.
//!
//! `fixy rank --scene <DIR>` used to read every scene JSON into memory
//! before the pipeline saw the first one — fine for a demo directory,
//! unaffordable for a fleet's day of drives. [`CorpusSource`] walks the
//! directory once (sorted, so every run and every machine agrees on the
//! order), then loads scenes lazily as the pipeline's workers pull them:
//! feeding `ScenePipeline::process_stream` keeps at most O(workers)
//! scenes in memory.

use crate::error::IngestError;
use crate::fscb::{self, FSCB_EXTENSION};
use loa_data::SceneData;
use std::path::{Path, PathBuf};

/// Attach the offending path to an I/O error — a bare "permission
/// denied" from a thousand-scene corpus walk is undebuggable.
fn io_at(path: &Path, e: std::io::Error) -> IngestError {
    IngestError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Load one scene in either format: `.json` through `loa_data::io`,
/// `.fscb` through the binary decoder. A path with any other (or no)
/// extension is sniffed by magic — `FSCB` leading bytes mean binary,
/// anything else parses as JSON, preserving the pre-ingest behavior of
/// extensionless scene files. Both paths validate.
///
/// The sniff distinguishes a file genuinely shorter than the magic
/// (legal — tiny JSON falls through to the JSON parser) from a real
/// read failure (permission, EISDIR, mid-read error), which propagates
/// as [`IngestError::Io`] with the path attached instead of being
/// misreported as a JSON parse error.
pub fn load_scene_auto(path: &Path) -> Result<SceneData, IngestError> {
    match path.extension().and_then(|e| e.to_str()) {
        Some(FSCB_EXTENSION) => fscb::read_scene(path),
        Some("json") => Ok(loa_data::io::load_scene(path)?),
        _ => {
            use std::io::Read as _;
            let mut magic = [0u8; 4];
            let mut file = std::fs::File::open(path).map_err(|e| io_at(path, e))?;
            let sniffed_fscb = match file.read_exact(&mut magic) {
                Ok(()) => &magic == b"FSCB",
                // Shorter than the magic: cannot be binary, let the
                // JSON parser report what it actually is.
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => false,
                Err(e) => return Err(io_at(path, e)),
            };
            if sniffed_fscb {
                fscb::read_scene(path)
            } else {
                Ok(loa_data::io::load_scene(path)?)
            }
        }
    }
}

/// A sorted, lazy iterator over every scene in a directory (`.json` and
/// `.fscb`, by extension).
///
/// Paths are collected and sorted up front — that is the deterministic
/// merge order of the batch worklist — but scene bytes are only read
/// when the iterator is pulled. Items are `Result`s so a decode failure
/// aborts a streamed batch; [`load_all`](Self::load_all) names the
/// failing path.
#[derive(Debug)]
pub struct CorpusSource {
    paths: Vec<PathBuf>,
    next: usize,
}

impl CorpusSource {
    /// Walk `dir` for scene files. An empty directory is an error — a
    /// rank or learn run over nothing is a caller mistake, not an empty
    /// worklist.
    pub fn open(dir: &Path) -> Result<Self, IngestError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                // `is_file` too: a subdirectory named `x.json` must not
                // become a scene token that aborts the streamed rank.
                p.is_file()
                    && p.extension()
                        .and_then(|e| e.to_str())
                        .is_some_and(|ext| ext == "json" || ext == FSCB_EXTENSION)
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(IngestError::EmptyCorpus(dir.to_path_buf()));
        }
        Ok(CorpusSource { paths, next: 0 })
    }

    /// The sorted scene paths, in yield order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Total number of scenes in the corpus.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Take the sorted paths — the cheap scene tokens
    /// `ScenePipeline::process_stream` pulls, decoding each inside a
    /// worker via [`load_scene_auto`].
    pub fn into_paths(self) -> Vec<PathBuf> {
        self.paths
    }

    /// Load every remaining scene into memory, in path order — the
    /// learner fits over the whole training set. Scenes decode on the
    /// batch worker pool ([`fixy_core::run_ordered`]) with
    /// [`fixy_core::pool_width`] workers, as batch `rank` does. The
    /// scenes and their order do not depend on the worker count, and
    /// neither does the error: [`IngestError::InFile`] for the first
    /// failing path in sorted order.
    pub fn load_all(self) -> Result<Vec<SceneData>, IngestError> {
        self.load_all_with_workers(fixy_core::pool_width())
    }

    fn load_all_with_workers(self, workers: usize) -> Result<Vec<SceneData>, IngestError> {
        fixy_core::run_ordered(workers, &self.paths[self.next..], |_, path| {
            load_scene_auto(path)
                .map_err(|e| IngestError::InFile { path: path.clone(), error: Box::new(e) })
        })
    }
}

impl Iterator for CorpusSource {
    type Item = Result<SceneData, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        let path = self.paths.get(self.next)?;
        self.next += 1;
        Some(load_scene_auto(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loa_data::{generate_scene, DatasetProfile};

    fn tiny_scene(name: &str, seed: u64) -> SceneData {
        let mut cfg = DatasetProfile::LyftLike.scene_config();
        cfg.world.duration = 2.0;
        cfg.lidar.beam_count = 180;
        generate_scene(&cfg, name, seed)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("loa_ingest_corpus_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn walk_is_sorted_and_mixed_format() {
        let dir = tmp_dir("mixed");
        // Write deliberately out of filesystem order, in both formats.
        let c = tiny_scene("c-scene", 3);
        let a = tiny_scene("a-scene", 1);
        let b = tiny_scene("b-scene", 2);
        loa_data::io::save_scene(&c, &dir.join("c.json")).unwrap();
        fscb::write_scene(&a, &dir.join("a.fscb")).unwrap();
        loa_data::io::save_scene(&b, &dir.join("b.json")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let source = CorpusSource::open(&dir).unwrap();
        assert_eq!(source.len(), 3);
        let names: Vec<String> = source
            .paths()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.fscb", "b.json", "c.json"]);
        let ids: Vec<String> = source.map(|r| r.unwrap().id).collect();
        assert_eq!(ids, ["a-scene", "b-scene", "c-scene"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decoy_subdirectories_are_not_scenes() {
        let dir = tmp_dir("decoy");
        loa_data::io::save_scene(&tiny_scene("real", 21), &dir.join("real.json")).unwrap();
        // Directories that *look* like scene files must be skipped.
        std::fs::create_dir(dir.join("decoy.json")).unwrap();
        std::fs::create_dir(dir.join("decoy.fscb")).unwrap();
        let source = CorpusSource::open(&dir).unwrap();
        assert_eq!(source.len(), 1);
        let ids: Vec<String> = source.map(|r| r.unwrap().id).collect();
        assert_eq!(ids, ["real"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sniff_short_file_falls_through_to_json_error() {
        let dir = tmp_dir("short");
        // 2 bytes — shorter than the 4-byte magic. Not a real I/O
        // failure, so the JSON parser gets to report the actual problem.
        let path = dir.join("stub");
        std::fs::write(&path, "{}").unwrap();
        assert!(matches!(load_scene_auto(&path), Err(IngestError::Scene(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sniff_read_failure_propagates_with_path() {
        let dir = tmp_dir("sniff_err");
        // Reading a directory as a file fails (EISDIR) — that must NOT
        // be misreported as a JSON parse error.
        let sub = dir.join("noext_dir");
        std::fs::create_dir(&sub).unwrap();
        match load_scene_auto(&sub) {
            Err(IngestError::Io(e)) => {
                assert!(e.to_string().contains("noext_dir"), "path missing: {e}")
            }
            other => panic!("expected Io error with path, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_is_typed_error() {
        let dir = tmp_dir("empty");
        assert!(matches!(CorpusSource::open(&dir), Err(IngestError::EmptyCorpus(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_failure_surfaces_lazily() {
        let dir = tmp_dir("lazy");
        loa_data::io::save_scene(&tiny_scene("ok", 5), &dir.join("a.json")).unwrap();
        std::fs::write(dir.join("b.json"), "{broken").unwrap();
        let mut source = CorpusSource::open(&dir).unwrap();
        assert!(source.next().unwrap().is_ok());
        assert!(matches!(source.next().unwrap(), Err(IngestError::Scene(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extensionless_paths_are_sniffed_by_magic() {
        let dir = tmp_dir("sniff");
        let json_path = dir.join("scene_json_noext");
        let fscb_path = dir.join("scene_fscb_noext");
        loa_data::io::save_scene(&tiny_scene("plain-json", 11), &json_path).unwrap();
        fscb::write_scene(&tiny_scene("plain-fscb", 12), &fscb_path).unwrap();
        assert_eq!(load_scene_auto(&json_path).unwrap().id, "plain-json");
        assert_eq!(load_scene_auto(&fscb_path).unwrap().id, "plain-fscb");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_all_is_the_same_at_every_worker_count() {
        let dir = tmp_dir("pool");
        let path = |i: usize| dir.join(format!("s{i}.fscb"));
        let write_clean = |i: usize| {
            fscb::write_scene(&tiny_scene(&format!("s{i}"), 40 + i as u64), &path(i)).unwrap()
        };
        (0..6).for_each(write_clean);
        let load =
            |workers: usize| CorpusSource::open(&dir).unwrap().load_all_with_workers(workers);
        let ids = |scenes: Vec<SceneData>| scenes.into_iter().map(|s| s.id).collect::<Vec<_>>();
        for workers in 1..=4 {
            assert_eq!(ids(load(workers).unwrap()), ["s0", "s1", "s2", "s3", "s4", "s5"]);
        }

        let first_error = |workers: usize| match load(workers) {
            Err(IngestError::InFile { path, error }) => (path, error.to_string()),
            other => panic!("{workers} workers: expected InFile, got {other:?}"),
        };
        for k in [0, 2, 4] {
            // One corrupt file at index k: its path, at every count.
            std::fs::write(path(k), b"FSCB-not-a-scene").unwrap();
            let reference = first_error(1);
            assert_eq!(reference.0, path(k));
            assert!(reference.1.contains("corrupt binary scene"), "{}", reference.1);
            for workers in 2..=4 {
                assert_eq!(first_error(workers), reference, "{workers} workers, corrupt {k}");
            }
            // A second corrupt file later on: the lower index still wins.
            std::fs::write(path(5), b"garbage").unwrap();
            for workers in 1..=4 {
                assert_eq!(first_error(workers), reference, "{workers} workers, two corrupt");
            }
            write_clean(k);
            write_clean(5);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_all_buffers_everything() {
        let dir = tmp_dir("all");
        loa_data::io::save_scene(&tiny_scene("s1", 7), &dir.join("s1.json")).unwrap();
        fscb::write_scene(&tiny_scene("s2", 8), &dir.join("s2.fscb")).unwrap();
        let scenes = CorpusSource::open(&dir).unwrap().load_all().unwrap();
        assert_eq!(scenes.len(), 2);
        assert_eq!(scenes[0].id, "s1");
        assert_eq!(scenes[1].id, "s2");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
