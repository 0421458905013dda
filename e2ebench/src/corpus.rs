//! Workloads and the synthetic corpus each one runs on.
//!
//! Every input comes from the in-repo simulator (`loa_data`) with a
//! seed. Generation is the harness's own work: `main` runs it in a child
//! process before the measured process starts, and the program under
//! test only ever sees the files written here.

use loa_data::{generate_scene, DatasetProfile};
use std::path::{Path, PathBuf};

/// How scenes are stored on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Fscb,
    Json,
}

impl Format {
    pub fn extension(self) -> &'static str {
        match self {
            Format::Fscb => "fscb",
            Format::Json => "json",
        }
    }
}

/// One benchmark workload: a corpus, given by its profile mix and
/// storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed lyft-like/internal-like scenes stored as `.fscb`: decode is
    /// cheap, so assemble → compile → score → rank dominates batch.
    BatchFscb,
    /// The same scenes stored as scene JSON: the streaming JSON decode
    /// dominates batch.
    BatchJson,
    /// Full lyft-like scenes only, stored as `.fscb`: every live session
    /// replays a 125-frame scene whose track count grows to the end.
    ServeLive,
}

pub const WORKLOADS: [Workload; 3] =
    [Workload::BatchFscb, Workload::BatchJson, Workload::ServeLive];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFscb => "batch_fscb",
            Workload::BatchJson => "batch_json",
            Workload::ServeLive => "serve_live",
        }
    }

    pub fn format(self) -> Format {
        match self {
            Workload::BatchJson => Format::Json,
            Workload::BatchFscb | Workload::ServeLive => Format::Fscb,
        }
    }

    /// Corpus scenes as (lyft-like, internal-like) counts.
    pub fn mix(self, smoke: bool) -> (usize, usize) {
        match (self, smoke) {
            (Workload::ServeLive, false) => (48, 0),
            (_, false) => (24, 24),
            (Workload::ServeLive, true) => (4, 0),
            (_, true) => (2, 2),
        }
    }
}

/// Open-loop aggregate rates (frames/s) of the `low`, `mid` and `high`
/// serving phases: 25%, 50% and 75% of 6800 frames/s, the closed-loop
/// rate one connection sustained over lyft-like sessions at the commit
/// that introduced the benchmark, on a 2-CPU host. Frozen so later
/// commits are measured at the same offered load.
pub const RATES: [f64; 3] = [1700.0, 3400.0, 5100.0];

/// The profile live sessions replay: every workload serves the lyft-like
/// scenes of its corpus, a full 125-frame scene per session.
pub const LIVE_PROFILE: &str = "lyft-like";

/// Training scenes as (lyft-like, internal-like) counts.
pub fn train_mix(smoke: bool) -> (usize, usize) {
    if smoke {
        (1, 1)
    } else {
        (6, 6)
    }
}

/// Scene length override for smoke runs (seconds); full runs use each
/// profile's own duration (25 s at 5 Hz, 15 s at 10 Hz).
fn smoke_duration(smoke: bool) -> Option<f64> {
    smoke.then_some(4.0)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scene to generate: profile, id (also the file stem) and seed.
struct Planned {
    profile: DatasetProfile,
    id: String,
    seed: u64,
}

/// Shuffled profile mix with per-scene seeds drawn from `state`. The
/// position prefix of each id makes the sorted corpus order (the batch
/// worklist's merge order) the shuffled order.
fn plan(prefix: &str, (lyft, internal): (usize, usize), state: &mut u64) -> Vec<Planned> {
    let mut profiles: Vec<DatasetProfile> = std::iter::repeat_n(DatasetProfile::LyftLike, lyft)
        .chain(std::iter::repeat_n(DatasetProfile::InternalLike, internal))
        .collect();
    for i in (1..profiles.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        profiles.swap(i, j);
    }
    profiles
        .into_iter()
        .enumerate()
        .map(|(pos, profile)| {
            let seed = splitmix64(state) >> 16;
            Planned {
                profile,
                id: format!("{prefix}{pos:03}-{}-s{seed}", profile.name()),
                seed,
            }
        })
        .collect()
}

fn write_planned(
    planned: &[Planned],
    dir: &Path,
    format: Format,
    smoke: bool,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Two generator threads: the corpus is ready sooner, and it is the
    // harness's time, not the program's.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let work = || -> Result<(), String> {
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(p) = planned.get(i) else { return Ok(()) };
            let mut cfg = p.profile.scene_config();
            if let Some(d) = smoke_duration(smoke) {
                cfg.world.duration = d;
            }
            let scene = generate_scene(&cfg, &p.id, p.seed);
            let path = dir.join(format!("{}.{}", p.id, format.extension()));
            match format {
                Format::Fscb => {
                    loa_ingest::write_scene(&scene, &path).map_err(|e| e.to_string())?
                }
                Format::Json => {
                    loa_data::io::save_scene(&scene, &path).map_err(|e| e.to_string())?
                }
            }
        }
    };
    std::thread::scope(|s| {
        let a = s.spawn(work);
        let b = work();
        a.join().expect("generator thread panicked").and(b)
    })
}

/// Where a generated corpus lives.
#[derive(Debug, Clone)]
pub struct CorpusDirs {
    pub train: PathBuf,
    pub corpus: PathBuf,
}

impl CorpusDirs {
    pub fn under(root: &Path) -> Self {
        CorpusDirs { train: root.join("train"), corpus: root.join("corpus") }
    }
}

/// Generate the training and corpus scenes of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, smoke: bool, root: &Path) -> Result<(), String> {
    let dirs = CorpusDirs::under(root);
    let mut state = seed ^ 0x5eed_f1c5_0000_0000;
    let train = plan("train-", train_mix(smoke), &mut state);
    let corpus = plan("", workload.mix(smoke), &mut state);
    write_planned(&train, &dirs.train, Format::Fscb, smoke)?;
    write_planned(&corpus, &dirs.corpus, workload.format(), smoke)
}
