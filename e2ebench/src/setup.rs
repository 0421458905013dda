//! Set-up: what a user waits for before the first scene is ranked or the
//! first frame is served.
//!
//! One round loads the training scenes, fits the missing-tracks library
//! (`Learner::fit`), writes it as `.flcb` and reads it back (the library
//! `rank` and `serve` actually use), builds the serving context and binds
//! the loopback listener. Rounds repeat so `setup_s` is a median.

use crate::stats::Sample;
use fixy_core::apps::MissingTrackFinder;
use fixy_core::{FeatureLibrary, Learner};
use loa_ingest::CorpusSource;
use loa_serve::{ServeApp, ServeContext};
use std::net::TcpListener;
use std::path::Path;
use std::time::Instant;

pub const APP: ServeApp = ServeApp::MissingTracks;

/// What set-up leaves behind for the workload.
pub struct Ready {
    pub library: FeatureLibrary,
    pub ctx: ServeContext,
    pub listener: TcpListener,
    pub train_scenes: usize,
}

/// Per-round timings of each set-up step, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub train_load: Vec<f64>,
    pub learn: Vec<f64>,
    pub flcb_write: Vec<f64>,
    pub flcb_read: Vec<f64>,
    pub context: Vec<f64>,
    pub bind: Vec<f64>,
}

fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = now.duration_since(*t).as_secs_f64();
    *t = now;
    s
}

/// One set-up round, its step timings appended to `times`.
pub fn round(train: &Path, lib_path: &Path, times: &mut SetupTimes) -> Result<Ready, String> {
    let start = Instant::now();
    let mut t = start;
    let scenes = CorpusSource::open(train)
        .and_then(CorpusSource::load_all)
        .map_err(|e| format!("training corpus: {e}"))?;
    times.train_load.push(lap(&mut t));
    let features = MissingTrackFinder::default().feature_set();
    let fitted = Learner::new()
        .fit(&features, &scenes)
        .map_err(|e| format!("fit: {e}"))?;
    times.learn.push(lap(&mut t));
    fixy_core::flcb::write_library_file(lib_path, APP.name(), &fitted)
        .map_err(|e| format!("library write: {e}"))?;
    times.flcb_write.push(lap(&mut t));
    let (app, library) =
        fixy_core::flcb::read_library_file(lib_path).map_err(|e| format!("library read: {e}"))?;
    times.flcb_read.push(lap(&mut t));
    if app != APP.name() {
        return Err(format!("library app {app}, expected {}", APP.name()));
    }
    let ctx = ServeContext::new(APP, library.clone()).map_err(|e| format!("context: {e}"))?;
    times.context.push(lap(&mut t));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    times.bind.push(lap(&mut t));
    times.total.push(start.elapsed().as_secs_f64());
    Ok(Ready { library, ctx, listener, train_scenes: scenes.len() })
}

/// Median of a per-round timing, in milliseconds.
pub fn median_ms(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).median() * 1e3
}
