//! Serving conformance: the resident session layer must be invisible in
//! the results.
//!
//! The in-order reference is the batch path: a session's final worklist
//! equals `ServeContext::full_worklist` of the batch-assembled scene,
//! labels and f64 score bits identical, for every `ServeApp` (all three
//! `AssemblyConfig` presets). It stays so however its frames arrived:
//! in order, shuffled within the reorder window, duplicated, or
//! interleaved with other sessions, in-process and over TCP.
//! Beyond-window, over-budget and invalid frames are rejected
//! *recoverably*: counted in stats, session fully usable afterwards.

use fixy::core::{Learner, Scene};
use fixy::data::{ScenarioFuzzer, SceneData};
use fixy::serve::{
    delivery_order, serve, AuditService, FeedClient, ServeApp, ServeContext, ServeError,
    ServiceCfg, Worklist,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::OnceLock;

/// One fitted context per app (fitting is the expensive part; done once
/// per process). The four apps cover all three assembly presets.
fn contexts() -> &'static [ServeContext; 4] {
    static CTXS: OnceLock<[ServeContext; 4]> = OnceLock::new();
    CTXS.get_or_init(|| {
        let train = ScenarioFuzzer::new(41).training_corpus(2);
        ServeApp::ALL.map(|app| {
            let library = Learner { assembly: app.assembly() }
                .fit(&app.feature_set(), &train)
                .expect("fit");
            ServeContext::new(app, library).expect("context")
        })
    })
}

/// Feed one whole scene in index order through a fresh service; the
/// reference every delivery permutation must reproduce.
fn in_order_worklist(ctx: &ServeContext, data: &SceneData, cfg: ServiceCfg) -> Worklist {
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).expect("open");
    for frame in &data.frames {
        svc.frame(0, frame.clone()).expect("frame");
    }
    svc.close(0).expect("close")
}

fn assert_same_list(got: &[(String, f64)], want: &[(String, f64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: worklist length");
    for (i, ((gl, gs), (wl, ws))) in got.iter().zip(want).enumerate() {
        assert_eq!(gl, wl, "{ctx}: label at rank {i}");
        assert_eq!(gs.to_bits(), ws.to_bits(), "{ctx}: score bits at rank {i} ({gl})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    // The tentpole contract: a bounded shuffle plus duplicates inside
    // the window leaves the final worklist byte-identical to in-order
    // delivery, for every app (all three assembly presets).
    #[test]
    fn prop_shuffled_delivery_matches_in_order(
        seed in 0u64..200,
        index in 0u64..40,
        late in 1u32..6,
        dup_every in 2usize..5,
    ) {
        let cfg = ServiceCfg { window: late + 1, ..ServiceCfg::default() };
        for ctx in contexts() {
            let data = ScenarioFuzzer::new(seed).scene(index);
            let want = in_order_worklist(ctx, &data, cfg);

            let mut svc = AuditService::new(ctx, cfg);
            svc.open(7, &data.id, data.frame_dt).expect("open");
            let order = delivery_order(data.frames.len(), late, seed ^ index);
            let mut dups = 0u64;
            for (k, &pos) in order.iter().enumerate() {
                svc.frame(7, data.frames[pos].clone()).expect("frame");
                if (k + 1) % dup_every == 0 {
                    svc.frame(7, data.frames[pos].clone()).expect("dup frame");
                    dups += 1;
                }
            }
            let got = svc.close(7).expect("close");

            let tag = format!("{} seed {seed} scene {index} late {late}", ctx.app().name());
            assert_eq!(got.stats.frames, data.frames.len() as u64, "{tag}: frames");
            assert_eq!(got.stats.duplicates_dropped, dups, "{tag}: dups");
            assert_eq!(got.stats.rejected, 0, "{tag}: rejected");
            assert_eq!(got.stats.stranded, 0, "{tag}: stranded");
            assert_same_list(&got.entries, &want.entries, &tag);
        }
    }
}

/// The in-order served worklist equals the from-scratch batch worklist
/// of the whole scene, for every app — the reference the streaming loop
/// is held to, independent of the loop itself.
#[test]
fn served_worklist_equals_batch_worklist_for_every_app() {
    for ctx in contexts() {
        let app = ctx.app();
        let mut candidates = 0;
        for (seed, index) in [(3u64, 0u64), (17, 4), (58, 9)] {
            let data = ScenarioFuzzer::new(seed).scene(index);
            let got = in_order_worklist(ctx, &data, ServiceCfg::default());
            let batch = Scene::assemble(&data, &app.assembly());
            let want = ctx.full_worklist(&batch).expect("full worklist");
            let tag = format!("{} seed {seed} scene {index}", app.name());
            assert_eq!(got.stats.frames, data.frames.len() as u64, "{tag}: frames");
            assert_same_list(&got.entries, &want, &tag);
            candidates += want.len();
        }
        assert!(candidates > 0, "{}: no candidates to compare", app.name());
    }
}

/// A frame with a non-finite box is rejected before the reorder buffer
/// sees it (parked, it would make the valid copy a duplicate): counted,
/// first message kept, and the session converges once a valid copy of
/// that index arrives.
#[test]
fn invalid_frame_is_rejected_counted_and_recovered() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(9).scene(1);
    let k = (1..data.frames.len())
        .find(|&i| !data.frames[i].detections.is_empty())
        .expect("a frame with detections after frame 0");
    let cfg = ServiceCfg { window: 4, ..ServiceCfg::default() };
    let want = in_order_worklist(ctx, &data, cfg);

    let mut bad = data.frames[k].clone();
    bad.detections[0].bbox.center.x = f64::NAN;
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    for frame in &data.frames[..k - 1] {
        svc.frame(0, frame.clone()).unwrap();
    }
    // Watermark k - 1: the invalid frame k is inside the window.
    svc.frame(0, bad).expect("an invalid frame is absorbed, not fatal");
    let mid = svc.stats(0).unwrap();
    assert_eq!(mid.rejected, 1);
    assert_eq!(mid.parked, 0, "the invalid frame never reached the buffer");
    let first = mid.first_reject.as_deref().expect("first reject kept");
    assert_eq!(first, format!("invalid detection box in frame {k}"));

    for frame in &data.frames[k - 1..] {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.rejected, 1);
    assert_eq!(got.stats.duplicates_dropped, 0, "the valid copy was not a duplicate");
    assert_eq!(got.stats.frames, data.frames.len() as u64);
    assert_same_list(&got.entries, &want.entries, "invalid-frame recovery");
}

/// A frame beyond the reorder window is rejected recoverably: counted,
/// first message kept, and the session still converges to the in-order
/// worklist once the frame is re-sent inside the window.
#[test]
fn beyond_window_rejection_does_not_poison_the_session() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(9).scene(1);
    assert!(data.frames.len() > 8, "need enough frames");
    let cfg = ServiceCfg { window: 3, ..ServiceCfg::default() };
    let want = in_order_worklist(ctx, &data, cfg);

    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    svc.frame(0, data.frames[0].clone()).unwrap();
    // Watermark 1, window 3: index 6 is far beyond — absorbed, counted.
    svc.frame(0, data.frames[6].clone()).unwrap();
    svc.peek(0).expect("session stays open after a recoverable reject");
    for frame in &data.frames[1..6] {
        svc.frame(0, frame.clone()).unwrap();
    }
    // Watermark 6 now: the rejected frame fits the window on re-send.
    for frame in &data.frames[6..] {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.rejected, 1);
    let first = got.stats.first_reject.as_deref().expect("first reject kept");
    assert!(first.contains("reorder window"), "unexpected message: {first}");
    assert_eq!(got.stats.frames, data.frames.len() as u64);
    assert_same_list(&got.entries, &want.entries, "beyond-window recovery");
}

/// The per-session frame budget is enforced recoverably, and frames
/// stranded in the buffer at close are reported.
#[test]
fn frame_budget_and_stranded_frames_are_reported() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(12).scene(2);
    let n = data.frames.len();
    assert!(n > 4);

    // Budget: only the first 3 indexes are admitted; the rest count as
    // rejected but never kill the session.
    let cfg = ServiceCfg { window: 8, max_frames: 3, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    for frame in &data.frames {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.frames, 3);
    assert_eq!(got.stats.rejected, (n - 3) as u64);
    assert!(got.stats.first_reject.unwrap().contains("frame budget"));

    // Stranded: deliver a gap (skip frame 0), close with frames parked.
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();
    for frame in &data.frames[1..4] {
        svc.frame(0, frame.clone()).unwrap();
    }
    let got = svc.close(0).unwrap();
    assert_eq!(got.stats.frames, 0, "nothing released without frame 0");
    assert_eq!(got.stats.stranded, 3);
    assert!(got.entries.is_empty());
}

/// Session bookkeeping: id collisions, the session cap, unknown ids —
/// and engine pooling across churn (closes feed reopens; no rebuilds).
#[test]
fn session_table_limits_and_engine_pooling() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(5).scene(0);
    let cfg = ServiceCfg { max_sessions: 2, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);

    svc.open(1, "a", data.frame_dt).unwrap();
    assert!(matches!(
        svc.open(1, "a2", data.frame_dt),
        Err(ServeError::SessionExists(1))
    ));
    svc.open(2, "b", data.frame_dt).unwrap();
    assert!(matches!(
        svc.open(3, "c", data.frame_dt),
        Err(ServeError::SessionLimit { max: 2 })
    ));
    assert!(matches!(
        svc.frame(9, data.frames[0].clone()),
        Err(ServeError::UnknownSession(9))
    ));
    assert!(matches!(svc.close(9), Err(ServeError::UnknownSession(9))));
    assert_eq!(svc.engines_built(), 2);

    // Churn: close both, open-feed-close many more; the pool absorbs
    // every reopen, so no further engine builds.
    svc.close(1).unwrap();
    svc.close(2).unwrap();
    for round in 0..6u32 {
        svc.open(round, &format!("s{round}"), data.frame_dt).unwrap();
        for frame in &data.frames {
            svc.frame(round, frame.clone()).unwrap();
        }
        svc.close(round).unwrap();
    }
    assert_eq!(svc.engines_built(), 2, "pool must absorb session churn");
    assert_eq!(svc.sessions_served(), 8);
    assert_eq!(svc.open_sessions(), 0);
}

/// End-to-end over TCP: two sessions interleaved on one connection, one
/// delivered in order and one shuffled-with-duplicates inside the
/// window; both final worklists match in-order in-process references,
/// and shutdown stops the server cleanly.
#[test]
fn tcp_round_trip_interleaved_sessions_and_shutdown() {
    let ctx = &contexts()[1]; // MissingObs: bundle labels exercise the wire format
    let cfg = ServiceCfg { window: 4, ..ServiceCfg::default() };
    let a = ScenarioFuzzer::new(21).scene(0);
    let b = ScenarioFuzzer::new(22).scene(1);
    let want_a = in_order_worklist(ctx, &a, cfg);
    let want_b = in_order_worklist(ctx, &b, cfg);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve(listener, &contexts()[1], cfg));

    let mut client = FeedClient::connect(addr).expect("connect");
    client.open(10, &a.id, a.frame_dt).unwrap();
    client.open(20, &b.id, b.frame_dt).unwrap();

    let order_b = delivery_order(b.frames.len(), 3, 77);
    let rounds = a.frames.len().max(order_b.len());
    for k in 0..rounds {
        if let Some(frame) = a.frames.get(k) {
            client.frame(10, frame).unwrap();
        }
        if let Some(&pos) = order_b.get(k) {
            client.frame(20, &b.frames[pos]).unwrap();
            if k % 3 == 0 {
                client.frame(20, &b.frames[pos]).unwrap(); // immediate duplicate
            }
        }
    }
    let got_a = client.close_session(10).unwrap();
    let got_b = client.close_session(20).unwrap();
    assert_eq!(got_a.scene_id, a.id);
    assert_eq!(got_b.scene_id, b.id);
    assert_same_list(&got_a.entries, &want_a.entries, "tcp session A (in order)");
    assert_same_list(&got_b.entries, &want_b.entries, "tcp session B (shuffled)");
    assert_eq!(got_b.stats.frames, b.frames.len() as u64);
    assert!(got_b.stats.duplicates_dropped > 0);
    assert_eq!(got_b.stats.rejected, 0);

    client.shutdown().expect("shutdown handshake");
    let summary = server.join().expect("server thread").expect("serve result");
    assert_eq!(summary.sessions, 2);
    assert_eq!(summary.frames as usize, {
        let dups = (0..order_b.len()).filter(|k| k % 3 == 0).count();
        a.frames.len() + order_b.len() + dups
    });
    assert!(summary.connections >= 1);
}

/// Mid-session stats surface the reorder buffer's live state: frames
/// parked behind a gap are visible *before* the watermark releases
/// them, and the parked count drains to zero once the gap fills.
#[test]
fn mid_session_stats_surface_parked_frames_before_release() {
    let ctx = &contexts()[0];
    let data = ScenarioFuzzer::new(31).scene(3);
    assert!(data.frames.len() > 4);
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let mut svc = AuditService::new(ctx, cfg);
    svc.open(0, &data.id, data.frame_dt).unwrap();

    svc.frame(0, data.frames[0].clone()).unwrap();
    // Skip frame 1: frames 2 and 3 park behind the gap.
    svc.frame(0, data.frames[2].clone()).unwrap();
    svc.frame(0, data.frames[3].clone()).unwrap();
    let mid = svc.stats(0).expect("stats on live session");
    assert_eq!(mid.frames, 1, "only frame 0 released");
    assert_eq!(mid.parked, 2, "frames 2 and 3 parked behind the gap");
    assert_eq!(mid.stranded, 0, "stranded is a close-time count");

    // Fill the gap: the watermark run releases 1, 2, 3 at once.
    svc.frame(0, data.frames[1].clone()).unwrap();
    let after = svc.stats(0).unwrap();
    assert_eq!(after.frames, 4);
    assert_eq!(after.parked, 0, "buffer drained after the release run");
    assert_eq!(after.reordered, 2, "frames 2 and 3 were released late");

    assert!(matches!(svc.stats(9), Err(ServeError::UnknownSession(9))));
    svc.close(0).unwrap();
}

/// The `STATS` round trip over real TCP: because the server answers
/// requests in receive order, the reply is a barrier over the
/// fire-and-forget frames sent before it — a mid-session snapshot sees
/// the parked frames deterministically.
#[test]
fn tcp_stats_round_trip_sees_parked_frames_mid_session() {
    let cfg = ServiceCfg { window: 8, ..ServiceCfg::default() };
    let data = ScenarioFuzzer::new(33).scene(1);
    assert!(data.frames.len() > 4);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve(listener, &contexts()[2], cfg));

    let mut client = FeedClient::connect(addr).expect("connect");
    client.open(7, &data.id, data.frame_dt).unwrap();
    client.frame(7, &data.frames[0]).unwrap();
    client.frame(7, &data.frames[2]).unwrap();
    client.frame(7, &data.frames[3]).unwrap();
    let mid = client.stats(7).expect("mid-session STATS");
    assert_eq!(mid.frames, 1);
    assert_eq!(mid.parked, 2, "STATS must reflect parked frames before release");

    client.frame(7, &data.frames[1]).unwrap();
    for frame in &data.frames[4..] {
        client.frame(7, frame).unwrap();
    }
    let full = client.stats(7).unwrap();
    assert_eq!(full.frames, data.frames.len() as u64);
    assert_eq!(full.parked, 0);
    assert_eq!(full.reordered, 2);

    let worklist = client.close_session(7).unwrap();
    assert_eq!(worklist.stats.frames, data.frames.len() as u64);
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("serve result");
}

/// The scrape endpoint answers plain HTTP with well-formed Prometheus
/// exposition text rendered from the global registry.
#[test]
fn metrics_endpoint_serves_prometheus_text() {
    use std::io::{Read as _, Write as _};
    let addr = fixy::serve::serve_metrics("127.0.0.1:0").expect("bind metrics");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();

    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "status line: {response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("# TYPE loa_frames_total counter"));
    assert!(body.contains("# TYPE loa_frame_latency_us histogram"));
    assert!(body.contains("loa_frame_latency_us_bucket{le=\"+Inf\"}"));
    // Every non-comment line must parse as `name[{labels}] value`.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let value = line.rsplit(' ').next().expect("value field");
        assert!(value.parse::<f64>().is_ok(), "unparseable sample line: {line}");
    }
}

/// Opening against a library fitted for a different app fails up front.
#[test]
fn context_rejects_mismatched_library() {
    let train = ScenarioFuzzer::new(41).training_corpus(1);
    let library = Learner { assembly: ServeApp::MissingTracks.assembly() }
        .fit(&ServeApp::MissingTracks.feature_set(), &train)
        .unwrap();
    // MissingTracks' library has no yaw-rate entry, which the
    // model-errors feature set requires.
    let err = ServeContext::new(ServeApp::ModelErrors, library);
    assert!(err.is_err(), "mismatched library must fail at context build");
}
