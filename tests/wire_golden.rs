//! Golden wire bytes: the JSON codec's referee.
//!
//! `tests/golden/wire.txt` holds one `label<TAB>json` line per value
//! below, written by the codec that built a `Value` tree for every
//! encode and decode. Each value must still encode to exactly those
//! bytes, and each line must still decode to a value equal to the one it
//! was written from: every request and response variant, the eight
//! canonical sketches and their trajectory-panel stretches at ×0.8 and
//! ×1.25 (the sketch lines a served query sends), and a manifest.

use std::collections::BTreeMap;
use std::fmt::Debug;

use serde::{Deserialize, Serialize};
use sketchql::{Manifest, RetrievedMoment};
use sketchql_datasets::{canonical_sketch, query_clip, sample_path, EventKind, CANVAS_H, CANVAS_W};
use sketchql_server::{
    DatasetInfo, DatasetTraffic, EngineStats, ErrorKind, LiveMatch, LiveNotifications,
    ProfileOutcome, QueryOutcome, Registered, Request, Response, WireSpan, WireTrace,
    PROTOCOL_VERSION,
};
use sketchql_store::ManifestShard;
use sketchql_trajectory::{BBox, Clip, TrajPoint, Trajectory};

const GOLDEN: &str = include_str!("golden/wire.txt");

/// `kind`'s canonical sketch with every stroke's duration scaled by
/// `factor`, compiled the way `query_clip` compiles the canonical one.
fn stretched(kind: EventKind, factor: f32) -> Clip {
    let drawn = canonical_sketch(kind);
    let scale = |ticks: u32| (ticks as f32 * factor).round() as u32;
    let objects = drawn
        .objects
        .iter()
        .enumerate()
        .map(|(i, obj)| {
            let mut points = Vec::new();
            for stroke in &obj.strokes {
                let n = scale(stroke.ticks).max(1);
                for t in 0..n {
                    let frac = t as f32 / n.max(2).saturating_sub(1) as f32;
                    let pos = sample_path(&stroke.path, frac);
                    points.push(TrajPoint::new(
                        scale(stroke.start_tick) + t,
                        BBox::new(pos.x, pos.y, obj.size.0, obj.size.1),
                    ));
                }
            }
            Trajectory::from_points(i as u64, obj.class, points)
        })
        .collect();
    Clip::new(CANVAS_W, CANVAS_H, objects)
}

/// Every sketch the golden file holds, labelled.
fn sketches() -> Vec<(String, Clip)> {
    let mut out = Vec::new();
    for &kind in EventKind::ALL {
        out.push((format!("sketch/{}", kind.name()), query_clip(kind)));
        for factor in [0.8f32, 1.25] {
            out.push((
                format!("sketch/{}/x{factor}", kind.name()),
                stretched(kind, factor),
            ));
        }
    }
    out
}

fn requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::ListDatasets,
        Request::Stats,
        Request::Query {
            dataset: "traffic".into(),
            event: Some("left_turn".into()),
            clip: None,
            top_k: Some(5),
            deadline_ms: None,
            trace_id: Some(0x00ab_cdef_0123),
        },
        Request::Query {
            dataset: "city".into(),
            event: None,
            clip: Some(query_clip(EventKind::LeftTurn)),
            top_k: None,
            deadline_ms: Some(2_000),
            trace_id: None,
        },
        Request::Trace {
            trace_id: Some(42),
            limit: None,
        },
        Request::Metrics,
        Request::Profile {
            seconds: Some(2),
            hz: None,
        },
        Request::Register {
            dataset: "traffic".into(),
            event: None,
            clip: Some(query_clip(EventKind::PerpendicularCrossing)),
            min_score: Some(0.5),
            top_k: Some(3),
        },
        Request::Unregister { registration_id: 7 },
        Request::Notifications {
            registration_id: 7,
            max: Some(16),
        },
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Response::Datasets {
            datasets: vec![DatasetInfo {
                name: "traffic".into(),
                frames: 900,
                tracks: 12,
                stored: true,
            }],
        },
        Response::Stats {
            stats: EngineStats {
                workers: 2,
                queued: 1,
                in_flight: 2,
                accepted: 40,
                completed: 37,
                rejected_overload: 1,
                timed_out: 1,
                failed: 0,
                store_hits: 30,
                store_fallbacks: 2,
                store_probed: 31_800,
                rate_limited: 0,
                datasets: vec![DatasetTraffic {
                    name: "traffic".into(),
                    completed: 37,
                    failed: 0,
                    timed_out: 1,
                    shed: 1,
                    memo_segments: 12_345,
                    memo_bytes: 6_320_640,
                    memo_resets: 0,
                }],
                classes: Vec::new(),
            },
        },
        Response::Moments(QueryOutcome {
            moments: vec![
                RetrievedMoment {
                    start: 10,
                    end: 90,
                    score: 0.625,
                    track_ids: vec![3],
                },
                RetrievedMoment {
                    start: 400,
                    end: 517,
                    score: 0.412_345_67,
                    track_ids: vec![4, 11],
                },
            ],
            queue_wait_ms: 0,
            execute_ms: 41,
            batch_size: 1,
            trace_id: 0x00ab_cdef_0123,
        }),
        Response::Traces {
            traces: vec![WireTrace {
                trace_id: 7,
                label: "traffic/left_turn".into(),
                outcome: "completed".into(),
                batch_size: 1,
                total_nanos: 1_234_567,
                alloc_bytes: 52_480,
                alloc_count: 120,
                cpu_nanos: 1_100_000,
                counts: BTreeMap::from([
                    ("sketchql.store.hits".to_string(), 1),
                    ("sketchql.store.rows_probed".to_string(), 266),
                ]),
                spans: vec![WireSpan {
                    name: "sketchql.server.queue_wait".into(),
                    depth: 0,
                    start_nanos: 0,
                    nanos: 2_000,
                }],
            }],
        },
        Response::MetricsText {
            prometheus: "# TYPE x counter\nx 1\n\"quoted\" \\ tab\there \u{1}\u{e9}\n".into(),
        },
        Response::Profile(ProfileOutcome {
            folded: "worker-0;sketchql.server.execute;sketchql.matcher.scan 41\n".into(),
            samples: 120,
            duration_ms: 2_000,
        }),
        Response::Registered(Registered {
            registration_id: 3,
            watermark: 900,
        }),
        Response::Unregistered { registration_id: 3 },
        Response::Notifications(LiveNotifications {
            registration_id: 3,
            epoch: 2,
            watermark: 1100,
            dropped: 1,
            matches: vec![LiveMatch {
                start: 930,
                end: 1010,
                score: 0.75,
                track_ids: vec![4, 9],
                epoch: 2,
            }],
        }),
        Response::ShutdownAck,
        Response::Error {
            kind: ErrorKind::BadRequest,
            message: "missing field \"dataset\"".into(),
        },
    ]
}

fn manifest() -> Manifest {
    Manifest {
        version: 2,
        epoch: 3,
        dataset: "city".into(),
        model_fingerprint: "0123456789abcdef".into(),
        index_fingerprint: "fedcba9876543210".into(),
        frames: 1_900,
        fps_bits: 30.0f32.to_bits(),
        frame_width_bits: 1280.0f32.to_bits(),
        frame_height_bits: 720.0f32.to_bits(),
        stride_frac_bits: 0.25f32.to_bits(),
        min_overlap_frac_bits: 0.5f32.to_bits(),
        window_lens: vec![16, 45, 60, 90],
        dim: 4,
        shard_frames: 1_024,
        nlist: 2,
        centroid_bits: [0.5f32, -1.25, 3.0e-7, f32::MAX, 0.0, -0.0, 1.0, 2.5]
            .map(f32::to_bits)
            .to_vec(),
        shards: vec![shard(0, 0, 1_023), shard(1, 1_024, 1_899)],
    }
}

fn shard(id: u32, start: u32, end: u32) -> ManifestShard {
    ManifestShard {
        file: format!("shard-{id:04}.skshard"),
        shard_id: id,
        frame_start: start,
        frame_end: end,
        rows: 100 + id,
        checksum: format!("{:016x}", 0x9e37_79b9_7f4a_7c15u64 ^ id as u64),
        list_rows: vec![60, 40 + id],
    }
}

/// Every value of the golden file, labelled, as its encoding and a
/// check that a line decodes back to it.
type Case = (String, String, Box<dyn Fn(&str)>);

fn case<T>(label: String, value: T) -> Case
where
    T: Serialize + Deserialize + PartialEq + Debug + 'static,
{
    let line = serde_json::to_string(&value).unwrap();
    let check = Box::new(move |golden: &str| {
        let back: T = serde_json::from_str(golden).unwrap();
        assert_eq!(back, value);
    });
    (label, line, check)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (i, req) in requests().into_iter().enumerate() {
        out.push(case(format!("request/{i}"), req));
    }
    for (i, resp) in responses().into_iter().enumerate() {
        out.push(case(format!("response/{i}"), resp));
    }
    for (label, clip) in sketches() {
        out.push(case(label, clip));
    }
    out.push(case("manifest".into(), manifest()));
    out
}

#[test]
fn encodings_match_the_golden_bytes_and_decode_back() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .map(|line| line.split_once('\t').expect("label<TAB>json"))
        .collect();
    let cases = cases();
    assert_eq!(golden.len(), cases.len(), "one golden line per case");
    for ((label, line, check), (golden_label, golden_line)) in cases.iter().zip(&golden) {
        assert_eq!(label, golden_label);
        assert_eq!(line, golden_line, "{label}: encoding moved");
        check(golden_line);
    }
}
