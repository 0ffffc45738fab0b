//! Standing queries: the registration/notification half of live ingest.
//!
//! A *registration* is a sketch the server re-evaluates every time its
//! dataset grows ([`Engine::reload_dataset`](crate::Engine::reload_dataset)
//! swaps in the appended store and triggers evaluation). Each
//! registration carries a **watermark** — the frame count it has been
//! evaluated through. An ingest epoch that grows the dataset from
//! `watermark` to `frames` is evaluated as one epoch-scoped query
//! (`min_end = watermark`): windows fire in the epoch that first covers
//! their last frame, so consecutive epochs partition the window grid —
//! a standing query sees exactly the matches an offline query over the
//! appended range returns, no duplicates and no misses. Scores come
//! through the same store probe + exact re-rank path as interactive
//! queries, so they are bit-identical to offline results.
//!
//! Matches wait in a bounded per-registration queue until the
//! subscriber polls them ([`Request::Notifications`](crate::Request)).
//! When the queue is full the *oldest* match is shed and the
//! registration's `dropped` counter (cumulative, also served on the
//! wire) records the loss — an absent subscriber costs bounded memory,
//! never unbounded growth.
//!
//! The registry persists to JSON (atomic tmp + rename) whenever a
//! registration or watermark changes, so a restarted server resumes
//! every standing query; evaluation catches up registrations whose
//! watermark trails the reloaded dataset (appends that happened while
//! the server was down). Buffered, not-yet-polled matches are the one
//! thing a restart loses — the queue is delivery state, not history.
//!
//! Stores grow behind the server's back (`append_frames` commits new
//! epochs in place). [`LivePoller`] is the loop that notices: it watches
//! each set's manifest and turns every new epoch into a
//! [`Engine::reload_dataset`](crate::Engine::reload_dataset).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sketchql::{Manifest, RetrievedMoment, ShardSet, VideoIndex};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{Clip, TrackId};

use crate::engine::Engine;

/// Admission class standing-query evaluation runs under. Auto-declared
/// at engine start (unless the policy declares it itself) with base
/// priority [`LIVE_PRIORITY`], so evaluation flows through the same
/// bounded queue as interactive traffic but never jumps ahead of it.
pub const LIVE_CLASS: &str = "live";

/// Base priority of the auto-declared [`LIVE_CLASS`]: far below any
/// interactive default, so live evaluation only runs when workers
/// would otherwise idle (aging still bounds its starvation).
pub const LIVE_PRIORITY: i32 = -100;

/// Most matches a registration buffers before shedding the oldest.
pub const NOTIFY_QUEUE_CAP: usize = 256;

/// One match delivered to a standing query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveMatch {
    /// First frame of the matched moment.
    pub start: u32,
    /// Last frame (inclusive).
    pub end: u32,
    /// Similarity score in `[0, 1]` — bit-identical to the score an
    /// offline query over the same range reports.
    pub score: f32,
    /// Tracks bound to the query's object slots.
    pub track_ids: Vec<TrackId>,
    /// Ingest epoch whose evaluation produced this match.
    pub epoch: u64,
}

/// A drained batch of notifications for one registration — what
/// [`Engine::notifications`](crate::Engine::notifications) returns, what
/// [`Response::Notifications`](crate::Response) carries and what
/// [`Client::notifications`](crate::Client::notifications) hands back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveNotifications {
    /// The registration polled.
    pub registration_id: u64,
    /// Latest ingest epoch evaluated for this registration.
    pub epoch: u64,
    /// Frames evaluated through (matches never lag this watermark).
    pub watermark: u32,
    /// Cumulative matches shed because the queue overflowed.
    pub dropped: u64,
    /// Drained matches, oldest first.
    pub matches: Vec<LiveMatch>,
}

/// A freshly registered standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRegistration {
    /// Registry-assigned id; poll and unregister with it.
    pub id: u64,
    /// Frames the dataset had at registration — only appends beyond
    /// this watermark notify.
    pub watermark: u32,
}

/// Outcome of a live reload: the committed epoch plus how much
/// standing-query work it triggered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveReload {
    /// The reloaded dataset.
    pub dataset: String,
    /// Ingest epoch of the swapped-in store.
    pub epoch: u64,
    /// Frames the dataset now serves.
    pub frames: u32,
    /// Registrations whose watermark trailed the new frame count.
    pub evaluated: usize,
    /// Matches enqueued across those evaluations.
    pub delivered: usize,
}

/// The live-epoch poller: a thread that, every `interval`, re-reads the
/// manifest of each watched shard set (one small JSON file — nothing is
/// attached, so polling costs the same however many shards a set has)
/// and, when its epoch has advanced past the one the engine serves,
/// rebuilds the dataset's index, attaches the set and hands both to
/// [`Engine::reload_dataset`]. A set that cannot be opened or reloaded
/// is reported on stderr and retried on the next tick.
pub struct LivePoller {
    /// Dropping the sender is the stop signal.
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl LivePoller {
    /// Starts polling `sources` — `(dataset, shard-set directory, epoch
    /// the engine already serves)` — every `interval`. `rebuild_index`
    /// produces the dataset's grown [`VideoIndex`] (its error completes
    /// the line "store advanced but ..."); `nprobe`, when given, is set on
    /// every set the poller attaches, as the caller set it on the ones it
    /// attached at startup.
    pub fn spawn(
        engine: Arc<Engine>,
        mut sources: Vec<(String, PathBuf, u64)>,
        interval: Duration,
        rebuild_index: impl Fn(&str) -> Result<VideoIndex, String> + Send + 'static,
        nprobe: Option<usize>,
    ) -> std::io::Result<LivePoller> {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("sketchql-live-poll".into())
            .spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    for (name, set_dir, served_epoch) in sources.iter_mut() {
                        let advanced =
                            Manifest::load(set_dir).is_ok_and(|m| m.epoch > *served_epoch);
                        if !advanced {
                            continue;
                        }
                        let Ok(mut set) = ShardSet::open(set_dir) else {
                            continue;
                        };
                        // The epoch attached — an append may have landed
                        // since the manifest was read above.
                        let epoch = set.manifest().epoch;
                        let index = match rebuild_index(name) {
                            Ok(index) => index,
                            Err(e) => {
                                eprintln!("live: {name}: store advanced but {e}");
                                continue;
                            }
                        };
                        if let Some(nprobe) = nprobe {
                            set.nprobe = nprobe;
                        }
                        match engine.reload_dataset(name, index, set) {
                            Ok(r) => {
                                println!(
                                    "live: {name} advanced to epoch {} ({} frames): \
                                     {} standing quer(ies) evaluated, {} match(es) queued",
                                    r.epoch, r.frames, r.evaluated, r.delivered
                                );
                                *served_epoch = epoch;
                            }
                            Err(e) => eprintln!("live: reload {name}: {e}"),
                        }
                    }
                }
            })?;
        Ok(LivePoller { stop, thread })
    }

    /// Stops the loop (at once if it is between ticks, after the reload
    /// in progress otherwise) and joins the thread.
    pub fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// One live registration: the half `save` writes, plus its queue.
struct RegEntry {
    saved: SavedRegistration,
    /// Delivery state, not history: a restart starts it empty.
    queue: VecDeque<LiveMatch>,
}

struct RegistryState {
    next_id: u64,
    regs: BTreeMap<u64, RegEntry>,
}

/// The durable half of one registration (queues are delivery state and
/// deliberately not persisted). `watermark` is how far it has been
/// evaluated; a copy handed out by [`LiveRegistry::due`] is one
/// evaluation the registry owes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SavedRegistration {
    pub id: u64,
    pub dataset: String,
    pub query: Clip,
    min_score: Option<f32>,
    pub top_k: Option<usize>,
    pub watermark: u32,
    epoch: u64,
    dropped: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct SavedRegistry {
    next_id: u64,
    registrations: Vec<SavedRegistration>,
}

/// The standing-query registry: registrations, their watermarks, and
/// their bounded notification queues, behind one mutex. Owned by the
/// engine; persistence is best-effort (a failed save warns and keeps
/// serving — durability degrades, correctness doesn't).
pub(crate) struct LiveRegistry {
    state: Mutex<RegistryState>,
    path: Option<PathBuf>,
}

impl LiveRegistry {
    /// Opens the registry, restoring any registrations saved at `path`.
    /// A missing file starts empty; an unreadable one warns and starts
    /// empty (the server must come up).
    pub(crate) fn new(path: Option<PathBuf>) -> LiveRegistry {
        let mut state = RegistryState {
            next_id: 0,
            regs: BTreeMap::new(),
        };
        if let Some(p) = &path {
            let restored = match std::fs::read_to_string(p) {
                Ok(text) => serde_json::from_str::<SavedRegistry>(&text).map_err(|e| e.to_string()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(SavedRegistry::default()),
                Err(e) => Err(e.to_string()),
            };
            match restored {
                Ok(saved) => {
                    state.next_id = saved.next_id;
                    for saved in saved.registrations {
                        let queue = VecDeque::new();
                        state.regs.insert(saved.id, RegEntry { saved, queue });
                    }
                }
                Err(e) => eprintln!(
                    "live registry {} unreadable, starting empty: {e}",
                    p.display()
                ),
            }
        }
        LiveRegistry {
            state: Mutex::new(state),
            path,
        }
    }

    /// Adds a registration watermarked at the dataset's current frame
    /// count (only future appends notify).
    pub(crate) fn register(
        &self,
        dataset: String,
        query: Clip,
        min_score: Option<f32>,
        top_k: Option<usize>,
        watermark: u32,
        epoch: u64,
    ) -> LiveRegistration {
        let mut st = self.state.lock().unwrap();
        st.next_id += 1;
        let id = st.next_id;
        let saved = SavedRegistration {
            id,
            dataset,
            query,
            min_score,
            top_k,
            watermark,
            epoch,
            dropped: 0,
        };
        let queue = VecDeque::new();
        st.regs.insert(id, RegEntry { saved, queue });
        LiveRegistration { id, watermark }
    }

    /// Removes a registration; `false` if the id is unknown.
    pub(crate) fn unregister(&self, id: u64) -> bool {
        self.state.lock().unwrap().regs.remove(&id).is_some()
    }

    /// Live registrations.
    pub(crate) fn count(&self) -> usize {
        self.state.lock().unwrap().regs.len()
    }

    /// Drains up to `max` queued matches (oldest first); `None` if the
    /// id is unknown.
    pub(crate) fn drain(&self, id: u64, max: usize) -> Option<LiveNotifications> {
        let mut st = self.state.lock().unwrap();
        let e = st.regs.get_mut(&id)?;
        let n = e.queue.len().min(max.max(1));
        let matches: Vec<LiveMatch> = e.queue.drain(..n).collect();
        Some(LiveNotifications {
            registration_id: id,
            epoch: e.saved.epoch,
            watermark: e.saved.watermark,
            dropped: e.saved.dropped,
            matches,
        })
    }

    /// Registrations owing an evaluation: watermark behind the current
    /// frame count of their (optionally filtered) dataset.
    pub(crate) fn due<F: Fn(&str) -> Option<u32>>(
        &self,
        only: Option<&str>,
        frames_of: F,
    ) -> Vec<SavedRegistration> {
        let st = self.state.lock().unwrap();
        st.regs
            .values()
            .map(|e| &e.saved)
            .filter(|r| only.is_none_or(|d| d == r.dataset))
            .filter(|r| frames_of(&r.dataset).is_some_and(|frames| r.watermark < frames))
            .cloned()
            .collect()
    }

    /// Commits one evaluation: enqueues the scoped query's matches
    /// (filtered by the registration's `min_score`, shedding the oldest
    /// past [`NOTIFY_QUEUE_CAP`]) and advances the watermark. Stale
    /// completions — the watermark moved since the evaluation was cut —
    /// are dropped whole rather than risking duplicate delivery.
    /// Returns the number of matches enqueued.
    pub(crate) fn complete(
        &self,
        id: u64,
        expect_watermark: u32,
        new_watermark: u32,
        epoch: u64,
        moments: Vec<RetrievedMoment>,
    ) -> usize {
        let mut st = self.state.lock().unwrap();
        let Some(RegEntry { saved: e, queue }) = st.regs.get_mut(&id) else {
            return 0;
        };
        if e.watermark != expect_watermark {
            return 0;
        }
        let mut delivered = 0;
        for m in moments {
            if e.min_score.is_some_and(|s| m.score < s) {
                continue;
            }
            if queue.len() >= NOTIFY_QUEUE_CAP {
                queue.pop_front();
                e.dropped += 1;
                telemetry::counter(names::LIVE_DROPPED).inc();
            }
            queue.push_back(LiveMatch {
                start: m.start,
                end: m.end,
                score: m.score,
                track_ids: m.track_ids,
                epoch,
            });
            delivered += 1;
            telemetry::counter(names::LIVE_NOTIFICATIONS).inc();
        }
        e.watermark = new_watermark;
        e.epoch = epoch;
        delivered
    }

    /// Persists the registry (atomic tmp + rename). Best-effort: a
    /// failure warns on stderr and the server keeps running.
    pub(crate) fn save(&self) {
        let Some(path) = &self.path else { return };
        let saved = {
            let st = self.state.lock().unwrap();
            SavedRegistry {
                next_id: st.next_id,
                registrations: st.regs.values().map(|e| e.saved.clone()).collect(),
            }
        };
        let json = match serde_json::to_string(&saved) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("live registry encode failed: {e}");
                return;
            }
        };
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        if let Err(e) = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, path)) {
            eprintln!("live registry save to {} failed: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip() -> Clip {
        Clip::new(640.0, 480.0, Vec::new())
    }

    fn moment(start: u32, end: u32, score: f32) -> RetrievedMoment {
        RetrievedMoment {
            start,
            end,
            score,
            track_ids: vec![1],
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("skql-registry-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn registry_round_trips_through_its_save_file() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let reg = LiveRegistry::new(Some(path.clone()));
            let a = reg.register("traffic".into(), clip(), Some(0.5), Some(3), 900, 2);
            let b = reg.register("plaza".into(), clip(), None, None, 300, 0);
            assert_eq!((a.id, b.id), (1, 2));
            reg.complete(a.id, 900, 1200, 3, vec![moment(950, 1000, 0.9)]);
            reg.save();
        }
        // Golden bytes: the file a previous build wrote (captured before
        // `RegEntry` wrapped `SavedRegistration`) is what this one writes.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            r#"{"next_id":2,"registrations":[{"id":1,"dataset":"traffic","query":{"frame_width":640,"frame_height":480,"objects":[]},"min_score":0.5,"top_k":3,"watermark":1200,"epoch":3,"dropped":0},{"id":2,"dataset":"plaza","query":{"frame_width":640,"frame_height":480,"objects":[]},"min_score":null,"top_k":null,"watermark":300,"epoch":0,"dropped":0}]}"#
        );
        let reg = LiveRegistry::new(Some(path.clone()));
        assert_eq!(reg.count(), 2);
        // Watermarks survive; queued-but-unpolled matches deliberately
        // don't (the queue is delivery state, not history).
        let n = reg.drain(1, usize::MAX).unwrap();
        assert_eq!((n.watermark, n.epoch), (1200, 3));
        assert!(n.matches.is_empty());
        // Fresh ids keep counting past restored ones.
        let c = reg.register("traffic".into(), clip(), None, None, 1200, 3);
        assert_eq!(c.id, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflow_sheds_oldest_and_counts_drops() {
        let reg = LiveRegistry::new(None);
        let r = reg.register("traffic".into(), clip(), None, None, 0, 0);
        let moments: Vec<RetrievedMoment> = (0..NOTIFY_QUEUE_CAP as u32 + 10)
            .map(|i| moment(i, i + 5, 0.5))
            .collect();
        let delivered = reg.complete(r.id, 0, 100, 1, moments);
        assert_eq!(delivered, NOTIFY_QUEUE_CAP + 10);
        let n = reg.drain(r.id, usize::MAX).unwrap();
        assert_eq!(n.matches.len(), NOTIFY_QUEUE_CAP);
        assert_eq!(n.dropped, 10, "oldest ten shed");
        // The survivors are the newest: the first queued match is #10.
        assert_eq!(n.matches[0].start, 10);
    }

    #[test]
    fn min_score_filters_and_stale_completion_is_ignored() {
        let reg = LiveRegistry::new(None);
        let r = reg.register("traffic".into(), clip(), Some(0.7), None, 0, 0);
        let delivered = reg.complete(
            r.id,
            0,
            100,
            1,
            vec![moment(0, 5, 0.9), moment(10, 15, 0.5)],
        );
        assert_eq!(delivered, 1, "below-threshold match filtered");
        // A completion cut against watermark 0 after the registry moved
        // to 100 must not deliver (or rewind the watermark).
        let stale = reg.complete(r.id, 0, 50, 1, vec![moment(20, 25, 0.99)]);
        assert_eq!(stale, 0);
        let n = reg.drain(r.id, usize::MAX).unwrap();
        assert_eq!(n.matches.len(), 1);
        assert_eq!(n.watermark, 100);
    }

    #[test]
    fn drain_respects_max_and_unknown_ids_are_none() {
        let reg = LiveRegistry::new(None);
        let r = reg.register("traffic".into(), clip(), None, None, 0, 0);
        reg.complete(
            r.id,
            0,
            100,
            1,
            (0..5).map(|i| moment(i, i + 2, 0.5)).collect(),
        );
        let first = reg.drain(r.id, 2).unwrap();
        assert_eq!(first.matches.len(), 2);
        let rest = reg.drain(r.id, usize::MAX).unwrap();
        assert_eq!(rest.matches.len(), 3);
        assert_eq!(rest.matches[0].start, 2, "drained oldest first");
        assert!(reg.drain(999, 1).is_none());
        assert!(reg.unregister(r.id));
        assert!(!reg.unregister(r.id));
    }
}
