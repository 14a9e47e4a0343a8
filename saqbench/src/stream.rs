//! ecg-stream: writes beside reads on a durable archive.
//!
//! Connection A sends open-loop APPEND waves of ECG samples to a set of
//! live monitors and interleaves QUERYs; connection B holds standing
//! subscriptions and blocks on `next_delta`. The archive lives in a fresh
//! directory on a `FileBackend` with fsync on, behind a counting wrapper
//! that tallies WAL bytes, fsyncs and compactions without touching the
//! crates. After the run the directory is reopened and checked.

use crate::inputs::{corpus, live_streams, LiveStream, Rng};
use crate::measure::{ms, us, Metrics, Samples, Span, Tracer};
use crate::pipeline::{oracle, replay, Answers, LayerTimes};
use crate::read::WARM_QUERY;
use crate::{engine_config, layer_metrics, median_setup, ratio, LayerInputs, RunResult};
use saq_archive::{ArchiveSnapshot, ArchiveStore, DurabilityConfig, Medium};
use saq_core::store::StoreConfig;
use saq_core::subscribe::SubscriptionRegistry;
use saq_core::{QueryRequest, Result};
use saq_durable::{Backend, FileBackend};
use saq_engine::QueryEngine;
use saq_server::{DeltaFrame, SaqClient, Saqd, SaqdConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Archived (non-live) sequences.
pub const SEQUENCES: usize = 64;
/// Live ECG monitors receiving appends, ids `LIVE_FIRST..LIVE_FIRST+LIVE`.
pub const LIVE: usize = 8;
const LIVE_FIRST: u64 = 1000;
/// Samples per append wave: one beat at the monitors' fixed R–R
/// interval, so each wave adds about one peak to its monitor.
pub const CHUNK: usize = 136;
/// Append waves per second (open loop). While the server's sockets stall
/// on delayed ACKs, an APPEND round trip takes ~45 ms and a QUERY ~88 ms,
/// so A is busy about half of each second and never backs up.
pub const APPEND_HZ: f64 = 4.0;
/// The engine's cache holds the whole archive.
pub const CACHE_CAPACITY: usize = 1024;
/// WAL records between automatic compactions: several compactions per
/// run, and a run's append count (120 in 30 s) is no multiple of it, so
/// reopening has WAL records to replay.
pub const COMPACT_AFTER: u64 = 11;
/// Set-ups per run; `setup_s` is their median (each subscribes 12 times,
/// about 1.2 s while round trips stall on delayed ACKs).
const SETUPS: usize = 5;
/// Reopens timed after the run; `recover.open_ms` is their median.
const REOPENS: usize = 5;
/// Tail percentile for query, append and delta latencies: the highest
/// with at least ten samples beyond it in a 30-second run with
/// delayed-ACK stalls (120 queries, 120 appends, about 170 delta frames).
const TAIL_PCT: f64 = 90.0;
/// Bytes a user point occupies: two `f64`s.
const POINT_BYTES: u64 = 16;

fn live_range() -> (u64, u64) {
    (LIVE_FIRST, LIVE_FIRST + LIVE as u64 - 1)
}

/// Standing queries. A noiseless monitor gains two peaks per one-beat
/// wave, so bands of three peak counts (`peaks = k tol 1`, k = 8, 11,
/// …, 29) tile the counts the monitors pass through in a run, and most
/// waves move their monitor from one band to the next (a `left` and an
/// `entered` frame). Steepness and peak queries over each half of the
/// monitors add subscriptions the id-bounds pruning can skip.
pub fn subscriptions() -> Vec<String> {
    let (lo, hi) = live_range();
    let mid = lo + LIVE as u64 / 2;
    let mut subs: Vec<String> =
        (0..8).map(|j| format!("peaks = {} tol 1 and id in [{lo}..{hi}]", 8 + 3 * j)).collect();
    for (a, b) in [(lo, mid - 1), (mid, hi)] {
        subs.push(format!("steepness any >= 20 and id in [{a}..{b}]"));
        subs.push(format!("peaks = 12 tol 4 and id in [{a}..{b}]"));
    }
    subs
}

/// The queries A interleaves with its appends.
fn queries(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x57E4);
    let (lo, hi) = live_range();
    let mut out = Vec::new();
    for _ in 0..3 {
        out.push(format!("peaks = {} tol 1 and id in [{lo}..{hi}]", 8 + rng.below(20)));
        out.push(format!("steepness any >= {:.1}", rng.range(14.0, 30.0)));
        out.push(format!("peaks = {} tol 1", 3 + rng.below(4)));
        out.push(format!("interval = {} tol {}", CHUNK - 2 + rng.below(4), 1 + rng.below(3)));
    }
    out
}

/// A `FileBackend` that counts what the durable layer asks of it.
/// `FileBackend` fsyncs inside every `append` and `put` (and shrinking
/// `truncate`); `sync` itself is a no-op there.
struct Counting {
    inner: FileBackend,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    manifests: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    wal_bytes: u64,
    fsyncs: u64,
    manifests: u64,
}

impl Counting {
    fn counts(&self) -> Counts {
        Counts {
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            manifests: self.manifests.load(Ordering::Relaxed),
        }
    }
}

impl Backend for Counting {
    fn get(&self, key: &str) -> saq_durable::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }
    fn put(&self, key: &str, value: &[u8]) -> saq_durable::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if key == saq_durable::store::MANIFEST_KEY {
            self.manifests.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.put(key, value)
    }
    fn append(&self, key: &str, bytes: &[u8]) -> saq_durable::Result<u64> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if key == saq_durable::wal::WAL_KEY {
            self.wal_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.inner.append(key, bytes)
    }
    fn read_at(&self, key: &str, offset: u64, buf: &mut [u8]) -> saq_durable::Result<usize> {
        self.inner.read_at(key, offset, buf)
    }
    fn len(&self, key: &str) -> saq_durable::Result<Option<u64>> {
        self.inner.len(key)
    }
    fn truncate(&self, key: &str, len: u64) -> saq_durable::Result<()> {
        if self.inner.len(key)?.is_some_and(|l| l > len) {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.truncate(key, len)
    }
    fn delete(&self, key: &str) -> saq_durable::Result<()> {
        self.inner.delete(key)
    }
    fn list(&self) -> saq_durable::Result<Vec<String>> {
        self.inner.list()
    }
    fn sync(&self) -> saq_durable::Result<()> {
        self.inner.sync()
    }
}

fn durability() -> DurabilityConfig {
    DurabilityConfig { compact_after: COMPACT_AFTER, index_docs: Some(StoreConfig::default()) }
}

/// A fresh, empty directory under the working directory's `.bench_tmp`.
fn fresh_dir(tag: &str) -> Result<PathBuf> {
    let dir = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Membership of each subscription as replayed from its deltas.
type Members = BTreeMap<u64, BTreeSet<u64>>;

fn apply(members: &mut Members, frame: &DeltaFrame) {
    let set = members.entry(frame.subscription).or_default();
    for id in &frame.delta.left {
        set.remove(id);
    }
    set.extend(frame.delta.entered.iter().copied());
}

struct Ready {
    dir: PathBuf,
    backend: Arc<Counting>,
    archive: ArchiveStore,
    server: Saqd,
    writer: SaqClient,
    subscriber: SaqClient,
    /// `(subscription id, SAQL)`.
    subs: Vec<(u64, String)>,
    members: Members,
    live: Vec<LiveStream>,
    queries: Vec<String>,
    /// Next append slot (slots run on across phases).
    next_slot: u64,
    /// Points archived so far (user bytes = points × 16).
    points: u64,
}

/// Two QUERY round trips on A: the second is served by a dispatcher
/// iteration that starts only after every earlier iteration's pump has
/// pushed its frames, so B's socket then holds every delta so far.
fn sync(client: &mut SaqClient) -> Result<()> {
    for _ in 0..2 {
        client.query(&QueryRequest::saql("id in [0..0]"))?;
    }
    Ok(())
}

/// Reads every frame already pushed to `client`.
fn drain(client: &mut SaqClient, members: &mut Members) -> Result<()> {
    while let Some(frame) = client.next_delta_within(Duration::from_millis(100))? {
        apply(members, &frame);
    }
    Ok(())
}

fn set_up(seed: u64, seconds: u64) -> Result<Ready> {
    let waves_each = (APPEND_HZ * seconds as f64 / LIVE as f64).ceil() as usize + 2;
    let live = live_streams(seed, LIVE_FIRST, LIVE, waves_each, CHUNK);
    let mut items = corpus(seed, SEQUENCES);
    items.extend(live.iter().map(|s| (s.id, s.initial())));
    let points = items.iter().map(|(_, s)| s.len() as u64).sum();

    let dir = fresh_dir("ecg-stream")?;
    let backend = Arc::new(Counting {
        inner: FileBackend::open(&dir).map_err(saq_core::Error::from)?,
        wal_bytes: AtomicU64::new(0),
        fsyncs: AtomicU64::new(0),
        manifests: AtomicU64::new(0),
    });
    let mut archive = ArchiveStore::open_backend(backend.clone(), Medium::memory(), durability())?;
    archive.try_put_batch(items)?;
    let config = SaqdConfig { engine: engine_config(CACHE_CAPACITY), ..SaqdConfig::default() };
    let server = Saqd::spawn(archive.clone(), config)?;
    let mut writer = SaqClient::connect(server.addr())?;
    let mut subscriber = SaqClient::connect(server.addr())?;
    let mut subs = Vec::new();
    for text in subscriptions() {
        subs.push((subscriber.subscribe(&text)?, text));
    }
    writer.query(&QueryRequest::saql(WARM_QUERY))?;
    sync(&mut writer)?;
    let mut members = Members::new();
    for (id, _) in &subs {
        members.insert(*id, BTreeSet::new());
    }
    drain(&mut subscriber, &mut members)?;
    Ok(Ready {
        dir,
        backend,
        archive,
        server,
        writer,
        subscriber,
        subs,
        members,
        live,
        queries: queries(seed),
        next_slot: 0,
        points,
    })
}

fn tear_down(ready: Ready) {
    drop(ready.writer);
    drop(ready.subscriber);
    ready.server.shutdown();
    drop(ready.archive);
    let _ = std::fs::remove_dir_all(&ready.dir);
}

/// The in-process copies a traced phase times its spans on: a replica
/// durable archive (its own directory, fsync on, compacted explicitly so
/// compaction gets its own span) and a subscription registry pumped by
/// the benchmark's own engine on the server archive's snapshots.
struct Replica {
    dir: PathBuf,
    archive: ArchiveStore,
    /// Replays A's queries (its cache sees only those).
    engine: QueryEngine,
    /// Cache counters after warming `engine`.
    warm: saq_engine::cache::CacheStats,
    /// Pumps the registry.
    pump_engine: QueryEngine,
    registry: SubscriptionRegistry,
    last_pumped: u64,
}

impl Replica {
    fn new(snapshot: &ArchiveSnapshot) -> Result<Replica> {
        let dir = fresh_dir("ecg-stream-replica")?;
        let mut archive = ArchiveStore::open(
            &dir,
            Medium::memory(),
            DurabilityConfig { compact_after: 0, ..durability() },
        )?;
        let items =
            snapshot.ids().iter().map(|&id| (id, snapshot.get(id).expect("listed").clone()));
        archive.try_put_batch(items.collect())?;
        archive.compact()?;
        let engine = QueryEngine::new(engine_config(CACHE_CAPACITY))?;
        engine.run_requests(snapshot, &[QueryRequest::saql(WARM_QUERY)])?;
        let pump_engine = QueryEngine::new(engine_config(CACHE_CAPACITY))?;
        let mut registry = SubscriptionRegistry::new();
        for text in subscriptions() {
            registry.register_saql(&text)?;
        }
        pump_engine.pump_subscriptions(snapshot, &mut registry, snapshot.generation())?;
        Ok(Replica {
            dir,
            archive,
            warm: engine.cache_stats(),
            engine,
            pump_engine,
            registry,
            last_pumped: snapshot.generation(),
        })
    }
}

/// Timings the traced phase takes on the write path.
#[derive(Debug, Default)]
struct WriteTimes {
    append_us: Samples,
    compact_ms: Samples,
    pump_ms: Samples,
    pumps: u64,
    evaluated: u64,
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    query_ms: Samples,
    append_ms: Samples,
    late_ms: Samples,
    queries: u64,
    appends: u64,
    failed: u64,
    wrong: u64,
    elapsed_s: f64,
    answers: Answers,
    /// Append due time by the generation it produced.
    due: HashMap<u64, Instant>,
    /// Every frame B received, with its arrival time.
    frames: Vec<(DeltaFrame, Instant)>,
    snapshots: HashMap<u64, ArchiveSnapshot>,
    times: LayerTimes,
    writes: WriteTimes,
    spans: Vec<Span>,
    points: u64,
    replay_hits: u64,
    replay_lookups: u64,
    /// Generation of the last replayed query's snapshot.
    replayed_at: u64,
}

fn open_loop(
    ready: &mut Ready,
    seed: u64,
    length: Duration,
    trace: bool,
    epoch: Instant,
) -> Result<Phase> {
    let period = Duration::from_secs_f64(1.0 / APPEND_HZ);
    let mut replica = if trace { Some(Replica::new(&ready.archive.snapshot())?) } else { None };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + length;
    let first_slot = ready.next_slot;
    let Ready { archive, writer, subscriber, live, queries, .. } = ready;

    let (phase, frames) = std::thread::scope(|scope| {
        let stop = &stop;
        let listener = scope.spawn(move || {
            let mut frames = Vec::new();
            loop {
                match subscriber.next_delta_within(Duration::from_millis(100)) {
                    Ok(Some(frame)) => frames.push((frame, Instant::now())),
                    Ok(None) if stop.load(Ordering::SeqCst) => break Ok(frames),
                    Ok(None) => {}
                    Err(e) => break Err(e),
                }
            }
        });

        let mut phase = Phase::default();
        let mut rng = Rng::new(seed ^ 0xA11CE);
        let mut tracer = Tracer::new(epoch, 3);
        let mut generation = archive.generation();
        phase.snapshots.insert(generation, archive.snapshot());
        phase.replayed_at = generation;
        let mut slot = first_slot;
        let mut request = 0u64;
        loop {
            let due = start + period * (slot - first_slot) as u32;
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let stream = &live[(slot % LIVE as u64) as usize];
            let wave = (slot / LIVE as u64) as usize;
            let Some(points) = stream.wave(wave, CHUNK) else { break };
            let sent = Instant::now();
            phase.late_ms.push(ms(due, sent));
            let result = writer.append(stream.id, points);
            let acked = Instant::now();
            slot += 1;
            request += 1;
            phase.appends += 1;
            match result {
                Ok(total) => {
                    phase.append_ms.push(ms(due, acked));
                    phase.points += points.len() as u64;
                    generation += 1;
                    let snapshot = archive.snapshot();
                    let expected_total = crate::inputs::ECG_SAMPLES + (wave + 1) * CHUNK;
                    if total != expected_total || snapshot.generation() != generation {
                        eprintln!(
                            "append to {} acknowledged total {total} at generation {}, expected {expected_total} at {generation}",
                            stream.id,
                            snapshot.generation()
                        );
                        phase.wrong += 1;
                        generation = snapshot.generation();
                    }
                    phase.due.insert(generation, due);
                    if let Some(replica) = replica.as_mut() {
                        trace_write(
                            &mut tracer,
                            &mut phase.writes,
                            replica,
                            &snapshot,
                            stream.id,
                            points,
                            request,
                            sent,
                            acked,
                        );
                    }
                    phase.snapshots.insert(generation, snapshot);
                }
                Err(e) => {
                    eprintln!("append to {} failed: {e}", stream.id);
                    phase.failed += 1;
                }
            }

            // A QUERY follows every append.
            request += 1;
            let q = rng.below(queries.len());
            query(writer, queries, q, &mut phase, &mut tracer, replica.as_ref(), request);
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        // Make every delta of this phase reach B before it stops reading.
        if let Err(e) = sync(writer) {
            eprintln!("sync failed: {e}");
            phase.failed += 1;
        }
        stop.store(true, Ordering::SeqCst);
        let frames = listener.join().expect("subscriber thread panicked");
        phase.spans = tracer.spans;
        (phase, frames)
    });
    let mut phase = phase;
    phase.frames = frames?;
    ready.next_slot = first_slot + phase.appends;
    ready.points += phase.points;
    if let Some(replica) = replica {
        let stats = replica.engine.cache_stats();
        let warm = replica.warm;
        phase.replay_hits = stats.hits.saturating_sub(warm.hits);
        phase.replay_lookups = (stats.hits + stats.misses).saturating_sub(warm.hits + warm.misses);
        drop(replica.archive);
        let _ = std::fs::remove_dir_all(&replica.dir);
    }
    Ok(phase)
}

/// Sends query `q` on A, records its latency and answer, and in a traced
/// phase replays it at the snapshot the answer names.
fn query(
    writer: &mut SaqClient,
    queries: &[String],
    q: usize,
    phase: &mut Phase,
    tracer: &mut Tracer,
    replica: Option<&Replica>,
    request: u64,
) {
    let sent = Instant::now();
    let result = writer.query(&QueryRequest::saql(queries[q].as_str()));
    let received = Instant::now();
    phase.queries += 1;
    let resp = match result {
        Ok(resp) => resp,
        Err(e) => {
            eprintln!("query {q} failed: {e}");
            phase.failed += 1;
            return;
        }
    };
    phase.query_ms.push(ms(sent, received));
    let answered = resp.snapshot.map_or(u64::MAX, |s| s.generation);
    phase.answers.record(q, answered, resp.outcome);
    if let (Some(replica), Some(snapshot)) = (replica, phase.snapshots.get(&answered)) {
        let (text, engine) = (&queries[q], &replica.engine);
        let changed = snapshot.changed_since(phase.replayed_at).unwrap_or_default();
        phase.replayed_at = answered;
        let times = &mut phase.times;
        if let Err(e) =
            replay(tracer, times, request, text, snapshot, &changed, engine, sent, received)
        {
            eprintln!("replay of query {q} failed: {e}");
            phase.failed += 1;
        }
    }
}

/// Times one acknowledged append's in-process counterparts: the replica
/// archive's `try_append_points` (WAL write + fsync), its compaction when
/// the threshold is reached, and a subscription pump on the server
/// archive's snapshot at the new generation.
#[allow(clippy::too_many_arguments)]
fn trace_write(
    tracer: &mut Tracer,
    writes: &mut WriteTimes,
    replica: &mut Replica,
    snapshot: &ArchiveSnapshot,
    id: u64,
    points: &[saq_sequence::Point],
    request: u64,
    sent: Instant,
    acked: Instant,
) {
    let root = tracer.open();
    tracer.record("server.round_trip", Some(root), request, sent, acked);
    let t0 = Instant::now();
    let appended = replica.archive.try_append_points(id, points);
    let t1 = Instant::now();
    if let Err(e) = appended {
        eprintln!("replica append failed: {e}");
    }
    writes.append_us.push(us(t0, t1));
    tracer.record("archive.append", Some(root), request, t0, t1);
    let mut end = t1;
    if replica.archive.wal_records() >= COMPACT_AFTER {
        let c0 = Instant::now();
        if let Err(e) = replica.archive.compact() {
            eprintln!("replica compaction failed: {e}");
        }
        end = Instant::now();
        writes.compact_ms.push(ms(c0, end));
        tracer.record("durable.compact", Some(root), request, c0, end);
    }
    let before = replica.registry.counters().evaluated;
    let p0 = Instant::now();
    let pumped = replica.pump_engine.pump_subscriptions(
        snapshot,
        &mut replica.registry,
        replica.last_pumped,
    );
    let p1 = Instant::now();
    if let Err(e) = pumped {
        eprintln!("pump failed: {e}");
    }
    replica.last_pumped = snapshot.generation();
    writes.pump_ms.push(ms(p0, p1));
    writes.pumps += 1;
    writes.evaluated += replica.registry.counters().evaluated - before;
    tracer.record("pump", Some(root), request, p0, p1);
    tracer.close(root, "append", None, request, sent, end.max(p1));
}

/// Delta latencies: each frame's arrival minus the due time of the
/// append that produced the generation it names.
fn delta_latencies(phase: &Phase) -> Samples {
    let mut out = Samples::default();
    for (frame, arrived) in &phase.frames {
        if let Some(due) = frame.snapshot.and_then(|s| phase.due.get(&s.generation)) {
            out.push(ms(*due, *arrived));
        }
    }
    out
}

/// The write-path figures of a phase.
fn write_metrics(m: &mut Metrics, phase: &Phase) {
    let deltas = delta_latencies(phase);
    let a = &phase.append_ms;
    m.add("append.p50_ms", a.median(), "ms", format!("n={}, from due time", a.len()));
    m.add("append.tail_ms", a.percentile(TAIL_PCT), "ms", a.tail_note(TAIL_PCT));
    m.add("delta.p50_ms", deltas.median(), "ms", format!("n={}, due to arrival", deltas.len()));
    m.add("delta.tail_ms", deltas.percentile(TAIL_PCT), "ms", deltas.tail_note(TAIL_PCT));
}

/// Stops the server, then checks and times recovery of its directory.
struct Recovery {
    open_ms: Samples,
    space_amp: f64,
    bytes: u64,
    replayed: u64,
    cold_pages: u64,
    wrong: u64,
}

fn recover(ready: Ready, final_snapshot: ArchiveSnapshot) -> Result<Recovery> {
    let expected_generation = final_snapshot.generation();
    let expected: Vec<(u64, Vec<saq_sequence::Point>)> = final_snapshot
        .ids()
        .iter()
        .map(|&id| (id, final_snapshot.get(id).expect("listed").points().to_vec()))
        .collect();
    drop(final_snapshot);
    let dir = ready.dir.clone();
    let user_bytes = ready.points * POINT_BYTES;
    let queries = ready.queries.clone();
    drop(ready.writer);
    drop(ready.subscriber);
    ready.server.shutdown();
    drop(ready.archive);
    drop(ready.backend);

    let bytes = dir_bytes(&dir)?;
    let mut open_ms = Samples::default();
    let mut wrong = 0;
    let mut replayed = 0;
    let mut cold_pages = 0;
    for k in 0..REOPENS {
        let t0 = Instant::now();
        let reopened = ArchiveStore::open(&dir, Medium::memory(), durability())?;
        open_ms.push(ms(t0, Instant::now()));
        if k == 0 {
            let snapshot = reopened.snapshot();
            let same = snapshot.generation() == expected_generation
                && snapshot.ids().len() == expected.len()
                && expected.iter().all(|(id, points)| {
                    snapshot.get(*id).is_some_and(|s| s.points() == &points[..])
                });
            if !same {
                eprintln!(
                    "reopen landed at generation {} with different contents (expected {expected_generation})",
                    snapshot.generation()
                );
                wrong += 1;
            }
            replayed = reopened.wal_records();
            // Index pages the cold documents serve to the stream's
            // queries, one request at a time, right after reopening.
            let engine = QueryEngine::new(engine_config(CACHE_CAPACITY))?;
            for q in &queries {
                engine.run_requests(&snapshot, &[QueryRequest::saql(q.as_str())])?;
            }
            cold_pages = reopened.cold_docs().map_or(0, |c| c.pages_read());
        }
    }
    std::fs::remove_dir_all(&dir)?;
    // Leave no empty scratch directory behind.
    let _ = std::fs::remove_dir(".bench_tmp");
    Ok(Recovery {
        open_ms,
        space_amp: bytes as f64 / user_bytes.max(1) as f64,
        bytes,
        replayed,
        cold_pages,
        wrong,
    })
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<RunResult> {
    let epoch = Instant::now();
    let (setup_s, mut ready) = median_setup(SETUPS, || set_up(seed, seconds), tear_down)?;
    let length = Duration::from_secs(seconds);
    let counts_before = ready.backend.counts();
    let server_before = ready.server.metrics();
    let fetches_before = ready.archive.fetch_count();

    let plain = open_loop(&mut ready, seed, if trace { length / 2 } else { length }, false, epoch)?;
    let server_after = ready.server.metrics();
    let fetches = ready.archive.fetch_count() - fetches_before;
    let counts_after = ready.backend.counts();
    let traced = if trace {
        Some(open_loop(&mut ready, seed ^ 0x7ACE, length / 2, true, epoch)?)
    } else {
        None
    };

    // Check: every answer against the oracle at its generation, and the
    // subscriptions' replayed membership against a fresh query at the
    // final generation.
    let mut phases = vec![plain];
    phases.extend(traced);
    let mut snapshots = HashMap::new();
    let mut answers = Answers::default();
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    for phase in &mut phases {
        for (frame, _) in &phase.frames {
            apply(&mut ready.members, frame);
        }
        snapshots.extend(phase.snapshots.drain());
        answers.merge(std::mem::take(&mut phase.answers));
        attempted += phase.queries + phase.appends;
        failed += phase.failed;
        wrong += phase.wrong;
    }
    let (_, wrong_answers) = answers.check(&ready.queries, |g| snapshots.get(&g).cloned());
    wrong += wrong_answers;
    let final_snapshot = ready.archive.snapshot();
    for (id, text) in &ready.subs {
        attempted += 1;
        let fresh = oracle(&final_snapshot, text)?;
        let mut ids: BTreeSet<u64> = fresh.exact.iter().copied().collect();
        ids.extend(fresh.approximate.iter().map(|m| m.id));
        if ready.members.get(id) != Some(&ids) {
            eprintln!(
                "subscription `{text}` replayed to {:?}, fresh query gives {ids:?}",
                ready.members.get(id)
            );
            wrong += 1;
        }
    }
    drop(snapshots);

    let plain = &phases[0];
    let late = plain.late_ms.percentile(99.0);
    let mut write_path = Metrics::default();
    write_metrics(&mut write_path, plain);
    let recovery = recover(ready, final_snapshot)?;
    attempted += 1;
    wrong += recovery.wrong;
    write_path.add(
        "recover.open_ms",
        recovery.open_ms.median(),
        "ms",
        format!("median of {REOPENS} ArchiveStore::open"),
    );
    write_path.add(
        "durable.space_amp",
        recovery.space_amp,
        "ratio",
        format!("{} bytes on disk / user points x {POINT_BYTES} B", recovery.bytes),
    );

    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    if let Some(traced) = phases.get(1) {
        let inputs = LayerInputs {
            queries: plain.queries,
            waves: server_after.waves - server_before.waves,
            wave_queries: server_after.queries - server_before.queries,
            fetches,
            replay_hits: traced.replay_hits,
            replay_lookups: traced.replay_lookups,
            untraced_p50_ms: plain.query_ms.median(),
            traced_p50_ms: traced.query_ms.median(),
        };
        layer_metrics(&mut metrics, &traced.times, &traced.spans, &inputs);
        let first = metrics.0.len();
        let w = &traced.writes;
        let appends = plain.appends;
        let user = plain.points * POINT_BYTES;
        let d = |f: fn(&Counts) -> u64| f(&counts_after) - f(&counts_before);
        let evaluations = w.pumps * subscriptions().len() as u64;
        let m = &mut metrics;
        m.add("archive.append_us", w.append_us.median(), "us", "replica, fsync on");
        m.add(
            "durable.wal_bytes_per_user_byte",
            ratio(d(|c| c.wal_bytes) as f64, user as f64),
            "ratio",
            format!("{} WAL bytes / {user} user bytes, exact", d(|c| c.wal_bytes)),
        );
        m.add(
            "durable.fsyncs_per_append",
            ratio(d(|c| c.fsyncs) as f64, appends as f64),
            "count",
            format!("{} fsyncs / {appends} appends, exact", d(|c| c.fsyncs)),
        );
        m.add("durable.compactions", d(|c| c.manifests) as f64, "count", "untraced half, exact");
        m.add("durable.compact_ms", w.compact_ms.median(), "ms", "replica ArchiveStore::compact");
        m.add("durable.replayed_records", recovery.replayed as f64, "count", "on reopen, exact");
        m.add("index.cold_pages_read", recovery.cold_pages as f64, "count", "after reopen, exact");
        m.add("pump.ms", w.pump_ms.median(), "ms", "pump_subscriptions after each append");
        m.add(
            "pump.evaluated_ratio",
            ratio(w.evaluated as f64, evaluations as f64),
            "ratio",
            format!("{} evaluated / {evaluations}, exact", w.evaluated),
        );
        m.add("pump.evaluations", evaluations as f64, "count", "registered x pumps");
        m.add("loadgen.late_p99_ms", late, "ms", "validity check, not performance");
        m.0.append(&mut write_path.0);
        assert!(
            m.0[first..].iter().map(|m| m.name.as_str()).eq(STREAM_ONLY.iter().map(|(n, _)| *n)),
            "ecg-stream reports exactly the STREAM_ONLY per-layer metrics"
        );
        spans = traced.spans.clone();
    } else {
        let q = &plain.query_ms;
        metrics.add("setup_s", setup_s, "s", format!("median of {SETUPS} set-ups"));
        metrics.add("query_p50_ms", q.median(), "ms", format!("n={}", q.len()));
        metrics.add("query_tail_ms", q.percentile(TAIL_PCT), "ms", q.tail_note(TAIL_PCT));
        metrics.add(
            "query_qps",
            plain.queries as f64 / plain.elapsed_s.max(1e-9),
            "1/s",
            format!("{} queries, open loop beside {} appends", plain.queries, plain.appends),
        );
        write_path.add("loadgen.late_p99_ms", late, "ms", "validity check, not performance");
    }
    Ok(RunResult {
        attempted,
        failed,
        wrong,
        metrics,
        spans,
        stream: (!write_path.0.is_empty()).then_some(write_path),
    })
}

/// Per-layer metrics only ecg-stream produces, with their units. The read
/// workloads report them as 0, so every traced run names the same metrics.
pub const STREAM_ONLY: [(&str, &str); 17] = [
    ("archive.append_us", "us"),
    ("durable.wal_bytes_per_user_byte", "ratio"),
    ("durable.fsyncs_per_append", "count"),
    ("durable.compactions", "count"),
    ("durable.compact_ms", "ms"),
    ("durable.replayed_records", "count"),
    ("index.cold_pages_read", "count"),
    ("pump.ms", "ms"),
    ("pump.evaluated_ratio", "ratio"),
    ("pump.evaluations", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("append.p50_ms", "ms"),
    ("append.tail_ms", "ms"),
    ("delta.p50_ms", "ms"),
    ("delta.tail_ms", "ms"),
    ("recover.open_ms", "ms"),
    ("durable.space_amp", "ratio"),
];
