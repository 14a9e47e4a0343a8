//! ecg-scan and ecg-hot: a closed loop of SAQL queries from two client
//! connections against an in-memory archive.

use crate::inputs::{corpus, hot_queries, scan_queries, Rng};
use crate::measure::{Metrics, Samples, Span, Tracer};
use crate::pipeline::{replay, Answers, LayerTimes};
use crate::{engine_config, layer_metrics, median_setup, LayerInputs, RunResult, CLIENTS};
use saq_archive::{ArchiveSnapshot, ArchiveStore, Medium};
use saq_core::{QueryRequest, SnapshotRef};
use saq_engine::QueryEngine;
use saq_server::{SaqClient, Saqd, SaqdConfig};
use std::time::{Duration, Instant};

/// Sizes of one read workload.
#[derive(Debug, Clone, Copy)]
pub struct ReadSpec {
    /// Archived sequences.
    pub sequences: usize,
    /// The engine's feature-cache capacity (entries).
    pub cache_capacity: usize,
    /// Index-answerable queries over a cache that holds the archive
    /// (ecg-hot) rather than scans over one that cannot (ecg-scan).
    pub hot: bool,
}

/// The latency percentile reported as the tail. A 30-second run against
/// a server whose round trips stall on delayed ACKs (~88 ms) answers
/// about 590 queries, so p95 has about 30 samples beyond it. p98, the highest with ten beyond, spread 6–15 % (quartile
/// distance over median, ten seeds) on ecg-scan, p95 1.5–6 %; the run
/// prints p98 and p99 beside it.
const TAIL_PCT: f64 = 95.0;

/// ecg-scan: the archive is four times the cache, so an LRU over a full
/// scan hits nothing and every query re-derives what it reads. The scan
/// costs about a tenth of a seed-code round trip: larger archives made
/// the run-to-run spread follow the machine's CPU contention.
pub const SCAN: ReadSpec = ReadSpec { sequences: 256, cache_capacity: 64, hot: false };

/// ecg-hot: the archive fits in the (default-sized) cache and is warmed
/// before timing.
pub const HOT: ReadSpec = ReadSpec { sequences: 192, cache_capacity: 1024, hot: true };

/// A server ready to measure: archive loaded, cache warmed, clients
/// connected.
struct Ready {
    archive: ArchiveStore,
    server: Saqd,
    clients: Vec<SaqClient>,
    queries: Vec<String>,
    snapshot: SnapshotRef,
}

/// Set-ups per run; `setup_s` is their median. A read set-up takes tens
/// of milliseconds, so many are cheap and steady the median.
const SETUPS: usize = 11;

/// Longest think time between a client's answer and its next query.
const THINK_S: f64 = 0.010;

/// A query that touches every entry, used to warm the cache.
pub const WARM_QUERY: &str = "steepness any >= 0";

fn set_up(spec: ReadSpec, seed: u64) -> saq_core::Result<Ready> {
    let items = corpus(seed, spec.sequences);
    let queries =
        if spec.hot { hot_queries(seed, spec.sequences) } else { scan_queries(seed, &items) };
    let mut archive = ArchiveStore::new(Medium::memory());
    archive.try_put_batch(items)?;
    let config = SaqdConfig { engine: engine_config(spec.cache_capacity), ..SaqdConfig::default() };
    let server = Saqd::spawn(archive.clone(), config)?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut client = SaqClient::connect(server.addr())?;
        client.query(&QueryRequest::saql(WARM_QUERY))?;
        clients.push(client);
    }
    let snapshot = SnapshotRef::new(archive.instance_id(), archive.generation());
    Ok(Ready { archive, server, clients, queries, snapshot })
}

fn tear_down(ready: Ready) {
    drop(ready.clients);
    ready.server.shutdown();
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    latency_ms: Samples,
    completed: u64,
    failed: u64,
    elapsed_s: f64,
    answers: Answers,
    times: LayerTimes,
    spans: Vec<Span>,
    replay_hits: u64,
    replay_lookups: u64,
}

/// Runs the closed loop for `length`: each client sends its next query
/// as soon as the previous answer arrives. With `trace` (the server's
/// cache capacity), every answered request is also replayed in-process
/// through the traced layers.
fn closed_loop(
    ready: &mut Ready,
    seed: u64,
    length: Duration,
    trace: Option<usize>,
    epoch: Instant,
) -> Phase {
    let snapshot: ArchiveSnapshot = ready.archive.snapshot();
    let queries = &ready.queries;
    let expected = ready.snapshot;
    let start = Instant::now();
    let deadline = start + length;
    let results: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let snapshot = snapshot.clone();
                scope.spawn(move || {
                    let mut rng = Rng::new(seed ^ ((k as u64 + 1) * 0x9E37));
                    let mut phase = Phase::default();
                    let mut tracer = Tracer::new(epoch, k as u64 + 1);
                    // The replaying thread's own engine, configured like
                    // the server's and warmed the same way.
                    let engine = trace.map(|capacity| {
                        let engine =
                            QueryEngine::new(engine_config(capacity)).expect("valid engine config");
                        let _ = engine.run_requests(&snapshot, &[QueryRequest::saql(WARM_QUERY)]);
                        engine
                    });
                    let hits_before = engine.as_ref().map_or(0, |e| e.cache_stats().hits);
                    let misses_before = engine.as_ref().map_or(0, |e| e.cache_stats().misses);
                    let mut last = start;
                    let mut request = 0u64;
                    while Instant::now() < deadline {
                        // A seeded think time keeps the two clients from
                        // locking into one relative phase for a whole run.
                        std::thread::sleep(Duration::from_secs_f64(rng.range(0.0, THINK_S)));
                        let q = rng.below(queries.len());
                        let sent = Instant::now();
                        let result = client.query(&QueryRequest::saql(queries[q].as_str()));
                        let received = Instant::now();
                        last = received;
                        request += 1;
                        match result {
                            Ok(resp) => {
                                phase.completed += 1;
                                phase.latency_ms.push(crate::measure::ms(sent, received));
                                // An answer from any other snapshot than
                                // the loaded one is wrong on its face.
                                let generation = match resp.snapshot {
                                    Some(s) if s == expected => s.generation,
                                    _ => u64::MAX,
                                };
                                phase.answers.record(q, generation, resp.outcome);
                                if let Some(engine) = &engine {
                                    let id = (k as u64) << 32 | request;
                                    if let Err(e) = replay(
                                        &mut tracer,
                                        &mut phase.times,
                                        id,
                                        &queries[q],
                                        &snapshot,
                                        &[],
                                        engine,
                                        sent,
                                        received,
                                    ) {
                                        eprintln!("replay of query {q} failed: {e}");
                                        phase.failed += 1;
                                    }
                                }
                            }
                            Err(e) => {
                                eprintln!("query {q} failed: {e}");
                                phase.failed += 1;
                            }
                        }
                    }
                    phase.elapsed_s = (last - start).as_secs_f64();
                    if let Some(engine) = &engine {
                        let stats = engine.cache_stats();
                        phase.replay_hits = stats.hits.saturating_sub(hits_before);
                        phase.replay_lookups =
                            (stats.hits + stats.misses).saturating_sub(hits_before + misses_before);
                    }
                    phase.spans = tracer.spans;
                    phase
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Phase::default();
    for phase in results {
        total.latency_ms.extend(phase.latency_ms);
        total.completed += phase.completed;
        total.failed += phase.failed;
        total.elapsed_s = total.elapsed_s.max(phase.elapsed_s);
        total.answers.merge(phase.answers);
        total.times.merge(phase.times);
        total.spans.extend(phase.spans);
        total.replay_hits += phase.replay_hits;
        total.replay_lookups += phase.replay_lookups;
    }
    total
}

pub fn run(spec: ReadSpec, seed: u64, seconds: u64, trace: bool) -> saq_core::Result<RunResult> {
    let epoch = Instant::now();
    let (setup_s, mut ready) = median_setup(SETUPS, || set_up(spec, seed), tear_down)?;
    let length = Duration::from_secs(seconds);

    let mut metrics = Metrics::default();
    let mut spans = Vec::new();
    let (phase, traced) = if trace {
        // Half untraced (the baseline the overhead is measured against
        // and the source of the server and archive counters), half
        // traced.
        let before = ready.server.metrics();
        let fetches_before = ready.archive.fetch_count();
        let plain = closed_loop(&mut ready, seed, length / 2, None, epoch);
        let after = ready.server.metrics();
        let fetches = ready.archive.fetch_count() - fetches_before;
        let traced =
            closed_loop(&mut ready, seed ^ 0x7ACE, length / 2, Some(spec.cache_capacity), epoch);
        let inputs = LayerInputs {
            queries: plain.completed,
            waves: after.waves - before.waves,
            wave_queries: after.queries - before.queries,
            fetches,
            replay_hits: traced.replay_hits,
            replay_lookups: traced.replay_lookups,
            untraced_p50_ms: plain.latency_ms.median(),
            traced_p50_ms: traced.latency_ms.median(),
        };
        layer_metrics(&mut metrics, &traced.times, &traced.spans, &inputs);
        for (name, unit) in crate::stream::STREAM_ONLY {
            metrics.add(name, 0.0, unit, "n/a (ecg-stream only)");
        }
        (plain, Some(traced))
    } else {
        (closed_loop(&mut ready, seed, length, None, epoch), None)
    };

    // Every answer, traced or not, is checked against the scan oracle at
    // the snapshot it names.
    let loaded = ready.archive.snapshot();
    let mut answers = Answers::default();
    let mut completed = phase.completed;
    let mut failed = phase.failed;
    answers.merge(phase.answers);
    if let Some(traced) = traced {
        answers.merge(traced.answers);
        completed += traced.completed;
        failed += traced.failed;
        spans = traced.spans;
    }
    let snapshot_generation = ready.snapshot.generation;
    let (checked, wrong) =
        answers.check(&ready.queries, |g| (g == snapshot_generation).then(|| loaded.clone()));
    assert_eq!(checked, completed, "every completed answer is checked");
    tear_down(ready);

    if !trace {
        let lat = &phase.latency_ms;
        metrics.add("setup_s", setup_s, "s", format!("median of {SETUPS} set-ups"));
        metrics.add("query_p50_ms", lat.median(), "ms", format!("n={}", lat.len()));
        metrics.add("query_tail_ms", lat.percentile(TAIL_PCT), "ms", lat.tail_note(TAIL_PCT));
        metrics.add(
            "query_qps",
            phase.completed as f64 / phase.elapsed_s.max(1e-9),
            "1/s",
            format!("{} queries, {CLIENTS} connections", phase.completed),
        );
    }
    let attempted = completed + failed;
    Ok(RunResult { attempted, failed, wrong, metrics, spans, stream: None })
}
