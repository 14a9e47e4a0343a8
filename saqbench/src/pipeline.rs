//! The in-process side of a request: the scan oracle every answer is
//! checked against, and the traced replay that times one request's
//! passage through each layer's public entry point.

use crate::measure::{Samples, Tracer};
use saq_archive::{ArchiveScanEngine, ArchiveSnapshot};
use saq_core::algebra::{IndexCaps, Planner, QueryEngine as _};
use saq_core::lang::saql;
use saq_core::store::{StoreConfig, StoredEntry};
use saq_core::{QueryOutcome, QueryRequest, QueryResponse, Result};
use saq_engine::QueryEngine;
use saq_server::protocol::{WireRequest, WireResponse};
use std::collections::HashMap;
use std::time::Instant;

/// The reference answer: a sequential scan of the pinned snapshot that
/// derives every entry from its raw sequence (no cache, no index).
pub fn oracle(snapshot: &ArchiveSnapshot, saql_text: &str) -> Result<QueryOutcome> {
    let expr = saql::parse(saql_text)?;
    ArchiveScanEngine::pinned(snapshot.clone(), StoreConfig::default()).execute(&expr)
}

/// Answers seen for each `(query, generation)`, with how often each
/// distinct answer came back. Checking each distinct answer once against
/// the oracle checks every answer.
#[derive(Debug, Default)]
pub struct Answers(pub HashMap<(usize, u64), Vec<(QueryOutcome, u64)>>);

impl Answers {
    pub fn record(&mut self, query: usize, generation: u64, outcome: QueryOutcome) {
        self.add(query, generation, outcome, 1);
    }

    fn add(&mut self, query: usize, generation: u64, outcome: QueryOutcome, n: u64) {
        let seen = self.0.entry((query, generation)).or_default();
        match seen.iter_mut().find(|(o, _)| *o == outcome) {
            Some((_, count)) => *count += n,
            None => seen.push((outcome, n)),
        }
    }

    pub fn merge(&mut self, other: Answers) {
        for ((query, generation), seen) in other.0 {
            for (outcome, n) in seen {
                self.add(query, generation, outcome, n);
            }
        }
    }

    /// Checks every recorded answer; returns `(answers checked, wrong)`.
    /// `snapshot_at` maps a generation to the snapshot it names.
    pub fn check(
        &self,
        queries: &[String],
        snapshot_at: impl Fn(u64) -> Option<ArchiveSnapshot>,
    ) -> (u64, u64) {
        let (mut checked, mut wrong) = (0, 0);
        let mut keys: Vec<_> = self.0.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let (query, generation) = key;
            let expected = snapshot_at(generation).map(|snap| oracle(&snap, &queries[query]));
            for (outcome, n) in &self.0[&key] {
                checked += n;
                match &expected {
                    Some(Ok(expected)) if expected == outcome => {}
                    other => {
                        wrong += n;
                        eprintln!(
                            "wrong answer: query {query} at generation {generation}: got {outcome:?}, oracle {other:?}"
                        );
                    }
                }
            }
        }
        (checked, wrong)
    }
}

/// Per-request layer timings of the traced replay.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub round_trip_ms: Samples,
    pub wire_ms: Samples,
    pub codec_us: Samples,
    pub parse_us: Samples,
    pub plan_us: Samples,
    pub engine_ms: Samples,
    /// Per-request wall share of entry computation inside the engine run.
    pub store_ms: Samples,
    pub compute_us: Samples,
    pub computes: u64,
    pub entries_scanned: u64,
    pub requests: u64,
}

impl LayerTimes {
    pub fn merge(&mut self, other: LayerTimes) {
        self.round_trip_ms.extend(other.round_trip_ms);
        self.wire_ms.extend(other.wire_ms);
        self.codec_us.extend(other.codec_us);
        self.parse_us.extend(other.parse_us);
        self.plan_us.extend(other.plan_us);
        self.engine_ms.extend(other.engine_ms);
        self.store_ms.extend(other.store_ms);
        self.compute_us.extend(other.compute_us);
        self.computes += other.computes;
        self.entries_scanned += other.entries_scanned;
        self.requests += other.requests;
    }
}

/// Most entries timed with [`StoredEntry::compute`] per replayed request;
/// the engine's per-request miss count scales the sample up.
const COMPUTE_SAMPLE: usize = 4;

/// Replays one request that just made a socket round trip
/// (`sent`..`received`) through the in-process layers, recording spans
/// under `request`:
///
/// * `protocol.codec` — `WireRequest` and `WireResponse` render + parse,
/// * `saql.parse` — `saql::parse`,
/// * `planner.plan` — `Planner::plan`,
/// * `engine.run` — `QueryEngine::run_requests` on the pinned snapshot,
///   with `store.compute` children timing `StoredEntry::compute` on up to
///   [`COMPUTE_SAMPLE`] sequences when the engine missed its cache: the
///   `changed` ids (the ones a writer touched since the last replay, which
///   are the ones that miss), else ids rotating through the archive.
///
/// `engine` is the replaying thread's own engine, configured like the
/// server's, so its cache sees the same request stream one thread sees.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    tracer: &mut Tracer,
    times: &mut LayerTimes,
    request: u64,
    text: &str,
    snapshot: &ArchiveSnapshot,
    changed: &[u64],
    engine: &QueryEngine,
    sent: Instant,
    received: Instant,
) -> Result<()> {
    let root = tracer.open();
    tracer.record("server.round_trip", Some(root), request, sent, received);

    let req = QueryRequest::saql(text).with_stats();

    // Protocol: request render + parse, as client and session do it.
    let t0 = Instant::now();
    let wire = WireRequest::from_request(&req)?;
    let parsed = WireRequest::parse(&wire.render())?;
    let req = parsed.to_request(None)?;
    let t1 = Instant::now();

    // Language and algebra: the calls `run_requests` makes for every
    // request, timed on their own so the engine span can be split.
    let expr = saql::parse(text)?;
    let t2 = Instant::now();
    let planner = Planner::new(IndexCaps::all());
    let plan = planner.plan(&expr)?;
    let t3 = Instant::now();
    std::hint::black_box(&plan);

    // Engine: the same entry point the dispatcher calls for a wave.
    let misses_before = engine.cache_stats().misses;
    let results = engine.run_requests(snapshot, std::slice::from_ref(&req))?;
    let t4 = Instant::now();
    // A cache rebuilt during the run restarts its counters.
    let misses_after = engine.cache_stats().misses;
    let misses = misses_after.checked_sub(misses_before).unwrap_or(misses_after);
    let response: QueryResponse = results.into_iter().next().expect("one result per request")?;

    // Protocol: response render + parse.
    let t5 = Instant::now();
    let wire = WireResponse::from_response(&response, 1);
    let back = WireResponse::parse(&wire.render())?.to_response()?;
    let t6 = Instant::now();
    std::hint::black_box(&back);

    let ids = if changed.is_empty() { snapshot.ids() } else { changed };
    let sample = (misses as usize).min(COMPUTE_SAMPLE);
    let engine_span = tracer.open();
    let mut compute_total_us = 0.0;
    let config = engine.config().store;
    for k in 0..sample {
        let id = ids[(request as usize * COMPUTE_SAMPLE + k) % ids.len()];
        let seq = snapshot.get(id).expect("id listed by the snapshot");
        let c0 = Instant::now();
        let entry = StoredEntry::compute(seq, &StoreConfig { keep_raw: true, ..config });
        let c1 = Instant::now();
        std::hint::black_box(&entry);
        let took = crate::measure::us(c0, c1);
        compute_total_us += took;
        times.compute_us.push(took);
        tracer.record("store.compute", Some(engine_span), request, c0, c1);
    }
    let t7 = Instant::now();

    let codec_us = crate::measure::us(t0, t1) + crate::measure::us(t5, t6);
    let parse_us = crate::measure::us(t1, t2);
    let plan_us = crate::measure::us(t2, t3);
    let engine_ms = crate::measure::ms(t3, t4);
    // Workers derive entries in parallel: the wall share of `misses`
    // computations is their serial time divided by the worker count.
    let per_entry_us = if sample > 0 { compute_total_us / sample as f64 } else { 0.0 };
    let store_ms = misses as f64 * per_entry_us / 1e3 / engine.config().workers as f64;
    let round_trip_ms = crate::measure::ms(sent, received);

    tracer.record("protocol.codec", Some(root), request, t0, t1);
    tracer.record("saql.parse", Some(engine_span), request, t1, t2);
    tracer.record("planner.plan", Some(engine_span), request, t2, t3);
    tracer.close(engine_span, "engine.run", Some(root), request, t3, t4);
    tracer.record("protocol.codec", Some(root), request, t5, t6);
    tracer.close(root, "request", None, request, sent, t7);

    times.round_trip_ms.push(round_trip_ms);
    // `run_requests` parses and plans inside, so the engine span already
    // holds the lang and algebra time the wire share must exclude.
    times.wire_ms.push(round_trip_ms - codec_us / 1e3 - engine_ms);
    times.codec_us.push(codec_us);
    times.parse_us.push(parse_us);
    times.plan_us.push(plan_us);
    times.engine_ms.push(engine_ms);
    times.store_ms.push(store_ms);
    times.computes += misses;
    times.entries_scanned += response.stats.map_or(0, |s| s.entries_scanned);
    times.requests += 1;
    Ok(())
}
