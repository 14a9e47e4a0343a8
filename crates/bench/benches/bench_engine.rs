//! Benchmarks of the sharded batch engine: cold vs warm cache, worker-pool
//! vs single-pass sequential execution (no latency emulation — pure CPU;
//! see `exp_engine_scaling` for the latency-overlap wall-clock study).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saq_archive::{ArchiveStore, Medium};
use saq_core::algebra::{Pred, QueryExpr};
use saq_core::query::QuerySpec;
use saq_core::{QueryOutcome, QueryRequest};
use saq_engine::{EngineConfig, QueryEngine};
use saq_sequence::generators::{goalpost, random_walk, GoalpostSpec};

fn archive(n: u64) -> ArchiveStore {
    let mut archive = ArchiveStore::new(Medium::memory());
    for id in 0..n {
        if id % 2 == 0 {
            archive.put(
                id,
                goalpost(GoalpostSpec { seed: id, noise: 0.1, ..GoalpostSpec::default() }),
            );
        } else {
            archive.put(id, random_walk(256, 0.0, 0.1, id));
        }
    }
    archive
}

fn batch() -> Vec<Pred> {
    vec![
        Pred::Feature(QuerySpec::Shape { pattern: "0* 1+ (-1)+ 0* 1+ (-1)+ 0*".into() }),
        Pred::Feature(QuerySpec::PeakCount { count: 2, tolerance: 1 }),
        Pred::Feature(QuerySpec::HasSteepPeak { steepness: 1.5, slack: 0.2 }),
        Pred::ValueBand { query: goalpost(GoalpostSpec::default()), delta: 1.0, slack: 1.0 },
    ]
}

fn engine(workers: usize, capacity: usize) -> QueryEngine {
    QueryEngine::new(EngineConfig {
        workers,
        shards: workers * 4,
        cache_capacity: capacity,
        ..EngineConfig::default()
    })
    .unwrap()
}

/// One coalesced wave through the unified request API.
fn run_wave(
    engine: &QueryEngine,
    store: &ArchiveStore,
    requests: &[QueryRequest],
) -> Vec<QueryOutcome> {
    engine
        .run_requests(&store.snapshot(), requests)
        .unwrap()
        .into_iter()
        .map(|r| r.unwrap().outcome)
        .collect()
}

fn bench_engine(c: &mut Criterion) {
    let store = archive(64);
    let queries = batch();
    let requests: Vec<QueryRequest> =
        queries.iter().cloned().map(QueryExpr::Leaf).map(QueryRequest::expr).collect();

    let mut group = c.benchmark_group("engine");
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("cold-batch", workers), &workers, |b, &workers| {
            b.iter(|| {
                // A fresh engine per iteration keeps the cache cold.
                run_wave(&engine(workers, 64), &store, &requests)
            });
        });
    }

    let warm = engine(4, 64);
    run_wave(&warm, &store, &requests);
    group.bench_function("warm-batch-4w", |b| {
        b.iter(|| run_wave(&warm, &store, &requests));
    });

    let sequential = engine(1, 64);
    group.bench_function("sequential-oracle", |b| {
        b.iter(|| sequential.run_sequential(&store, &queries).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
