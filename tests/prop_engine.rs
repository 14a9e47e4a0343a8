//! Equivalence of the sharded parallel batch engine with the sequential
//! query paths: for every query type, a coalesced `run_requests` wave with
//! multiple workers must return byte-identical result sets (same hits,
//! same order) as both the engine's own single-pass sequential oracle
//! (`run_sequential`) and the index-assisted store engine.

mod common;

use common::{ingest, mixed_sequence, run_wave};
use proptest::prelude::*;
use saq::core::algebra::{Pred, QueryEngine as _, QueryExpr, StoreEngine};
use saq::core::query::QuerySpec;
use saq::core::QueryRequest;
use saq::engine::{EngineConfig, QueryEngine};
use saq::sequence::generators::{goalpost, GoalpostSpec};
use saq::sequence::Sequence;

fn feature_queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Shape { pattern: "0* 1+ (-1)+ 0* 1+ (-1)+ 0*".into() },
        QuerySpec::PeakCount { count: 2, tolerance: 1 },
        QuerySpec::PeakInterval { interval: 7, epsilon: 2 },
        QuerySpec::MinPeakSteepness { steepness: 1.0, slack: 0.4 },
        QuerySpec::HasSteepPeak { steepness: 1.5, slack: 0.2 },
    ]
}

/// The acceptance gate: a ≥200-sequence archive, every query type, four
/// workers — identical hits in identical order on every path.
#[test]
fn four_workers_match_sequential_paths_on_200_sequences() {
    let corpus: Vec<Sequence> = (0..200).map(|i| mixed_sequence(i, 1000 + i)).collect();
    let (store, archive) = ingest(&corpus);

    let engine =
        QueryEngine::new(EngineConfig { workers: 4, shards: 16, ..EngineConfig::default() })
            .unwrap();
    let mut preds: Vec<Pred> = feature_queries().into_iter().map(Pred::Feature).collect();
    preds.push(Pred::ValueBand {
        query: goalpost(GoalpostSpec::default()),
        delta: 1.0,
        slack: 1.0,
    });
    let requests: Vec<QueryRequest> =
        preds.iter().cloned().map(QueryExpr::Leaf).map(QueryRequest::expr).collect();

    let parallel = run_wave(&engine, &archive.snapshot(), &requests);
    let sequential = engine.run_sequential(&archive, &preds).unwrap();
    assert_eq!(parallel, sequential, "parallel vs sequential oracle");

    // Feature queries also agree with the store-level (index-assisted)
    // evaluator, hit for hit and byte for byte.
    for (spec, outcome) in feature_queries().iter().zip(&parallel) {
        let store_outcome =
            StoreEngine::new(&store).execute(&QueryExpr::from(spec.clone())).unwrap();
        assert_eq!(outcome, &store_outcome, "engine vs store for {spec:?}");
    }

    // Sanity: the corpus is a quarter goalposts; the shape query finds a
    // healthy share of them.
    assert!(parallel[0].exact.len() >= 20, "only {} goalposts", parallel[0].exact.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corpora and query parameters: the engine agrees with the
    /// store evaluator for every feature query type.
    #[test]
    fn engine_matches_store_evaluator(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 10..40),
        count in 0usize..4,
        tolerance in 0usize..3,
        interval in 3i64..15,
        epsilon in 0i64..3,
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        let engine = QueryEngine::new(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .unwrap();
        let specs = [
            QuerySpec::Shape { pattern: "0* 1+ (-1)+ 0* 1+ (-1)+ 0*".into() },
            QuerySpec::PeakCount { count, tolerance },
            QuerySpec::PeakInterval { interval, epsilon },
            QuerySpec::MinPeakSteepness { steepness: 1.0, slack: 0.3 },
            QuerySpec::HasSteepPeak { steepness: 1.2, slack: 0.3 },
        ];
        let exprs: Vec<QueryExpr> = specs.iter().cloned().map(QueryExpr::from).collect();
        let requests: Vec<QueryRequest> = exprs.iter().cloned().map(QueryRequest::expr).collect();
        let outcomes = run_wave(&engine, &archive.snapshot(), &requests);
        let store_engine = StoreEngine::new(&store);
        for (expr, outcome) in exprs.iter().zip(&outcomes) {
            prop_assert_eq!(outcome, &store_engine.execute(expr).unwrap(), "{:?}", expr);
        }
    }

    /// Value-band batches: parallel result identical to the sequential
    /// oracle for any worker/shard split and band parameters.
    #[test]
    fn band_queries_parallel_equals_sequential(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 5..30),
        delta in 0.0f64..3.0,
        slack in 0.0f64..2.0,
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (_, archive) = ingest(&corpus);
        let engine = QueryEngine::new(EngineConfig {
            workers,
            shards,
            ..EngineConfig::default()
        })
        .unwrap();
        let band = Pred::ValueBand { query: goalpost(GoalpostSpec::default()), delta, slack };
        let requests = [QueryRequest::expr(QueryExpr::Leaf(band.clone()))];
        prop_assert_eq!(
            run_wave(&engine, &archive.snapshot(), &requests),
            engine.run_sequential(&archive, &[band]).unwrap()
        );
    }
}
