//! The query algebra's ground truth: for random `QueryExpr` trees over
//! random corpora, every planner-backed engine — the index-pushdown store
//! engine, the scan-only store engine, the sequential archive engine, and
//! the sharded parallel engine at several worker/shard counts — must
//! return results **id-identical** (same ids, same tiers, same deviations,
//! same order) to a naive oracle that evaluates every leaf by scanning the
//! whole universe and composes the results with plain set algebra.
//!
//! The corpus generator, the oracle, the expression strategies, and the
//! all-engines harness live in `tests/common/mod.rs`, shared with the
//! SAQL round-trip suite (`prop_saql.rs`).

mod common;

use common::{assert_all_engines_match, expr_strategy, ingest, mixed_sequence, GOALPOST};
use proptest::prelude::*;
use saq::core::algebra::{QueryEngine, QueryExpr, StoreEngine};
use saq::core::{QueryRequest, QuerySpec};
use saq::engine::{EngineConfig, QueryEngine as ShardedEngine};
use saq::sequence::generators::{goalpost, GoalpostSpec};
use saq::sequence::Sequence;

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// The acceptance gate: a fixed 60-sequence corpus, compound expressions
/// exercising every node type, every engine, workers 1/2/4/8.
#[test]
fn compound_expressions_identical_across_all_engines() {
    let corpus: Vec<Sequence> = (0..60).map(|i| mixed_sequence(i, 4000 + i)).collect();
    let (store, archive) = ingest(&corpus);
    let exprs = [
        QueryExpr::shape(GOALPOST).and(QueryExpr::peak_interval(8, 2)),
        QueryExpr::peak_count(2, 1)
            .and(QueryExpr::peak_interval(7, 2))
            .and(QueryExpr::id_range(5, 45)),
        QueryExpr::peak_count(3, 1).or(QueryExpr::shape(GOALPOST)).negate(),
        QueryExpr::peak_count(2, 1)
            .and(QueryExpr::value_band(goalpost(GoalpostSpec::default()), 1.0, 1.0).negate()),
        QueryExpr::peak_count(2, 2).top_k(7),
        QueryExpr::peak_count(2, 2).limit(5).or(QueryExpr::has_steep_peak(1.0, 0.3).limit(3)),
        QueryExpr::id_range(10, 40)
            .and(QueryExpr::peak_count(1, 2).and(QueryExpr::min_steepness(0.6, 0.4))),
    ];
    for expr in &exprs {
        assert_all_engines_match(expr, &store, &archive, &[(1, 1), (2, 8), (4, 16), (8, 64)])
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random trees, random corpora, random worker/shard splits.
    #[test]
    fn random_trees_identical_across_all_engines(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 8..28),
        expr in expr_strategy(),
        workers in 1usize..6,
        shards in 1usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        assert_all_engines_match(&expr, &store, &archive, &[(workers, shards)])?;
    }

    /// Adaptive re-planning is ordering-only: for random trees, corpora,
    /// and shard counts, the sharded engine returns identical outcomes
    /// with mid-batch re-planning on and off, and every per-leaf
    /// observed cardinality stays within the universe.
    #[test]
    fn adaptive_replanning_is_ordering_only(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 8..28),
        expr in expr_strategy(),
        shards in 2usize..24,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (_store, archive) = ingest(&corpus);
        let requests = vec![saq::core::QueryRequest::expr(expr.clone()).with_stats()];
        let snapshot = archive.snapshot();
        let run = |adaptive: bool| {
            let engine = ShardedEngine::new(EngineConfig {
                workers: 4,
                shards,
                adaptive,
                ..EngineConfig::default()
            })
            .unwrap();
            let mut responses = engine.run_requests(&snapshot, &requests).unwrap();
            responses.pop().unwrap().unwrap()
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(
            &on.outcome, &off.outcome,
            "adaptive vs static outcomes ({} shards): {:?}", shards, expr
        );
        let universe = corpus.len() as u64;
        for resp in [&on, &off] {
            let stats = resp.stats.as_ref().unwrap();
            for observed in stats.observed.iter().flatten() {
                prop_assert!(
                    *observed <= universe,
                    "observed {} exceeds universe {}: {:?}", observed, universe, expr
                );
            }
        }
    }

    /// A classic spec sent as a single-leaf request agrees, on the store
    /// engine and the sharded engine, with executing its expression on
    /// the store.
    #[test]
    fn evaluate_shim_agrees_with_store_evaluate(
        seeds in prop::collection::vec((0u64..4, 0u64..10_000), 5..20),
        count in 0usize..4,
        tolerance in 0usize..3,
        interval in 3i64..13,
        epsilon in 0i64..4,
    ) {
        let corpus: Vec<Sequence> =
            seeds.iter().map(|&(kind, seed)| mixed_sequence(kind, seed)).collect();
        let (store, archive) = ingest(&corpus);
        let specs = [
            QuerySpec::Shape { pattern: GOALPOST.into() },
            QuerySpec::PeakCount { count, tolerance },
            QuerySpec::PeakInterval { interval, epsilon },
        ];
        for spec in &specs {
            let expr = QueryExpr::from(spec.clone());
            let classic = StoreEngine::new(&store).execute(&expr).unwrap();
            let request = QueryRequest::expr(expr);
            prop_assert_eq!(
                &StoreEngine::new(&store).request(&request).unwrap().outcome,
                &classic,
                "store engine request: {:?}", spec
            );
            let engine = ShardedEngine::new(EngineConfig::default()).unwrap();
            prop_assert_eq!(
                &engine.bind(&archive).request(&request).unwrap().outcome,
                &classic,
                "sharded request: {:?}", spec
            );
        }
    }
}
