//! Textual query languages over the paper's generalized approximate
//! queries — the §6 future work ("Define a query language that supports
//! generalized approximate queries").
//!
//! [`saql`] — **SAQL** — is the full algebra: `and`/`or`/`not` with
//! precedence and parentheses, `limit`/`topk` truncations, id ranges,
//! value bands, and feature clauses in the constraint-per-dimension style
//! the paper sketches (the user states the shape and per-dimension error
//! tolerances). See `docs/SAQL.md`.
//!
//! A conjunction is exact for a sequence if every operand is exact, and
//! approximate if every operand matches with at least one
//! within-tolerance deviation; the total deviation is the sum across
//! dimensions — each dimension carries its own metric, per §2.2.

pub mod saql;

// Conjunctive feature queries as SAQL text, answered through the unified
// `QueryEngine::request` entry point.
#[cfg(test)]
mod tests {
    use crate::algebra::{QueryEngine as _, QueryExpr, StoreEngine};
    use crate::query::{ApproximateMatch, QueryOutcome};
    use crate::request::QueryRequest;
    use crate::store::{SequenceStore, StoreConfig};
    use saq_sequence::generators::{goalpost, peaks, GoalpostSpec, PeaksSpec};

    use super::saql;

    fn corpus() -> (SequenceStore, Vec<u64>) {
        let mut store = SequenceStore::new(StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        for seq in [
            peaks(PeaksSpec { centers: vec![12.0], ..PeaksSpec::default() }),
            goalpost(GoalpostSpec::default()),
            peaks(PeaksSpec { centers: vec![4.0, 12.0, 20.0], ..PeaksSpec::default() }),
        ] {
            ids.push(store.insert(&seq).unwrap());
        }
        (store, ids)
    }

    fn run(store: &SequenceStore, text: &str) -> QueryOutcome {
        StoreEngine::new(store).request(&QueryRequest::saql(text)).unwrap().outcome
    }

    #[test]
    fn parses_every_clause_kind() {
        let q = saql::parse(
            r#"shape "0* 1+ (-1)+ 0*" and peaks = 2 tol 1 and interval = 136 tol 3
               and steepness all >= 2.0 slack 0.25 and steepness any >= 5"#,
        )
        .unwrap();
        let expect = QueryExpr::And(vec![
            QueryExpr::shape("0* 1+ (-1)+ 0*"),
            QueryExpr::peak_count(2, 1),
            QueryExpr::peak_interval(136, 3),
            QueryExpr::min_steepness(2.0, 0.25),
            QueryExpr::has_steep_peak(5.0, 0.0),
        ]);
        assert_eq!(q, expect);
    }

    #[test]
    fn comments_and_case_insensitivity() {
        let q = saql::parse("PEAKS = 2 # the goal-post count\n").unwrap();
        assert_eq!(q, QueryExpr::peak_count(2, 0));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (text, needle) in [
            ("", "empty"),
            ("shape pattern", "quoted"),
            ("peaks 2", "expected `=`"),
            ("peaks = 2.5", "integer"),
            ("steepness maybe >= 1", "`all` or `any`"),
            ("bogus = 1", "unknown clause"),
            ("peaks = 2 peaks = 3", "expected `and`"),
            (r#"shape "unterminated"#, "unterminated"),
        ] {
            let err = saql::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> `{err}`");
        }
    }

    #[test]
    fn single_clause_runs_like_evaluate() {
        let (store, ids) = corpus();
        let out = run(&store, r#"shape "0* 1+ (-1)+ 0* 1+ (-1)+ 0*""#);
        assert_eq!(out, QueryOutcome { exact: vec![ids[1]], approximate: vec![] });
    }

    #[test]
    fn conjunction_intersects() {
        let (store, ids) = corpus();
        // Two peaks AND an inter-peak interval near 10h: only the goalpost.
        let out = run(&store, "peaks = 2 and interval = 10 tol 2");
        assert_eq!(out, QueryOutcome { exact: vec![ids[1]], approximate: vec![] });
        // Two peaks (tol 1) AND interval near 8: the 3-peak sequence
        // (interval-exact, count off by one) surfaces as approximate.
        let out = run(&store, "peaks = 2 tol 1 and interval = 8 tol 1");
        let approximate = vec![ApproximateMatch { id: ids[2], deviation: 1.0 }];
        assert_eq!(out, QueryOutcome { exact: vec![], approximate });
    }

    #[test]
    fn conjunction_requires_all_clauses() {
        let (store, ids) = corpus();
        // One peak AND three peaks: unsatisfiable.
        assert_eq!(run(&store, "peaks = 1 and peaks = 3"), QueryOutcome::default());
        // One peak alone matches the single-peak sequence.
        let out = run(&store, "peaks = 1");
        assert_eq!(out, QueryOutcome { exact: vec![ids[0]], approximate: vec![] });
    }

    #[test]
    fn deviations_sum_across_dimensions() {
        let (store, ids) = corpus();
        // Count tol 2 + interval tol 3: the 3-peak sequence deviates by 1
        // in count and 2 in interval when asked for interval = 10.
        let out = run(&store, "peaks = 2 tol 2 and interval = 10 tol 3");
        let approximate = vec![ApproximateMatch { id: ids[2], deviation: 3.0 }];
        assert_eq!(out, QueryOutcome { exact: vec![ids[1]], approximate });
    }
}
