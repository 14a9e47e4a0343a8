//! saqbench: the request-path benchmark for `saqd`.
//!
//! Drives a real `saqd` (spawned in-process, on loopback) through
//! `SaqClient` with seeded ECG data, checks every answer against an
//! in-process scan oracle, and prints its metrics; the last line of
//! standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path saqbench/Cargo.toml -- \
//!     --workload ecg-scan --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs half the
//! time untraced and half traced, and reports the per-layer metrics
//! (including the tracing overhead between the two halves). Spans of a
//! traced run are written to `.bench_out/` under the working directory.
//! See `saqbench/README.md` for the workloads and the metric definitions.

mod inputs;
mod measure;
mod pipeline;
mod read;
mod stream;

use measure::{spans_jsonl, Metrics, Samples, Span};
use pipeline::LayerTimes;
use saq_engine::EngineConfig;
use std::time::Instant;

/// Client connections (and client threads): the machine's two cores.
pub const CLIENTS: usize = 2;

/// Engine workers, at most the core count.
const WORKERS: usize = 2;

/// The server's engine: defaults except the workload's cache capacity
/// and a worker pool no larger than the machine.
pub fn engine_config(cache_capacity: usize) -> EngineConfig {
    EngineConfig { workers: WORKERS, cache_capacity, ..EngineConfig::default() }
}

/// Sets up `count` times, tearing down all but the last, and returns the
/// median set-up time with the last set-up.
pub fn median_setup<T>(
    count: usize,
    mut set_up: impl FnMut() -> saq_core::Result<T>,
    mut tear_down: impl FnMut(T),
) -> saq_core::Result<(f64, T)> {
    let mut times = Samples::default();
    let mut last = None;
    for k in 0..count {
        let start = Instant::now();
        let ready = set_up()?;
        times.push(start.elapsed().as_secs_f64());
        if k + 1 < count {
            tear_down(ready);
        } else {
            last = Some(ready);
        }
    }
    Ok((times.median(), last.expect("at least one set-up")))
}

/// What a run hands back for printing.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub metrics: Metrics,
    pub spans: Vec<Span>,
    /// ecg-stream's write-path figures, printed on untraced runs.
    pub stream: Option<Metrics>,
}

/// Counter inputs to the per-layer report, taken around the untraced
/// half of a traced run (server, archive) or the traced half (replay
/// engine).
#[derive(Debug, Default)]
pub struct LayerInputs {
    pub queries: u64,
    pub waves: u64,
    pub wave_queries: u64,
    pub fetches: u64,
    pub replay_hits: u64,
    pub replay_lookups: u64,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of the query path, shared by every workload.
/// Counters carry their base in the note, and whether they repeat
/// exactly for one seed (`exact`) or depend on timing (`varies`).
pub fn layer_metrics(m: &mut Metrics, t: &LayerTimes, spans: &[Span], i: &LayerInputs) {
    let n = t.requests as f64;
    m.add("server.round_trip_ms", t.round_trip_ms.median(), "ms", format!("n={}", t.requests));
    m.add("server.wire_ms", t.wire_ms.median(), "ms", "round trip - codec - engine.run");
    m.add(
        "server.queries_per_wave",
        ratio(i.wave_queries as f64, i.waves as f64),
        "ratio",
        format!("{} queries / {} waves, varies", i.wave_queries, i.waves),
    );
    m.add("protocol.codec_us", t.codec_us.median(), "us", "request + response render/parse");
    m.add("saql.parse_us", t.parse_us.median(), "us", "");
    m.add("planner.plan_us", t.plan_us.median(), "us", "");
    m.add("engine.run_ms", t.engine_ms.median(), "ms", "run_requests, one request");
    m.add(
        "engine.cache_hit_rate",
        ratio(i.replay_hits as f64, i.replay_lookups as f64),
        "ratio",
        format!("{} hits / {} lookups, varies", i.replay_hits, i.replay_lookups),
    );
    m.add("engine.cache_lookups", i.replay_lookups as f64, "count", "base of the hit rate");
    m.add(
        "engine.entries_scanned_per_query",
        ratio(t.entries_scanned as f64, n),
        "count",
        format!("{} / {} requests, varies", t.entries_scanned, t.requests),
    );
    m.add("entry.compute_us", t.compute_us.median(), "us", format!("n={}", t.compute_us.len()));
    m.add(
        "entry.computes_per_query",
        ratio(t.computes as f64, n),
        "count",
        format!("{} cache misses / {} requests, varies", t.computes, t.requests),
    );
    m.add(
        "archive.fetches_per_query",
        ratio(i.fetches as f64, i.queries as f64),
        "count",
        format!("{} fetches / {} queries (untraced half), varies", i.fetches, i.queries),
    );
    // Self time per request, in milliseconds (means, so they add up to
    // the mean round trip).
    let engine_self =
        t.engine_ms.mean() - (t.parse_us.mean() + t.plan_us.mean()) / 1e3 - t.store_ms.mean();
    m.add("self.server_ms", t.wire_ms.mean(), "ms", "mean per request");
    m.add("self.protocol_ms", t.codec_us.mean() / 1e3, "ms", "mean per request");
    m.add("self.lang_ms", t.parse_us.mean() / 1e3, "ms", "mean per request");
    m.add("self.algebra_ms", t.plan_us.mean() / 1e3, "ms", "mean per request");
    m.add("self.engine_ms", engine_self, "ms", "engine.run - parse - plan - store share");
    m.add("self.store_ms", t.store_ms.mean(), "ms", "misses x compute / workers");
    m.add(
        "trace.overhead_ms",
        i.traced_p50_ms - i.untraced_p50_ms,
        "ms",
        format!("query p50 traced {:.3} - untraced {:.3}", i.traced_p50_ms, i.untraced_p50_ms),
    );
    m.add("trace.spans", spans.len() as f64, "count", "");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(2),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let result = match args.workload.as_str() {
        "ecg-scan" => read::run(read::SCAN, args.seed, args.seconds, args.trace),
        "ecg-hot" => read::run(read::HOT, args.seed, args.seconds, args.trace),
        "ecg-stream" => stream::run(args.seed, args.seconds, args.trace),
        other => return Err(format!("unknown workload {other}")),
    };
    result.map_err(|e| format!("{} failed: {e}", args.workload))
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for m in &metrics.0 {
        println!("  {:<36} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("saqbench: {e}");
            eprintln!(
                "usage: saqbench --workload ecg-scan|ecg-hot|ecg-stream --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("saqbench: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "workload {} · seed {} · {} s · trace {} · {} cores available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let error_rate = ratio((result.failed + result.wrong) as f64, result.attempted as f64);
    if !args.trace {
        // The complement of the error rate, which is 0 on a correct run.
        result.metrics.add(
            "success_rate",
            1.0 - error_rate,
            "ratio",
            format!("1 - error_rate ({error_rate})"),
        );
    }
    print_metrics(if args.trace { "per-layer" } else { "end-to-end" }, &result.metrics);
    if let Some(stream) = &result.stream {
        print_metrics("write path", stream);
    }
    println!(
        "operations: {} attempted, {} failed, {} wrong (error_rate {error_rate})",
        result.attempted, result.failed, result.wrong
    );
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans_jsonl(&result.spans)))
        {
            Ok(()) => println!("spans: {} written to {}", result.spans.len(), path.display()),
            Err(e) => eprintln!("saqbench: could not write spans: {e}"),
        }
    }

    let correct = result.wrong == 0 && result.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted,
        result.failed + result.wrong,
        result.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
