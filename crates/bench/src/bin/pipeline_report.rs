//! Per-stage pipeline instrumentation: runs the canonical paper-scale
//! analysis once, prints its [`faultline_core::PipelineReport`], then
//! times **repeated streaming ingest replays** (chunked non-durable
//! replay, five times) and writes everything — including the
//! `headline.ingest_events_per_sec` number the regression gate watches —
//! to `results/BENCH_pipeline.json`.
//!
//! ```sh
//! cargo run --release --bin pipeline_report            # paper scenario
//! cargo run --release --bin pipeline_report -- --sweep # + scale sweep
//! ```
//!
//! Every replay must produce output byte-identical to the batch
//! pipeline — the binary asserts it — so the replays differ in timing
//! only.
//!
//! `scripts/check_bench_regression.sh` compares a freshly written
//! `BENCH_pipeline.json` against the committed
//! `results/BENCH_pipeline.baseline.json` and fails when the headline
//! throughput drops more than 10%.

use faultline_bench::{analyze_with, labeled_report_json, paper_scenario, write_bench_json};
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis};
use serde_json::json;

/// Timed ingest replays; the headline is the best of them.
const REPLAYS: usize = 5;
/// Micro-batch size of the replays: the same chunking the streaming
/// benchmark uses for its headline non-durable number.
const REPLAY_CHUNK: usize = 4096;

fn main() {
    let sweep = std::env::args().any(|a| a == "--sweep");
    let data = paper_scenario();
    let mut runs: Vec<serde_json::Value> = Vec::new();

    println!("== batch ==");
    let a = analyze_with(&data, AnalysisConfig::default());
    println!("{}", a.report);
    let batch_output_json = serde_json::to_string(&a.output).expect("serialize batch output");
    runs.push(labeled_report_json("batch", &a.report));

    // Repeated chunked non-durable replays, each checked byte-identical
    // against batch before its timing counts.
    let events = scenario_event_stream(&data);
    let mut replays: Vec<serde_json::Value> = Vec::new();
    let mut best_eps = 0.0f64;
    println!("== ingest replays (chunk = {REPLAY_CHUNK}) ==");
    for replay in 1..=REPLAYS {
        let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        for c in events.chunks(REPLAY_CHUNK) {
            stream.ingest_batch(c);
        }
        let result = stream.flush();
        let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
        assert_eq!(
            batch_output_json, replay_json,
            "ingest replay {replay} diverged from the batch pipeline"
        );
        let eps = result
            .report
            .streaming
            .as_ref()
            .expect("streaming counters present")
            .events_per_sec;
        best_eps = best_eps.max(eps);
        println!(
            "replay {replay}: {eps:>12.0} events/s  ({:.3} ms total)",
            result.report.total_millis()
        );
        replays.push(json!({
            "replay": replay,
            "chunk": REPLAY_CHUNK,
            "events": (events.len()),
            "events_per_sec": eps,
            "total_micros": (result.report.total_micros),
        }));
    }
    println!("all replays byte-identical to batch ✓");

    if sweep {
        use faultline_sim::scenario::{run, ScenarioParams};
        for scale in [0.25, 0.5, 1.0] {
            let params = ScenarioParams::sized(42, scale, 97.25);
            println!("== sweep: scale {scale} ==");
            let data = run(&params);
            let a = analyze_with(&data, AnalysisConfig::default());
            println!("{}", a.report);
            runs.push(labeled_report_json(&format!("sweep_{scale}"), &a.report));
        }
    }

    let doc = json!({
        "bench": "pipeline_report",
        "scenario": "paper_389d",
        "seed": 42,
        "runs": runs,
        "replays": replays,
        "headline": {
            // Best chunked non-durable ingest rate across the replays —
            // the number the regression gate compares.
            "ingest_events_per_sec": best_eps,
            "chunk": REPLAY_CHUNK,
        },
    });
    write_bench_json("results/BENCH_pipeline.json", &doc);
}
