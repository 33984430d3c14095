//! Streaming-replay benchmark: feed the paper-scale scenario through
//! [`faultline_core::StreamAnalysis`] at several micro-batch sizes,
//! check each replay against the batch pipeline
//! byte-for-byte, and record the throughput datapoints as
//! `results/BENCH_stream.json`.
//!
//! ```sh
//! cargo run --release --bin stream_replay
//! ```
//!
//! Each run's JSON carries the full [`faultline_core::PipelineReport`]
//! (including the `streaming` counters: segments closed before flush,
//! open-state high-water mark, events per second) so the benchmark
//! doubles as a monitor for how *incremental* the engine actually is —
//! a finalized-at-flush count near the failure count would mean it
//! degenerated into batch.

use faultline_bench::{analyze_with, labeled_report_json, paper_event_workload, write_bench_json};
use faultline_core::{AnalysisConfig, PipelineReport, StreamAnalysis};
use serde_json::json;

fn main() {
    let (data, events) = paper_event_workload();

    let batch = analyze_with(&data, AnalysisConfig::default());
    let batch_json = serde_json::to_string(&batch.output).expect("serialize batch output");
    println!("batch reference: {:.3} ms", batch.report.total_millis());

    let mut runs: Vec<serde_json::Value> = Vec::new();
    runs.push(report_json("batch_reference", &batch.report));

    for (label, chunk) in [
        ("event_at_a_time", 1usize),
        ("chunk_256", 256),
        ("chunk_4096", 4096),
        ("one_shot", usize::MAX),
    ] {
        let mut stream = StreamAnalysis::new(&data, AnalysisConfig::default());
        if chunk == 1 {
            for e in &events {
                stream.ingest(e);
            }
        } else {
            for c in events.chunks(chunk.min(events.len().max(1))) {
                stream.ingest_batch(c);
            }
        }
        let result = stream.flush();
        let replay_json = serde_json::to_string(&result.output).expect("serialize stream output");
        assert_eq!(
            batch_json, replay_json,
            "stream replay `{label}` diverged from the batch pipeline"
        );
        println!("== {label} ==");
        println!("{}", result.report);
        runs.push(report_json(label, &result.report));
    }
    println!("all replays byte-identical to batch ✓");

    let doc = json!({
        "bench": "stream_replay",
        "scenario": "paper_389d",
        "seed": 42,
        "events": (events.len()),
        "runs": runs,
    });
    write_bench_json("results/BENCH_stream.json", &doc);
}

fn report_json(label: &str, report: &PipelineReport) -> serde_json::Value {
    let mut v = labeled_report_json(label, report);
    v["streaming"] = serde_json::to_value(&report.streaming).expect("streaming counters");
    v
}
