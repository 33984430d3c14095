//! Differential harness: both drivers of the shared kernel must be
//! **byte-identical**.
//!
//! For every scenario, the comparable surface (`StreamOutput`) of a
//! [`StreamAnalysis`] replay — under any chunking of the event stream,
//! any ambiguity strategy, any quarantine horizon, and any chaos preset
//! — must serialize to exactly the same JSON as the
//! `output` of [`Analysis::run`] on the same data. Both paths execute
//! the same per-link state machines in `faultline_core::kernel`; this
//! grid is the permanent regression guard proving the two *drivers*
//! (batch watermark-jumps-to-end vs. incremental watermarks) cannot
//! drift apart. A deterministic grid pins the corner chunkings (one
//! event at a time, a prime micro-batch size, one all-encompassing
//! batch) across several seeds; property tests then randomize seed,
//! scale, chunk pattern, and strategy.

use faultline_core::{
    scenario_event_stream, AmbiguityStrategy, Analysis, AnalysisConfig, StreamAnalysis,
    StreamResult,
};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_sim::{ChaosConfig, ScenarioData};
use faultline_topology::time::Timestamp;
use proptest::prelude::*;

/// How the event stream is fed to the engine.
#[derive(Debug, Clone, Copy)]
enum Chunking {
    /// `ingest` per event — no batching at all.
    OneAtATime,
    /// `ingest_batch` with fixed-size micro-batches.
    Fixed(usize),
    /// One `ingest_batch` covering the whole stream.
    All,
}

fn batch_json(data: &ScenarioData, config: &AnalysisConfig) -> String {
    let analysis = Analysis::run(data, config.clone());
    serde_json::to_string(&analysis.output).unwrap()
}

fn stream_json(data: &ScenarioData, config: &AnalysisConfig, chunking: Chunking) -> String {
    serde_json::to_string(&stream_run(data, config, chunking).output).unwrap()
}

fn stream_run(data: &ScenarioData, config: &AnalysisConfig, chunking: Chunking) -> StreamResult {
    let events = scenario_event_stream(data);
    let mut stream = StreamAnalysis::new(data, config.clone());
    match chunking {
        Chunking::OneAtATime => {
            for e in &events {
                stream.ingest(e);
            }
        }
        Chunking::Fixed(n) => {
            for c in events.chunks(n.max(1)) {
                stream.ingest_batch(c);
            }
        }
        Chunking::All => {
            stream.ingest_batch(&events);
        }
    }
    stream.flush()
}

/// The pinned grid: ≥3 seeds × ≥3 chunkings, including the two corner
/// cases (chunk = 1 via `ingest`, chunk = the whole stream).
#[test]
fn grid_of_seeds_and_chunkings_is_byte_identical() {
    let config = AnalysisConfig::default();
    for seed in [11u64, 42, 77] {
        let data = run(&ScenarioParams::tiny(seed));
        let expected = batch_json(&data, &config);
        for chunking in [Chunking::OneAtATime, Chunking::Fixed(7), Chunking::All] {
            let got = stream_json(&data, &config, chunking);
            assert_eq!(
                expected, got,
                "stream output diverged from batch: seed {seed}, {chunking:?}"
            );
        }
    }
}

/// A mid-period event time, used as a quarantine horizon that diverts a
/// real, nonzero share of both sources.
fn mid_horizon(data: &ScenarioData) -> Timestamp {
    let events = scenario_event_stream(data);
    events[events.len() / 2].at()
}

/// The seeds×chunkings grid again, with `quarantine_horizon` set: the
/// admission decision is per-item on both drivers, so diverting a big
/// slice of the archive must not open any gap between them.
#[test]
fn quarantine_grid_is_byte_identical() {
    for seed in [11u64, 42, 77] {
        let data = run(&ScenarioParams::tiny(seed));
        let config = AnalysisConfig {
            quarantine_horizon: Some(mid_horizon(&data)),
            ..AnalysisConfig::default()
        };
        let batch = Analysis::run(&data, config.clone());
        assert!(
            batch.report.robustness.total_quarantined() > 0,
            "seed {seed}: horizon must actually divert events"
        );
        let expected = serde_json::to_string(&batch.output).unwrap();
        for chunking in [Chunking::OneAtATime, Chunking::Fixed(7), Chunking::All] {
            let got = stream_json(&data, &config, chunking);
            assert_eq!(expected, got, "quarantined: seed {seed}, {chunking:?}");
        }
    }
}

/// The grid under the mild chaos preset: mangled archives (skewed
/// stamps, malformed lines, duplicates) flow through both drivers of
/// the kernel identically.
#[test]
fn mild_chaos_grid_is_byte_identical() {
    for seed in [11u64, 42, 77] {
        let mut params = ScenarioParams::tiny(seed);
        params.chaos = ChaosConfig::mild(seed * 31);
        let data = run(&params);
        assert!(data.chaos.is_some(), "seed {seed}: chaos must have run");
        let config = AnalysisConfig::default();
        let expected = batch_json(&data, &config);
        for chunking in [Chunking::OneAtATime, Chunking::Fixed(7), Chunking::All] {
            let got = stream_json(&data, &config, chunking);
            assert_eq!(expected, got, "chaotic: seed {seed}, {chunking:?}");
        }
    }
}

/// Quarantine × chaos combined — the configuration the chaos harness
/// recommends for adversarial archives. Both adversity mechanisms at
/// once still cannot separate the two drivers.
#[test]
fn quarantine_and_chaos_combined_stay_byte_identical() {
    for seed in [13u64, 59] {
        let mut params = ScenarioParams::tiny(seed);
        params.chaos = ChaosConfig::mild(seed * 17);
        let data = run(&params);
        let config = AnalysisConfig {
            quarantine_horizon: Some(mid_horizon(&data)),
            ..AnalysisConfig::default()
        };
        let batch = Analysis::run(&data, config.clone());
        assert!(
            batch.report.robustness.total_quarantined() > 0,
            "seed {seed}"
        );
        let expected = serde_json::to_string(&batch.output).unwrap();
        for chunking in [Chunking::OneAtATime, Chunking::Fixed(13), Chunking::All] {
            let got = stream_json(&data, &config, chunking);
            assert_eq!(expected, got, "quarantine×chaos: seed {seed}, {chunking:?}");
        }
    }
}

/// Quarantine accounting across the two drivers. The grids above
/// compare only the output; a driver that (say) applied the horizon
/// after chunk-splitting, or counted a diverted event twice, would
/// still agree on it. Cross the horizon with awkward chunk sizes and
/// require the quarantine counters to match batch as well. (The grid
/// once also crossed lane thread counts; lanes now always run
/// serially, so the chunking axis is what is left.)
#[test]
fn quarantine_grid_crosses_thread_counts() {
    for seed in [11u64, 42, 77] {
        let data = run(&ScenarioParams::tiny(seed));
        let config = AnalysisConfig {
            quarantine_horizon: Some(mid_horizon(&data)),
            ..AnalysisConfig::default()
        };
        let baseline = Analysis::run(&data, config.clone());
        assert!(
            baseline.report.robustness.total_quarantined() > 0,
            "seed {seed}: horizon must actually divert events"
        );
        let expected = serde_json::to_string(&baseline.output).unwrap();
        assert_eq!(
            expected,
            batch_json(&data, &config),
            "repeated batch drifted: seed {seed}"
        );
        for chunking in [
            Chunking::OneAtATime,
            Chunking::Fixed(13),
            Chunking::Fixed(16),
            Chunking::All,
        ] {
            let got = stream_run(&data, &config, chunking);
            assert_eq!(
                expected,
                serde_json::to_string(&got.output).unwrap(),
                "quarantine: seed {seed}, {chunking:?}"
            );
            assert_eq!(
                baseline.report.robustness, got.report.robustness,
                "quarantine accounting drifted: seed {seed}, {chunking:?}"
            );
        }
    }
}

/// The full adversity stack — chaos preset + quarantine horizon — at
/// once, checked on output and on quarantine accounting. (The name is
/// kept from when parallel lanes were a third axis.)
#[test]
fn quarantine_chaos_and_threads_combined_stay_byte_identical() {
    for seed in [13u64, 59] {
        let mut params = ScenarioParams::tiny(seed);
        params.chaos = ChaosConfig::mild(seed * 17);
        let data = run(&params);
        let config = AnalysisConfig {
            quarantine_horizon: Some(mid_horizon(&data)),
            ..AnalysisConfig::default()
        };
        let baseline = Analysis::run(&data, config.clone());
        assert!(baseline.report.robustness.total_quarantined() > 0);
        let expected = serde_json::to_string(&baseline.output).unwrap();
        for chunking in [Chunking::OneAtATime, Chunking::Fixed(31)] {
            let got = stream_run(&data, &config, chunking);
            assert_eq!(
                expected,
                serde_json::to_string(&got.output).unwrap(),
                "quarantine×chaos: seed {seed}, {chunking:?}"
            );
            assert_eq!(
                baseline.report.robustness, got.report.robustness,
                "quarantine×chaos accounting: seed {seed}, {chunking:?}"
            );
        }
    }
}

/// Chunk-size boundaries around typical per-link burst sizes.
#[test]
fn chunk_boundaries_do_not_leak_state() {
    let data = run(&ScenarioParams::tiny(58));
    let config = AnalysisConfig::default();
    let expected = batch_json(&data, &config);
    for n in [1usize, 2, 3, 64, 1024] {
        assert_eq!(
            expected,
            stream_json(&data, &config, Chunking::Fixed(n)),
            "chunk size {n}"
        );
    }
}

/// A scaled-up (non-tiny) scenario keeps the equivalence: more links,
/// more interleaving, more quiet-gap segment closes.
#[test]
fn scaled_scenario_stays_equivalent() {
    let data = run(&ScenarioParams::sized(19, 0.25, 30.0));
    let config = AnalysisConfig::default();
    let expected = batch_json(&data, &config);
    assert_eq!(expected, stream_json(&data, &config, Chunking::Fixed(257)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random seed × random chunk size × random strategy: streaming
    /// replay is always byte-identical to batch.
    #[test]
    fn random_replays_equal_batch(
        seed in 0u64..10_000,
        chunk in 1usize..512,
        strategy_pick in 0u8..3,
    ) {
        let strategy = match strategy_pick {
            0 => AmbiguityStrategy::PreviousState,
            1 => AmbiguityStrategy::AssumeDown,
            _ => AmbiguityStrategy::AssumeUp,
        };
        let config = AnalysisConfig {
            strategy,
            ..AnalysisConfig::default()
        };
        let data = run(&ScenarioParams::tiny(seed));
        let expected = batch_json(&data, &config);
        prop_assert_eq!(expected, stream_json(&data, &config, Chunking::Fixed(chunk)));
    }

    /// Irregular chunking: split the stream at random points (including
    /// empty micro-batches) — boundaries carry no state.
    #[test]
    fn random_irregular_chunking_equals_batch(
        seed in 0u64..10_000,
        cuts in proptest::collection::vec(0.0f64..1.0, 0..12),
    ) {
        let config = AnalysisConfig::default();
        let data = run(&ScenarioParams::tiny(seed));
        let expected = batch_json(&data, &config);

        let events = scenario_event_stream(&data);
        let mut idx: Vec<usize> = cuts
            .iter()
            .map(|c| (c * events.len() as f64) as usize)
            .collect();
        idx.push(0);
        idx.push(events.len());
        idx.sort_unstable();

        let mut stream = StreamAnalysis::new(&data, config);
        for w in idx.windows(2) {
            stream.ingest_batch(&events[w[0]..w[1]]);
        }
        let got = serde_json::to_string(&stream.flush().output).unwrap();
        prop_assert_eq!(expected, got);
    }
}
