//! Every workload runs end to end on a tiny scenario, passes its own
//! correctness gate, and leaves no durable state behind.

use faultline_sim::ScenarioParams;
use perfbench::workloads::{run, Options, Outcome, Workload, PER_LAYER};
use std::path::PathBuf;

fn run_tiny(workload: Workload, seed: u64) -> Outcome {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("workloads-{}-{seed}", workload.name()));
    std::fs::create_dir_all(&scratch).unwrap();
    let opts = Options {
        seconds: 0.0,
        trace: true,
        scratch: scratch.clone(),
        worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_perfbench-shard-worker")),
        trace_out: None,
    };
    let outcome = run(workload, &ScenarioParams::tiny(seed), &opts)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let left: Vec<_> = std::fs::read_dir(&scratch).unwrap().collect();
    assert!(left.is_empty(), "durable state left behind: {left:?}");
    std::fs::remove_dir(&scratch).unwrap();
    outcome
}

fn layer(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

fn assert_common(outcome: &Outcome) {
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    let names: Vec<_> = outcome.per_layer.iter().map(|m| m.name).collect();
    let expected: Vec<_> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    for m in &outcome.end_to_end {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    for name in [
        "syslog.parse.ns_per_line",
        "isis.listener.ns_per_pdu",
        "traced_records_per_s",
    ] {
        assert!(layer(outcome, name) > 0.0, "{name}");
    }
    assert_eq!(layer(outcome, "failed_fraction"), 0.0);
}

#[test]
fn paper_report_runs_checked() {
    let outcome = run_tiny(Workload::PaperReport, 5);
    assert_common(&outcome);
    for name in [
        "core.analysis.run_ms",
        "core.matching.table2_ms",
        "core.isolation.table7_ms",
    ] {
        assert!(layer(&outcome, name) > 0.0, "{name}");
    }
    assert_eq!(layer(&outcome, "recover_s"), 0.0, "no durability here");
}

#[test]
fn live_durable_recovers_and_runs_checked() {
    let outcome = run_tiny(Workload::LiveDurable, 8);
    assert_common(&outcome);
    for name in [
        "recover_s",
        "stored_bytes_per_record",
        "core.recovery.ingest_ns_per_event",
    ] {
        assert!(layer(&outcome, name) > 0.0, "{name}");
    }
    assert_eq!(
        layer(&outcome, "wire_bytes_per_record"),
        0.0,
        "no wire here"
    );
}

#[test]
fn wide_cluster_runs_checked_over_subprocesses() {
    let outcome = run_tiny(Workload::WideCluster, 11);
    assert_common(&outcome);
    for name in [
        "wire_bytes_per_record",
        "core.transport.hello_bytes",
        "core.transport.ready_ms",
        "core.cluster.skew",
    ] {
        assert!(layer(&outcome, name) > 0.0, "{name}");
    }
}

#[test]
fn workload_names_round_trip_and_seed_draws_the_observation() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        let (a, b) = (w.params(1), w.params(2));
        assert_eq!(a.topology.seed, b.topology.seed, "same network");
        assert_eq!(a.workload.seed, b.workload.seed, "same failure history");
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.transport.seed, b.transport.seed);
    }
    assert_eq!(Workload::from_name("nope"), None);
}
