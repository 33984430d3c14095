//! Integration guards for the memory-shaped hot path: interned symbol
//! ids and the zero-copy byte parser.
//!
//! Two contracts are pinned here, both required for the representation
//! changes to be invisible in every observable output:
//!
//! 1. **Parser equivalence.** The zero-copy [`parse_bytes`] path must
//!    agree with the string-path [`classify_line`] reference on every
//!    line a *real* scenario archive renders (the fuzz corpus in
//!    `crates/syslog/tests/fuzz_parse.rs` covers mutated/adversarial
//!    lines; this file covers the golden production distribution), and
//!    the archive-level accounting must be identical.
//!
//! 2. **Id stability across checkpoint/restore.** Symbol ids are *not*
//!    persisted in a [`StreamSnapshot`] — they are rebuilt
//!    deterministically from the scenario on restore. A checkpoint taken
//!    immediately after a restore must therefore serialize byte-identical
//!    to the checkpoint it was restored from, and a resumed run must
//!    flush byte-identical output to one that never stopped.

use faultline_core::linktable::from_scenario;
use faultline_core::{scenario_event_stream, AnalysisConfig, StreamAnalysis, StreamSnapshot};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_syslog::parse::{
    classify_line, parse_archive_stats, parse_archive_stats_bytes, parse_bytes, ParseOutcome,
};

/// Every line of a rendered golden-scenario archive classifies the same
/// through the byte path and the string path, and the events recovered
/// are real (the archive is all studied mnemonics).
#[test]
fn golden_scenario_archive_parses_identically_by_bytes_and_str() {
    let data = run(&ScenarioParams::tiny(42));
    assert!(!data.syslog.is_empty(), "scenario must emit syslog");
    for msg in &data.syslog {
        let line = msg.render();
        let by_str = classify_line(&line);
        let by_bytes = parse_bytes(line.as_bytes()).to_owned();
        assert!(
            matches!(by_str, ParseOutcome::Event(_)),
            "rendered line must parse: {line}"
        );
        assert_eq!(by_bytes, by_str, "paths diverged on: {line}");
    }
}

/// Archive-level differential: events and per-cause stats are identical
/// across the two parse paths, including over irrelevant and malformed
/// lines mixed into the feed.
#[test]
fn archive_stats_identical_across_parse_paths() {
    let data = run(&ScenarioParams::tiny(7));
    let mut lines: Vec<String> = data.syslog.iter().map(|m| m.render()).collect();
    lines.push("<189>7: h: Oct 21 2010 01:02:03.004: %SYS-5-CONFIG_I: Configured".into());
    lines.push("not syslog at all".into());
    lines.push("<189>1: h: Oct 21 2010 00:00:0".into());
    let (by_str, stats_str) = parse_archive_stats(lines.iter().map(String::as_str));
    let (by_bytes, stats_bytes) = parse_archive_stats_bytes(lines.iter().map(|l| l.as_bytes()));
    assert_eq!(by_str, by_bytes);
    assert_eq!(stats_str, stats_bytes);
    assert!(stats_bytes.is_balanced());
    assert_eq!(stats_bytes.irrelevant, 1);
    assert_eq!(stats_bytes.malformed, 2);
}

/// Rebuilding the link table from the same scenario assigns the same
/// symbol ids: interning order is pinned to inventory order plus
/// system-ID-sorted hostname TLVs, never map iteration order.
#[test]
fn symbol_ids_are_deterministic_across_rebuilds() {
    let data = run(&ScenarioParams::tiny(21));
    let a = from_scenario(&data);
    let b = from_scenario(&data);
    assert!(!a.symbols().is_empty(), "table must intern something");
    assert_eq!(a.symbols(), b.symbols(), "id assignment must be stable");
}

/// Checkpoint → serialize → restore → checkpoint is byte-identical, and
/// the resumed run flushes byte-identical output to an uninterrupted
/// one. This is the proof that interned ids survive checkpoint/restore:
/// ids index every lane and map, so any drift in rebuilt ids would show
/// up in one of the two comparisons.
#[test]
fn interned_ids_survive_checkpoint_restore_byte_identically() {
    let data = run(&ScenarioParams::tiny(11));
    let config = AnalysisConfig::default();
    let events = scenario_event_stream(&data);
    assert!(events.len() > 10);

    let mut full = StreamAnalysis::new(&data, config.clone());
    full.ingest_batch(&events);
    let expected = serde_json::to_string(&full.flush().output).unwrap();

    for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
        let mut head = StreamAnalysis::new(&data, config.clone());
        head.ingest_batch(&events[..cut]);
        let ckpt_json = serde_json::to_string(&head.checkpoint()).unwrap();

        let revived: StreamSnapshot = serde_json::from_str(&ckpt_json).unwrap();
        let mut resumed = StreamAnalysis::restore(&data, revived).expect("restore");
        let again = serde_json::to_string(&resumed.checkpoint()).unwrap();
        assert_eq!(
            ckpt_json, again,
            "checkpoint drifted across restore (cut {cut})"
        );

        resumed.ingest_batch(&events[cut..]);
        let got = serde_json::to_string(&resumed.flush().output).unwrap();
        assert_eq!(expected, got, "resumed output diverged (cut {cut})");
    }
}
