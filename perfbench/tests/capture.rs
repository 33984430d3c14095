//! The rebuilt raw inputs give back the scenario's parsed observables.

use faultline_isis::listener::Listener;
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_syslog::parse::{parse_bytes, ParseOutcomeRef};
use perfbench::capture::{CaptureItem, RawInputs};

fn replay(raw: &RawInputs) -> Listener {
    let mut listener = Listener::new();
    for item in &raw.capture {
        match item {
            CaptureItem::Pdu { at, bytes } => listener
                .receive_bytes(*at, &raw.pdus[bytes.clone()])
                .expect("rebuilt PDUs decode"),
            CaptureItem::Offline(at) => listener.go_offline(*at),
            CaptureItem::Online(at) => listener.go_online(*at),
        }
    }
    listener
}

#[test]
fn lsp_capture_reproduces_transitions_and_hostnames() {
    let mut outages_seen = 0;
    for seed in [3, 5, 8, 11, 42] {
        let data = run(&ScenarioParams::tiny(seed));
        outages_seen += data.offline_spans.len();
        let raw = RawInputs::render(&data);
        let listener = replay(&raw);
        assert_eq!(listener.transitions(), &data.transitions[..], "seed {seed}");
        assert_eq!(listener.hostnames(), &data.hostnames, "seed {seed}");
        assert_eq!(
            listener.offline_spans(),
            &data.offline_spans[..],
            "seed {seed}"
        );
        assert_eq!(listener.stats().lsps_invalid, 0);
    }
    assert!(
        outages_seen > 0,
        "some seed must exercise a listener outage"
    );
}

#[test]
fn archive_round_trips_through_parse_bytes() {
    for seed in [5, 11] {
        let data = run(&ScenarioParams::tiny(seed));
        let raw = RawInputs::render(&data);
        let parsed: Vec<_> = (0..raw.lines.len())
            .map(|i| match parse_bytes(raw.line(i)) {
                ParseOutcomeRef::Event(m) => m.to_owned(),
                other => panic!("seed {seed} line {i}: {other:?}"),
            })
            .collect();
        assert_eq!(parsed, data.syslog, "seed {seed}");
        assert_eq!(
            raw.archive.iter().filter(|&&b| b == b'\n').count(),
            raw.lines.len()
        );
    }
}

#[test]
fn arrivals_cover_every_input_once_in_time_order() {
    let data = run(&ScenarioParams::tiny(7));
    let raw = RawInputs::render(&data);
    assert_eq!(raw.arrivals.len(), raw.lines.len() + raw.capture.len());
    assert_eq!(raw.records(), raw.lines.len() + raw.pdu_count());
    let at = |a: &perfbench::capture::Arrival| match *a {
        perfbench::capture::Arrival::Line(i) => data.syslog[i].event.at,
        perfbench::capture::Arrival::Capture(j) => raw.capture[j].at(),
    };
    assert!(raw.arrivals.windows(2).all(|w| at(&w[0]) <= at(&w[1])));
}
