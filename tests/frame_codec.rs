//! Chaos corpus for the shard-transport frame codec.
//!
//! The wire between a dispatcher and its workers carries every message
//! of the cluster protocol as a length-prefixed, FNV-hashed frame
//! (`faultline_core::transport`). The contract under test mirrors the
//! syslog parser's fuzz corpus (`crates/syslog/tests/fuzz_parse.rs`):
//!
//! 1. real protocol messages — including a live lane migration exported
//!    from a running [`StreamAnalysis`] — round-trip byte-exactly;
//! 2. every truncation of a real frame, every seeded bit flip, and
//!    arbitrary garbage bytes decode to a *typed* [`FrameError`], never
//!    a panic and never a silently wrong message;
//! 3. frames are self-delimiting: two frames written back to back read
//!    back as exactly those two messages.

use faultline_core::transport::{read_frame, write_frame, ScenarioSpec, ShardMsg, WorkerSpec};
use faultline_core::{
    scenario_event_stream, AnalysisConfig, FrameError, LaneMigration, StreamAnalysis,
};
use faultline_sim::chaos::{frame_cut_seeded, frame_flip_seeded};
use faultline_sim::scenario::{run, ScenarioParams};
use proptest::prelude::*;

/// A corpus of genuine protocol messages, including a lane migration
/// exported from a real mid-stream analysis (the heaviest, most
/// structurally interesting payload the wire ever carries).
fn corpus() -> Vec<ShardMsg> {
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let mut analysis = StreamAnalysis::new(&data, AnalysisConfig::default());
    analysis.ingest_batch(&events[..events.len() / 2]);
    let links: Vec<_> = faultline_core::linktable::from_scenario(&data)
        .iter()
        .take(5)
        .collect();
    let migration = analysis.export_lanes(&links);
    assert!(migration.lane_count() > 0, "corpus migration carries lanes");

    vec![
        ShardMsg::Hello(Box::new(WorkerSpec::new(
            2,
            7,
            AnalysisConfig::default(),
            ScenarioSpec::Params(Box::new(ScenarioParams::tiny(3))),
        ))),
        ShardMsg::Ready(Default::default()),
        ShardMsg::Events(events[..64].to_vec()),
        ShardMsg::Events(Vec::new()),
        ShardMsg::ExportLanes(links),
        ShardMsg::LaneMigrate(migration),
        ShardMsg::LaneMigrate(LaneMigration::default()),
        ShardMsg::Flush,
        ShardMsg::Fatal {
            detail: "shard 3: journal directory vanished".to_string(),
        },
    ]
}

fn encode(msg: &ShardMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    let n = write_frame(&mut buf, msg).expect("corpus messages encode");
    assert_eq!(
        n as usize,
        buf.len(),
        "write_frame reports the bytes written"
    );
    buf
}

#[test]
fn corpus_round_trips_byte_exactly() {
    for msg in corpus() {
        let buf = encode(&msg);
        let (back, read) = read_frame(&mut buf.as_slice()).expect("intact frame decodes");
        assert_eq!(
            read as usize,
            buf.len(),
            "read_frame consumes the whole frame"
        );
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&msg).unwrap(),
            "round-trip is exact for {}",
            msg.kind()
        );
    }
}

#[test]
fn frames_are_self_delimiting() {
    let msgs = corpus();
    let mut stream = Vec::new();
    for msg in &msgs {
        write_frame(&mut stream, msg).unwrap();
    }
    let mut reader = stream.as_slice();
    for msg in &msgs {
        let (back, _) = read_frame(&mut reader).expect("each frame in the stream decodes");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(msg).unwrap()
        );
    }
    assert!(
        matches!(read_frame(&mut reader), Err(FrameError::Closed)),
        "a cleanly exhausted stream reads as closed, not torn"
    );
}

#[test]
fn every_truncation_is_a_typed_error() {
    for msg in corpus() {
        let buf = encode(&msg);
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Closed) => assert_eq!(cut, 0, "only the empty prefix is closed"),
                Err(
                    FrameError::Torn { .. }
                    | FrameError::HashMismatch { .. }
                    | FrameError::Malformed { .. },
                ) => {}
                Err(other) => panic!("cut at {cut}: unexpected error class {other}"),
                Ok(_) => panic!("cut at {cut}: truncated frame decoded"),
            }
        }
    }
}

#[test]
fn seeded_torn_writes_and_bit_flips_never_pass() {
    for (i, msg) in corpus().into_iter().enumerate() {
        let buf = encode(&msg);
        for seed in 0..64u64 {
            let seed = seed ^ ((i as u64) << 32);
            // A torn write: the pipe died mid-frame.
            let cut = frame_cut_seeded(seed, buf.len()).unwrap();
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "seed {seed}: torn frame at {cut} must not decode"
            );
            // In-flight corruption: one bit flips somewhere in the frame.
            let (byte, bit) = frame_flip_seeded(seed, buf.len()).unwrap();
            let mut flipped = buf.clone();
            flipped[byte] ^= 1 << bit;
            match read_frame(&mut flipped.as_slice()) {
                Err(_) => {}
                // A flip inside the length field can shrink the frame to
                // a shorter, still-hash-checked prefix — which can only
                // decode by finding a hash collision.
                Ok(_) => panic!("seed {seed}: flipped bit {bit} of byte {byte} slipped through"),
            }
        }
    }
}

#[test]
fn header_field_damage_maps_to_its_own_error() {
    let buf = encode(&ShardMsg::Flush);

    let mut bad_magic = buf.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        read_frame(&mut bad_magic.as_slice()),
        Err(FrameError::BadMagic { .. })
    ));

    let mut bad_version = buf.clone();
    bad_version[4] = 0xEE;
    assert!(matches!(
        read_frame(&mut bad_version.as_slice()),
        Err(FrameError::UnsupportedVersion { found: 0x00EE, .. })
    ));

    let mut bad_len = buf.clone();
    bad_len[9] = 0xFF;
    assert!(matches!(
        read_frame(&mut bad_len.as_slice()),
        Err(FrameError::TooLarge { .. })
    ));

    let mut bad_payload = buf.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0x01;
    assert!(matches!(
        read_frame(&mut bad_payload.as_slice()),
        Err(FrameError::HashMismatch { .. })
    ));
}

/// A lane migration ships whole lanes by type: an intact frame whose
/// `LaneMigrate` carries a lane in the tail encoding of an incremental
/// snapshot is a typed decode error, not a migrated lane.
#[test]
fn tail_shaped_lane_migration_is_malformed() {
    // A genuine tail-encoded lane, from a delta capture.
    let data = run(&ScenarioParams::tiny(42));
    let events = scenario_event_stream(&data);
    let mut engine = StreamAnalysis::new(&data, AnalysisConfig::default());
    engine.ingest_batch(&events[..events.len() / 2]);
    engine.mark_clean();
    engine.ingest_batch(&events[events.len() / 2..]);
    let delta: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&engine.checkpoint_delta()).unwrap()).unwrap();
    let tail = delta["lanes"]
        .as_array()
        .unwrap()
        .iter()
        .find(|lane| !lane["Tail"].is_null())
        .expect("a lane grew since the mark");

    let frame = encode(&ShardMsg::LaneMigrate(LaneMigration::default()));
    let header = faultline_core::transport::FRAME_HEADER_LEN;
    let payload = String::from_utf8(frame[header..].to_vec()).unwrap();
    let forged = payload.replacen(
        "\"lanes\":[",
        &format!("\"lanes\":[{}", serde_json::to_string(tail).unwrap()),
        1,
    );
    assert_ne!(forged, payload, "the lane list is in the payload");
    let fnv = forged.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut framed = frame[..6].to_vec(); // magic + wire version
    framed.extend_from_slice(&(forged.len() as u32).to_le_bytes());
    framed.extend_from_slice(&fnv.to_le_bytes());
    framed.extend_from_slice(forged.as_bytes());
    assert!(matches!(
        read_frame(&mut framed.as_slice()),
        Err(FrameError::Malformed { .. })
    ));
}

proptest! {
    /// Totality over garbage: arbitrary bytes — valid header or not —
    /// decode to a typed error or a message, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Totality with a plausible preamble: garbage that *starts* like a
    /// real frame (magic + version intact) exercises the length/hash
    /// arms instead of bailing at the magic check.
    #[test]
    fn plausible_preambles_never_panic(tail in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut framed = Vec::from(faultline_core::FRAME_MAGIC);
        framed.extend_from_slice(&faultline_core::WIRE_VERSION.to_le_bytes());
        framed.extend_from_slice(&tail);
        let _ = read_frame(&mut framed.as_slice());
    }
}
