//! Deterministic fault injection ("chaos") for the collection path.
//!
//! The transport model in `faultline-syslog` covers the three *clean*
//! loss mechanisms the paper quantifies (base UDP loss, flap-amplified
//! loss, spurious retransmission). Real collection paths misbehave in
//! more ways than they lose packets: lines arrive truncated or
//! bit-corrupted, unrelated daemons interleave garbage into the feed,
//! delivery duplicates in bursts, arrival order drifts beyond the jitter
//! bound, router wall clocks skew and drift (and step backwards across a
//! DST boundary), the collector itself restarts, and the IS-IS listener
//! goes dark. This module injects all of those, driven by a serializable
//! [`ChaosConfig`] and seeded independently of the scenario RNG, so a
//! chaotic run perturbs *only* the collection path: the ground truth and
//! every upstream draw are identical to the clean run with the same
//! scenario seed — exactly what the differential degradation harness
//! needs.
//!
//! `ChaosConfig::default()` is inert: [`ChaosConfig::enabled`] is false,
//! [`crate::scenario::run`] takes the unmodified code path, and output
//! is byte-identical to a build without this module.

use faultline_isis::listener::{OfflineSpan, Transition};
use faultline_syslog::caltime;
use faultline_syslog::collector::LogRecord;
use faultline_syslog::parse::ParseStats;
use faultline_topology::time::{Duration, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The first US DST fall-back after the caltime epoch (Oct 20 2010):
/// Nov 7 2010, 18 days and 9 hours in. Routers stamping local wall-clock
/// time step back one hour here, making text timestamps non-monotonic.
pub fn dst_fall_back_at() -> Timestamp {
    Timestamp::from_secs(18 * 86_400 + 9 * 3_600)
}

/// Characters substituted into corrupted lines: control bytes, structural
/// separators (to break framing mid-field), and non-ASCII.
const CORRUPT_CHARS: &[char] = &[
    '\u{0}', '\u{1b}', '\u{7f}', '#', '>', ':', '%', '<', 'ÿ', '\u{fffd}', ' ',
];

/// Fault-injection knobs for the collection path. All injection is
/// deterministic in [`ChaosConfig::seed`]; the default value turns every
/// pathology off (see [`ChaosConfig::enabled`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed for the chaos RNG (independent of the scenario seed).
    pub seed: u64,
    /// Probability a line is cut short at a random position.
    pub truncate_prob: f64,
    /// Probability a line has characters substituted ("bit rot").
    pub corrupt_prob: f64,
    /// Maximum characters substituted per corrupted line (min 1).
    pub corrupt_chars_max: u32,
    /// Unrelated garbage lines injected per real line (0.1 = 10%).
    pub garbage_rate: f64,
    /// Probability a line is delivered again in a duplicate burst.
    pub duplicate_prob: f64,
    /// Maximum copies per duplicate burst (min 1).
    pub duplicate_burst_max: u32,
    /// Probability a line's *arrival* time is displaced.
    pub reorder_prob: f64,
    /// Maximum arrival displacement (±), beyond the transport's jitter.
    pub reorder_max: Duration,
    /// Fraction of routers whose wall clock is skewed.
    pub skewed_router_fraction: f64,
    /// Maximum constant clock offset (±) for a skewed router.
    pub clock_skew_max: Duration,
    /// Maximum linear clock drift (±) per simulated day.
    pub drift_max_per_day: Duration,
    /// Step every text timestamp at/after the DST boundary back one hour
    /// (non-monotonic wall clocks, [`dst_fall_back_at`]).
    pub dst_fall_back: bool,
    /// Collector restarts: gap spans during which arriving lines are lost.
    pub collector_restarts: u32,
    /// Uniform duration bounds of a collector restart gap.
    pub restart_duration_range: (Duration, Duration),
    /// Extra IS-IS listener outages injected after the fact.
    pub listener_outages: u32,
    /// Uniform duration bounds of an injected listener outage.
    pub listener_outage_range: (Duration, Duration),
    /// Correlated event storms (flash crowds): bursts of `%LINK-3-UPDOWN`
    /// flaps landing nearly at once across many routers, as one fiber
    /// cut over a shared-risk link group produces. 0 disables.
    #[serde(default)]
    pub storm_bursts: u32,
    /// Studied lines injected per storm burst (alternating Down/Up on
    /// burst-local interfaces; min 1 when storms are on).
    #[serde(default)]
    pub storm_burst_lines: u32,
    /// Window within which one burst's lines land (the correlation
    /// width); clamped to at least 1 ms.
    #[serde(default)]
    pub storm_span: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            corrupt_chars_max: 4,
            garbage_rate: 0.0,
            duplicate_prob: 0.0,
            duplicate_burst_max: 3,
            reorder_prob: 0.0,
            reorder_max: Duration::from_secs(120),
            skewed_router_fraction: 0.0,
            clock_skew_max: Duration::ZERO,
            drift_max_per_day: Duration::ZERO,
            dst_fall_back: false,
            collector_restarts: 0,
            restart_duration_range: (Duration::from_secs(60), Duration::from_secs(900)),
            listener_outages: 0,
            listener_outage_range: (Duration::from_secs(1_800), Duration::from_hours(4)),
            storm_bursts: 0,
            storm_burst_lines: 0,
            storm_span: Duration::ZERO,
        }
    }
}

impl ChaosConfig {
    /// True when any pathology is switched on. When false,
    /// [`crate::scenario::run`] bypasses the chaos layer entirely
    /// (no RNG draws, byte-identical output).
    pub fn enabled(&self) -> bool {
        self.truncate_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.garbage_rate > 0.0
            || self.duplicate_prob > 0.0
            || (self.reorder_prob > 0.0 && self.reorder_max > Duration::ZERO)
            || self.skew_enabled()
            || self.dst_fall_back
            || self.collector_restarts > 0
            || self.listener_outages > 0
            || self.storm_enabled()
    }

    /// True when correlated event-storm injection is switched on.
    pub fn storm_enabled(&self) -> bool {
        self.storm_bursts > 0 && self.storm_burst_lines > 0
    }

    /// True when per-router clock skew or drift is switched on.
    pub fn skew_enabled(&self) -> bool {
        self.skewed_router_fraction > 0.0
            && (self.clock_skew_max > Duration::ZERO || self.drift_max_per_day > Duration::ZERO)
    }

    /// Fault rates at the top of the documented degradation bands: a
    /// bad-but-survivable feed. See ARCHITECTURE.md "Adversity model".
    pub fn mild(seed: u64) -> Self {
        ChaosConfig {
            seed,
            truncate_prob: 0.01,
            corrupt_prob: 0.005,
            garbage_rate: 0.02,
            duplicate_prob: 0.02,
            duplicate_burst_max: 2,
            reorder_prob: 0.05,
            reorder_max: Duration::from_secs(90),
            skewed_router_fraction: 0.25,
            clock_skew_max: Duration::from_secs(2),
            drift_max_per_day: Duration::from_millis(500),
            collector_restarts: 1,
            restart_duration_range: (Duration::from_secs(60), Duration::from_secs(600)),
            ..ChaosConfig::default()
        }
    }

    /// A visibly hostile feed: every pathology on at rates well past
    /// `mild`, including DST fall-back and an injected listener outage.
    pub fn moderate(seed: u64) -> Self {
        ChaosConfig {
            seed,
            truncate_prob: 0.03,
            corrupt_prob: 0.015,
            garbage_rate: 0.08,
            duplicate_prob: 0.05,
            duplicate_burst_max: 3,
            reorder_prob: 0.10,
            reorder_max: Duration::from_secs(300),
            skewed_router_fraction: 0.5,
            clock_skew_max: Duration::from_secs(10),
            drift_max_per_day: Duration::from_secs(2),
            dst_fall_back: true,
            collector_restarts: 2,
            restart_duration_range: (Duration::from_secs(300), Duration::from_secs(1_800)),
            listener_outages: 1,
            listener_outage_range: (Duration::from_secs(1_800), Duration::from_hours(2)),
            ..ChaosConfig::default()
        }
    }

    /// A flash-crowd overload feed: correlated SRLG-style event storms
    /// (many interfaces flapping within seconds, as one fiber cut
    /// produces) over duplicate bursts and garbage — little corruption,
    /// so nearly every injected line survives parsing and lands on the
    /// admission layer as real load. Built for overload testing: pair
    /// it with `faultline-core`'s shedding admission controller to
    /// observe priority-aware drops under exact accounting.
    pub fn burst_overload(seed: u64) -> Self {
        ChaosConfig {
            seed,
            garbage_rate: 0.05,
            duplicate_prob: 0.10,
            duplicate_burst_max: 4,
            reorder_prob: 0.10,
            reorder_max: Duration::from_secs(30),
            storm_bursts: 6,
            storm_burst_lines: 400,
            storm_span: Duration::from_secs(20),
            ..ChaosConfig::default()
        }
    }

    /// An adversarial feed used for never-panic coverage, not for drift
    /// bands: heavy corruption, minutes of clock error, hours of outage.
    pub fn severe(seed: u64) -> Self {
        ChaosConfig {
            seed,
            truncate_prob: 0.10,
            corrupt_prob: 0.06,
            corrupt_chars_max: 8,
            garbage_rate: 0.25,
            duplicate_prob: 0.12,
            duplicate_burst_max: 4,
            reorder_prob: 0.20,
            reorder_max: Duration::from_secs(900),
            skewed_router_fraction: 1.0,
            clock_skew_max: Duration::from_secs(120),
            drift_max_per_day: Duration::from_secs(10),
            dst_fall_back: true,
            collector_restarts: 4,
            restart_duration_range: (Duration::from_secs(600), Duration::from_hours(1)),
            listener_outages: 2,
            listener_outage_range: (Duration::HOUR, Duration::from_hours(6)),
            ..ChaosConfig::default()
        }
    }

    /// Apply every enabled pathology to the collection-path outputs:
    /// `records` is the collector's raw archive (arrival-ordered on
    /// return), `transitions`/`offline_spans` are the listener's view
    /// (injected outages drop transitions and append matching spans, so
    /// the sanitization stage sees them like any real outage).
    ///
    /// Returns exact per-pathology accounting; see
    /// [`ChaosStats::is_balanced`] for the line-conservation invariant.
    pub fn apply(
        &self,
        records: &mut Vec<LogRecord>,
        transitions: &mut Vec<Transition>,
        offline_spans: &mut Vec<OfflineSpan>,
        period: Duration,
    ) -> ChaosStats {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC4A0_5EED);
        let mut stats = ChaosStats {
            lines_in: records.len() as u64,
            ..ChaosStats::default()
        };

        // 1. Clock skew / drift / DST: rewrite text timestamps. Per-host
        // offsets are hash-derived, not drawn from the RNG, so they do
        // not depend on record order.
        if self.skew_enabled() || self.dst_fall_back {
            for r in records.iter_mut() {
                if let Some(rewritten) = self.rewrite_clock(&r.line, &mut stats) {
                    r.line = rewritten;
                }
            }
        }

        // 2. Collector restarts: every line arriving inside a gap span is
        // gone — the collector was not listening.
        if self.collector_restarts > 0 {
            let gaps = draw_spans(
                &mut rng,
                self.collector_restarts,
                self.restart_duration_range,
                period,
            );
            records.retain(|r| {
                let hit = gaps
                    .iter()
                    .any(|&(s, e)| r.arrived_at >= s && r.arrived_at <= e);
                if hit {
                    stats.dropped_restart += 1;
                }
                !hit
            });
        }

        // 3. Truncation.
        if self.truncate_prob > 0.0 {
            for r in records.iter_mut() {
                if r.line.len() >= 2 && rng.random::<f64>() < self.truncate_prob {
                    let mut cut = rng.random_range(1..r.line.len());
                    while !r.line.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    r.line.truncate(cut);
                    stats.truncated += 1;
                }
            }
        }

        // 4. Character corruption.
        if self.corrupt_prob > 0.0 {
            for r in records.iter_mut() {
                if !r.line.is_empty() && rng.random::<f64>() < self.corrupt_prob {
                    let mut chars: Vec<char> = r.line.chars().collect();
                    let hits = rng.random_range(1..=self.corrupt_chars_max.max(1)) as usize;
                    for _ in 0..hits {
                        let i = rng.random_range(0..chars.len());
                        chars[i] = CORRUPT_CHARS[rng.random_range(0..CORRUPT_CHARS.len())];
                    }
                    r.line = chars.into_iter().collect();
                    stats.corrupted += 1;
                }
            }
        }

        // 5. Interleaved garbage from unrelated daemons.
        if self.garbage_rate > 0.0 {
            let n = (records.len() as f64 * self.garbage_rate).ceil() as usize;
            for _ in 0..n {
                let at = Timestamp::from_millis(rng.random_range(0..period.as_millis().max(1)));
                let line = garbage_line(&mut rng, at);
                records.push(LogRecord {
                    arrived_at: at,
                    line,
                });
                stats.garbage_injected += 1;
            }
        }

        // 5b. Correlated event storms: each burst lands `storm_burst_lines`
        // well-formed %LINK-3-UPDOWN flaps within `storm_span` of a common
        // instant, across hosts harvested from the archive itself — the
        // flash-crowd signature of a shared-risk fiber cut. Guarded so the
        // RNG draw sequence of storm-free configs is untouched.
        if self.storm_enabled() {
            let mut hosts: Vec<String> = Vec::new();
            for r in records.iter() {
                if let Some(h) = studied_host(&r.line) {
                    if !hosts.iter().any(|x| x == h) {
                        hosts.push(h.to_string());
                    }
                }
            }
            if hosts.is_empty() {
                // A degenerate (empty/garbled) archive still storms: the
                // lines quarantine downstream but must exist and be counted.
                hosts.push("storm-agg-01".to_string());
            }
            let span_ms = self.storm_span.as_millis().max(1);
            for _ in 0..self.storm_bursts {
                let start = rng.random_range(0..period.as_millis().max(1));
                let mut host = hosts[0].clone();
                let mut iface = String::new();
                for i in 0..self.storm_burst_lines {
                    // Down picks a fresh (host, interface); the following
                    // line is its Up, so bursts read as correlated flaps.
                    if i % 2 == 0 {
                        host = hosts[rng.random_range(0..hosts.len())].clone();
                        iface = format!(
                            "GigabitEthernet{}/{}",
                            rng.random_range(0..8u32),
                            rng.random_range(0..48u32)
                        );
                    }
                    let at = Timestamp::from_millis(start + rng.random_range(0..span_ms));
                    let ts = caltime::render(at);
                    let seq = rng.random_range(1..100_000u64);
                    let state = if i % 2 == 0 { "Down" } else { "Up" };
                    records.push(LogRecord {
                        arrived_at: at,
                        line: format!(
                            "<189>{seq}: {host}: {ts}: %LINK-3-UPDOWN: Interface {iface}, changed state to {state}"
                        ),
                    });
                    stats.storm_injected += 1;
                }
                stats.storm_bursts_injected += 1;
            }
        }

        // 6. Duplicated delivery bursts: byte-identical copies arriving
        // shortly after the original.
        if self.duplicate_prob > 0.0 {
            let mut extras = Vec::new();
            for r in records.iter() {
                if rng.random::<f64>() < self.duplicate_prob {
                    let copies = rng.random_range(1..=self.duplicate_burst_max.max(1));
                    for _ in 0..copies {
                        extras.push(LogRecord {
                            arrived_at: r.arrived_at
                                + Duration::from_millis(rng.random_range(1..2_000)),
                            line: r.line.clone(),
                        });
                        stats.duplicates_injected += 1;
                    }
                }
            }
            records.extend(extras);
        }

        // 7. Out-of-order arrival beyond the jitter bound.
        if self.reorder_prob > 0.0 && self.reorder_max > Duration::ZERO {
            let span = self.reorder_max.as_millis() as i64;
            for r in records.iter_mut() {
                if rng.random::<f64>() < self.reorder_prob {
                    let shift = rng.random_range(0..=(2 * span) as u64) as i64 - span;
                    let ms = (r.arrived_at.as_millis() as i64 + shift).max(0) as u64;
                    if ms != r.arrived_at.as_millis() {
                        stats.reordered += 1;
                    }
                    r.arrived_at = Timestamp::from_millis(ms);
                }
            }
        }

        // 8. Injected IS-IS listener outages: transitions inside an
        // injected span were never observed, and the span itself joins
        // the listener's offline record so sanitization accounts for it.
        if self.listener_outages > 0 {
            let spans = draw_spans(
                &mut rng,
                self.listener_outages,
                self.listener_outage_range,
                period,
            );
            stats.listener_outages_injected = spans.len() as u64;
            for &(from, to) in &spans {
                offline_spans.push(OfflineSpan { from, to });
            }
            offline_spans.sort_by_key(|s| (s.from, s.to));
            transitions.retain(|t| {
                let hit = spans.iter().any(|&(s, e)| t.at >= s && t.at <= e);
                if hit {
                    stats.isis_dropped_outage += 1;
                }
                !hit
            });
        }

        records.sort_by_key(|r| r.arrived_at);
        stats.lines_out = records.len() as u64;
        stats
    }

    /// Rewrite one line's text timestamp for clock skew/drift/DST.
    /// Returns `None` when the line does not have the rendered header
    /// shape or the host is not affected.
    fn rewrite_clock(&self, line: &str, stats: &mut ChaosStats) -> Option<String> {
        let rest = line.strip_prefix('<')?;
        let (pri, rest) = rest.split_once('>')?;
        let (seq, rest) = rest.split_once(": ")?;
        let (host, rest) = rest.split_once(": ")?;
        let (ts_text, body) = rest.split_once(": %")?;
        let at = caltime::parse(ts_text)?;

        let mut offset_ms: i64 = 0;
        if self.skew_enabled() && self.host_is_skewed(host) {
            offset_ms += self.host_skew_ms(host);
            let drift = self.host_drift_ms_per_day(host);
            offset_ms += (drift as f64 * (at.as_millis() as f64 / 86_400_000.0)) as i64;
        }
        let mut dst = false;
        if self.dst_fall_back && at >= dst_fall_back_at() {
            offset_ms -= 3_600_000;
            dst = true;
        }
        if offset_ms == 0 {
            return None;
        }
        let new_ms = (at.as_millis() as i64 + offset_ms).max(0) as u64;
        if dst {
            stats.dst_stepped += 1;
        }
        if new_ms != at.as_millis() && !(dst && offset_ms == -3_600_000) {
            stats.skew_shifted += 1;
        }
        let ts = caltime::render(Timestamp::from_millis(new_ms));
        Some(format!("<{pri}>{seq}: {host}: {ts}: %{body}"))
    }

    fn host_is_skewed(&self, host: &str) -> bool {
        let lane = host_hash(self.seed, 0, host);
        // Top 53 bits as a uniform fraction in [0, 1).
        let fraction = (lane >> 11) as f64 / (1u64 << 53) as f64;
        fraction < self.skewed_router_fraction
    }

    fn host_skew_ms(&self, host: &str) -> i64 {
        signed_in(host_hash(self.seed, 1, host), self.clock_skew_max)
    }

    fn host_drift_ms_per_day(&self, host: &str) -> i64 {
        signed_in(host_hash(self.seed, 2, host), self.drift_max_per_day)
    }
}

/// Uniformly map a hash to `[-max, +max]` milliseconds.
fn signed_in(hash: u64, max: Duration) -> i64 {
    let span = max.as_millis() as i64;
    if span == 0 {
        return 0;
    }
    (hash % (2 * span as u64 + 1)) as i64 - span
}

/// FNV-1a over the host name, folded with the chaos seed and a lane
/// index. Order-independent: a host's clock error does not depend on
/// which records were seen first.
fn host_hash(seed: u64, lane: u64, host: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64
        ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03);
    for b in host.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One xorshift round to decorrelate the low bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Draw `count` spans of uniform duration within the period. Spans may
/// overlap; each consumes exactly two RNG draws, keeping the draw
/// sequence independent of outcomes.
fn draw_spans(
    rng: &mut StdRng,
    count: u32,
    range: (Duration, Duration),
    period: Duration,
) -> Vec<(Timestamp, Timestamp)> {
    let (lo, hi) = range;
    let lo_ms = lo.as_millis().max(1);
    let hi_ms = hi.as_millis().max(lo_ms);
    (0..count)
        .map(|_| {
            let dur = rng
                .random_range(lo_ms..=hi_ms)
                .min(period.as_millis().max(2) - 1);
            let start = rng.random_range(0..period.as_millis().max(1).saturating_sub(dur).max(1));
            (
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + dur),
            )
        })
        .collect()
}

/// The host field of a line carrying one of the *studied* messages
/// (`<pri>seq: host: ts: %mnemonic`, mnemonic in the link/adjacency
/// family), or `None` for garbage and foreign daemons — keeps storm
/// harvesting on hosts that are actual routers in the archive.
fn studied_host(line: &str) -> Option<&str> {
    let rest = line.strip_prefix('<')?;
    let (_pri, rest) = rest.split_once('>')?;
    let (_seq, rest) = rest.split_once(": ")?;
    let (host, rest) = rest.split_once(": ")?;
    let (_ts, body) = rest.split_once(": %")?;
    if body.starts_with("LINK-")
        || body.starts_with("LINEPROTO-")
        || body.starts_with("CLNS-")
        || body.starts_with("ROUTING-ISIS")
    {
        Some(host)
    } else {
        None
    }
}

/// One unrelated line as another daemon (or line noise) would produce:
/// a mix of well-formed non-studied mnemonics, repeated-message notices,
/// and outright junk.
fn garbage_line(rng: &mut StdRng, at: Timestamp) -> String {
    let ts = caltime::render(at);
    match rng.random_range(0..6u32) {
        0 => format!(
            "<189>{}: mgmt-sw-01: {ts}: %SYS-5-CONFIG_I: Configured from console by admin",
            rng.random_range(1..100_000u64)
        ),
        1 => format!(
            "<190>{}: noc-gw-02: {ts}: %SEC-6-IPACCESSLOGP: list 120 denied tcp 10.0.{}.{}(4312) -> 10.1.2.3(23), 1 packet",
            rng.random_range(1..100_000u64),
            rng.random_range(0..256u32),
            rng.random_range(0..256u32)
        ),
        2 => format!(
            "<45>{}: edge-fan-{}: {ts}: %ENVMON-3-FAN_FAILED: Fan {} had a rotation error",
            rng.random_range(1..100_000u64),
            rng.random_range(1..40u32),
            rng.random_range(1..5u32)
        ),
        3 => format!(
            "last message repeated {} times",
            rng.random_range(2..20u32)
        ),
        4 => {
            let len = rng.random_range(5..60usize);
            (0..len)
                .map(|_| CORRUPT_CHARS[rng.random_range(0..CORRUPT_CHARS.len())])
                .collect()
        }
        _ => format!(
            "\u{1}\u{2}BOOTP-{:04x} \u{3}\u{4}",
            rng.random_range(0..0x1_0000u32)
        ),
    }
}

/// Exact per-pathology accounting for one [`ChaosConfig::apply`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Archive lines before injection.
    pub lines_in: u64,
    /// Archive lines after injection (see [`ChaosStats::is_balanced`]).
    pub lines_out: u64,
    /// Lines lost to collector restart gaps.
    pub dropped_restart: u64,
    /// Lines cut short.
    pub truncated: u64,
    /// Lines with substituted characters.
    pub corrupted: u64,
    /// Unrelated garbage lines added.
    pub garbage_injected: u64,
    /// Duplicate copies added.
    pub duplicates_injected: u64,
    /// Lines whose arrival time was displaced.
    pub reordered: u64,
    /// Lines whose text timestamp moved by skew/drift.
    pub skew_shifted: u64,
    /// Lines whose text timestamp stepped back across the DST boundary.
    pub dst_stepped: u64,
    /// Listener transitions swallowed by injected outages.
    pub isis_dropped_outage: u64,
    /// Listener outage spans injected.
    pub listener_outages_injected: u64,
    /// Well-formed storm flap lines injected (flash crowds).
    #[serde(default)]
    pub storm_injected: u64,
    /// Storm bursts injected.
    #[serde(default)]
    pub storm_bursts_injected: u64,
}

impl ChaosStats {
    /// Line conservation: every line in the output archive is a
    /// surviving input line, an injected garbage line, an injected
    /// storm flap, or an injected duplicate — nothing else.
    pub fn is_balanced(&self) -> bool {
        self.lines_out
            == self.lines_in - self.dropped_restart
                + self.garbage_injected
                + self.duplicates_injected
                + self.storm_injected
    }
}

/// What the chaos layer did to one scenario: the configuration, the
/// injection accounting, and the parse taxonomy of the mangled archive.
/// Carried on [`crate::ScenarioData`] only when chaos was enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosOutcome {
    /// The configuration that ran.
    pub config: ChaosConfig,
    /// Per-pathology injection counts.
    pub stats: ChaosStats,
    /// Parse outcome taxonomy over the mangled archive.
    pub parse: ParseStats,
}

/// Seeded fault injection against the *durability* layer: transient
/// checkpoint-write failures, as a flaky disk or a full filesystem would
/// produce them. The plan is deterministic in the seed, so a failing
/// crash-recovery case replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DurabilityChaos {
    /// PRNG seed for the failure plan.
    pub seed: u64,
    /// Probability that a given checkpoint write hits a failure streak.
    pub checkpoint_write_fail_prob: f64,
    /// Longest failure streak injected for one checkpoint (so a retry
    /// budget larger than this always eventually succeeds).
    pub max_consecutive_failures: u32,
}

impl Default for DurabilityChaos {
    /// Inert: no injected failures.
    fn default() -> Self {
        DurabilityChaos {
            seed: 0,
            checkpoint_write_fail_prob: 0.0,
            max_consecutive_failures: 0,
        }
    }
}

impl DurabilityChaos {
    /// A disk flaky enough to exercise every retry path: roughly a third
    /// of checkpoints fail at least once, streaks capped at 2 (so the
    /// default 3-attempt budget always recovers).
    pub fn flaky(seed: u64) -> DurabilityChaos {
        DurabilityChaos {
            seed,
            checkpoint_write_fail_prob: 0.35,
            max_consecutive_failures: 2,
        }
    }

    /// Materialize the deterministic failure plan.
    pub fn plan(&self) -> CheckpointFaultPlan {
        CheckpointFaultPlan {
            rng: StdRng::seed_from_u64(self.seed ^ 0xD15C_FA11),
            prob: self.checkpoint_write_fail_prob,
            cap: self.max_consecutive_failures,
            streak: 0,
        }
    }
}

/// Stateful decider for injected checkpoint-write failures; feed it
/// `(seq, attempt)` for every write attempt (the shape of
/// `faultline-core`'s checkpoint fault hook). On each *first* attempt it
/// draws a streak length; subsequent attempts for the same checkpoint
/// fail until the streak is exhausted.
#[derive(Debug)]
pub struct CheckpointFaultPlan {
    rng: StdRng,
    prob: f64,
    cap: u32,
    streak: u32,
}

impl CheckpointFaultPlan {
    /// Should this write attempt fail? Deterministic in the seed and the
    /// call sequence.
    pub fn should_fail(&mut self, _seq: u64, attempt: u32) -> bool {
        if attempt == 1 {
            self.streak = 0;
            while self.streak < self.cap && self.rng.random::<f64>() < self.prob {
                self.streak += 1;
            }
        }
        attempt <= self.streak
    }
}

/// One injected fault against a snapshot **chain** on disk — the
/// mid-delta-write and mid-base-write failure modes the chain-aware
/// recovery ladder must degrade through (to an older intact link or
/// base) without ever aborting or resuming wrong. The test harness owns
/// the actual file surgery; this enum is the seeded menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChainFault {
    /// The newest delta file is truncated mid-payload (a torn write
    /// that somehow survived the atomic rename — e.g. media damage).
    TornDelta,
    /// The newest base is deleted outright, orphaning every delta
    /// chained to it.
    MissingBase,
    /// Two delta files have their contents swapped, so every header
    /// chain pointer disagrees with the payload it sits on.
    ReorderedChain,
    /// The newest delta's header declares a wrong parent hash — the
    /// chain link itself lies while both files' payloads are intact.
    CorruptParentHash,
}

impl ChainFault {
    /// Every chain fault, in a fixed order (for exhaustive sweeps).
    pub const ALL: [ChainFault; 4] = [
        ChainFault::TornDelta,
        ChainFault::MissingBase,
        ChainFault::ReorderedChain,
        ChainFault::CorruptParentHash,
    ];
}

/// `count` seeded chain faults (drawn with replacement from
/// [`ChainFault::ALL`]) — deterministic in the seed, so a failing
/// recovery case replays exactly.
pub fn chain_faults_seeded(seed: u64, count: usize) -> Vec<ChainFault> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A1_4FA0_17D0_5EED);
    (0..count)
        .map(|_| ChainFault::ALL[rng.random_range(0..ChainFault::ALL.len())])
        .collect()
}

/// Kill points at every `k`-th event boundary: `k, 2k, ...` strictly
/// below `total`. `crash_points_every(1, n)` is the exhaustive
/// every-boundary sweep.
pub fn crash_points_every(k: u64, total: u64) -> Vec<u64> {
    if k == 0 {
        return Vec::new();
    }
    (1..).map(|i| i * k).take_while(|&p| p < total).collect()
}

/// `count` seeded, sorted, distinct kill points in `1..total` — for
/// sampling large streams where the exhaustive sweep is too slow.
pub fn crash_points_seeded(seed: u64, total: u64, count: usize) -> Vec<u64> {
    if total <= 1 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B11_0C4A_5480_01A7);
    let mut points = std::collections::BTreeSet::new();
    let want = count.min((total - 1) as usize);
    while points.len() < want {
        points.insert(rng.random_range(1..total));
    }
    points.into_iter().collect()
}

/// One injected shard death for the cluster chaos hook: the named shard's
/// worker dies after consuming exactly `after_events` of its substream
/// (mid-run, no flush, no final checkpoint). Consumed by
/// `faultline-core`'s durable cluster runtime, whose supervisor must
/// recover the shard independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardKill {
    /// Which shard dies.
    pub shard: u32,
    /// Events the shard consumes before dying (an arbitrary event
    /// boundary, `1..shard_events`).
    pub after_events: u64,
}

/// A seeded shard kill for a cluster whose shards hold `shard_events[i]`
/// events each: picks a shard with at least 2 events and a seeded kill
/// boundary strictly inside its substream (via [`crash_points_seeded`]).
/// Returns `None` when every shard's substream is too short to die
/// mid-run.
pub fn shard_kill_seeded(seed: u64, shard_events: &[u64]) -> Option<ShardKill> {
    let candidates: Vec<u32> = shard_events
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 1)
        .map(|(i, _)| i as u32)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AA2_DC11_0CA7_E2D5);
    let shard = candidates[rng.random_range(0..candidates.len())];
    let total = shard_events[shard as usize];
    let after_events = *crash_points_seeded(seed, total, 1).first()?;
    Some(ShardKill {
        shard,
        after_events,
    })
}

/// A seeded cut point strictly inside a wire frame of `frame_len`
/// bytes: where a torn write (worker death mid-frame, severed pipe)
/// truncates it. Returns `None` for frames too short to tear (< 2
/// bytes). Consumed by the frame-codec chaos tests, which assert every
/// truncation decodes to a typed error, never a panic.
pub fn frame_cut_seeded(seed: u64, frame_len: usize) -> Option<usize> {
    if frame_len < 2 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A7_7E01_C07A_11ED);
    Some(rng.random_range(1..frame_len))
}

/// A seeded single-bit flip inside a wire frame of `frame_len` bytes:
/// `(byte_index, bit)` — the in-flight corruption the frame hash must
/// catch. Returns `None` for empty frames.
pub fn frame_flip_seeded(seed: u64, frame_len: usize) -> Option<(usize, u8)> {
    if frame_len == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB17F_11B0_57ED_F1A9);
    let byte = rng.random_range(0..frame_len);
    let bit = rng.random_range(0..8) as u8;
    Some((byte, bit))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(arrived_ms: u64, host: &str, at_ms: u64) -> LogRecord {
        let ts = caltime::render(Timestamp::from_millis(at_ms));
        LogRecord {
            arrived_at: Timestamp::from_millis(arrived_ms),
            line: format!(
                "<189>1: {host}: {ts}: %LINK-3-UPDOWN: Interface GigabitEthernet0/0, changed state to Down"
            ),
        }
    }

    fn archive(n: u64) -> Vec<LogRecord> {
        (0..n)
            .map(|i| record(i * 10_000 + 40, &format!("r{}", i % 7), i * 10_000))
            .collect()
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = ChaosConfig::default();
        assert!(!cfg.enabled());
        let mut records = archive(50);
        let before = records.clone();
        let mut transitions = Vec::new();
        let mut offline = Vec::new();
        let stats = cfg.apply(
            &mut records,
            &mut transitions,
            &mut offline,
            Duration::from_hours(24),
        );
        assert_eq!(records, before);
        assert!(stats.is_balanced());
        assert_eq!(stats.lines_in, stats.lines_out);
    }

    #[test]
    fn presets_are_enabled_and_deterministic() {
        for cfg in [
            ChaosConfig::mild(7),
            ChaosConfig::moderate(7),
            ChaosConfig::severe(7),
        ] {
            assert!(cfg.enabled());
            let period = Duration::from_hours(200);
            let mut a = archive(400);
            let mut b = archive(400);
            let (mut ta, mut oa) = (Vec::new(), Vec::new());
            let (mut tb, mut ob) = (Vec::new(), Vec::new());
            let sa = cfg.apply(&mut a, &mut ta, &mut oa, period);
            let sb = cfg.apply(&mut b, &mut tb, &mut ob, period);
            assert_eq!(a, b);
            assert_eq!(sa, sb);
            assert_eq!(oa, ob);
            assert!(sa.is_balanced(), "{sa:?}");
        }
    }

    #[test]
    fn burst_overload_storms_are_exact_and_deterministic() {
        let cfg = ChaosConfig::burst_overload(11);
        assert!(cfg.enabled());
        assert!(cfg.storm_enabled());
        let period = Duration::from_hours(200);
        let mut a = archive(400);
        let mut b = archive(400);
        let (mut ta, mut oa) = (Vec::new(), Vec::new());
        let (mut tb, mut ob) = (Vec::new(), Vec::new());
        let sa = cfg.apply(&mut a, &mut ta, &mut oa, period);
        let sb = cfg.apply(&mut b, &mut tb, &mut ob, period);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // Every storm line exists and is counted — exact conservation.
        assert_eq!(sa.storm_bursts_injected, u64::from(cfg.storm_bursts));
        assert_eq!(
            sa.storm_injected,
            u64::from(cfg.storm_bursts) * u64::from(cfg.storm_burst_lines)
        );
        assert!(sa.is_balanced(), "{sa:?}");
        // Storm lines are well-formed studied messages on harvested
        // hosts, so they parse as real load rather than garbage.
        let hosts: Vec<String> = (0..7).map(|i| format!("r{i}")).collect();
        let storm_records: Vec<_> = a
            .iter()
            .filter(|r| {
                r.line.contains("%LINK-3-UPDOWN") && !r.line.contains("GigabitEthernet0/0,")
            })
            .collect();
        assert!(!storm_records.is_empty());
        for r in &storm_records {
            let h = studied_host(&r.line).expect("storm lines are well-formed");
            assert!(hosts.iter().any(|x| x == h), "unexpected host {h}");
        }
    }

    #[test]
    fn storm_free_presets_draw_identically_with_storm_code_present() {
        // The storm step must not perturb the RNG sequence of existing
        // presets: a config with storms explicitly zeroed is the same
        // config, so its output pins the draw order.
        let base = ChaosConfig::moderate(5);
        let zeroed = ChaosConfig {
            storm_bursts: 0,
            storm_burst_lines: 0,
            storm_span: Duration::ZERO,
            ..base.clone()
        };
        let period = Duration::from_hours(200);
        let mut a = archive(300);
        let mut b = archive(300);
        let (mut ta, mut oa) = (Vec::new(), Vec::new());
        let (mut tb, mut ob) = (Vec::new(), Vec::new());
        let sa = base.apply(&mut a, &mut ta, &mut oa, period);
        let sb = zeroed.apply(&mut b, &mut tb, &mut ob, period);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.storm_injected, 0);
    }

    #[test]
    fn severe_hits_every_line_pathology() {
        let cfg = ChaosConfig::severe(3);
        let mut records = archive(2_000);
        let (mut t, mut o) = (Vec::new(), Vec::new());
        // Period matches the archive's arrival span so restart gaps and
        // outages actually overlap the records.
        let stats = cfg.apply(&mut records, &mut t, &mut o, Duration::from_hours(6));
        assert!(stats.truncated > 0);
        assert!(stats.corrupted > 0);
        assert!(stats.garbage_injected > 0);
        assert!(stats.duplicates_injected > 0);
        assert!(stats.reordered > 0);
        assert!(stats.skew_shifted > 0);
        assert!(stats.dropped_restart > 0);
        assert_eq!(stats.listener_outages_injected, 2);
        assert!(stats.is_balanced());
        // Output stays arrival-sorted for the collector replay.
        for w in records.windows(2) {
            assert!(w[0].arrived_at <= w[1].arrived_at);
        }
    }

    #[test]
    fn dst_step_rewrites_only_lines_past_the_boundary() {
        let cfg = ChaosConfig {
            dst_fall_back: true,
            ..ChaosConfig::default()
        };
        assert!(cfg.enabled());
        let boundary = dst_fall_back_at().as_millis();
        let mut records = vec![
            record(10, "r0", boundary - 3_600_000),
            record(20, "r1", boundary + 120_000),
        ];
        let (mut t, mut o) = (Vec::new(), Vec::new());
        let stats = cfg.apply(&mut records, &mut t, &mut o, Duration::from_hours(600));
        assert_eq!(stats.dst_stepped, 1);
        // The post-boundary stamp fell back one hour; the wall clock
        // reads a time it already read once.
        let ts = |ms| caltime::render(Timestamp::from_millis(ms));
        assert!(records[0].line.contains(&ts(boundary - 3_600_000)));
        assert!(records[1].line.contains(&ts(boundary - 3_480_000)));
    }

    #[test]
    fn skew_is_per_host_and_order_independent() {
        let cfg = ChaosConfig {
            skewed_router_fraction: 1.0,
            clock_skew_max: Duration::from_secs(30),
            ..ChaosConfig::default()
        };
        // Same host, widely separated records: identical offset (no
        // drift configured), regardless of position in the archive.
        let mut a = vec![record(10, "rx", 1_000_000), record(20, "ry", 2_000_000)];
        let mut b = vec![record(20, "ry", 2_000_000), record(10, "rx", 1_000_000)];
        let (mut t, mut o) = (Vec::new(), Vec::new());
        cfg.apply(&mut a, &mut t, &mut o, Duration::from_hours(600));
        cfg.apply(&mut b, &mut t, &mut o, Duration::from_hours(600));
        assert_eq!(a, b, "apply then sort must be order-independent");
        let offset = cfg.host_skew_ms("rx");
        assert!(offset.unsigned_abs() <= 30_000);
    }

    #[test]
    fn listener_outage_feeds_offline_spans_and_drops_transitions() {
        use faultline_isis::listener::{ReachabilityKind, TransitionDirection, TransitionSubject};
        use faultline_topology::osi::SystemId;
        let cfg = ChaosConfig {
            listener_outages: 3,
            listener_outage_range: (Duration::from_hours(20), Duration::from_hours(40)),
            ..ChaosConfig::default()
        };
        let period = Duration::from_hours(100);
        let mut transitions: Vec<Transition> = (0..1_000)
            .map(|i| Transition {
                at: Timestamp::from_millis(i * period.as_millis() / 1_000),
                source: SystemId::from_index(1),
                kind: ReachabilityKind::IsReach,
                subject: TransitionSubject::Adjacency {
                    neighbor: SystemId::from_index(2),
                },
                direction: TransitionDirection::Down,
            })
            .collect();
        let mut offline = Vec::new();
        let mut records = Vec::new();
        let stats = cfg.apply(&mut records, &mut transitions, &mut offline, period);
        assert_eq!(stats.listener_outages_injected, 3);
        assert_eq!(offline.len(), 3);
        assert!(stats.isis_dropped_outage > 0);
        assert_eq!(transitions.len() as u64, 1_000 - stats.isis_dropped_outage);
        // No surviving transition sits inside an injected span.
        for t in &transitions {
            assert!(!offline.iter().any(|s| t.at >= s.from && t.at <= s.to));
        }
        for w in offline.windows(2) {
            assert!(w[0].from <= w[1].from);
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ChaosConfig::moderate(99);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: ChaosConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }

    #[test]
    fn durability_chaos_plan_is_deterministic_and_capped() {
        let chaos = DurabilityChaos::flaky(7);
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let mut plan = chaos.plan();
                let mut decisions = Vec::new();
                for seq in 1..=200u64 {
                    let mut attempt = 1;
                    loop {
                        let fail = plan.should_fail(seq, attempt);
                        decisions.push(fail);
                        if !fail {
                            break;
                        }
                        attempt += 1;
                        assert!(
                            attempt <= chaos.max_consecutive_failures + 1,
                            "streaks are capped, so attempt {attempt} must succeed"
                        );
                    }
                }
                decisions
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed, same plan");
        assert!(
            runs[0].iter().any(|&f| f),
            "flaky preset injects at least one failure in 200 checkpoints"
        );
        // Inert default never fails.
        let mut inert = DurabilityChaos::default().plan();
        assert!((1..=50u64).all(|seq| !inert.should_fail(seq, 1)));
    }

    #[test]
    fn durability_chaos_round_trips_through_json() {
        let cfg = DurabilityChaos::flaky(11);
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: DurabilityChaos = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }

    #[test]
    fn crash_points_cover_every_boundary_and_sample_deterministically() {
        assert_eq!(crash_points_every(1, 5), vec![1, 2, 3, 4]);
        assert_eq!(crash_points_every(3, 10), vec![3, 6, 9]);
        assert!(crash_points_every(0, 10).is_empty());
        assert!(crash_points_every(10, 10).is_empty());

        let a = crash_points_seeded(42, 1_000, 7);
        let b = crash_points_seeded(42, 1_000, 7);
        assert_eq!(a, b, "seeded points are reproducible");
        assert_eq!(a.len(), 7);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(a.iter().all(|&p| (1..1_000).contains(&p)));
        assert_eq!(crash_points_seeded(1, 1, 5), Vec::<u64>::new());
        assert_eq!(crash_points_seeded(1, 3, 10).len(), 2, "clamped to total-1");
    }

    #[test]
    fn frame_faults_are_seeded_and_in_bounds() {
        for seed in 0..50u64 {
            let cut = frame_cut_seeded(seed, 64).unwrap();
            assert_eq!(Some(cut), frame_cut_seeded(seed, 64), "reproducible");
            assert!((1..64).contains(&cut), "strictly inside the frame");
            let (byte, bit) = frame_flip_seeded(seed, 64).unwrap();
            assert_eq!(Some((byte, bit)), frame_flip_seeded(seed, 64));
            assert!(byte < 64 && bit < 8);
        }
        assert_eq!(frame_cut_seeded(7, 1), None, "too short to tear");
        assert_eq!(frame_flip_seeded(7, 0), None, "nothing to flip");
    }
}
