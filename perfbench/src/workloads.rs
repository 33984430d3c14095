//! The three workloads and the passes they repeat.
//!
//! Each run generates its scenario and renders the raw inputs before any
//! timing starts, computes the reference answer with `Analysis::run` on
//! the pre-parsed scenario, then repeats passes over the raw bytes. The
//! first pass is a checked warm-up: every stream event the front end
//! produces is compared with the scenario's own event stream, and its
//! figures are discarded. Every pass, warm-up or measured, checks its
//! final output byte for byte against the reference; any mismatch ends
//! the run with an error and no figures.
//!
//! What the system under test receives: the raw archive lines, the raw
//! LSP PDUs, and the scenario's side inputs (topology, link windows,
//! hostnames, listener offline spans, tickets, period), with the parsed
//! archives and the ground truth taken out.

use crate::capture::{Arrival, CaptureItem, RawInputs};
use crate::probe;
use crate::stats::{median, quantile, quantile_of};
use crate::trace::{SpanId, Total, Tracer, ROOT};
use faultline_core::analysis::{Figure1, Table1, Table2, Table3, Table4, Table5, Table6, Table7};
use faultline_core::cluster::ClusterConfig;
use faultline_core::fp::{AmbiguityCounts, FpReport};
use faultline_core::recovery::DurabilityPolicy;
use faultline_core::{
    linktable, merge_outputs, route_event, scenario_event_stream, Analysis, AnalysisConfig,
    DurableStream, IngestOutcome, PipelineReport, ScenarioSpec, ShardMsg, ShardTransport,
    StreamEvent, StreamOutput, SubprocessTransport, TransportCounters, WorkerSpec,
};
use faultline_isis::listener::{Listener, Transition};
use faultline_sim::{GroundTruth, ScenarioData, ScenarioParams};
use faultline_syslog::parse::{parse_bytes, ParseOutcomeRef};
use faultline_topology::osi::SystemId;
use serde_json::to_string;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Shards of the `wide_cluster` workload: one worker process per CPU of
/// a 2-CPU machine.
pub const SHARDS: u32 = 2;

/// Passes measured per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Share of the measured passes that may run slower than an end-to-end
/// time or rate reports: times are the passes' upper quartile, rates
/// their lower one. The host runs some passes up to 1.5x faster than the
/// rest, in bursts that cover anywhere from none to most of a run; the
/// slow-side quartile stays on the steady majority where a median would
/// jump between the two.
const SLOW_SIDE: f64 = 0.25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch: parse, listener, `Analysis::run`, Tables 1–7 and Figure 1
    /// at paper scale.
    PaperReport,
    /// Record-at-a-time `DurableStream` ingest at paper scale, with a
    /// kill and a recovery part way through.
    LiveDurable,
    /// Two `SubprocessTransport` workers on a 10× network over 38.9 days.
    WideCluster,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperReport,
        Workload::LiveDurable,
        Workload::WideCluster,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperReport => "paper_report",
            Workload::LiveDurable => "live_durable",
            Workload::WideCluster => "wide_cluster",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario the workload runs for `seed`.
    ///
    /// The network and its failure history are fixed per workload (base
    /// seed [`BASE_SEED`]); `seed` draws how they were observed: syslog
    /// loss, delay and spurious messages in transport, detection and
    /// flooding delays, one-sided logging, and the listener's outages.
    /// Re-drawing the failure history itself moves the work per record
    /// several-fold between seeds (some histories hold links whose flap
    /// storms make Tables 2 and 3 superlinear), which no bound on a
    /// median could absorb.
    pub fn params(self, seed: u64) -> ScenarioParams {
        let mut params = match self {
            Workload::PaperReport | Workload::LiveDurable => {
                ScenarioParams::sized(BASE_SEED, 1.0, 389.0)
            }
            Workload::WideCluster => ScenarioParams::sized(BASE_SEED, 10.0, 38.9),
        };
        params.seed = seed;
        params.transport.seed = seed ^ 0x7777;
        params
    }
}

/// Seed of every workload's network and failure history.
pub const BASE_SEED: u64 = 42;

/// How one run is carried out.
#[derive(Debug, Clone)]
pub struct Options {
    /// Length of the measured window (after the warm-up pass).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Directory for durable state; the caller creates and removes it.
    pub scratch: PathBuf,
    /// The shard worker executable (`wide_cluster` only).
    pub worker_bin: PathBuf,
    /// Where to write the last pass's spans when tracing.
    pub trace_out: Option<PathBuf>,
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Records offered over every pass of the run.
    pub attempted: u64,
    /// Malformed lines, invalid PDUs and late or quarantined events.
    pub failed: u64,
    /// The end-to-end metrics: for times and rates the slow-side
    /// quartile of the measured passes, for memory their median.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (medians over the measured passes); zero
    /// for a layer the workload does not run.
    pub per_layer: Vec<Metric>,
    /// Free-form lines: sample counts, sizes, layer shares.
    pub notes: Vec<String>,
}

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("syslog.parse.ns_per_line", "ns"),
    ("syslog.parse.lines", "count"),
    ("syslog.parse.malformed", "count"),
    ("isis.listener.ns_per_pdu", "ns"),
    ("isis.listener.pdus", "count"),
    ("isis.listener.transitions_per_pdu", "ratio"),
    ("isis.listener.invalid", "count"),
    ("core.linktable.build_ms", "ms"),
    ("core.linktable.links", "count"),
    ("core.analysis.run_ms", "ms"),
    ("core.kernel.classify_ms", "ms"),
    ("core.kernel.lane_apply_ms", "ms"),
    ("core.kernel.collect_ms", "ms"),
    ("core.analysis.other_tables_ms", "ms"),
    ("core.matching.table2_ms", "ms"),
    ("core.matching.table3_ms", "ms"),
    ("core.isolation.table7_ms", "ms"),
    ("core.streaming.ingest_ns_per_event", "ns"),
    ("core.streaming.flush_ms", "ms"),
    ("core.recovery.ingest_ns_per_event", "ns"),
    ("core.recovery.ingest_max_ms", "ms"),
    ("core.recovery.journal_bytes_per_event", "B"),
    ("core.recovery.checkpoints_written", "count"),
    ("core.recovery.checkpoint_write_ms_max", "ms"),
    ("core.recovery.snapshot_thread_stalls", "count"),
    ("core.recovery.recover_ms", "ms"),
    ("core.recovery.events_replayed", "count"),
    ("core.transport.ready_ms", "ms"),
    ("core.transport.hello_bytes", "B"),
    ("core.transport.send_ns_per_event", "ns"),
    ("core.transport.flush_wait_ms", "ms"),
    ("core.transport.bytes_per_event", "B"),
    ("core.cluster.route_ns_per_event", "ns"),
    ("core.cluster.merge_ms", "ms"),
    ("core.cluster.skew", "ratio"),
    ("ingest_p999_us", "us"),
    ("recover_s", "s"),
    ("stored_bytes_per_record", "B"),
    ("wire_bytes_per_record", "B"),
    ("failed_fraction", "ratio"),
    ("traced_records_per_s", "1/s"),
];

/// What one pass measured.
struct Pass {
    setup: Duration,
    work: Duration,
    records: u64,
    failed: u64,
    /// Growth of resident memory over the pass, KiB.
    peak_kib: u64,
    /// Per-record ingest service times, ns.
    latencies: Vec<u32>,
    layers: BTreeMap<&'static str, f64>,
    /// Each span name's share of the pass span, when tracing.
    shares: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// The `q`-quantile of this pass's per-record latencies, ns.
    fn latency(&self, q: f64) -> f64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }
}

/// Everything a pass reads and checks against.
struct Ctx<'a> {
    data: &'a ScenarioData,
    raw: &'a RawInputs,
    config: AnalysisConfig,
    ref_output: String,
    ref_tables: String,
    opts: &'a Options,
}

/// Run `workload` on the scenario `params` describes.
pub fn run(workload: Workload, params: &ScenarioParams, opts: &Options) -> Result<Outcome, String> {
    let data = faultline_sim::scenario::run(params);
    let raw = RawInputs::render(&data);
    let config = AnalysisConfig::default();
    let reference = Analysis::run(&data, config.clone());
    let ref_output = json(&reference.output)?;
    let ref_tables = if workload == Workload::PaperReport {
        Exhibits::compute(&reference, &mut Tracer::new(false), ROOT).json()?
    } else {
        String::new()
    };
    drop(reference);
    let ctx = Ctx {
        data: &data,
        raw: &raw,
        config,
        ref_output,
        ref_tables,
        opts,
    };
    let mut shell = side_inputs(&data);
    let mut tracer = Tracer::new(opts.trace);
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Checked warm-up pass: figures discarded.
    let ref_events = match workload {
        Workload::PaperReport => Vec::new(),
        _ => scenario_event_stream(&data),
    };
    let warm = one_pass(
        workload,
        &ctx,
        &mut shell,
        &mut tracer,
        Some(&ref_events),
        0,
    )?;
    drop(ref_events);
    attempted += warm.records;
    failed += warm.failed;

    let started = Instant::now();
    let window = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || started.elapsed() < window {
        let pass = one_pass(
            workload,
            &ctx,
            &mut shell,
            &mut tracer,
            None,
            passes.len() + 1,
        )?;
        attempted += pass.records;
        failed += pass.failed;
        passes.push(pass);
    }
    if let Some(path) = &opts.trace_out {
        tracer
            .write_tsv(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(summarize(workload, &ctx, &passes, attempted, failed))
}

fn one_pass(
    workload: Workload,
    ctx: &Ctx,
    shell: &mut ScenarioData,
    tracer: &mut Tracer,
    check: Option<&[StreamEvent]>,
    index: usize,
) -> Result<Pass, String> {
    match workload {
        Workload::PaperReport => paper_pass(ctx, shell, tracer),
        Workload::LiveDurable => {
            let dir = ctx.opts.scratch.join(format!("pass-{index}"));
            let pass = live_pass(ctx, shell, tracer, check, &dir);
            // Remove the pass's durable state on every outcome.
            let _ = fs::remove_dir_all(&dir);
            pass
        }
        Workload::WideCluster => cluster_pass(ctx, shell, tracer, check),
    }
}

fn summarize(
    workload: Workload,
    ctx: &Ctx,
    passes: &[Pass],
    attempted: u64,
    failed: u64,
) -> Outcome {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut latencies: Vec<u32> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let of = |f: &dyn Fn(&Pass) -> f64, q: f64| {
        quantile_of(&passes.iter().map(f).collect::<Vec<_>>(), q)
    };
    let slow_time = |f: &dyn Fn(&Pass) -> f64| of(f, 1.0 - SLOW_SIDE);
    let records_per_s = of(&|p| p.records as f64 / p.work.as_secs_f64(), SLOW_SIDE);
    let end_to_end = vec![
        metric("setup_s", slow_time(&|p| p.setup.as_secs_f64()), "s"),
        metric("records_per_s", records_per_s, "1/s"),
        metric("ingest_p50_us", slow_time(&|p| p.latency(0.5)) / 1e3, "us"),
        metric("peak_rss_mb", med(&|p| p.peak_kib as f64) / 1024.0, "MB"),
    ];
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "ingest_p999_us" => med(&|p| p.latency(0.999)) / 1e3,
                "failed_fraction" => failed as f64 / attempted.max(1) as f64,
                "traced_records_per_s" if ctx.opts.trace => records_per_s,
                _ => med(&|p| p.layers.get(name).copied().unwrap_or(0.0)),
            };
            metric(name, value, unit)
        })
        .collect();

    let mut notes = vec![
        format!(
            "workload {}: {} syslog lines ({} B) + {} LSP PDUs ({} B) = {} records per pass",
            workload.name(),
            ctx.raw.lines.len(),
            ctx.raw.archive.len(),
            ctx.raw.pdu_count(),
            ctx.raw.pdus.len(),
            ctx.raw.records()
        ),
        format!(
            "{} measured passes after 1 checked warm-up pass; setup_s, records_per_s and \
             ingest_p50_us are the slow-side quartile over passes, ingest_p999_us the median; \
             passes of {} ingest samples each ({} beyond p99.9)",
            passes.len(),
            latencies.len() / passes.len(),
            latencies.len() / passes.len() / 1000
        ),
        format!(
            "records_per_s by pass: {}",
            passes
                .iter()
                .map(|p| format!("{:.0}", p.records as f64 / p.work.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "setup_us by pass: {}",
            passes
                .iter()
                .map(|p| format!("{:.0}", p.setup.as_secs_f64() * 1e6))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "ingest_p50_ns by pass: {}",
            passes
                .iter()
                .map(|p| format!("{:.0}", p.latency(0.5)))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "ingest_us pooled: p99 {:.2} p99.9 {:.2} p99.99 {:.2} max {:.2}",
            quantile(&latencies, 0.99) / 1e3,
            quantile(&latencies, 0.999) / 1e3,
            quantile(&latencies, 0.9999) / 1e3,
            quantile(&latencies, 1.0) / 1e3
        ),
        format!("failed_fraction {failed}/{attempted} operations"),
    ];
    if ctx.opts.trace {
        let mut shares: Vec<(&str, f64)> = passes[0]
            .shares
            .keys()
            .map(|&name| (name, med(&|p| p.shares.get(name).copied().unwrap_or(0.0))))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, share) in shares {
            notes.push(format!("share of pass wall: {name} {:.1}%", share * 100.0));
        }
    }
    Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    to_string(value).map_err(|e| format!("serialize: {e}"))
}

/// The paper's exhibits, derived from one analysis.
struct Exhibits {
    table1: Table1,
    table2: Table2,
    table3: Table3,
    table4: Table4,
    table5: Table5,
    table6: (Table6, AmbiguityCounts),
    table7: Table7,
    figure1: Figure1,
    false_positives: FpReport,
}

impl Exhibits {
    /// Derive every exhibit, one span per call.
    fn compute(a: &Analysis, tracer: &mut Tracer, parent: SpanId) -> Exhibits {
        fn timed<T>(
            tracer: &mut Tracer,
            name: &'static str,
            parent: SpanId,
            f: impl FnOnce() -> T,
        ) -> T {
            let s = tracer.start();
            let value = f();
            tracer.end(name, parent, s);
            value
        }
        Exhibits {
            table1: timed(tracer, "core.analysis.table1", parent, || a.table1()),
            table2: timed(tracer, "core.matching.table2", parent, || a.table2()),
            table3: timed(tracer, "core.matching.table3", parent, || a.table3()),
            table4: timed(tracer, "core.analysis.table4", parent, || a.table4()),
            table5: timed(tracer, "core.analysis.table5", parent, || a.table5()),
            table6: timed(tracer, "core.analysis.table6", parent, || a.table6()),
            table7: timed(tracer, "core.isolation.table7", parent, || a.table7()),
            figure1: timed(tracer, "core.analysis.figure1", parent, || a.figure1()),
            false_positives: timed(tracer, "core.analysis.false_positives", parent, || {
                a.false_positives()
            }),
        }
    }

    /// Every exhibit serialized, in a fixed order.
    fn json(&self) -> Result<String, String> {
        Ok([
            json(&self.table1)?,
            json(&self.table2)?,
            json(&self.table3)?,
            json(&self.table4)?,
            json(&self.table5)?,
            json(&self.table6.0)?,
            json(&self.table6.1)?,
            json(&self.table7)?,
            json(&self.figure1)?,
            json(&self.false_positives)?,
        ]
        .join("\n"))
    }
}

/// The scenario without what the system must derive itself: the parsed
/// archives come from the raw bytes, and the ground truth is never an
/// input.
fn side_inputs(data: &ScenarioData) -> ScenarioData {
    let mut shell = data.clone();
    shell.syslog = Vec::new();
    shell.transitions = Vec::new();
    shell.truth = GroundTruth::default();
    shell
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {what}"))
    }
}

/// A latency sample in ns, saturating at `u32::MAX` (4.3 s).
fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn stage_ms(report: &PipelineReport, stage: &str) -> f64 {
    report
        .stage(stage)
        .map_or(0.0, |s| s.wall_micros as f64 / 1e3)
}

/// Per-name totals as each name's share of the pass span.
fn shares(totals: &BTreeMap<&'static str, Total>) -> BTreeMap<&'static str, f64> {
    let pass_ns = totals.get("pass").map_or(0, |t| t.ns).max(1) as f64;
    totals
        .iter()
        .filter(|(name, _)| **name != "pass")
        .map(|(name, t)| (*name, t.ns as f64 / pass_ns))
        .collect()
}

/// Streaming ingest wall per event offered, over the given engines.
fn ingest_ns_per_event(reports: &[PipelineReport]) -> f64 {
    let (micros, events) = reports
        .iter()
        .filter_map(|r| r.stage("stream_ingest"))
        .fold((0u64, 0u64), |(m, n), s| {
            (m + s.wall_micros, n + s.items_in)
        });
    micros as f64 * 1e3 / events.max(1) as f64
}

fn per_call_ns(totals: &BTreeMap<&'static str, Total>, name: &str, calls: u64) -> f64 {
    totals.get(name).map_or(0.0, |t| t.ns as f64) / calls.max(1) as f64
}

fn rss_growth_kib(start: u64) -> u64 {
    probe::peak_rss_kib().saturating_sub(start)
}

/// Start a pass's memory accounting: return freed memory to the kernel,
/// reset the peak, and return the resident set (the inputs and the
/// reference answer) the pass grows from. Fails where the peak cannot be
/// reset, since it would then still hold input generation.
fn rss_start() -> Result<u64, String> {
    probe::release_free_memory();
    check(
        probe::reset_peak(),
        "peak resident set reset through /proc/self/clear_refs",
    )?;
    Ok(probe::rss_kib())
}

// ---------------------------------------------------------------------
// paper_report
// ---------------------------------------------------------------------

fn paper_pass(ctx: &Ctx, shell: &mut ScenarioData, tracer: &mut Tracer) -> Result<Pass, String> {
    let raw = ctx.raw;
    let rss0 = rss_start()?;
    let pass = tracer.open("pass", ROOT);
    let t0 = Instant::now();
    let mut latencies = Vec::with_capacity(raw.records());

    // The whole archive, then the whole capture.
    let mut front = FrontEnd::new();
    let mut syslog = Vec::with_capacity(raw.lines.len());
    let mut events = Vec::new();
    let arrivals = (0..raw.lines.len())
        .map(Arrival::Line)
        .chain((0..raw.capture.len()).map(Arrival::Capture));
    for arrival in arrivals {
        let s = Instant::now();
        if front.take(raw, arrival, &mut events, tracer, pass) {
            latencies.push(nanos(s.elapsed()));
        }
        // Listener transitions are read whole once the capture is done.
        syslog.extend(events.drain(..).filter_map(|e| match e {
            StreamEvent::Syslog(m) => Some(m),
            StreamEvent::Isis(_) => None,
        }));
    }
    // Take the listener's output whole; `front` keeps its counts.
    let listener = std::mem::replace(&mut front.listener, Listener::new());
    shell.hostnames = listener.hostnames().clone();
    shell.transitions = listener.into_transitions();
    shell.syslog = syslog;

    let span = tracer.open("core.analysis.run", pass);
    let analysis = Analysis::run(shell, ctx.config.clone());
    tracer.close(span);
    let exhibits = Exhibits::compute(&analysis, tracer, pass);
    let work = t0.elapsed();
    tracer.close(pass);
    let peak_kib = rss_growth_kib(rss0);
    let totals = tracer.end_pass();

    // Checks, outside the timed region.
    check(
        shell.syslog == ctx.data.syslog,
        "parsed archive == data.syslog",
    )?;
    check_listener(&shell.transitions, &shell.hostnames, ctx.data)?;
    check(
        json(&analysis.output)? == ctx.ref_output,
        "analysis output == reference",
    )?;
    check(
        exhibits.json()? == ctx.ref_tables,
        "tables 1-7, figure 1, false positives == reference",
    )?;

    let report = &analysis.report;
    let link_ms = stage_ms(report, "link_table");
    let other_tables = [
        "core.analysis.table1",
        "core.analysis.table4",
        "core.analysis.table5",
        "core.analysis.table6",
        "core.analysis.figure1",
        "core.analysis.false_positives",
    ]
    .iter()
    .map(|n| totals.get(n).map_or(0, |t| t.ns))
    .sum::<u64>() as f64
        / 1e6;
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.ns as f64 / 1e6);
    let mut layers = BTreeMap::from([
        ("core.linktable.build_ms", link_ms),
        ("core.linktable.links", analysis.table.len() as f64),
        ("core.analysis.run_ms", total_ms("core.analysis.run")),
        ("core.kernel.classify_ms", stage_ms(report, "classify")),
        ("core.kernel.lane_apply_ms", stage_ms(report, "lane_apply")),
        ("core.kernel.collect_ms", stage_ms(report, "collect")),
        ("core.analysis.other_tables_ms", other_tables),
        ("core.matching.table2_ms", total_ms("core.matching.table2")),
        ("core.matching.table3_ms", total_ms("core.matching.table3")),
        (
            "core.isolation.table7_ms",
            total_ms("core.isolation.table7"),
        ),
    ]);
    front.layers(&totals, &mut layers);
    let quarantined = analysis.report.robustness.total_quarantined();
    drop(analysis);
    shell.syslog = Vec::new();
    shell.transitions = Vec::new();

    // The link table and engine build happen inside `Analysis::run`; its
    // report times them, and they are this workload's setup.
    let setup = Duration::from_secs_f64(link_ms / 1e3);
    Ok(Pass {
        setup,
        work: work.saturating_sub(setup),
        records: front.lines + front.pdus,
        failed: front.malformed + front.invalid + quarantined,
        peak_kib,
        latencies,
        layers,
        shares: shares(&totals),
    })
}

// ---------------------------------------------------------------------
// The front end every workload drives
// ---------------------------------------------------------------------

/// Archive lines through the parser and capture items through the
/// listener, one arrival at a time, into stream events.
struct FrontEnd {
    listener: Listener,
    lines: u64,
    pdus: u64,
    malformed: u64,
    invalid: u64,
    transitions: u64,
}

impl FrontEnd {
    fn new() -> Self {
        FrontEnd {
            listener: Listener::new(),
            lines: 0,
            pdus: 0,
            malformed: 0,
            invalid: 0,
            transitions: 0,
        }
    }

    /// Turn one arrival into stream events appended to `events`; returns
    /// whether the arrival was an input record (a line or a PDU).
    fn take(
        &mut self,
        raw: &RawInputs,
        arrival: Arrival,
        events: &mut Vec<StreamEvent>,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> bool {
        match arrival {
            Arrival::Line(i) => {
                let s = tracer.start();
                match parse_bytes(raw.line(i)) {
                    ParseOutcomeRef::Event(m) => events.push(StreamEvent::Syslog(m.to_owned())),
                    _ => self.malformed += 1,
                }
                tracer.end("syslog.parse", parent, s);
                self.lines += 1;
                true
            }
            Arrival::Capture(j) => match &raw.capture[j] {
                CaptureItem::Pdu { at, bytes } => {
                    let s = tracer.start();
                    let before = self.listener.transitions().len();
                    if self
                        .listener
                        .receive_bytes(*at, &raw.pdus[bytes.clone()])
                        .is_err()
                    {
                        self.invalid += 1;
                    }
                    tracer.end("isis.listener", parent, s);
                    let new = &self.listener.transitions()[before..];
                    self.transitions += new.len() as u64;
                    events.extend(new.iter().map(|t| StreamEvent::Isis(*t)));
                    self.pdus += 1;
                    true
                }
                CaptureItem::Offline(at) => {
                    self.listener.go_offline(*at);
                    false
                }
                CaptureItem::Online(at) => {
                    self.listener.go_online(*at);
                    false
                }
            },
        }
    }

    /// The listener reproduced the scenario's transitions and hostnames.
    fn check(&self, data: &ScenarioData) -> Result<(), String> {
        check_listener(self.listener.transitions(), self.listener.hostnames(), data)
    }

    fn layers(
        &self,
        totals: &BTreeMap<&'static str, Total>,
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        layers.insert(
            "syslog.parse.ns_per_line",
            per_call_ns(totals, "syslog.parse", self.lines),
        );
        layers.insert("syslog.parse.lines", self.lines as f64);
        layers.insert("syslog.parse.malformed", self.malformed as f64);
        layers.insert(
            "isis.listener.ns_per_pdu",
            per_call_ns(totals, "isis.listener", self.pdus),
        );
        layers.insert("isis.listener.pdus", self.pdus as f64);
        layers.insert(
            "isis.listener.transitions_per_pdu",
            self.transitions as f64 / self.pdus.max(1) as f64,
        );
        layers.insert("isis.listener.invalid", self.invalid as f64);
    }
}

/// The listener's output equals the scenario's transitions and hostnames.
fn check_listener(
    transitions: &[Transition],
    hostnames: &HashMap<SystemId, String>,
    data: &ScenarioData,
) -> Result<(), String> {
    check(
        transitions == data.transitions.as_slice(),
        "listener transitions == data.transitions",
    )?;
    check(
        hostnames == &data.hostnames,
        "listener hostnames == data.hostnames",
    )
}

/// Compares produced events with the scenario's event stream during the
/// checked warm-up pass.
struct EventCheck<'a> {
    expected: Option<&'a [StreamEvent]>,
    next: usize,
    ok: bool,
}

impl<'a> EventCheck<'a> {
    fn new(expected: Option<&'a [StreamEvent]>) -> Self {
        EventCheck {
            expected,
            next: 0,
            ok: true,
        }
    }

    fn see(&mut self, event: &StreamEvent) {
        if let Some(expected) = self.expected {
            self.ok &= expected.get(self.next) == Some(event);
            self.next += 1;
        }
    }

    fn finish(&self) -> Result<(), String> {
        match self.expected {
            Some(expected) => check(
                self.ok && self.next == expected.len(),
                "front-end events == scenario event stream",
            ),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// live_durable
// ---------------------------------------------------------------------

/// Tallies of the live ingest loop.
#[derive(Default)]
struct LiveTally {
    events: u64,
    late: u64,
    quarantined: u64,
    latencies: Vec<u32>,
}

#[allow(clippy::too_many_arguments)]
fn feed_durable(
    stream: &mut DurableStream,
    front: &mut FrontEnd,
    raw: &RawInputs,
    arrivals: &[Arrival],
    tally: &mut LiveTally,
    events_check: &mut EventCheck,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<(), String> {
    let mut events = Vec::new();
    for &arrival in arrivals {
        let s = Instant::now();
        events.clear();
        let record = front.take(raw, arrival, &mut events, tracer, parent);
        for event in &events {
            let si = tracer.start();
            let outcome = stream.ingest(event).map_err(|e| format!("ingest: {e}"))?;
            tracer.end("core.recovery.ingest", parent, si);
            match outcome {
                IngestOutcome::Accepted => {}
                IngestOutcome::Late => tally.late += 1,
                IngestOutcome::Quarantined => tally.quarantined += 1,
            }
        }
        if record {
            tally.latencies.push(nanos(s.elapsed()));
        }
        tally.events += events.len() as u64;
        for event in &events {
            events_check.see(event);
        }
    }
    Ok(())
}

/// Journal and snapshot bytes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn live_pass(
    ctx: &Ctx,
    shell: &ScenarioData,
    tracer: &mut Tracer,
    expected: Option<&[StreamEvent]>,
    dir: &Path,
) -> Result<Pass, String> {
    let raw = ctx.raw;
    let policy = DurabilityPolicy::default();
    let rss0 = rss_start()?;
    let pass = tracer.open("pass", ROOT);
    let t0 = Instant::now();
    let span = tracer.open("core.recovery.create", pass);
    let mut stream = DurableStream::create(dir, shell, ctx.config.clone(), policy)
        .map_err(|e| format!("create: {e}"))?;
    tracer.close(span);
    let setup = t0.elapsed();

    let work_start = Instant::now();
    let mut front = FrontEnd::new();
    let mut tally = LiveTally {
        latencies: Vec::with_capacity(raw.records()),
        ..LiveTally::default()
    };
    let mut events_check = EventCheck::new(expected);
    // The kill point: a fixed share of the way through the arrivals.
    let kill_at = raw.arrivals.len() * 3 / 5;
    let (before, after) = raw.arrivals.split_at(kill_at);
    feed_durable(
        &mut stream,
        &mut front,
        raw,
        before,
        &mut tally,
        &mut events_check,
        tracer,
        pass,
    )?;
    let first_life = stream.counters();
    // Killed: dropped without `finish`.
    drop(stream);

    let span = tracer.open("core.recovery.recover", pass);
    let recover_start = Instant::now();
    let (mut stream, report) = DurableStream::recover(dir, shell, ctx.config.clone(), policy)
        .map_err(|e| format!("recover: {e}"))?;
    let recover = recover_start.elapsed();
    tracer.close(span);
    check(
        report.resumed_at_seq == tally.events,
        "recovery resumes at the last ingested event",
    )?;
    feed_durable(
        &mut stream,
        &mut front,
        raw,
        after,
        &mut tally,
        &mut events_check,
        tracer,
        pass,
    )?;
    let second_life = stream.counters();
    let span = tracer.open("core.recovery.finish", pass);
    let result = stream.finish();
    tracer.close(span);
    let work = work_start.elapsed();
    tracer.close(pass);
    let peak_kib = rss_growth_kib(rss0);
    let totals = tracer.end_pass();
    let stored = dir_bytes(dir);

    events_check.finish()?;
    front.check(ctx.data)?;
    check(
        json(&result.output)? == ctx.ref_output,
        "durable output == reference",
    )?;

    let records = front.lines + front.pdus;
    let events = tally.events.max(1) as f64;
    let mut layers = BTreeMap::new();
    front.layers(&totals, &mut layers);
    let report_ms = |stage: &str| stage_ms(&result.report, stage);
    layers.insert("core.linktable.build_ms", report_ms("link_table"));
    layers.insert(
        "core.linktable.links",
        result.report.stage("link_table").map_or(0, |s| s.items_out) as f64,
    );
    layers.insert(
        "core.streaming.ingest_ns_per_event",
        ingest_ns_per_event(std::slice::from_ref(&result.report)),
    );
    layers.insert("core.streaming.flush_ms", report_ms("stream_flush"));
    layers.insert(
        "core.recovery.ingest_ns_per_event",
        per_call_ns(&totals, "core.recovery.ingest", tally.events),
    );
    layers.insert(
        "core.recovery.ingest_max_ms",
        totals
            .get("core.recovery.ingest")
            .map_or(0.0, |t| t.max_ns as f64 / 1e6),
    );
    layers.insert(
        "core.recovery.journal_bytes_per_event",
        (first_life.journal_bytes + second_life.journal_bytes) as f64 / events,
    );
    layers.insert(
        "core.recovery.checkpoints_written",
        (first_life.checkpoints_written + second_life.checkpoints_written) as f64,
    );
    layers.insert(
        "core.recovery.checkpoint_write_ms_max",
        first_life
            .checkpoint_write_micros_max
            .max(second_life.checkpoint_write_micros_max) as f64
            / 1e3,
    );
    layers.insert(
        "core.recovery.snapshot_thread_stalls",
        (first_life.snapshot_thread_stalls + second_life.snapshot_thread_stalls) as f64,
    );
    layers.insert("core.recovery.recover_ms", ms(recover));
    layers.insert(
        "core.recovery.events_replayed",
        report.events_replayed as f64,
    );
    layers.insert("recover_s", recover.as_secs_f64());
    layers.insert(
        "stored_bytes_per_record",
        stored as f64 / records.max(1) as f64,
    );
    Ok(Pass {
        setup,
        work,
        records,
        failed: front.malformed + front.invalid + tally.late + tally.quarantined,
        peak_kib,
        latencies: tally.latencies,
        layers,
        shares: shares(&totals),
    })
}

// ---------------------------------------------------------------------
// wide_cluster
// ---------------------------------------------------------------------

fn expect_ready(transport: &mut SubprocessTransport, worker: usize) -> Result<(), String> {
    match transport.recv(worker).map_err(|e| e.to_string())? {
        ShardMsg::Ready(_) => Ok(()),
        ShardMsg::Fatal { detail } => Err(format!("worker {worker}: {detail}")),
        other => Err(format!(
            "worker {worker}: expected ready, got {}",
            other.kind()
        )),
    }
}

fn expect_flushed(
    transport: &mut SubprocessTransport,
    worker: usize,
) -> Result<(StreamOutput, PipelineReport), String> {
    match transport.recv(worker).map_err(|e| e.to_string())? {
        ShardMsg::Flushed(out) => Ok((out.output, out.report)),
        ShardMsg::Fatal { detail } => Err(format!("worker {worker}: {detail}")),
        other => Err(format!(
            "worker {worker}: expected flushed, got {}",
            other.kind()
        )),
    }
}

fn wire_bytes(c: &TransportCounters) -> u64 {
    c.bytes_sent + c.bytes_received
}

fn cluster_pass(
    ctx: &Ctx,
    shell: &ScenarioData,
    tracer: &mut Tracer,
    expected: Option<&[StreamEvent]>,
) -> Result<Pass, String> {
    let raw = ctx.raw;
    let chunk = ClusterConfig::new(SHARDS).chunk;
    let rss0 = rss_start()?;
    let pass = tracer.open("pass", ROOT);
    let t0 = Instant::now();
    let span = tracer.open("core.linktable.build", pass);
    let table = linktable::from_scenario(shell);
    tracer.close(span);
    let link_build = t0.elapsed();
    let specs: Vec<WorkerSpec> = (0..SHARDS)
        .map(|shard| {
            let scenario = ScenarioSpec::Inline(Box::new(shell.clone()));
            WorkerSpec::new(shard, SHARDS, ctx.config.clone(), scenario)
        })
        .collect();
    let span = tracer.open("core.transport.start", pass);
    let ready_start = Instant::now();
    let mut transport =
        SubprocessTransport::start(&ctx.opts.worker_bin, &specs).map_err(|e| e.to_string())?;
    drop(specs);
    for worker in 0..SHARDS as usize {
        expect_ready(&mut transport, worker)?;
    }
    let ready = ready_start.elapsed();
    tracer.close(span);
    let setup = t0.elapsed();
    let at_ready = transport.counters();

    let work_start = Instant::now();
    let mut front = FrontEnd::new();
    let mut events_check = EventCheck::new(expected);
    let mut latencies = Vec::with_capacity(raw.records());
    let mut batches: Vec<Vec<StreamEvent>> =
        (0..SHARDS).map(|_| Vec::with_capacity(chunk)).collect();
    let mut per_shard = vec![0u64; SHARDS as usize];
    let mut events = Vec::new();
    for &arrival in &raw.arrivals {
        let s = Instant::now();
        let record = front.take(raw, arrival, &mut events, tracer, pass);
        // A frame send is batch work for 2,048 events, timed as the
        // transport's; the record's ingest time leaves it out.
        let mut sending = Duration::ZERO;
        for event in events.drain(..) {
            events_check.see(&event);
            let sr = tracer.start();
            let shard = route_event(&table, &event, SHARDS) as usize;
            tracer.end("core.cluster.route", pass, sr);
            per_shard[shard] += 1;
            let batch = &mut batches[shard];
            batch.push(event);
            if batch.len() >= chunk {
                let full = std::mem::replace(batch, Vec::with_capacity(chunk));
                let ss = Instant::now();
                transport
                    .send(shard, ShardMsg::Events(full))
                    .map_err(|e| e.to_string())?;
                sending += ss.elapsed();
                tracer.record("core.transport.send", pass, ss, Instant::now());
            }
        }
        if record {
            latencies.push(nanos(s.elapsed().saturating_sub(sending)));
        }
    }
    for (shard, batch) in batches.into_iter().enumerate() {
        if !batch.is_empty() {
            let ss = tracer.start();
            transport
                .send(shard, ShardMsg::Events(batch))
                .map_err(|e| e.to_string())?;
            tracer.end("core.transport.send", pass, ss);
        }
    }
    let span = tracer.open("core.transport.flush_wait", pass);
    let flush_start = Instant::now();
    for worker in 0..SHARDS as usize {
        transport
            .send(worker, ShardMsg::Flush)
            .map_err(|e| e.to_string())?;
    }
    let mut outputs = Vec::with_capacity(SHARDS as usize);
    let mut reports = Vec::with_capacity(SHARDS as usize);
    for worker in 0..SHARDS as usize {
        let (output, report) = expect_flushed(&mut transport, worker)?;
        outputs.push(output);
        reports.push(report);
    }
    let flush_wait = flush_start.elapsed();
    tracer.close(span);
    let span = tracer.open("core.cluster.merge", pass);
    let merge_start = Instant::now();
    let merged = merge_outputs(outputs);
    let merge = merge_start.elapsed();
    tracer.close(span);
    let work = work_start.elapsed();
    tracer.close(pass);
    let at_end = transport.counters();
    // Each worker exits once it has answered `Flush`; read its own peak
    // then, before the transport reaps it.
    let worker_peaks = probe::children_exit_peak_rss_kib().unwrap_or_default();
    check(
        worker_peaks.len() == SHARDS as usize,
        "peak resident set read from every exited worker",
    )?;
    let peak_kib = rss_growth_kib(rss0) + worker_peaks.iter().sum::<u64>();
    drop(transport);
    let totals = tracer.end_pass();

    events_check.finish()?;
    front.check(ctx.data)?;
    check(
        json(&merged)? == ctx.ref_output,
        "merged cluster output == reference",
    )?;

    let records = front.lines + front.pdus;
    let events: u64 = per_shard.iter().sum();
    let late_or_quarantined: u64 = reports
        .iter()
        .map(|r| r.streaming.map_or(0, |s| s.late_events) + r.robustness.total_quarantined())
        .sum();
    let steady_bytes = wire_bytes(&at_end) - wire_bytes(&at_ready);
    let mean = events as f64 / f64::from(SHARDS);
    let mut layers = BTreeMap::new();
    front.layers(&totals, &mut layers);
    layers.insert("core.linktable.build_ms", ms(link_build));
    layers.insert("core.linktable.links", table.len() as f64);
    let max_stage = |stage: &str| {
        reports
            .iter()
            .map(|r| stage_ms(r, stage))
            .fold(0.0, f64::max)
    };
    layers.insert(
        "core.streaming.ingest_ns_per_event",
        ingest_ns_per_event(&reports),
    );
    layers.insert("core.streaming.flush_ms", max_stage("stream_flush"));
    layers.insert("core.transport.ready_ms", ms(ready));
    layers.insert("core.transport.hello_bytes", at_ready.bytes_sent as f64);
    layers.insert(
        "core.transport.send_ns_per_event",
        per_call_ns(&totals, "core.transport.send", events),
    );
    layers.insert("core.transport.flush_wait_ms", ms(flush_wait));
    layers.insert(
        "core.transport.bytes_per_event",
        steady_bytes as f64 / events.max(1) as f64,
    );
    layers.insert(
        "core.cluster.route_ns_per_event",
        per_call_ns(&totals, "core.cluster.route", events),
    );
    layers.insert("core.cluster.merge_ms", ms(merge));
    layers.insert(
        "core.cluster.skew",
        per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
    );
    layers.insert(
        "wire_bytes_per_record",
        steady_bytes as f64 / records.max(1) as f64,
    );
    Ok(Pass {
        setup,
        work,
        records,
        failed: front.malformed + front.invalid + late_or_quarantined,
        peak_kib,
        latencies,
        layers,
        shares: shares(&totals),
    })
}
