//! Sharded multi-collector runtime — many kernels, one answer.
//!
//! The paper analyzes one 299-link backbone in a single process; a
//! production deployment watches orders of magnitude more links than one
//! collector can ingest. Because every semantic stage of the pipeline is
//! strictly per-link (the [`crate::kernel`] never shares state between
//! links), the stream can be *partitioned by link* across N independent
//! worker shards, each running the ordinary streaming driver over its
//! substream, and the per-shard answers can be merged back into the
//! exact single-process answer. This module is that runtime, built as a
//! **dispatcher + N workers speaking a serializable protocol** over a
//! [`ShardTransport`] (see [`crate::transport`]). It is also the
//! repository's one parallelism mechanism: a single engine runs its
//! per-link lanes serially, and link-level parallelism comes from
//! running N engines as cluster workers.
//!
//! [`run_cluster`] is the one entry point. A [`ClusterConfig`] names
//! where the workers run ([`Workers::InProcess`] threads or
//! [`Workers::Subprocess`] processes) and what the run does
//! ([`ClusterMode::Plain`], [`ClusterMode::Durable`] or
//! [`ClusterMode::Reshard`]); every combination shares one body and
//! returns one [`ClusterResult`] or one [`TransportError`].
//!
//! ```text
//!               ShardMsg over a ShardTransport
//!              ┌────────────────────────────────────────────┐
//!              │  ┌─ worker-0: StreamAnalysis ─ Flushed ─┐  │
//!  dispatcher ─┼──┼─ worker-1: StreamAnalysis ─ Flushed ─┼──┼─ merge
//!  (route +    │  └─ worker-N: StreamAnalysis ─ Flushed ─┘  │  (k-way, by the
//!   Events     │     thread + channels (InProcess)          │   collect keys)
//!   frames)    │     or pipes + frames (Subprocess)         │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! - **Partitioner.** [`route_event`] resolves each event to its link
//!   exactly as the kernel's classify stage would, then hashes the
//!   link's interned `(Sym, Sym)` key ([`crate::linktable::LinkTable::shard_key`])
//!   through a jump consistent hash ([`shard_of_key`]). Jump hashing
//!   gives the resharding property the property tests pin: growing
//!   N → N+1 shards moves only the ~1/(N+1) of keys that land on the new
//!   shard, and every moved key moves *to* the new shard. Events that
//!   resolve to no link (unresolved hostnames, unknown prefixes) go to a
//!   deterministic fallback shard — they only increment counters, which
//!   sum shard-wise, so any deterministic placement preserves the merge.
//! - **Workers.** Each worker owns an unmodified [`crate::streaming::StreamAnalysis`]
//!   (or [`crate::recovery::DurableStream`] in the durable runtime) and interacts with
//!   the dispatcher *only* through [`crate::transport::ShardMsg`]
//!   frames: `Ready`, `Events`, `Flush`/`Flushed`, `Fatal`. A shard's
//!   substream preserves global time order, and a link's entire history
//!   lands on exactly one shard, so every per-link state machine sees
//!   byte-for-byte the history it would see in a single process. The
//!   default [`crate::transport::InProcessTransport`] runs workers as
//!   scoped threads behind bounded channels (messages move by value);
//!   [`Workers::Subprocess`] runs the same protocol against
//!   `faultline-shard-worker` child processes over hashed stdio frames.
//! - **Aggregator.** [`merge_outputs`] rebuilds the global
//!   [`StreamOutput`] from the shard outputs *in worker-index order*:
//!   counter structs are field-wise sums (each offered event is counted
//!   by exactly one shard), event-level vectors are k-way merged on the
//!   same keys `Kernel::collect` uses with ties taken from the lowest
//!   worker index (ties only ever come from one shard, so this
//!   reproduces the single-process order exactly), and the match index
//!   pairs are re-based from shard-local to global failure positions.
//!   `tests/cluster_equivalence.rs` asserts the merged JSON is
//!   byte-identical to [`crate::analysis::Analysis::run`] for every
//!   tested shard count, seed, and chaos preset;
//!   `tests/cluster_process.rs` asserts the same across the subprocess
//!   transport.
//! - **Supervisor.** In the durable runtime ([`ClusterMode::Durable`])
//!   every shard journals and checkpoints under its own `shard-{i}/`
//!   directory. When a worker dies mid-run — a deterministic
//!   [`faultline_sim::chaos::ShardKill`] abort, or a real `SIGKILL` of a
//!   subprocess worker — the dispatcher observes the loss through the
//!   transport (a dead channel in-process, EOF on the pipe for a
//!   subprocess), respawns *that worker only*, recovers it through the
//!   ordinary [`crate::recovery::DurableStream::recover`] ladder, re-feeds the
//!   unconsumed tail of its substream, and the merged answer is still
//!   byte-identical; healthy shards never restart
//!   (`tests/cluster_recovery.rs`, `tests/cluster_process.rs`).
//! - **Live resharding.** [`ClusterMode::Reshard`] grows a running
//!   cluster N → N+1 at an event boundary: dispatch pauses, the lanes
//!   of exactly the links jump-hash reassigns are detached from their
//!   old workers ([`crate::transport::ShardMsg::ExportLanes`]), shipped
//!   as serialized lane snapshots
//!   ([`crate::transport::ShardMsg::LaneMigrate`]), attached by the new
//!   worker, and dispatch resumes at N+1 routing. Because every
//!   per-link derived state lives in its lane and moves whole, the
//!   merged output is byte-identical to a from-scratch N+1 run
//!   (`tests/cluster_reshard.rs`).

use crate::analysis::{self, AnalysisConfig};
use crate::error::TransportError;
use crate::intern::Sym;
use crate::linktable::{self, LinkIx, LinkTable};
use crate::matching::FailureMatching;
use crate::observe::{
    self, DurabilityCounters, PipelineCounters, PipelineReport, ShardCounters, StreamingCounters,
    TransportCounters,
};
use crate::reconstruct::{Failure, Reconstruction};
use crate::recovery::{DurabilityPolicy, RecoveryReport};
use crate::sanitize::SanitizeReport;
use crate::streaming::{LaneMigration, StreamEvent, StreamOutput};
use crate::transitions::{IsisMergeStats, SyslogResolveStats};
use crate::transport::{
    DurableSpec, InProcessTransport, ReadyMsg, ScenarioSpec, ShardMsg, ShardTransport,
    SubprocessTransport, WorkerSpec,
};
use faultline_isis::listener::{ReachabilityKind, TransitionSubject};
use faultline_sim::chaos::ShardKill;
use faultline_sim::ScenarioData;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The partition key used for events that resolve to no link (unknown
/// hostnames, foreign prefixes, unparseable subjects). They only
/// increment resolution counters — shard-wise sums — so any
/// deterministic placement is merge-equivalent; pinning one keeps the
/// per-shard event counts reproducible.
pub const UNROUTED_KEY: (Sym, Sym) = (Sym(u32::MAX), Sym(u32::MAX));

/// FNV-1a over the two interned ids, one round per word (the ids are
/// already dense and well-distributed).
fn key_hash(key: (Sym, Sym)) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    h = (h ^ u64::from(key.0 .0)).wrapping_mul(PRIME);
    h = (h ^ u64::from(key.1 .0)).wrapping_mul(PRIME);
    h
}

/// Jump consistent hash (Lamping & Veach): maps a 64-bit key onto
/// `0..buckets` such that growing to `buckets + 1` reassigns only the
/// keys that move to the new bucket — expected `1/(buckets + 1)` of
/// them — and reassigns them *to* the new bucket.
fn jump_hash(mut key: u64, buckets: u32) -> u32 {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < i64::from(buckets) {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        let r = f64::from(1u32 << 31) / (((key >> 33) + 1) as f64);
        j = (((b + 1) as f64) * r) as i64;
    }
    b as u32
}

/// The shard an interned `(Sym, Sym)` link key lives on, for a cluster
/// of `shards` workers (`shards` is clamped to at least 1).
pub fn shard_of_key(key: (Sym, Sym), shards: u32) -> u32 {
    jump_hash(key_hash(key), shards.max(1))
}

/// The shard a link lives on: consistent hash of its canonical endpoint
/// host pair. Every member of a multi-link adjacency shares the pair, so
/// parallel links are always co-located — the property that lets
/// IS-reachability events, which resolve only to the *pair*, route
/// without knowing which member they belong to.
pub fn shard_of_link(table: &LinkTable, link: LinkIx, shards: u32) -> u32 {
    shard_of_key(table.shard_key(link), shards)
}

/// The link an event would resolve to, mirroring the kernel's classify
/// stage read-only: syslog by `(host, interface)`, IS reachability by
/// system-ID pair (any member — they co-locate), IP reachability by /31
/// subnet.
fn link_of_event(table: &LinkTable, event: &StreamEvent) -> Option<LinkIx> {
    match event {
        StreamEvent::Syslog(m) => table.by_interface(&m.event.host, &m.event.interface),
        StreamEvent::Isis(t) => match t.kind {
            ReachabilityKind::IsReach => match &t.subject {
                TransitionSubject::Adjacency { neighbor } => {
                    table.by_sysid_pair(t.source, *neighbor).first().copied()
                }
                _ => None,
            },
            ReachabilityKind::IpReach => t.subject.as_subnet().and_then(|s| table.by_subnet(s)),
        },
    }
}

/// The shard one event is routed to. Deterministic in the event and the
/// (deterministically interned) table, so every dispatcher in a cluster
/// agrees without coordination.
pub fn route_event(table: &LinkTable, event: &StreamEvent, shards: u32) -> u32 {
    match link_of_event(table, event) {
        Some(link) => shard_of_link(table, link, shards),
        None => shard_of_key(UNROUTED_KEY, shards),
    }
}

/// Split an event stream into per-shard substreams, preserving order
/// within each (a subsequence of an in-order stream is in order, so no
/// shard ever sees a late event the single process would not have).
pub fn partition_events(
    table: &LinkTable,
    events: &[StreamEvent],
    shards: u32,
) -> Vec<Vec<StreamEvent>> {
    let n = shards.max(1);
    let mut routed: Vec<Vec<StreamEvent>> = (0..n).map(|_| Vec::new()).collect();
    for event in events {
        routed[route_event(table, event, n) as usize].push(event.clone());
    }
    routed
}

/// Partition a stream directly into per-shard queues of `chunk`-sized
/// [`ShardMsg::Events`] batches — one clone per event, moved (never
/// re-serialized or re-copied) through the in-process transport.
fn partition_batches(
    table: &LinkTable,
    events: &[StreamEvent],
    shards: u32,
    chunk: usize,
) -> Vec<VecDeque<Vec<StreamEvent>>> {
    let n = shards.max(1);
    let chunk = chunk.max(1);
    let cap = chunk.min(events.len());
    // The per-event loop touches only a flat `Vec` per shard (one bounds
    // check + push); full batches rotate into the queue on the chunk
    // boundary, keeping the partitioner as cheap as the pre-transport
    // flat `partition_events` despite producing ready-to-send batches.
    let mut queues: Vec<VecDeque<Vec<StreamEvent>>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut current: Vec<Vec<StreamEvent>> = (0..n).map(|_| Vec::with_capacity(cap)).collect();
    for event in events {
        let shard = route_event(table, event, n) as usize;
        let batch = &mut current[shard];
        batch.push(event.clone());
        if batch.len() >= chunk {
            let full = std::mem::replace(batch, Vec::with_capacity(cap));
            queues[shard].push_back(full);
        }
    }
    for (shard, batch) in current.into_iter().enumerate() {
        if !batch.is_empty() {
            queues[shard].push_back(batch);
        }
    }
    queues
}

fn add_resolve(into: &mut SyslogResolveStats, from: &SyslogResolveStats) {
    into.isis_resolved += from.isis_resolved;
    into.physical_resolved += from.physical_resolved;
    into.lineproto_skipped += from.lineproto_skipped;
    into.unresolved += from.unresolved;
}

fn add_merge_stats(into: &mut IsisMergeStats, from: &IsisMergeStats) {
    into.raw += from.raw;
    into.unresolvable_multilink += from.unresolvable_multilink;
    into.unknown += from.unknown;
    into.inconsistent += from.inconsistent;
    into.emitted += from.emitted;
}

fn add_sanitize(into: &mut SanitizeReport, from: &SanitizeReport) {
    into.removed_offline += from.removed_offline;
    into.removed_offline_ms += from.removed_offline_ms;
    into.long_checked += from.long_checked;
    into.long_removed += from.long_removed;
    into.long_removed_ms += from.long_removed_ms;
}

/// K-way merge of per-shard vectors that each arrive already ordered by
/// `key` (the collect-stage invariant, asserted in debug builds rather
/// than re-established with a sort). Ties take the lowest worker index —
/// for outputs in worker-index order this is exactly the
/// concatenate-then-stable-sort result the aggregator has always
/// produced, in O(total × shards) without disturbing a single
/// already-ordered element.
fn merge_sorted<T: Clone, K: Ord>(
    shards: &[StreamOutput],
    side: impl Fn(&StreamOutput) -> &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    for out in shards {
        debug_assert!(
            side(out).windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "shard outputs must arrive internally ordered (worker-index order from the transport)"
        );
    }
    let total: usize = shards.iter().map(|o| side(o).len()).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut merged = Vec::with_capacity(total);
    while merged.len() < total {
        let mut best: Option<usize> = None;
        for (s, out) in shards.iter().enumerate() {
            let list = side(out);
            if cursors[s] >= list.len() {
                continue;
            }
            // Strict `<` keeps ties on the lowest worker index.
            let better = match best {
                None => true,
                Some(b) => key(&list[cursors[s]]) < key(&side(&shards[b])[cursors[b]]),
            };
            if better {
                best = Some(s);
            }
        }
        let s = best.expect("cursor accounting");
        merged.push(side(&shards[s])[cursors[s]].clone());
        cursors[s] += 1;
    }
    merged
}

/// Build the per-shard → global failure-index remap for one side of the
/// matching: a k-way merge on the `(link, start)` collect key (each
/// shard's list arrives ordered; ties cannot span shards because a link
/// never does). Returns the globally ordered failures plus, per shard,
/// the global position of each shard-local index.
fn order_failures(
    shards: &[StreamOutput],
    side: fn(&StreamOutput) -> &[Failure],
) -> (Vec<Failure>, Vec<Vec<usize>>) {
    for out in shards {
        debug_assert!(
            side(out)
                .windows(2)
                .all(|w| (w[0].link, w[0].start) <= (w[1].link, w[1].start)),
            "shard failure lists must arrive internally ordered"
        );
    }
    let total: usize = shards.iter().map(|o| side(o).len()).sum();
    let mut cursors = vec![0usize; shards.len()];
    let mut remap: Vec<Vec<usize>> = shards.iter().map(|o| vec![0; side(o).len()]).collect();
    let mut ordered = Vec::with_capacity(total);
    while ordered.len() < total {
        let mut best: Option<usize> = None;
        for (s, out) in shards.iter().enumerate() {
            let list = side(out);
            if cursors[s] >= list.len() {
                continue;
            }
            let f = &list[cursors[s]];
            let better = match best {
                None => true,
                Some(b) => {
                    let g = &side(&shards[b])[cursors[b]];
                    (f.link, f.start) < (g.link, g.start)
                }
            };
            if better {
                best = Some(s);
            }
        }
        let s = best.expect("cursor accounting");
        let i = cursors[s];
        remap[s][i] = ordered.len();
        ordered.push(side(&shards[s])[i]);
        cursors[s] += 1;
    }
    (ordered, remap)
}

/// Deterministically merge shard [`StreamOutput`]s — **in worker-index
/// order, as the transport collects them** — into the single global
/// output. For shard outputs produced by [`partition_events`] substreams
/// of one in-order stream, the result serializes byte-identical to the
/// single-process [`crate::analysis::Analysis::run`] answer — the
/// differential contract `tests/cluster_equivalence.rs` pins. Each
/// shard's vectors already carry the collect-stage order (a debug
/// assertion, not a re-sort); the merge is k-way with ties to the lowest
/// worker index. See the module docs for why each field merges the way
/// it does.
pub fn merge_outputs(shards: Vec<StreamOutput>) -> StreamOutput {
    let mut resolve_stats = SyslogResolveStats::default();
    let mut is_stats = IsisMergeStats::default();
    let mut ip_stats = IsisMergeStats::default();
    let mut isis_recon = Reconstruction::default();
    let mut syslog_recon = Reconstruction::default();
    let mut isis_sanitize = SanitizeReport::default();
    let mut syslog_sanitize = SanitizeReport::default();
    let mut syslog_ingested = 0u64;
    for out in &shards {
        add_resolve(&mut resolve_stats, &out.resolve_stats);
        add_merge_stats(&mut is_stats, &out.is_stats);
        add_merge_stats(&mut ip_stats, &out.ip_stats);
        add_sanitize(&mut isis_sanitize, &out.isis_sanitize);
        add_sanitize(&mut syslog_sanitize, &out.syslog_sanitize);
        isis_recon.unterminated += out.isis_recon.unterminated;
        isis_recon.boundary_ups += out.isis_recon.boundary_ups;
        syslog_recon.unterminated += out.syslog_recon.unterminated;
        syslog_recon.boundary_ups += out.syslog_recon.boundary_ups;
        syslog_ingested += out.counters.syslog_ingested;
    }
    // Event-level vectors: k-way merges on the collect-stage keys. Every
    // `(time, link)` tie group lives on a single shard (the link's
    // shard), so lowest-worker-index tie-breaking reproduces the
    // single-process order.
    let messages = merge_sorted(&shards, |o| &o.messages, |m| (m.at, m.link));
    let is_transitions = merge_sorted(&shards, |o| &o.is_transitions, |t| (t.at, t.link));
    let ip_transitions = merge_sorted(&shards, |o| &o.ip_transitions, |t| (t.at, t.link));
    let syslog_transitions = merge_sorted(&shards, |o| &o.syslog_transitions, |t| (t.at, t.link));
    isis_recon.failures = merge_sorted(&shards, |o| &o.isis_recon.failures, |f| (f.link, f.start));
    isis_recon.ambiguous =
        merge_sorted(&shards, |o| &o.isis_recon.ambiguous, |a| (a.link, a.first));
    syslog_recon.failures =
        merge_sorted(&shards, |o| &o.syslog_recon.failures, |f| (f.link, f.start));
    syslog_recon.ambiguous = merge_sorted(
        &shards,
        |o| &o.syslog_recon.ambiguous,
        |a| (a.link, a.first),
    );

    // Failure lists + match pairs: order globally, then re-base every
    // shard-local index pair to its global position.
    let (syslog_failures, left_remap) = order_failures(&shards, |o| &o.syslog_failures);
    let (isis_failures, right_remap) = order_failures(&shards, |o| &o.isis_failures);
    let mut matched: Vec<(usize, usize)> = Vec::new();
    let mut partial: Vec<(usize, usize)> = Vec::new();
    for (s, out) in shards.iter().enumerate() {
        for &(i, j) in &out.matching.matched {
            matched.push((left_remap[s][i], right_remap[s][j]));
        }
        for &(i, j) in &out.matching.partial {
            partial.push((left_remap[s][i], right_remap[s][j]));
        }
    }
    matched.sort_by_key(|&(i, _)| i);
    partial.sort_by_key(|&(i, _)| i);
    let mut left_used = vec![false; syslog_failures.len()];
    let mut right_used = vec![false; isis_failures.len()];
    for &(i, j) in matched.iter().chain(partial.iter()) {
        left_used[i] = true;
        right_used[j] = true;
    }
    let matching = FailureMatching {
        matched,
        partial,
        left_only: (0..left_used.len()).filter(|&i| !left_used[i]).collect(),
        right_only: (0..right_used.len()).filter(|&j| !right_used[j]).collect(),
    };

    // Headline counters: recomputed from the merged structures with the
    // exact formulas `Kernel::collect` uses.
    let reconstructed = (isis_recon.failures.len() + syslog_recon.failures.len()) as u64;
    let survived = (isis_failures.len() + syslog_failures.len()) as u64;
    let counters = PipelineCounters {
        syslog_ingested,
        isis_ingested: is_stats.raw + ip_stats.raw,
        transitions_derived: (is_transitions.len()
            + ip_transitions.len()
            + syslog_transitions.len()) as u64,
        failures_reconstructed: reconstructed,
        failures_after_sanitize: survived,
        sanitize_dropped: reconstructed - survived,
        failures_matched: matching.matched.len() as u64,
        ambiguous_periods: (isis_recon.ambiguous.len() + syslog_recon.ambiguous.len()) as u64,
    };

    StreamOutput {
        messages,
        resolve_stats,
        is_transitions,
        is_stats,
        ip_transitions,
        ip_stats,
        syslog_transitions,
        isis_recon,
        syslog_recon,
        isis_failures,
        syslog_failures,
        isis_sanitize,
        syslog_sanitize,
        matching,
        counters,
    }
}

/// Where a cluster's workers run.
#[derive(Debug, Clone)]
pub enum Workers {
    /// Scoped threads in this process behind bounded channels
    /// ([`InProcessTransport`]); messages move by value.
    InProcess,
    /// `faultline-shard-worker` child processes speaking hashed frames
    /// over stdio ([`SubprocessTransport`]).
    Subprocess(SubprocessOptions),
}

/// How to run cluster workers as `faultline-shard-worker` subprocesses.
#[derive(Debug, Clone)]
pub struct SubprocessOptions {
    /// The worker binary (see [`crate::transport::locate_worker_bin`]).
    pub worker_bin: PathBuf,
    /// How each worker materializes its own copy of the scenario —
    /// must describe the same data the dispatcher routes with
    /// ([`ScenarioSpec::Params`] or [`ScenarioSpec::Inline`]).
    pub scenario: ScenarioSpec,
}

/// What a cluster run does between starting its workers and merging
/// their outputs.
#[derive(Debug, Clone)]
pub enum ClusterMode {
    /// Feed, flush, merge. Any worker loss is an error — a non-durable
    /// worker has no state to recover.
    Plain,
    /// Every worker owns a [`crate::recovery::DurableStream`] journaling
    /// and checkpointing under `root/shard-{i}/` ([`shard_dir`]; `root`
    /// must not hold prior durable state). A worker that dies mid-run is
    /// respawned, recovered through the ordinary
    /// [`crate::recovery::DurableStream::recover`] ladder and re-fed only
    /// the unconsumed tail of its substream; healthy workers are never
    /// restarted or re-fed.
    Durable {
        /// The cluster's durability root.
        root: PathBuf,
        /// Journal and checkpoint policy, identical on every shard.
        policy: DurabilityPolicy,
        /// Deterministic in-worker aborts: each named worker dies after
        /// consuming exactly `after_events` of its substream — no flush,
        /// no farewell message.
        kills: Vec<ShardKill>,
        /// Dispatcher-side kills: the dispatcher kills the named worker
        /// at the first send boundary at or past `after_events` — a real
        /// `SIGKILL` for subprocess workers, a hung-up command channel
        /// for in-process ones.
        hard_kills: Vec<ShardKill>,
    },
    /// Grow the running cluster from `shards` to `shards + 1` workers at
    /// event boundary `split_at` (clamped to the stream length): dispatch
    /// pauses, exactly the lanes jump-hash reassigns migrate to the new
    /// worker as serialized snapshots, and the rest of the stream is
    /// dispatched at (N+1)-shard routing.
    Reshard {
        /// The event-stream position the reshard happens at.
        split_at: usize,
    },
}

/// How a sharded cluster run is shaped.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker shards (clamped to at least 1).
    pub shards: u32,
    /// The per-shard analysis configuration — identical on every shard,
    /// exactly as the single process would run it.
    pub analysis: AnalysisConfig,
    /// Micro-batch size of each [`ShardMsg::Events`] frame the
    /// dispatcher sends.
    pub chunk: usize,
    /// Where the workers run.
    pub workers: Workers,
    /// What the run does beyond feed, flush and merge.
    pub mode: ClusterMode,
}

impl ClusterConfig {
    /// A plain in-process cluster of `shards` workers with the default
    /// analysis configuration and micro-batch size.
    pub fn new(shards: u32) -> Self {
        ClusterConfig {
            shards,
            analysis: AnalysisConfig::default(),
            chunk: 2048,
            workers: Workers::InProcess,
            mode: ClusterMode::Plain,
        }
    }
}

/// What a cluster run produces: the merged (single-process-identical)
/// output, the cluster-level report, each shard's own report, and the
/// mode's ledger.
pub struct ClusterResult {
    /// The merged derived surface — byte-identical to the single-process
    /// answer on the same stream.
    pub output: StreamOutput,
    /// Cluster-level accounting: dispatch/shard/merge stages, merged
    /// headline counters, [`ShardCounters`] in
    /// [`PipelineReport::cluster`], and the transport's frame/byte
    /// ledger in [`PipelineReport::transport`].
    pub report: PipelineReport,
    /// Every shard's own [`PipelineReport`], in worker-index order.
    pub shard_reports: Vec<PipelineReport>,
    /// Every recovery the supervisor performed, in shard order; empty
    /// unless a durable worker died.
    pub recoveries: Vec<ShardRecovery>,
    /// Per-shard `DurabilityCounters::restores` — the
    /// healthy-shards-never-restart contract is `restores == 0` for every
    /// shard not named in a [`ShardKill`]. Empty unless durable.
    pub shard_restores: Vec<u64>,
    /// What a live reshard moved, and what it cost; `None` unless
    /// resharding.
    pub reshard: Option<ReshardReport>,
}

/// Merge the shard outputs and build the cluster accounting around
/// them. `dispatch` and `shard_ingest` are the walls of the stages
/// before the merge; the run's total wall is read from `started`.
fn assemble_result(
    driven: Driven,
    links_per_shard: Vec<u64>,
    dispatch: Duration,
    shard_ingest: Duration,
    started: Instant,
    transport: TransportCounters,
) -> ClusterResult {
    let Driven {
        outputs,
        reports: shard_reports,
        events_per_shard,
        recoveries,
        reshard,
    } = driven;
    let t_merge = Instant::now();
    let output = merge_outputs(outputs);
    let merge = t_merge.elapsed();
    let total = started.elapsed();
    let shards = events_per_shard.len() as u32;
    let total_events: u64 = events_per_shard.iter().sum();
    let max_shard_events = events_per_shard.iter().copied().max().unwrap_or(0);
    let min_shard_events = events_per_shard.iter().copied().min().unwrap_or(0);
    let mean = total_events as f64 / shards.max(1) as f64;
    let skew = if mean > 0.0 {
        max_shard_events as f64 / mean
    } else {
        0.0
    };
    let recovery_events = recoveries.len() as u64;
    let (durability, shard_restores) = fold_durability(&shard_reports);

    let mut streaming = StreamingCounters::default();
    let mut robustness = observe::RobustnessCounters::default();
    for (i, r) in shard_reports.iter().enumerate() {
        if let Some(s) = &r.streaming {
            streaming.events_ingested += s.events_ingested;
            streaming.syslog_events += s.syslog_events;
            streaming.isis_events += s.isis_events;
            streaming.batches += s.batches;
            streaming.late_events += s.late_events;
            streaming.segments_closed += s.segments_closed;
            streaming.open_state_high_water =
                streaming.open_state_high_water.max(s.open_state_high_water);
            streaming.arena_events_high_water = streaming
                .arena_events_high_water
                .max(s.arena_events_high_water);
            streaming.watermark_lag_max_millis = streaming
                .watermark_lag_max_millis
                .max(s.watermark_lag_max_millis);
            streaming.finalized_at_flush += s.finalized_at_flush;
            streaming.flap_episodes += s.flap_episodes;
        }
        if i == 0 {
            // The parse-side baseline (raw/malformed/irrelevant lines)
            // describes the scenario, not the shard — every shard
            // reports the same numbers, so take them once.
            robustness = r.robustness;
            robustness.quarantined_syslog = 0;
            robustness.quarantined_isis = 0;
        }
        robustness.quarantined_syslog += r.robustness.quarantined_syslog;
        robustness.quarantined_isis += r.robustness.quarantined_isis;
    }
    let total_secs = total.as_secs_f64();
    streaming.events_per_sec = if total_secs > 0.0 {
        streaming.events_ingested as f64 / total_secs
    } else {
        0.0
    };

    let mut report = PipelineReport::default();
    report.record_stage("dispatch", total_events, total_events, dispatch);
    report.record_stage(
        "shard_ingest",
        total_events,
        output.counters.transitions_derived,
        shard_ingest,
    );
    report.record_stage(
        "merge",
        output.counters.failures_after_sanitize,
        output.counters.failures_matched,
        merge,
    );
    report.counters = output.counters;
    report.streaming = Some(streaming);
    report.durability = durability;
    report.robustness = robustness;
    report.cluster = Some(ShardCounters {
        shards,
        events_per_shard,
        links_per_shard,
        max_shard_events,
        min_shard_events,
        skew,
        recovery_events,
        merge_micros: merge.as_micros() as u64,
    });
    report.transport = Some(transport);
    report.total_micros = total.as_micros() as u64;
    observe::narrate(|| {
        format!(
            "cluster done: {shards} shards, {total_events} events, skew {skew:.2}, {recovery_events} recoveries"
        )
    });
    ClusterResult {
        output,
        report,
        shard_reports,
        recoveries,
        shard_restores,
        reshard,
    }
}

/// Links assigned to each shard by the partitioner.
fn links_per_shard(table: &LinkTable, shards: u32) -> Vec<u64> {
    let mut counts = vec![0u64; shards.max(1) as usize];
    for ix in table.iter() {
        counts[shard_of_link(table, ix, shards) as usize] += 1;
    }
    counts
}

/// The durability directory of one shard under the cluster root:
/// `root/shard-{i}/` — each shard journals and checkpoints entirely
/// within its own directory, which is what lets the supervisor recover
/// it without touching any other shard's state.
pub fn shard_dir(root: &Path, shard: u32) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// One supervisor recovery: which shard died and what
/// [`crate::recovery::DurableStream::recover`] found in its `shard-{i}/` directory.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// The shard that was recovered.
    pub shard: u32,
    /// The recovery ladder's findings for that shard.
    pub report: RecoveryReport,
}

/// The migration ledger of one live reshard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReshardReport {
    /// Shard count before the grow.
    pub from_shards: u32,
    /// Shard count after the grow (`from_shards + 1`).
    pub to_shards: u32,
    /// The event-stream position the reshard happened at.
    pub split_at: usize,
    /// Exactly the links jump-hash reassigned — every one maps to the
    /// new shard, pinned by `tests/cluster_reshard.rs` against an
    /// independent recomputation.
    pub moved_links: Vec<LinkIx>,
    /// Live lanes actually shipped (moved links whose lane had opened;
    /// the rest are state-free and start fresh on the new worker).
    pub lanes_moved: u64,
    /// Wall-clock cost of the pause: grow + export + ship + import.
    pub migration_micros: u64,
}

/// Aggregate per-shard durability counters into the cluster-wide figure
/// (sums, except high-water marks and rates which take the worst shard)
/// and collect the per-shard restore counts. `None` and no restores
/// when no shard is durable.
fn fold_durability(reports: &[PipelineReport]) -> (Option<DurabilityCounters>, Vec<u64>) {
    let mut durability: Option<DurabilityCounters> = None;
    let mut shard_restores = Vec::new();
    for d in reports.iter().filter_map(|r| r.durability) {
        shard_restores.push(d.restores);
        let sum = durability.get_or_insert_with(DurabilityCounters::default);
        sum.checkpoints_written += d.checkpoints_written;
        sum.checkpoint_bytes_last = sum.checkpoint_bytes_last.max(d.checkpoint_bytes_last);
        sum.checkpoint_write_micros_max = sum
            .checkpoint_write_micros_max
            .max(d.checkpoint_write_micros_max);
        sum.checkpoint_retries += d.checkpoint_retries;
        sum.journal_records += d.journal_records;
        sum.journal_segments += d.journal_segments;
        sum.journal_bytes += d.journal_bytes;
        sum.journal_fsyncs += d.journal_fsyncs;
        sum.restores += d.restores;
        sum.events_replayed += d.events_replayed;
        sum.journal_truncated_records += d.journal_truncated_records;
        sum.deltas_written += d.deltas_written;
        sum.delta_bytes_total += d.delta_bytes_total;
        sum.full_bytes_total += d.full_bytes_total;
        sum.chain_length_at_recovery = sum.chain_length_at_recovery.max(d.chain_length_at_recovery);
        sum.snapshot_thread_stalls += d.snapshot_thread_stalls;
        sum.snapshot_sync_fallbacks += d.snapshot_sync_fallbacks;
        sum.ingest_stall_micros += d.ingest_stall_micros;
        // A rate, so the cluster-wide figure is the worst shard, not a sum.
        sum.snapshot_stall_rate_per_sec = sum
            .snapshot_stall_rate_per_sec
            .max(d.snapshot_stall_rate_per_sec);
    }
    (durability, shard_restores)
}

// ---------------------------------------------------------------------------
// Transport-generic drivers
// ---------------------------------------------------------------------------

/// Receive a worker's next message and require it to be [`ShardMsg::Ready`].
fn expect_ready<T: ShardTransport + ?Sized>(
    transport: &mut T,
    worker: usize,
) -> Result<ReadyMsg, TransportError> {
    match transport.recv(worker)? {
        ShardMsg::Ready(ready) => Ok(ready),
        ShardMsg::Fatal { detail } => Err(TransportError::WorkerReported { worker, detail }),
        other => Err(TransportError::Protocol {
            worker,
            detail: format!("expected ready, got {}", other.kind()),
        }),
    }
}

/// Receive a worker's next message and require it to be [`ShardMsg::Flushed`].
fn expect_flushed<T: ShardTransport + ?Sized>(
    transport: &mut T,
    worker: usize,
) -> Result<(StreamOutput, PipelineReport), TransportError> {
    match transport.recv(worker)? {
        ShardMsg::Flushed(out) => Ok((out.output, out.report)),
        ShardMsg::Fatal { detail } => Err(TransportError::WorkerReported { worker, detail }),
        other => Err(TransportError::Protocol {
            worker,
            detail: format!("expected flushed, got {}", other.kind()),
        }),
    }
}

/// Round-robin the queued [`ShardMsg::Events`] batches out to the
/// workers; bounded transport channels provide the backpressure.
fn feed_round_robin<T: ShardTransport + ?Sized>(
    transport: &mut T,
    batches: &mut [VecDeque<Vec<StreamEvent>>],
) -> Result<(), TransportError> {
    loop {
        let mut any = false;
        for (worker, queue) in batches.iter_mut().enumerate() {
            if let Some(batch) = queue.pop_front() {
                any = true;
                transport.send(worker, ShardMsg::Events(batch))?;
            }
        }
        if !any {
            return Ok(());
        }
    }
}

/// The plain (non-durable) dispatcher: Ready barrier, then a single
/// fused pass that routes each event and sends every batch the moment
/// it fills — the batch the worker ingests is the one the dispatcher
/// just wrote, still cache-warm, and on multi-core hosts routing
/// overlaps worker ingest instead of running as a separate
/// materialize-everything pass. Flush and collect in worker-index
/// order. Any worker loss is an error — a non-durable worker has no
/// state to recover.
fn drive_stream_feed<T: ShardTransport + ?Sized>(
    transport: &mut T,
    table: &LinkTable,
    events: &[StreamEvent],
    chunk: usize,
) -> Result<Driven, TransportError> {
    let workers = transport.workers();
    let n = workers as u32;
    let chunk = chunk.max(1);
    let cap = chunk.min(events.len());
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }
    // Hash every *link* to its shard once up front — the per-event loop
    // then routes with one table probe plus an array index instead of
    // re-running FNV + jump-hash 170k+ times for a 300-link keyspace.
    let assign: Vec<u32> = table.iter().map(|ix| shard_of_link(table, ix, n)).collect();
    let unrouted = shard_of_key(UNROUTED_KEY, n);
    let mut current: Vec<Vec<StreamEvent>> =
        (0..workers).map(|_| Vec::with_capacity(cap)).collect();
    let mut counts = vec![0u64; workers];
    for event in events {
        let shard = match link_of_event(table, event) {
            Some(link) => assign[link.0 as usize],
            None => unrouted,
        } as usize;
        debug_assert_eq!(shard as u32, route_event(table, event, n));
        counts[shard] += 1;
        let batch = &mut current[shard];
        batch.push(event.clone());
        if batch.len() >= chunk {
            let full = std::mem::replace(batch, Vec::with_capacity(cap));
            transport.send(shard, ShardMsg::Events(full))?;
        }
    }
    for (shard, batch) in current.into_iter().enumerate() {
        if !batch.is_empty() {
            transport.send(shard, ShardMsg::Events(batch))?;
        }
    }
    for worker in 0..workers {
        transport.send(worker, ShardMsg::Flush)?;
    }
    let mut outputs = Vec::with_capacity(workers);
    let mut reports = Vec::with_capacity(workers);
    for worker in 0..workers {
        let (output, report) = expect_flushed(transport, worker)?;
        outputs.push(output);
        reports.push(report);
    }
    Ok(Driven {
        outputs,
        reports,
        events_per_shard: counts,
        recoveries: Vec::new(),
        reshard: None,
    })
}

/// The durable dispatcher: like [`drive_stream_feed`], but worker losses
/// during feed/flush/collect are *expected* (deterministic aborts and
/// real SIGKILLs both surface as a dead transport endpoint). Dead
/// workers are respawned with their recovery spec, resumed from the
/// `resumed_at_seq` their recovery ladder reports, re-fed only the
/// unconsumed tail of their substream, and flushed; a second loss of
/// the same worker propagates. `hard_kills` makes the *dispatcher*
/// kill the named worker at the first send boundary at or past
/// `after_events` — a genuine SIGKILL for subprocess transports.
fn drive_durable<T: ShardTransport + ?Sized>(
    transport: &mut T,
    routed: &[Vec<StreamEvent>],
    chunk: usize,
    hard_kills: &[ShardKill],
    respawn_spec: &dyn Fn(u32) -> WorkerSpec,
) -> Result<Driven, TransportError> {
    let workers = transport.workers();
    debug_assert_eq!(workers, routed.len());
    let chunk = chunk.max(1);
    for worker in 0..workers {
        expect_ready(transport, worker)?;
    }

    let mut dead = vec![false; workers];
    let mut pos = vec![0usize; workers];
    let mut hard: Vec<Option<u64>> = (0..workers)
        .map(|w| {
            hard_kills
                .iter()
                .find(|k| k.shard == w as u32)
                .map(|k| k.after_events)
        })
        .collect();
    loop {
        let mut any = false;
        for w in 0..workers {
            if dead[w] {
                continue;
            }
            if let Some(at) = hard[w] {
                if pos[w] as u64 >= at {
                    transport.kill(w)?;
                    observe::narrate(|| {
                        format!("cluster: shard {w} hard-killed after {at} events")
                    });
                    dead[w] = true;
                    hard[w] = None;
                    continue;
                }
            }
            if pos[w] >= routed[w].len() {
                continue;
            }
            any = true;
            let mut end = (pos[w] + chunk).min(routed[w].len());
            if let Some(at) = hard[w] {
                // Land the kill exactly on its event boundary.
                end = end.min(at as usize);
            }
            match transport.send(w, ShardMsg::Events(routed[w][pos[w]..end].to_vec())) {
                Ok(()) => pos[w] = end,
                Err(e) if e.is_worker_loss() => dead[w] = true,
                Err(e) => return Err(e),
            }
        }
        if !any {
            break;
        }
    }

    let mut outputs: Vec<Option<StreamOutput>> = (0..workers).map(|_| None).collect();
    let mut reports: Vec<Option<PipelineReport>> = (0..workers).map(|_| None).collect();
    for (w, is_dead) in dead.iter_mut().enumerate() {
        if *is_dead {
            continue;
        }
        match transport.send(w, ShardMsg::Flush) {
            Ok(()) => {}
            Err(e) if e.is_worker_loss() => *is_dead = true,
            Err(e) => return Err(e),
        }
    }
    for w in 0..workers {
        if dead[w] {
            continue;
        }
        match expect_flushed(transport, w) {
            Ok((output, report)) => {
                outputs[w] = Some(output);
                reports[w] = Some(report);
            }
            Err(e) if e.is_worker_loss() => dead[w] = true,
            Err(e) => return Err(e),
        }
    }

    // Supervisor pass: every dead worker is respawned against its own
    // shard-{i}/ directory and recovered through the ordinary ladder;
    // healthy workers are never touched.
    let mut recoveries = Vec::new();
    for w in 0..workers {
        if !dead[w] {
            continue;
        }
        transport.respawn(w, respawn_spec(w as u32))?;
        let ready = expect_ready(transport, w)?;
        let report = ready.recovery.ok_or_else(|| TransportError::Protocol {
            worker: w,
            detail: "respawned worker reported no recovery".to_string(),
        })?;
        observe::narrate(|| {
            format!(
                "cluster: supervisor recovered shard {w} at seq {}",
                report.resumed_at_seq
            )
        });
        let mut p = (report.resumed_at_seq as usize).min(routed[w].len());
        while p < routed[w].len() {
            let end = (p + chunk).min(routed[w].len());
            transport.send(w, ShardMsg::Events(routed[w][p..end].to_vec()))?;
            p = end;
        }
        transport.send(w, ShardMsg::Flush)?;
        let (output, shard_report) = expect_flushed(transport, w)?;
        outputs[w] = Some(output);
        reports[w] = Some(shard_report);
        recoveries.push(ShardRecovery {
            shard: w as u32,
            report,
        });
    }

    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every dead shard recovered above"))
        .collect();
    let reports = reports
        .into_iter()
        .map(|r| r.expect("every dead shard recovered above"))
        .collect();
    Ok(Driven {
        outputs,
        reports,
        events_per_shard: routed.iter().map(|r| r.len() as u64).collect(),
        recoveries,
        reshard: None,
    })
}

/// The live-reshard dispatcher: feed the pre-split stream at N-shard
/// routing, pause at the boundary, [`ShardTransport::grow`] worker N,
/// detach exactly the lanes jump-hash reassigns from their old workers
/// and attach them to the new one, then resume at (N+1)-shard routing.
/// `split` is the stream position `pre` ends at, recorded in the
/// migration ledger.
fn drive_reshard<T: ShardTransport + ?Sized>(
    transport: &mut T,
    table: &LinkTable,
    split: usize,
    mut pre: Vec<VecDeque<Vec<StreamEvent>>>,
    mut post: Vec<VecDeque<Vec<StreamEvent>>>,
    grow_spec: WorkerSpec,
) -> Result<Driven, TransportError> {
    let old_workers = transport.workers();
    debug_assert_eq!(old_workers, pre.len());
    debug_assert_eq!(old_workers + 1, post.len());
    let events_per_shard = reshard_event_counts(&pre, &post);
    for worker in 0..old_workers {
        expect_ready(transport, worker)?;
    }
    feed_round_robin(transport, &mut pre)?;

    // --- the pause: grow, migrate exactly the reassigned lanes ---
    let t_migrate = Instant::now();
    let new_worker = transport.grow(grow_spec)?;
    expect_ready(transport, new_worker)?;
    let before_shards = old_workers as u32;
    let after_shards = before_shards + 1;
    let mut moved_links: Vec<LinkIx> = Vec::new();
    let mut moving: Vec<Vec<LinkIx>> = (0..old_workers).map(|_| Vec::new()).collect();
    for ix in table.iter() {
        let before = shard_of_link(table, ix, before_shards);
        let after = shard_of_link(table, ix, after_shards);
        if before != after {
            debug_assert_eq!(
                after as usize, new_worker,
                "jump hash moves keys only to the new shard"
            );
            moving[before as usize].push(ix);
            moved_links.push(ix);
        }
    }
    // ExportLanes rides the same FIFO command stream as the Events
    // before it, and its LaneMigrate reply is the synchronization point:
    // once it arrives, that worker has consumed every pre-split event.
    let mut migration = LaneMigration::default();
    for (w, links) in moving.iter().enumerate() {
        if links.is_empty() {
            continue;
        }
        transport.send(w, ShardMsg::ExportLanes(links.clone()))?;
        match transport.recv(w)? {
            ShardMsg::LaneMigrate(part) => migration.merge(part),
            ShardMsg::Fatal { detail } => {
                return Err(TransportError::WorkerReported { worker: w, detail })
            }
            other => {
                return Err(TransportError::Protocol {
                    worker: w,
                    detail: format!("expected lane_migrate, got {}", other.kind()),
                })
            }
        }
    }
    // Links whose lane never opened (zero events so far) are absent from
    // the migration — a fresh lane on the new worker is state-free and
    // byte-equivalent.
    let lanes_moved = migration.lane_count() as u64;
    transport.send(new_worker, ShardMsg::LaneMigrate(migration))?;
    let ack = expect_ready(transport, new_worker)?;
    if ack.lanes_imported != lanes_moved {
        return Err(TransportError::Protocol {
            worker: new_worker,
            detail: format!(
                "migrated {lanes_moved} lanes but the new worker imported {}",
                ack.lanes_imported
            ),
        });
    }
    let migration_micros = t_migrate.elapsed().as_micros() as u64;
    transport.counters_mut().lanes_migrated += lanes_moved;
    transport.counters_mut().migration_micros += migration_micros;
    observe::narrate(|| {
        format!(
            "cluster: resharded {before_shards} -> {after_shards}, {} links / {lanes_moved} live lanes moved in {migration_micros} us",
            moved_links.len()
        )
    });

    // --- resume dispatch at N+1 routing ---
    feed_round_robin(transport, &mut post)?;
    let workers = transport.workers();
    for worker in 0..workers {
        transport.send(worker, ShardMsg::Flush)?;
    }
    let mut outputs = Vec::with_capacity(workers);
    let mut reports = Vec::with_capacity(workers);
    for worker in 0..workers {
        let (output, report) = expect_flushed(transport, worker)?;
        outputs.push(output);
        reports.push(report);
    }
    Ok(Driven {
        outputs,
        reports,
        events_per_shard,
        recoveries: Vec::new(),
        reshard: Some(ReshardReport {
            from_shards: before_shards,
            to_shards: after_shards,
            split_at: split,
            moved_links,
            lanes_moved,
            migration_micros,
        }),
    })
}

/// Per-worker event totals for a reshard run: pre-split counts at N
/// routing plus post-split counts at N+1 routing.
fn reshard_event_counts(
    pre: &[VecDeque<Vec<StreamEvent>>],
    post: &[VecDeque<Vec<StreamEvent>>],
) -> Vec<u64> {
    let mut counts = vec![0u64; post.len()];
    for queues in [pre, post] {
        for (w, queue) in queues.iter().enumerate() {
            counts[w] += queue.iter().map(|b| b.len() as u64).sum::<u64>();
        }
    }
    counts
}

// ---------------------------------------------------------------------------
// The one entry point
// ---------------------------------------------------------------------------

/// The dispatch plan a mode computes before any worker starts.
enum Feed<'a> {
    /// Route and send in one fused pass ([`drive_stream_feed`]).
    Stream,
    /// Whole per-shard substreams, kept so a recovered worker can be
    /// re-fed its unconsumed tail, and the dispatcher-side kills
    /// ([`drive_durable`]).
    Durable {
        routed: Vec<Vec<StreamEvent>>,
        hard_kills: &'a [ShardKill],
    },
    /// The batches before `split` at N-shard routing and after it at
    /// (N+1)-shard routing ([`drive_reshard`]).
    Reshard {
        split: usize,
        pre: Vec<VecDeque<Vec<StreamEvent>>>,
        post: Vec<VecDeque<Vec<StreamEvent>>>,
    },
}

/// What the transport-generic dispatch loops hand back.
struct Driven {
    /// Flushed shard outputs, in worker-index order.
    outputs: Vec<StreamOutput>,
    /// Shard reports, in worker-index order.
    reports: Vec<PipelineReport>,
    /// Events each worker was sent.
    events_per_shard: Vec<u64>,
    /// Supervisor recoveries (durable mode only).
    recoveries: Vec<ShardRecovery>,
    /// The migration ledger (reshard mode only).
    reshard: Option<ReshardReport>,
}

/// The spec worker `shard` of a `shards`-worker cluster starts from:
/// fresh, or — in durable mode — journaling under its own
/// [`shard_dir`], recovering from it when `recover` is set. A fresh
/// durable worker named in a [`ShardKill`] carries its abort point.
fn worker_spec(
    cfg: &ClusterConfig,
    scenario: &ScenarioSpec,
    shard: u32,
    shards: u32,
    recover: bool,
) -> WorkerSpec {
    let mut spec = WorkerSpec::new(shard, shards, cfg.analysis.clone(), scenario.clone());
    if let ClusterMode::Durable {
        root,
        policy,
        kills,
        ..
    } = &cfg.mode
    {
        spec.durable = Some(DurableSpec {
            dir: shard_dir(root, shard).display().to_string(),
            policy: *policy,
            recover,
        });
        if !recover {
            spec.abort_after_events = kills
                .iter()
                .find(|k| k.shard == shard)
                .map(|k| k.after_events);
        }
    }
    spec
}

/// Drive a started transport through the mode's dispatcher.
fn drive<T: ShardTransport + ?Sized>(
    transport: &mut T,
    table: &LinkTable,
    events: &[StreamEvent],
    feed: Feed<'_>,
    cfg: &ClusterConfig,
    scenario: &ScenarioSpec,
) -> Result<Driven, TransportError> {
    let shards = transport.workers() as u32;
    match feed {
        Feed::Stream => drive_stream_feed(transport, table, events, cfg.chunk),
        Feed::Durable { routed, hard_kills } => {
            drive_durable(transport, &routed, cfg.chunk, hard_kills, &|shard| {
                worker_spec(cfg, scenario, shard, shards, true)
            })
        }
        Feed::Reshard { split, pre, post } => {
            let grow = worker_spec(cfg, scenario, shards, shards + 1, false);
            drive_reshard(transport, table, split, pre, post, grow)
        }
    }
}

/// Run a sharded cluster — the one entry point for every mode and
/// transport. Validates the inputs once, partitions `events` by link
/// across `cfg.shards` workers (each an independent
/// [`crate::streaming::StreamAnalysis`], or a
/// [`crate::recovery::DurableStream`] in [`ClusterMode::Durable`])
/// started on the transport `cfg.workers` names, drives them through
/// `cfg.mode`, and merges the shard outputs into the single-process
/// answer.
///
/// Every failure is a [`TransportError`]: invalid inputs are
/// [`TransportError::Analysis`] before any worker starts, a worker
/// binary that cannot launch is [`TransportError::Spawn`], and a worker
/// lost outside durable mode (or lost twice within it) names that
/// worker.
///
/// # Examples
///
/// ```
/// use faultline_core::cluster::{run_cluster, ClusterConfig};
/// use faultline_core::{scenario_event_stream, Analysis, AnalysisConfig};
/// use faultline_sim::scenario::{run, ScenarioParams};
///
/// let data = run(&ScenarioParams::tiny(42));
/// let events = scenario_event_stream(&data);
/// let clustered = run_cluster(&data, &events, &ClusterConfig::new(4)).unwrap();
/// let batch = Analysis::run(&data, AnalysisConfig::default());
/// assert_eq!(
///     serde_json::to_string(&clustered.output).unwrap(),
///     serde_json::to_string(&batch.output).unwrap(),
/// );
/// ```
pub fn run_cluster(
    data: &ScenarioData,
    events: &[StreamEvent],
    cfg: &ClusterConfig,
) -> Result<ClusterResult, TransportError> {
    let started = Instant::now();
    // Validate configuration and input ordering once, before any worker
    // starts; workers then construct engines infallibly with the same
    // inputs.
    analysis::validate_inputs(data, &cfg.analysis)?;
    let shards = cfg.shards.max(1);
    let scenario = match &cfg.workers {
        Workers::InProcess => ScenarioSpec::Attached,
        Workers::Subprocess(opts) => opts.scenario.clone(),
    };

    // The dispatch stage covers the routing side inputs: the link table,
    // the per-shard link assignment and the mode's up-front partition. A
    // plain run fuses per-event route+send into the feed inside
    // `drive_stream_feed`, so that work lands in the shard_ingest wall it
    // actually overlaps with.
    let t_dispatch = Instant::now();
    let table = linktable::from_scenario(data);
    let (feed, final_shards) = match &cfg.mode {
        ClusterMode::Plain => (Feed::Stream, shards),
        ClusterMode::Durable { hard_kills, .. } => (
            Feed::Durable {
                routed: partition_events(&table, events, shards),
                hard_kills,
            },
            shards,
        ),
        ClusterMode::Reshard { split_at } => {
            let split = (*split_at).min(events.len());
            let pre = partition_batches(&table, &events[..split], shards, cfg.chunk);
            let post = partition_batches(&table, &events[split..], shards + 1, cfg.chunk);
            (Feed::Reshard { split, pre, post }, shards + 1)
        }
    };
    let per_shard_links = links_per_shard(&table, final_shards);
    let dispatch_wall = t_dispatch.elapsed();

    let t_shards = Instant::now();
    let specs: Vec<WorkerSpec> = (0..shards)
        .map(|shard| worker_spec(cfg, &scenario, shard, shards, false))
        .collect();
    let (driven, counters) = match &cfg.workers {
        // A worker panic re-raises at scope exit.
        Workers::InProcess => std::thread::scope(|scope| {
            let mut transport = InProcessTransport::start(scope, data, specs);
            let driven = drive(&mut transport, &table, events, feed, cfg, &scenario);
            (driven, transport.counters())
        }),
        // The transport reaps its worker processes when it drops at the
        // end of this arm, inside the shard wall.
        Workers::Subprocess(opts) => {
            let mut transport = SubprocessTransport::start(&opts.worker_bin, &specs)?;
            let driven = drive(&mut transport, &table, events, feed, cfg, &scenario);
            (driven, transport.counters())
        }
    };
    let driven = driven?;
    Ok(assemble_result(
        driven,
        per_shard_links,
        dispatch_wall,
        t_shards.elapsed(),
        started,
        counters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_sim::scenario::{run, ScenarioParams};

    #[test]
    fn jump_hash_is_stable_and_in_range() {
        for key in 0..1000u64 {
            for n in 1..10u32 {
                let b = jump_hash(key, n);
                assert!(b < n);
                assert_eq!(b, jump_hash(key, n), "deterministic");
            }
        }
    }

    #[test]
    fn growing_the_cluster_only_moves_keys_to_the_new_shard() {
        for key in 0..2000u64 {
            for n in 1..12u32 {
                let before = jump_hash(key, n);
                let after = jump_hash(key, n + 1);
                assert!(
                    after == before || after == n,
                    "key {key}: {before} -> {after} adding shard {n}"
                );
            }
        }
    }

    #[test]
    fn unrouted_events_get_a_deterministic_shard() {
        let data = run(&ScenarioParams::tiny(5));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 2, 3, 5, 8] {
            for e in events.iter().take(200) {
                assert_eq!(route_event(&table, e, n), route_event(&table, e, n));
                assert!(route_event(&table, e, n) < n);
            }
        }
    }

    #[test]
    fn partition_covers_every_event_exactly_once() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 2, 4, 7] {
            let routed = partition_events(&table, &events, n);
            assert_eq!(routed.len(), n as usize);
            let total: usize = routed.iter().map(Vec::len).sum();
            assert_eq!(total, events.len());
            for shard in &routed {
                assert!(shard.windows(2).all(|w| w[0].at() <= w[1].at()));
            }
        }
    }

    #[test]
    fn batched_partition_agrees_with_the_flat_partition() {
        let data = run(&ScenarioParams::tiny(11));
        let table = linktable::from_scenario(&data);
        let events = crate::streaming::scenario_event_stream(&data);
        for n in [1u32, 3, 7] {
            for chunk in [1usize, 5, 4096, usize::MAX] {
                let flat = partition_events(&table, &events, n);
                let batched = partition_batches(&table, &events, n, chunk);
                assert_eq!(flat.len(), batched.len());
                for (f, q) in flat.iter().zip(&batched) {
                    let rejoined: Vec<StreamEvent> =
                        q.iter().flat_map(|b| b.iter().cloned()).collect();
                    assert_eq!(
                        serde_json::to_string(f).unwrap(),
                        serde_json::to_string(&rejoined).unwrap(),
                        "{n} shards, chunk {chunk}"
                    );
                    assert!(q.iter().all(|b| b.len() <= chunk), "chunk bound respected");
                }
            }
        }
    }
}
