//! The raw inputs of a scenario, rebuilt from its parsed form.
//!
//! The simulator hands the analysis parsed syslog messages and the
//! listener's transition log; it keeps neither the archive text nor the
//! LSP PDUs. [`RawInputs::render`] rebuilds both:
//!
//! * the syslog archive is every message's [`SyslogMessage::render`]
//!   line, in archive order;
//! * the LSP capture starts with one baseline LSP per router (everything
//!   advertised, sequence 1), turns each consecutive `(at, source)` run of
//!   the transition log into one LSP carrying the changed state with the
//!   next sequence number, takes the listener offline and online at each
//!   offline span, and after each outage sends one resync LSP per router
//!   whose every item holds the value its next transition implies.
//!
//! Feeding the capture through [`Listener::receive_bytes`] in order gives
//! back the scenario's transitions and hostnames exactly, and parsing the
//! archive gives back its messages exactly (`tests/capture.rs`).
//!
//! [`SyslogMessage::render`]: faultline_syslog::SyslogMessage::render
//! [`Listener::receive_bytes`]: faultline_isis::listener::Listener::receive_bytes

use faultline_isis::listener::{TransitionDirection, TransitionSubject};
use faultline_isis::lsp::Lsp;
use faultline_isis::tlv::{IpReachEntry, IsReachEntry};
use faultline_sim::routers::RouterNode;
use faultline_sim::ScenarioData;
use faultline_topology::osi::SystemId;
use faultline_topology::time::Timestamp;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::ops::Range;

/// One item of the listener's capture, in receive order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureItem {
    /// An LSP PDU received at `at`; `bytes` indexes [`RawInputs::pdus`].
    Pdu {
        /// Receive time.
        at: Timestamp,
        /// Byte range of the PDU in [`RawInputs::pdus`].
        bytes: Range<usize>,
    },
    /// The listener goes offline.
    Offline(Timestamp),
    /// The listener comes back online.
    Online(Timestamp),
}

impl CaptureItem {
    /// When the item happens.
    pub fn at(&self) -> Timestamp {
        match self {
            CaptureItem::Pdu { at, .. } | CaptureItem::Offline(at) | CaptureItem::Online(at) => *at,
        }
    }
}

/// One input in arrival order: an archive line or a capture item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Index into [`RawInputs::lines`].
    Line(usize),
    /// Index into [`RawInputs::capture`].
    Capture(usize),
}

/// A scenario's observables as the bytes a collector and a passive
/// listener would have recorded.
#[derive(Debug, Clone)]
pub struct RawInputs {
    /// The syslog archive: one message per line, each ending in `\n`.
    pub archive: Vec<u8>,
    /// Byte range of each line in `archive`, without the newline.
    pub lines: Vec<Range<usize>>,
    /// Every PDU of the capture, back to back.
    pub pdus: Vec<u8>,
    /// The capture in receive order.
    pub capture: Vec<CaptureItem>,
    /// Lines and capture items merged by time, lines first on ties: the
    /// order a live collector sees them in.
    pub arrivals: Vec<Arrival>,
}

impl RawInputs {
    /// Render `data`'s syslog archive and rebuild its LSP capture.
    pub fn render(data: &ScenarioData) -> RawInputs {
        let mut archive = Vec::new();
        let mut lines = Vec::with_capacity(data.syslog.len());
        for m in &data.syslog {
            let start = archive.len();
            archive.extend_from_slice(m.render().as_bytes());
            lines.push(start..archive.len());
            archive.push(b'\n');
        }
        let (pdus, capture) = rebuild_capture(data);

        let mut arrivals = Vec::with_capacity(lines.len() + capture.len());
        let (mut i, mut j) = (0, 0);
        while i < lines.len() || j < capture.len() {
            let take_line = j >= capture.len()
                || (i < lines.len() && data.syslog[i].event.at <= capture[j].at());
            if take_line {
                arrivals.push(Arrival::Line(i));
                i += 1;
            } else {
                arrivals.push(Arrival::Capture(j));
                j += 1;
            }
        }
        RawInputs {
            archive,
            lines,
            pdus,
            capture,
            arrivals,
        }
    }

    /// One archive line, without its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        &self.archive[self.lines[i].clone()]
    }

    /// Number of PDUs in the capture.
    pub fn pdu_count(&self) -> usize {
        self.capture
            .iter()
            .filter(|c| matches!(c, CaptureItem::Pdu { .. }))
            .count()
    }

    /// Input records: archive lines plus PDUs.
    pub fn records(&self) -> usize {
        self.lines.len() + self.pdu_count()
    }
}

/// The advertised state of one router, as the capture rebuilds it.
struct Origin {
    system_id: SystemId,
    hostname: String,
    sequence: u32,
    neighbors: BTreeMap<SystemId, (IsReachEntry, bool)>,
    prefixes: BTreeMap<(Ipv4Addr, u8), (IpReachEntry, bool)>,
}

impl Origin {
    fn set(&mut self, subject: &TransitionSubject, up: bool) {
        match *subject {
            TransitionSubject::Adjacency { neighbor } => {
                if let Some(item) = self.neighbors.get_mut(&neighbor) {
                    item.1 = up;
                }
            }
            TransitionSubject::Prefix { prefix, prefix_len } => {
                if let Some(item) = self.prefixes.get_mut(&(prefix, prefix_len)) {
                    item.1 = up;
                }
            }
        }
    }

    fn subjects(&self) -> Vec<TransitionSubject> {
        let adj = self
            .neighbors
            .keys()
            .map(|&neighbor| TransitionSubject::Adjacency { neighbor });
        let ip = self
            .prefixes
            .keys()
            .map(|&(prefix, prefix_len)| TransitionSubject::Prefix { prefix, prefix_len });
        adj.chain(ip).collect()
    }

    /// The next LSP: current state, next sequence number, wire form.
    fn originate(&mut self) -> Vec<u8> {
        self.sequence += 1;
        let is: Vec<IsReachEntry> = self
            .neighbors
            .values()
            .filter(|(_, up)| *up)
            .map(|(e, _)| *e)
            .collect();
        let ip: Vec<IpReachEntry> = self
            .prefixes
            .values()
            .filter(|(_, up)| *up)
            .map(|(e, _)| *e)
            .collect();
        Lsp::originate(self.system_id, self.sequence, &self.hostname, &is, &ip).encode()
    }
}

fn push_pdu(pdus: &mut Vec<u8>, capture: &mut Vec<CaptureItem>, at: Timestamp, pdu: &[u8]) {
    let start = pdus.len();
    pdus.extend_from_slice(pdu);
    capture.push(CaptureItem::Pdu {
        at,
        bytes: start..pdus.len(),
    });
}

/// Rebuild the LSP capture behind `data.transitions`.
fn rebuild_capture(data: &ScenarioData) -> (Vec<u8>, Vec<CaptureItem>) {
    let topo = &data.topology;
    let mut pdus = Vec::new();
    let mut capture = Vec::new();
    let mut origins: Vec<Origin> = Vec::with_capacity(topo.routers().len());
    let mut index_of: HashMap<SystemId, usize> = HashMap::new();
    for r in topo.routers() {
        let lsp = RouterNode::new(topo, r.id).originate();
        let origin = Origin {
            system_id: lsp.id.system_id,
            hostname: r.hostname.clone(),
            sequence: lsp.sequence,
            neighbors: lsp
                .is_neighbors()
                .into_iter()
                .map(|e| (e.neighbor, (e, true)))
                .collect(),
            prefixes: lsp
                .ip_prefixes()
                .into_iter()
                .map(|e| ((e.prefix, e.prefix_len), (e, true)))
                .collect(),
        };
        push_pdu(&mut pdus, &mut capture, Timestamp::EPOCH, &lsp.encode());
        index_of.insert(origin.system_id, origins.len());
        origins.push(origin);
    }

    // Every item's upcoming directions, consumed as the log is replayed:
    // the front of an item's queue is its next transition.
    let mut upcoming: HashMap<(SystemId, TransitionSubject), VecDeque<_>> = HashMap::new();
    for t in &data.transitions {
        upcoming
            .entry((t.source, t.subject))
            .or_default()
            .push_back(t.direction);
    }

    let mut spans = data.offline_spans.iter().peekable();
    let log = &data.transitions;
    let mut i = 0;
    while i < log.len() || spans.peek().is_some() {
        let next_run_at = log.get(i).map(|t| t.at);
        if let Some(span) = spans.next_if(|s| next_run_at.is_none_or(|at| s.from < at)) {
            capture.push(CaptureItem::Offline(span.from));
            capture.push(CaptureItem::Online(span.to));
            for origin in &mut origins {
                for subject in origin.subjects() {
                    let next = upcoming
                        .get(&(origin.system_id, subject))
                        .and_then(|q| q.front());
                    if let Some(direction) = next {
                        origin.set(&subject, *direction == TransitionDirection::Down);
                    }
                }
                let pdu = origin.originate();
                push_pdu(&mut pdus, &mut capture, span.to, &pdu);
            }
            continue;
        }
        let (at, source) = (log[i].at, log[i].source);
        let origin = &mut origins[index_of[&source]];
        while let Some(t) = log.get(i).filter(|t| t.at == at && t.source == source) {
            origin.set(&t.subject, t.direction == TransitionDirection::Up);
            if let Some(q) = upcoming.get_mut(&(t.source, t.subject)) {
                q.pop_front();
            }
            i += 1;
        }
        let pdu = origin.originate();
        push_pdu(&mut pdus, &mut capture, at, &pdu);
    }
    (pdus, capture)
}
