//! The faultline benchmark: raw syslog lines and LSP PDUs in, the
//! paper's tables out, every layer timed from outside.
//!
//! [`capture`] rebuilds a scenario's raw inputs, [`workloads`] runs and
//! checks the passes, [`trace`] records spans around the calls into each
//! layer, and [`stats`] and [`probe`] hold the summary statistics and the
//! memory probes the workloads report with.

pub mod capture;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;
