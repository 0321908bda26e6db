//! The repository benchmark: end-to-end workloads over the `ayb` binary and
//! a traced run that breaks their time down by layer.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

pub mod cli;
pub mod layers;
pub mod pools;
pub mod proc;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod svc;
pub mod trace;
pub mod workload;
