//! End-to-end and per-layer benchmark for fragdb.
//!
//! The benchmark drives the simulator from outside, through its public
//! APIs only: it builds each workload's system, feeds open-loop arrivals
//! lazily, measures every simulated-database metric from the notifications
//! it gets back, checks the run's outcome, and times the simulator itself.
//! See `README.md` beside this package for the workloads and metrics.

pub mod bench;
pub mod client;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
