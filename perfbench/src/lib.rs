//! # amdrel-perfbench — end-to-end and per-layer benchmark of amdrel
//!
//! One process runs one workload in a closed loop (one caller; the
//! next request starts when the previous one returns) for a fixed
//! time. Every request's inputs derive from the benchmark seed and the
//! request index; every output is checked. The untraced run reports
//! the end-to-end metrics; the traced run records a span around each
//! call into a layer and reports per-layer self time, call counts and
//! work counts. `README.md` describes the workloads and metrics.

#![warn(missing_docs)]

mod reference;
mod run;
mod spans;
mod work;

pub use run::{run, Metric, Options, Report, MODELLED_REQUESTS};
pub use work::{request_seed, Kind};
