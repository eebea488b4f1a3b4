//! # amdrel-core — the partitioning engine for hybrid reconfigurable
//! platforms
//!
//! The primary contribution of Galanis et al. (DATE 2004): a formalised,
//! automated methodology that splits an application between the fine-grain
//! (embedded FPGA) and coarse-grain (CGC datapath) units of a hybrid
//! reconfigurable platform so that a timing constraint is met.
//!
//! * [`Platform`] — the Figure 1 platform model (FPGA + CGC datapath +
//!   shared data memory + clock domains);
//! * [`PartitioningEngine`] — the Figure 2 flow: all-FPGA mapping and
//!   constraint check, then kernel-by-kernel movement to the coarse-grain
//!   hardware with eq. (2) accounting
//!   (`t_total = t_FPGA + t_coarse + t_comm`);
//! * [`run_flow`] — one-call convenience wrapper (compile → profile →
//!   analyse → partition);
//! * [`run_grid`] / [`format_paper_table`] — the Tables 2/3 experiment
//!   sweep and its paper-layout rendering;
//! * [`MappingCache`] — shared memoisation of the fabric mappings (fine
//!   by FPGA config, coarse by datapath/scheduler config), so design-space
//!   sweeps map each configuration once;
//! * [`run_grid_parallel_jobs`] — the grid sweep on scoped threads,
//!   cell-for-cell identical output to [`run_grid`] at any worker count;
//! * [`rng`] — the deterministic seeded [`rng::SplitMix64`] stream that
//!   makes design-space exploration reproducible and
//!   thread-count-independent;
//! * [`BlockEnergyCosts`] — per-block energy pricing behind
//!   [`energy_of_assignment`], exposing O(1) move deltas for sweeps;
//! * [`ReconfigModel`] — area-derived configuration-load cost, priced per
//!   temporal partition, for the multi-tenant runtime simulator
//!   (`amdrel-runtime`);
//! * [`json`] — the workspace's one JSON writer, behind every `--json`
//!   report, the Chrome trace, the `--profile` line and the
//!   `BENCH_*.json` baselines.
//!
//! # Examples
//!
//! ```
//! use amdrel_core::{run_flow, Platform};
//!
//! # fn main() -> Result<(), amdrel_core::CoreError> {
//! let src = r#"
//!     int x[64];
//!     int y[64];
//!     int main() {
//!         for (int i = 0; i < 64; i++) {
//!             y[i] = x[i] * x[i] * 3 + 5;
//!         }
//!         return y[63];
//!     }
//! "#;
//! let platform = Platform::paper(1500, 2); // A_FPGA=1500, two 2x2 CGCs
//! let outcome = run_flow(src, &[], &platform, 2_000)?;
//! println!(
//!     "initial {} → final {} cycles ({:.1}% reduction)",
//!     outcome.result.initial_cycles,
//!     outcome.result.final_cycles(),
//!     outcome.result.reduction_percent(),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod energy;
mod engine;
mod experiment;
mod flow;
pub mod json;
mod pipeline;
mod platform;
pub mod rng;

pub use cache::{CacheStats, CdfgFingerprint, MappingCache};
pub use energy::{
    energy_of_assignment, partition_for_energy, BlockEnergyCosts, EnergyBreakdown, EnergyModel,
    EnergyMove, EnergyResult, OpEnergyTable,
};
pub use engine::{
    Assignment, Breakdown, EngineConfig, MoveRecord, PartitionResult, PartitioningEngine,
};
pub use experiment::{
    format_paper_table, run_grid, run_grid_cached, run_grid_parallel_jobs, ExperimentGrid,
    GridCell, GridSpec,
};
pub use flow::{run_flow, run_flow_cached, run_flow_with, FlowOutcome};
pub use pipeline::{pipeline_report, PipelineReport, Stage};
pub use platform::{CommModel, Platform, ReconfigModel};

use std::fmt;

/// Errors from the partitioning flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Frontend failure.
    Compile(amdrel_minic::CompileError),
    /// Profiling failure.
    Profile(amdrel_profiler::ProfileError),
    /// Fine-grain mapping failure.
    FineGrain(amdrel_finegrain::FineGrainError),
    /// Coarse-grain mapping failure.
    CoarseGrain(amdrel_coarsegrain::CoarseGrainError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Compile(e) => write!(f, "compile error: {e}"),
            CoreError::Profile(e) => write!(f, "profile error: {e}"),
            CoreError::FineGrain(e) => write!(f, "fine-grain mapping error: {e}"),
            CoreError::CoarseGrain(e) => write!(f, "coarse-grain mapping error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Compile(e) => Some(e),
            CoreError::Profile(e) => Some(e),
            CoreError::FineGrain(e) => Some(e),
            CoreError::CoarseGrain(e) => Some(e),
        }
    }
}

impl From<amdrel_minic::CompileError> for CoreError {
    fn from(e: amdrel_minic::CompileError) -> Self {
        CoreError::Compile(e)
    }
}

impl From<amdrel_profiler::ProfileError> for CoreError {
    fn from(e: amdrel_profiler::ProfileError) -> Self {
        CoreError::Profile(e)
    }
}

impl From<amdrel_finegrain::FineGrainError> for CoreError {
    fn from(e: amdrel_finegrain::FineGrainError) -> Self {
        CoreError::FineGrain(e)
    }
}

impl From<amdrel_coarsegrain::CoarseGrainError> for CoreError {
    fn from(e: amdrel_coarsegrain::CoarseGrainError) -> Self {
        CoreError::CoarseGrain(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Send + Sync + std::error::Error>() {}
        assert_traits::<CoreError>();
    }
}
