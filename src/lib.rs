//! # amdrel — hybrid reconfigurable platform partitioning
//!
//! A Rust reproduction of *"A Partitioning Methodology for Accelerating
//! Applications in Hybrid Reconfigurable Platforms"* (Galanis, Milidonis,
//! Theodoridis, Soudris, Goutis — DATE 2004, developed within the
//! European IST AMDREL project).
//!
//! The methodology splits a C application between the **fine-grain**
//! (embedded FPGA) and **coarse-grain** (CGC datapath) units of a hybrid
//! reconfigurable platform so a timing constraint is met: profile the
//! application, rank the loop kernels by `exec_freq × bb_weight`, and
//! move them one by one to the coarse-grain hardware while accounting
//! for fine-grain temporal partitioning, CGC scheduling, and
//! shared-memory communication.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`cdfg`] | control-data-flow-graph IR, ASAP/ALAP, dominators, loops |
//! | [`minic`] | C-subset frontend (lexer → parser → sema → IR → CDFG) |
//! | [`profiler`] | interpreter (dynamic analysis), weights, kernels |
//! | [`finegrain`] | FPGA model + Figure 3 temporal partitioning |
//! | [`coarsegrain`] | CGC datapath + list scheduling + binding |
//! | [`core`] | the Figure 2 partitioning engine and experiment grids |
//! | [`floorplan`] | 2D region model + deterministic floorplanner for partial reconfiguration |
//! | [`explore`] | multi-objective design-space exploration (Pareto archive + search strategies) |
//! | [`runtime`] | reconfiguration-aware multi-tenant runtime simulator |
//! | [`trace`] | deterministic event tracing, Chrome-trace export, self-profiling |
//! | [`apps`] | OFDM transmitter & JPEG encoder case studies |
//!
//! # Examples
//!
//! End-to-end flow on a small kernel:
//!
//! ```
//! use amdrel::core::{run_flow, Platform};
//!
//! # fn main() -> Result<(), amdrel::core::CoreError> {
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
//! let platform = Platform::paper(1500, 2);
//! let outcome = run_flow(src, &[], &platform, 2_000)?;
//! assert!(outcome.result.final_cycles() <= outcome.result.initial_cycles);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use amdrel_apps as apps;
pub use amdrel_cdfg as cdfg;
pub use amdrel_coarsegrain as coarsegrain;
pub use amdrel_core as core;
pub use amdrel_explore as explore;
pub use amdrel_finegrain as finegrain;
pub use amdrel_floorplan as floorplan;
pub use amdrel_minic as minic;
pub use amdrel_profiler as profiler;
pub use amdrel_runtime as runtime;
pub use amdrel_trace as trace;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use amdrel_apps::{jpeg, ofdm, paper, Workload};
    pub use amdrel_cdfg::{BasicBlock, BlockId, Cdfg, Dfg, NodeId, OpClass, OpKind};
    pub use amdrel_coarsegrain::{CgcDatapath, CgcGeometry, Priority, SchedulerConfig};
    pub use amdrel_core::ReconfigModel;
    pub use amdrel_core::{
        format_paper_table, run_flow, run_flow_cached, run_grid, run_grid_cached,
        run_grid_parallel, run_grid_parallel_cached, run_grid_parallel_jobs, Assignment,
        CacheStats, CommModel, EnergyModel, EngineConfig, GridSpec, MappingCache, PartitionResult,
        PartitioningEngine, Platform,
    };
    pub use amdrel_explore::{
        explore, ContentionMetrics, DesignSpace, Evaluator, Exhaustive, ExploreConfig,
        ExploreReport, Objective, ObjectiveSet, Objectives, ParetoArchive, PointEval, PointIdx,
        RandomSampling, RuntimeEvaluator, SearchStrategy, SimulatedAnnealing,
    };
    pub use amdrel_finegrain::{FpgaDevice, ReconfigPolicy};
    pub use amdrel_floorplan::{
        FabricGrid, Floorplanner, Footprint, FragmentationStats, PlacedRect, Placement, Region,
        RegionConfigKey,
    };
    pub use amdrel_minic::compile;
    pub use amdrel_profiler::{AnalysisReport, Interpreter, WeightTable};
    pub use amdrel_runtime::{
        policy_by_name, shard_of, AppProfile, AppShare, BackoffSchedule, CalendarStats,
        ConfigAffinity, FaultSpec, Fcfs, LatencySketch, LatencySource, PriorityFirst,
        RecoveryPolicy, RegionPlan, ReliabilityStats, RuntimeReport, SchedulePolicy,
        ShortestJobFirst, SimConfig, Simulation, SketchMode, WorkloadSpec,
    };
    pub use amdrel_trace::{
        chrome_trace, resource_gantt, text_timeline, Profiler, TraceBuffer, TraceEvent, TraceSink,
        TrackId,
    };
}
