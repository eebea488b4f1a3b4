//! # amdrel-runtime — reconfiguration-aware multi-tenant runtime
//! simulator
//!
//! The paper's methodology partitions one application statically;
//! related work on partially dynamically reconfigurable systems (Ding et
//! al. 2022, Chen et al. 2018) treats module scheduling and
//! reconfiguration latency as first-class runtime concerns. This crate
//! models that runtime: kernels from many concurrent application
//! instances contend for the CGC datapath and the fine-grain fabric,
//! and swapping one application's temporal-partition set onto the FPGA
//! costs real reconfiguration cycles.
//!
//! * [`AppProfile`] — one application's per-job cost on each half of the
//!   platform plus its fine-grain [`FabricConfig`], derived from the
//!   static flow's [`PartitionResult`](amdrel_core::PartitionResult)
//!   and temporal partitioning;
//! * [`WorkloadSpec`] — a seeded arrival process over an application
//!   mix, bit-reproducible and prefix-stable, built on
//!   [`amdrel_core::rng`]; [`WorkloadSpec::generate_streaming`] yields
//!   the identical stream lazily for million-job runs;
//! * [`SchedulePolicy`] — pluggable dispatch: [`Fcfs`],
//!   [`ShortestJobFirst`], [`PriorityFirst`], [`ConfigAffinity`], each
//!   a static rank key plus a prefer-the-loaded-configuration flag. The
//!   engine's fabric wait queue appends jobs that arrive in key order to
//!   a sorted run and keeps the rest in a slab ordered by a binary heap
//!   of compact `(rank, id, slot)` entries (one such lane per
//!   configuration for affinity), so a dispatch costs O(log n) in the
//!   queue depth and a deadline reap O(1), even under overload;
//! * [`Simulation`] — the builder facade over the deterministic
//!   discrete-event simulator (calendar-queue event core, events totally
//!   ordered by `(time, sequence)`), with a configuration cache,
//!   optional bitstream prefetch, an admission bound ([`SimConfig`])
//!   and streaming latency aggregation ([`SketchMode`]);
//!   [`Simulation::shards`] partitions the tenants across `k`
//!   independent platform replicas ([`shard_of`]: application `i` →
//!   shard `i % k`) run on scoped threads and folded back with a
//!   deterministic shard-order merge, so the merged report is
//!   independent of thread scheduling and degenerates bit-identically
//!   to the single-threaded engine at `k == 1`;
//! * [`RegionPlan`] — a frozen joint floorplan of every tenant's
//!   configuration footprints (via `amdrel-floorplan`) turning the
//!   scalar area pool into per-region configuration state: a tenant's
//!   load reprograms only the regions it touches, priced by *region*
//!   area, overlapping execution on untouched regions; a single
//!   full-fabric region degenerates bit-identically to the scalar path;
//! * [`FaultSpec`] / [`RecoveryPolicy`] — seeded, bit-deterministic
//!   fault injection (reconfiguration-load failures, transient fabric
//!   kills, CGC slot outages with timed repair, per-job deadlines) and
//!   the recovery layered on top: bounded retry under a pure
//!   [`BackoffSchedule`], plus graceful degradation to the
//!   coarse-grain-only fallback path
//!   ([`AppProfile::fallback_cycles`]); the zero-rate spec is inert and
//!   leaves every report byte-identical to a fault-free run;
//! * [`LatencySketch`] — deterministic integer-only quantile sketch
//!   (O(1) memory in the job count) with an exact fallback below
//!   [`EXACT_THRESHOLD`] jobs;
//! * [`RuntimeReport`] — per-app latency percentiles, CGC/FPGA
//!   utilization, reconfiguration loads and stall cycles, rejection
//!   counts, the fabric wait queue's peak depth, percentile
//!   provenance ([`LatencySource`]), reliability
//!   metrics ([`ReliabilityStats`]: injected/retried/degraded/aborted
//!   counts, availability, goodput vs raw throughput, fault-conditioned
//!   p95s) and calendar-queue internals ([`CalendarStats`]); renders as
//!   a table or JSON (schema `amdrel-simulate/v6`, each counter in
//!   exactly one report object);
//! * **tracing** — [`Simulation::trace`] attaches an
//!   [`amdrel_trace::TraceSink`] the engine emits per-job lifecycle
//!   events into (arrival, queueing, per-region reconfiguration, fine
//!   and coarse phases, faults, retries, recovery), timestamped in
//!   simulated cycles and deterministically ordered; a pure observer
//!   that never perturbs the run.
//!
//! # Examples
//!
//! ```
//! use amdrel_core::Platform;
//! use amdrel_runtime::{AppProfile, Fcfs, ShortestJobFirst, Simulation, WorkloadSpec};
//!
//! // Two tenants: a light interactive app and a heavy batch app.
//! let profiles = vec![
//!     AppProfile::synthetic("interactive", 2, 5_000, 1_500, vec![400, 300]),
//!     AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900]),
//! ];
//! let platform = Platform::paper(1500, 2);
//! let spec = WorkloadSpec::uniform(42, 64, &profiles, 120); // 20% overload
//!
//! let base = Simulation::new(&platform).profiles(&profiles);
//! let fcfs = base.policy(&Fcfs).run_mix(&spec);
//! let sjf = base.policy(&ShortestJobFirst).run_mix(&spec);
//! assert_eq!(fcfs.arrived(), 64);
//! // Work-conserving single fabric: both policies drain the same work.
//! assert_eq!(fcfs.completed(), sjf.completed());
//! println!("{}", sjf.format_table());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod calendar;
mod fault;
mod policy;
mod profile;
mod region;
mod report;
mod shard;
mod sim;
mod sketch;
mod workload;

pub use backoff::BackoffSchedule;
pub use calendar::CalendarStats;
pub use fault::{FaultSpec, RecoveryPolicy};
pub use policy::{
    policy_by_name, ConfigAffinity, Fcfs, PriorityFirst, SchedulePolicy, ShortestJobFirst,
};
pub use profile::{AppProfile, ConfigId, FabricConfig, FALLBACK_FINE_PENALTY};
pub use region::RegionPlan;
pub use report::{report_to_json, AppStats, ReliabilityStats, RuntimeReport};
pub use shard::shard_of;
pub use sim::{SimConfig, Simulation};
pub use sketch::{LatencySketch, LatencySource, SketchMode, EXACT_THRESHOLD, SUB_BITS};
pub use workload::{AppShare, Job, JobStream, WorkloadSpec};
