//! Contention-aware scoring: simulate a seeded workload mix on a
//! candidate platform and turn the outcome into objectives.
//!
//! The static objectives price one job in isolation; a platform that
//! wins there can still lose under multi-tenant load (reconfiguration
//! thrash, queueing at the fabric, too few CGC slots). A
//! [`RuntimeEvaluator`] closes that loop: for each design point, the
//! candidate application's per-job profile is derived from the point's
//! own engine result (phase split and fine-grain configuration
//! footprint change with every `(area, datapath, budget)`), joined with
//! a fixed set of background tenants, and played through the
//! deterministic `amdrel-runtime` simulator with a fixed seed. The
//! resulting [`ContentionMetrics`] feed the `p95` and `throughput`
//! members of an [`ObjectiveSet`](crate::ObjectiveSet).
//!
//! Scoring is bit-deterministic: the workload generator is seeded, the
//! simulator consumes no randomness, and the [`Evaluator`](crate::Evaluator)
//! memoises one simulation per design point — results are identical at
//! every `--jobs` setting.

use amdrel_core::Platform;
use amdrel_floorplan::FabricGrid;
use amdrel_runtime::{
    AppProfile, FabricConfig, FaultSpec, RecoveryPolicy, RegionPlan, SchedulePolicy, Simulation,
    WorkloadSpec,
};
use amdrel_trace::TraceSink;

/// The contention outcome of simulating the workload mix on one
/// candidate platform (all integers, so frontiers stay bit-comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentionMetrics {
    /// Aggregate 95th-percentile completion latency, FPGA cycles.
    pub p95_latency: u64,
    /// Makespan cycles per completed job (`u64::MAX` if nothing
    /// completed) — the minimised inverse of jobs-per-Mcycle.
    pub cycles_per_job: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused admission by the queue bound.
    pub rejected: u64,
    /// Completion time of the last job.
    pub makespan: u64,
    /// Fabric cycles lost to reconfiguration stalls.
    pub reconfig_stall_cycles: u64,
    /// Aggregate p95 latency of the faulted re-simulation (equals
    /// [`Self::p95_latency`] when the evaluator's fault spec is inert,
    /// so the objective degenerates gracefully).
    pub p95_under_faults: u64,
    /// Permille of the faulted run's completions that took the
    /// coarse-grain-only fallback path (0 with the inert spec; 1000 if
    /// nothing completed).
    pub degraded_permille: u64,
}

impl ContentionMetrics {
    /// Sustained throughput as the conventional rate: completed jobs per
    /// million cycles (reporting only — domination uses
    /// [`Self::cycles_per_job`], its exact inverse).
    pub fn jobs_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed as f64 * 1_000_000.0 / self.makespan as f64
    }
}

/// Simulates a seeded workload mix on each candidate platform so
/// runtime objectives (`p95`, `throughput`) can join the search.
///
/// The mix is the candidate application (profile derived per design
/// point) plus the fixed `background` tenants. Background profiles are
/// *not* re-partitioned per point — they stand for co-tenants whose
/// bitstreams were compiled elsewhere — but their reconfiguration cost
/// is priced by the candidate platform's
/// [`ReconfigModel`](amdrel_core::ReconfigModel). Arrival pacing uses
/// [`WorkloadSpec::uniform`] — the offered fine-grain load tracks
/// `load_percent`% of the simulated mix's own demand on every point —
/// unless [`Self::with_arrival`] pins one absolute rate for the whole
/// design space (the usual choice when comparing platforms).
///
/// # Examples
///
/// ```
/// use amdrel_explore::RuntimeEvaluator;
/// use amdrel_runtime::{AppProfile, ShortestJobFirst};
///
/// let background = vec![AppProfile::synthetic("batch", 0, 40_000, 9_000, vec![900])];
/// let contention = RuntimeEvaluator::new(background, Box::new(ShortestJobFirst))
///     .with_seed(42)
///     .with_njobs(96)
///     .with_load(130);
/// assert_eq!(contention.seed(), 42);
/// ```
#[derive(Debug)]
pub struct RuntimeEvaluator {
    background: Vec<AppProfile>,
    policy: Box<dyn SchedulePolicy>,
    priority: u8,
    seed: u64,
    njobs: usize,
    load_percent: u64,
    arrival: Option<u64>,
    faults: FaultSpec,
    recovery: RecoveryPolicy,
    regions: Option<usize>,
}

impl RuntimeEvaluator {
    /// A contention evaluator over `background` co-tenants under
    /// `policy`, with the default knobs: seed 42, 200 jobs per
    /// simulation, 130% offered fine-grain load (sustained overload —
    /// the regime where platforms differentiate), candidate priority 1,
    /// and the simulator's default [`SimConfig`](amdrel_runtime::SimConfig)
    /// (configuration cache on).
    pub fn new(background: Vec<AppProfile>, policy: Box<dyn SchedulePolicy>) -> RuntimeEvaluator {
        RuntimeEvaluator {
            background,
            policy,
            priority: 1,
            seed: 42,
            njobs: 200,
            load_percent: 130,
            arrival: None,
            faults: FaultSpec::none(),
            recovery: RecoveryPolicy::default(),
            regions: None,
        }
    }

    /// Replace the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the per-simulation job count.
    ///
    /// # Panics
    ///
    /// Panics if `njobs == 0` (an empty simulation scores nothing).
    pub fn with_njobs(mut self, njobs: usize) -> Self {
        assert!(njobs > 0, "a contention simulation needs at least one job");
        self.njobs = njobs;
        self
    }

    /// Replace the offered fine-grain load (percent of the mix's
    /// capacity; >100 is overload).
    ///
    /// # Panics
    ///
    /// Panics if `load_percent == 0`.
    pub fn with_load(mut self, load_percent: u64) -> Self {
        assert!(load_percent > 0, "offered load must be positive");
        self.load_percent = load_percent;
        self
    }

    /// Pin the mean inter-arrival gap to a fixed cycle count instead of
    /// the per-point `load_percent` pacing.
    ///
    /// By default arrivals are paced relative to the simulated mix's own
    /// demand, which moves with the candidate's per-point profile — the
    /// platform is always held at `load_percent`% of *its* load. Pinning
    /// the gap applies one absolute arrival rate to every candidate, so
    /// points are compared under identical offered traffic (what a
    /// deployment with a fixed user base sees). Comparisons across a
    /// design space usually want this.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival == 0`.
    pub fn with_arrival(mut self, mean_interarrival: u64) -> Self {
        assert!(mean_interarrival > 0, "mean inter-arrival must be positive");
        self.arrival = Some(mean_interarrival);
        self
    }

    /// Replace the candidate application's scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Attach a fault-injection spec for the reliability objectives
    /// (`p95_under_faults`, `degraded_share`). The baseline metrics are
    /// still scored fault-free; a second, faulted simulation runs only
    /// when the spec is not inert, so existing searches pay nothing.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the recovery policy the faulted re-simulation uses
    /// (default [`RecoveryPolicy::default`]).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Score candidates under region-granular partial reconfiguration:
    /// each simulation jointly floorplans the mix onto `regions`
    /// horizontal bands of the candidate's usable area
    /// ([`RegionPlan`]), so reconfiguration is priced per region
    /// actually reprogrammed instead of streaming the full footprint.
    /// With one region the plan is degenerate and scoring is
    /// bit-identical to the default scalar pool.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`.
    pub fn with_region_reconfig(mut self, regions: usize) -> Self {
        assert!(
            regions > 0,
            "region reconfiguration needs at least one region"
        );
        self.regions = Some(regions);
        self
    }

    /// The fault spec the reliability objectives simulate under.
    pub fn faults(&self) -> FaultSpec {
        self.faults
    }

    /// The workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Jobs per simulation.
    pub fn njobs(&self) -> usize {
        self.njobs
    }

    /// Offered fine-grain load, percent.
    pub fn load_percent(&self) -> u64 {
        self.load_percent
    }

    /// The scheduling policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The background tenants.
    pub fn background(&self) -> &[AppProfile] {
        &self.background
    }

    /// Simulate the mix with the candidate profile on `platform` and
    /// summarise the outcome.
    ///
    /// The candidate is placed first in the mix; the workload is
    /// regenerated per call from the fixed seed (pacing depends on the
    /// candidate's own demand unless [`Self::with_arrival`] pinned an
    /// absolute rate), so identical `(candidate, platform)`
    /// inputs produce bit-identical metrics.
    pub fn score(&self, candidate: &AppProfile, platform: &Platform) -> ContentionMetrics {
        let mut profiles = Vec::with_capacity(1 + self.background.len());
        profiles.push(candidate.clone());
        profiles.extend(self.background.iter().cloned());
        let mut spec = WorkloadSpec::uniform(self.seed, self.njobs, &profiles, self.load_percent);
        if let Some(arrival) = self.arrival {
            spec.mean_interarrival = arrival;
        }
        let plan = self.regions.map(|n| {
            RegionPlan::new(
                &profiles,
                &FabricGrid::uniform(platform.fpga.usable_area(), n),
            )
        });
        let mut base = Simulation::new(platform)
            .profiles(&profiles)
            .policy(self.policy.as_ref());
        if let Some(plan) = plan.as_ref() {
            base = base.regions(plan);
        }
        let report = base.run_mix(&spec);
        let (p95_under_faults, degraded_permille) = if self.faults.is_none() {
            // No faulted re-simulation: the reliability objectives
            // degenerate to the clean p95 and a zero degraded share.
            (report.p95_latency, 0)
        } else {
            let faulted = base
                .faults(self.faults)
                .recovery(self.recovery)
                .run_mix(&spec);
            let share = if faulted.completed() == 0 {
                1000
            } else {
                faulted.reliability.degraded * 1000 / faulted.completed()
            };
            (faulted.p95_latency, share)
        };
        let completed = report.completed();
        ContentionMetrics {
            p95_latency: report.p95_latency,
            cycles_per_job: if completed == 0 {
                u64::MAX
            } else {
                report.makespan.div_ceil(completed)
            },
            completed,
            rejected: report.rejected(),
            makespan: report.makespan,
            reconfig_stall_cycles: report.reconfig_stall_cycles,
            p95_under_faults,
            degraded_permille,
        }
    }

    /// Re-run the scoring simulation for `candidate` on `platform` with
    /// a [`TraceSink`] attached, so one design point's contention run
    /// can be inspected event by event.
    ///
    /// The simulation replayed is the one whose metrics
    /// [`Self::score`] reports: the fault-free mix when the fault spec
    /// is inert, the faulted re-simulation otherwise (so fault and
    /// recovery events appear in the trace). Tracing is a pure
    /// observer — this never perturbs memoised scores.
    pub fn trace_candidate(
        &self,
        candidate: &AppProfile,
        platform: &Platform,
        sink: &dyn TraceSink,
    ) {
        let mut profiles = Vec::with_capacity(1 + self.background.len());
        profiles.push(candidate.clone());
        profiles.extend(self.background.iter().cloned());
        let mut spec = WorkloadSpec::uniform(self.seed, self.njobs, &profiles, self.load_percent);
        if let Some(arrival) = self.arrival {
            spec.mean_interarrival = arrival;
        }
        let plan = self.regions.map(|n| {
            RegionPlan::new(
                &profiles,
                &FabricGrid::uniform(platform.fpga.usable_area(), n),
            )
        });
        let mut sim = Simulation::new(platform)
            .profiles(&profiles)
            .policy(self.policy.as_ref())
            .trace(sink);
        if let Some(plan) = plan.as_ref() {
            sim = sim.regions(plan);
        }
        if !self.faults.is_none() {
            sim = sim.faults(self.faults).recovery(self.recovery);
        }
        sim.run_mix(&spec);
    }

    /// Build the candidate [`AppProfile`] of one design point from its
    /// engine-result phase split and the temporal-partition areas of the
    /// blocks the point leaves on the fine-grain fabric.
    pub fn candidate_profile(
        &self,
        app: &str,
        fine_cycles: u64,
        coarse_cycles: u64,
        comm_cycles: u64,
        partition_areas: Vec<u64>,
    ) -> AppProfile {
        AppProfile {
            name: app.to_owned(),
            priority: self.priority,
            fine_cycles,
            coarse_cycles,
            comm_cycles,
            config: FabricConfig::new(app, partition_areas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_runtime::Fcfs;

    fn evaluator() -> RuntimeEvaluator {
        let background = vec![AppProfile::synthetic("bg", 0, 8_000, 2_000, vec![500])];
        RuntimeEvaluator::new(background, Box::new(Fcfs))
            .with_seed(7)
            .with_njobs(64)
            .with_load(120)
            .with_priority(2)
    }

    #[test]
    fn scoring_is_deterministic_and_complete() {
        let rt = evaluator();
        let candidate = rt.candidate_profile("cand", 5_000, 1_000, 200, vec![300, 200]);
        assert_eq!(candidate.priority, 2);
        let platform = Platform::paper(1500, 2);
        let a = rt.score(&candidate, &platform);
        let b = rt.score(&candidate, &platform);
        assert_eq!(a, b, "same inputs, same metrics");
        assert_eq!(a.completed + a.rejected, 64);
        assert!(a.p95_latency > 0);
        assert!(a.cycles_per_job > 0 && a.cycles_per_job < u64::MAX);
        let jpm = a.jobs_per_mcycle();
        assert!(jpm > 0.0);
        // cycles_per_job is the (ceiling) inverse of jobs/Mcycle.
        assert!((1_000_000.0 / jpm - a.cycles_per_job as f64).abs() <= 1.0);
    }

    #[test]
    fn one_region_reconfig_scoring_degenerates_to_the_scalar_pool() {
        let candidate = evaluator().candidate_profile("cand", 5_000, 1_000, 200, vec![300, 200]);
        let platform = Platform::paper(1500, 2);
        let scalar = evaluator().score(&candidate, &platform);
        let full = evaluator().with_region_reconfig(1);
        assert_eq!(
            full.score(&candidate, &platform),
            scalar,
            "a full-fabric region plan must not perturb scoring"
        );
    }

    #[test]
    fn region_reconfig_scoring_is_deterministic_and_cuts_stall() {
        let candidate = evaluator().candidate_profile("cand", 5_000, 1_000, 200, vec![300, 200]);
        let platform = Platform::paper(1500, 2);
        let scalar = evaluator().score(&candidate, &platform);
        let regioned = evaluator().with_region_reconfig(4);
        let a = regioned.score(&candidate, &platform);
        let b = regioned.score(&candidate, &platform);
        assert_eq!(a, b, "same inputs, same metrics");
        assert!(
            a.reconfig_stall_cycles < scalar.reconfig_stall_cycles,
            "partial reconfiguration must stall less than streamed loads \
             ({} vs {})",
            a.reconfig_stall_cycles,
            scalar.reconfig_stall_cycles
        );
        assert_eq!(a.completed + a.rejected, 64);
    }

    #[test]
    fn inert_faults_score_for_free_and_real_faults_move_the_metrics() {
        let rt = evaluator();
        let candidate = rt.candidate_profile("cand", 5_000, 1_000, 200, vec![300, 200]);
        let platform = Platform::paper(1500, 2);
        let clean = rt.score(&candidate, &platform);
        assert_eq!(
            clean.p95_under_faults, clean.p95_latency,
            "inert spec degenerates to the clean p95"
        );
        assert_eq!(clean.degraded_permille, 0);

        let faulted_rt = evaluator()
            .with_faults(FaultSpec::uniform(7, 200))
            .with_recovery(RecoveryPolicy {
                degrade: true,
                ..RecoveryPolicy::default()
            });
        assert!(!faulted_rt.faults().is_none());
        let faulted = faulted_rt.score(&candidate, &platform);
        assert_eq!(
            faulted.p95_latency, clean.p95_latency,
            "baseline metrics stay fault-free"
        );
        assert_ne!(
            faulted.p95_under_faults, faulted.p95_latency,
            "the faulted re-simulation actually differs"
        );
        assert!(faulted.degraded_permille <= 1000);
        assert_eq!(
            faulted,
            faulted_rt.score(&candidate, &platform),
            "faulted scoring is deterministic"
        );
    }

    #[test]
    fn candidate_demand_moves_the_metrics() {
        let rt = evaluator();
        let platform = Platform::paper(1500, 2);
        let light = rt.score(
            &rt.candidate_profile("cand", 1_000, 0, 0, vec![100]),
            &platform,
        );
        let heavy = rt.score(
            &rt.candidate_profile("cand", 50_000, 0, 0, vec![100]),
            &platform,
        );
        assert_ne!(light, heavy, "a heavier candidate changes the outcome");
    }
}
