//! Simulation results: per-application latency distributions, resource
//! utilization, and reconfiguration accounting, with a text table and a
//! JSON rendering through the workspace's one [`amdrel_core::json`]
//! writer.

use crate::calendar::CalendarStats;
use crate::fault::{FaultSpec, RecoveryPolicy};
use crate::sim::SimConfig;
use crate::sketch::{LatencySketch, LatencySource};
use amdrel_core::json::{document, Fixed, Sep};
use std::fmt::Write as _;
use std::num::{NonZeroU64, NonZeroUsize};

/// Per-application outcome counters and latency percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppStats {
    /// Application name.
    pub name: String,
    /// Jobs that arrived (admitted or not).
    pub arrived: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs refused admission by the queue bound.
    pub rejected: u64,
    /// Median completion latency (arrival → completion), FPGA cycles.
    pub p50_latency: u64,
    /// 95th-percentile latency.
    pub p95_latency: u64,
    /// Worst observed latency.
    pub max_latency: u64,
}

impl AppStats {
    /// Build the stats from a streaming [`LatencySketch`] (what the
    /// simulator records into). With an exact-representation sketch the
    /// percentiles are the nearest-rank values of the recorded sample.
    pub fn from_sketch(
        name: &str,
        arrived: u64,
        completed: u64,
        rejected: u64,
        sketch: &LatencySketch,
    ) -> Self {
        AppStats {
            name: name.to_owned(),
            arrived,
            completed,
            rejected,
            p50_latency: sketch.percentile(50),
            p95_latency: sketch.percentile(95),
            max_latency: sketch.max(),
        }
    }
}

/// Reliability accounting for one run: what the fault layer injected
/// and what the recovery policy did about it. All-zero (the `Default`)
/// on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ReliabilityStats {
    /// Total faults injected (`load_failures + fabric_kills +
    /// slot_outages`).
    pub injected: u64,
    /// Bitstream-load attempts that failed.
    pub load_failures: u64,
    /// Fine-grain phases killed by transient fabric faults.
    pub fabric_kills: u64,
    /// Coarse-grain phases killed by CGC slot outages.
    pub slot_outages: u64,
    /// Retry attempts the recovery policy issued (fabric and slot).
    pub retries: u64,
    /// Jobs completed on the coarse-grain-only fallback path.
    pub degraded: u64,
    /// Jobs dropped after exhausting their retry budget (degradation
    /// off, or no CGC to fall back to).
    pub aborted: u64,
    /// Jobs reaped while still queued at their deadline.
    pub deadline_misses: u64,
    /// Cycles of work destroyed by faults (failed-load stalls plus
    /// partially-executed killed phases).
    pub fault_lost_cycles: u64,
    /// CGC slot-cycles lost to outage repair windows.
    pub slot_downtime_cycles: u64,
    /// Completions that never saw a fault.
    pub clean_completed: u64,
    /// Completions that recovered from at least one fault (degraded
    /// included).
    pub faulted_completed: u64,
    /// 95th-percentile latency over fault-free completions only.
    pub p95_clean: u64,
    /// 95th-percentile latency over fault-touched completions only (0
    /// when none).
    pub p95_faulted: u64,
}

/// The complete outcome of one simulation run. All fields are integers
/// or strings, so two runs over identical inputs compare bit-equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeReport {
    /// The scheduling policy's name.
    pub policy: String,
    /// The runtime knobs the run used.
    pub config: SimConfig,
    /// CGC slot count of the simulated platform.
    pub cgc_slots: usize,
    /// Completion time of the last job (0 if nothing completed).
    pub makespan: u64,
    /// Fabric cycles spent executing fine-grain phases.
    pub fpga_busy_cycles: u64,
    /// Fabric cycles stalled streaming bitstreams in.
    pub reconfig_stall_cycles: u64,
    /// Bitstream loads performed (prefetched loads included).
    pub reconfig_loads: u64,
    /// The most jobs that waited for the fabric at once (the wait-queue
    /// high-water mark; the worst shard's under sharding).
    pub peak_queue_depth: u64,
    /// CGC slot-cycles spent on coarse phases (incl. communication).
    pub cgc_busy_cycles: u64,
    /// Median completion latency across *all* completed jobs.
    pub p50_latency: u64,
    /// 95th-percentile latency across all completed jobs — the figure
    /// the policy comparisons use.
    pub p95_latency: u64,
    /// Whether latency percentiles are exact nearest-rank values or
    /// streaming-sketch upper bounds (within `2^-7` relative).
    pub latency_source: LatencySource,
    /// The fault-injection spec the run used ([`FaultSpec::none`] when
    /// faults were off).
    pub faults: FaultSpec,
    /// The recovery policy the run used (behaviour-neutral metadata
    /// while `faults` is inert).
    pub recovery: RecoveryPolicy,
    /// Calendar-queue internals for the run (all-zero from sources with
    /// no calendar, e.g. hand-built reports).
    pub queue: CalendarStats,
    /// What the fault layer injected and the recovery layer salvaged.
    pub reliability: ReliabilityStats,
    /// Per-application breakdown, in profile order.
    pub apps: Vec<AppStats>,
}

impl RuntimeReport {
    /// Total jobs that arrived across all applications.
    pub fn arrived(&self) -> u64 {
        self.apps.iter().map(|a| a.arrived).sum()
    }

    /// Total jobs completed.
    pub fn completed(&self) -> u64 {
        self.apps.iter().map(|a| a.completed).sum()
    }

    /// Total jobs rejected by the admission bound.
    pub fn rejected(&self) -> u64 {
        self.apps.iter().map(|a| a.rejected).sum()
    }

    /// Fraction of the makespan the fabric was occupied (executing or
    /// reconfiguring).
    pub fn fpga_utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        (self.fpga_busy_cycles + self.reconfig_stall_cycles) as f64 / self.makespan as f64
    }

    /// Fraction of total CGC slot-cycles spent busy.
    pub fn cgc_utilization(&self) -> f64 {
        if self.makespan == 0 || self.cgc_slots == 0 {
            return 0.0;
        }
        self.cgc_busy_cycles as f64 / (self.makespan * self.cgc_slots as u64) as f64
    }

    /// Share of fabric occupancy lost to reconfiguration stalls.
    pub fn stall_share(&self) -> f64 {
        let occupied = self.fpga_busy_cycles + self.reconfig_stall_cycles;
        if occupied == 0 {
            return 0.0;
        }
        self.reconfig_stall_cycles as f64 / occupied as f64
    }

    /// Sustained throughput: completed jobs per million FPGA cycles.
    pub fn jobs_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed() as f64 * 1_000_000.0 / self.makespan as f64
    }

    /// Fraction of the platform's cycle capacity over the makespan that
    /// was *not* destroyed by faults or outage repair windows. Capacity
    /// counts the fabric plus every CGC slot; a fault-free run has
    /// availability exactly 1.0, and any run stays in `(0, 1]`.
    pub fn availability(&self) -> f64 {
        let capacity = self.makespan.saturating_mul(1 + self.cgc_slots as u64);
        if capacity == 0 {
            return 1.0;
        }
        let lost = self
            .reliability
            .fault_lost_cycles
            .saturating_add(self.reliability.slot_downtime_cycles)
            .min(capacity);
        (capacity - lost) as f64 / capacity as f64
    }

    /// Goodput: *delivered results* per million cycles — every
    /// completion counts, degraded-path ones included. Always ≤
    /// [`RuntimeReport::throughput_jobs_per_mcycle`].
    pub fn goodput_jobs_per_mcycle(&self) -> f64 {
        self.jobs_per_mcycle()
    }

    /// Raw drain throughput: job *disposals* (completions, aborts and
    /// deadline reaps) per million cycles. The gap to
    /// [`RuntimeReport::goodput_jobs_per_mcycle`] is exactly the jobs
    /// the platform disposed of without delivering a result.
    pub fn throughput_jobs_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let disposed =
            self.completed() + self.reliability.aborted + self.reliability.deadline_misses;
        disposed as f64 * 1_000_000.0 / self.makespan as f64
    }

    /// Human-readable summary table.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy {} (cache {}, prefetch {}, queue bound {}, {} percentiles)",
            self.policy,
            if self.config.config_cache {
                "on"
            } else {
                "off"
            },
            if self.config.prefetch { "on" } else { "off" },
            match self.config.queue_bound {
                Some(bound) => bound.to_string(),
                None => "unbounded".to_owned(),
            },
            self.latency_source.as_str(),
        );
        let _ = writeln!(
            out,
            "{} arrived, {} completed, {} rejected over {} cycles ({:.2} jobs/Mcycle, p50 {} / p95 {})",
            self.arrived(),
            self.completed(),
            self.rejected(),
            self.makespan,
            self.jobs_per_mcycle(),
            self.p50_latency,
            self.p95_latency,
        );
        let _ = writeln!(
            out,
            "fpga util {:.1}%  cgc util {:.1}% ({} slots)  reconfig {} loads, {} stall cycles ({:.1}% of fabric time)",
            self.fpga_utilization() * 100.0,
            self.cgc_utilization() * 100.0,
            self.cgc_slots,
            self.reconfig_loads,
            self.reconfig_stall_cycles,
            self.stall_share() * 100.0,
        );
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}",
            "app", "arrived", "done", "rejected", "p50 latency", "p95 latency", "max latency"
        );
        for a in &self.apps {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>8} {:>8} {:>12} {:>12} {:>12}",
                a.name,
                a.arrived,
                a.completed,
                a.rejected,
                a.p50_latency,
                a.p95_latency,
                a.max_latency
            );
        }
        if !self.faults.is_none() {
            let r = &self.reliability;
            let _ = writeln!(
                out,
                "faults: {} injected ({} load, {} fabric, {} outage), {} retries, \
                 {} degraded, {} aborted, {} deadline misses",
                r.injected,
                r.load_failures,
                r.fabric_kills,
                r.slot_outages,
                r.retries,
                r.degraded,
                r.aborted,
                r.deadline_misses,
            );
            let _ = writeln!(
                out,
                "availability {:.4}  goodput {:.2} / throughput {:.2} jobs/Mcycle  \
                 p95 clean {} / faulted {}",
                self.availability(),
                self.goodput_jobs_per_mcycle(),
                self.throughput_jobs_per_mcycle(),
                r.p95_clean,
                r.p95_faulted,
            );
        }
        out
    }
}

/// Render a [`RuntimeReport`] as deterministic JSON
/// (schema `amdrel-simulate/v6`; the schema history is in
/// `docs/BENCHMARKS.md`). `queue_bound` keeps the v1 convention of `0`
/// meaning unbounded.
pub fn report_to_json(report: &RuntimeReport) -> String {
    document(|doc| {
        doc.field("schema", "amdrel-simulate/v6");
        doc.field("policy", &report.policy);
        doc.object("config", Sep::Spaced, |o| {
            o.field("config_cache", report.config.config_cache);
            o.field("prefetch", report.config.prefetch);
            o.field(
                "queue_bound",
                report.config.queue_bound.map_or(0, NonZeroUsize::get),
            );
        });
        doc.object("totals", Sep::Spaced, |o| {
            o.field("arrived", report.arrived());
            o.field("completed", report.completed());
            o.field("rejected", report.rejected());
            o.field("makespan", report.makespan);
            o.field("jobs_per_mcycle", Fixed(report.jobs_per_mcycle(), 4));
            o.field("p50_latency", report.p50_latency);
            o.field("p95_latency", report.p95_latency);
            o.field("latency_source", report.latency_source.as_str());
        });
        doc.object("fabric", Sep::Spaced, |o| {
            o.field("fpga_busy_cycles", report.fpga_busy_cycles);
            o.field("reconfig_stall_cycles", report.reconfig_stall_cycles);
            o.field("reconfig_loads", report.reconfig_loads);
            o.field("peak_queue_depth", report.peak_queue_depth);
            o.field("fpga_utilization", Fixed(report.fpga_utilization(), 4));
            o.field("stall_share", Fixed(report.stall_share(), 4));
        });
        doc.object("cgc", Sep::Spaced, |o| {
            o.field("slots", report.cgc_slots);
            o.field("busy_slot_cycles", report.cgc_busy_cycles);
            o.field("utilization", Fixed(report.cgc_utilization(), 4));
        });
        let faults = &report.faults;
        doc.object("faults", Sep::Spaced, |o| {
            o.field("seed", faults.seed);
            o.field("load_fail_permille", faults.load_fail_permille);
            o.field("transient_permille", faults.transient_permille);
            o.field("outage_permille", faults.outage_permille);
            o.field("repair_cycles", faults.repair_cycles);
            o.field("deadline", faults.deadline.map_or(0, NonZeroU64::get));
        });
        doc.object("recovery", Sep::Spaced, |o| {
            o.field("max_retries", report.recovery.max_retries);
            o.field("backoff_base_cycles", report.recovery.backoff.base_cycles);
            o.field("backoff_cap_cycles", report.recovery.backoff.cap_cycles);
            o.field("degrade", report.recovery.degrade);
        });
        doc.object("queue", Sep::Spaced, |o| {
            o.field("events", report.queue.events);
            o.field("rehashes", report.queue.rehashes);
            o.field("peak_occupancy", report.queue.peak_occupancy);
            o.field("day_width", report.queue.day_width);
        });
        let r = &report.reliability;
        doc.object("reliability", Sep::Spaced, |o| {
            o.field("injected", r.injected);
            o.field("load_failures", r.load_failures);
            o.field("fabric_kills", r.fabric_kills);
            o.field("slot_outages", r.slot_outages);
            o.field("retries", r.retries);
            o.field("degraded", r.degraded);
            o.field("aborted", r.aborted);
            o.field("deadline_misses", r.deadline_misses);
            o.field("fault_lost_cycles", r.fault_lost_cycles);
            o.field("slot_downtime_cycles", r.slot_downtime_cycles);
            o.field("clean_completed", r.clean_completed);
            o.field("faulted_completed", r.faulted_completed);
            o.field("p95_clean", r.p95_clean);
            o.field("p95_faulted", r.p95_faulted);
            o.field("availability", Fixed(report.availability(), 4));
            o.field(
                "goodput_jobs_per_mcycle",
                Fixed(report.goodput_jobs_per_mcycle(), 4),
            );
            o.field(
                "throughput_jobs_per_mcycle",
                Fixed(report.throughput_jobs_per_mcycle(), 4),
            );
        });
        doc.rows("apps", Sep::Tight, |rows| {
            for a in &report.apps {
                rows.elem_object(|row| {
                    row.field("name", &a.name);
                    row.field("arrived", a.arrived);
                    row.field("completed", a.completed);
                    row.field("rejected", a.rejected);
                    row.field("p50_latency", a.p50_latency);
                    row.field("p95_latency", a.p95_latency);
                    row.field("max_latency", a.max_latency);
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_sketch(sample: &[u64]) -> LatencySketch {
        let mut sketch = LatencySketch::new(LatencySource::Exact);
        sample.iter().for_each(|&v| sketch.record(v));
        sketch
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = exact_sketch(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.percentile(50), 50);
        assert_eq!(s.percentile(95), 100);
        assert_eq!(s.percentile(100), 100);
        assert_eq!(s.percentile(1), 10);
        assert_eq!(exact_sketch(&[]).percentile(95), 0);
        assert_eq!(exact_sketch(&[7]).percentile(50), 7);
    }

    #[test]
    fn app_stats_sort_before_ranking() {
        let a = AppStats::from_sketch("x", 5, 3, 2, &exact_sketch(&[30, 10, 20]));
        assert_eq!(a.p50_latency, 20);
        assert_eq!(a.max_latency, 30);
    }

    fn toy_report() -> RuntimeReport {
        RuntimeReport {
            policy: "fcfs".to_owned(),
            config: SimConfig::default(),
            cgc_slots: 2,
            makespan: 1_000,
            fpga_busy_cycles: 600,
            reconfig_stall_cycles: 200,
            reconfig_loads: 4,
            peak_queue_depth: 3,
            cgc_busy_cycles: 500,
            p50_latency: 5,
            p95_latency: 5,
            latency_source: LatencySource::Exact,
            faults: FaultSpec::none(),
            recovery: RecoveryPolicy::default(),
            queue: CalendarStats::default(),
            reliability: ReliabilityStats::default(),
            apps: vec![AppStats::from_sketch("a", 10, 8, 2, &exact_sketch(&[5; 8]))],
        }
    }

    #[test]
    fn ratios() {
        let r = toy_report();
        assert!((r.fpga_utilization() - 0.8).abs() < 1e-12);
        assert!((r.cgc_utilization() - 0.25).abs() < 1e-12);
        assert!((r.stall_share() - 0.25).abs() < 1e-12);
        assert!((r.jobs_per_mcycle() - 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn reliability_metrics_on_a_clean_run() {
        let r = toy_report();
        assert_eq!(r.availability(), 1.0, "nothing lost, fully available");
        assert_eq!(r.goodput_jobs_per_mcycle(), r.jobs_per_mcycle());
        assert_eq!(
            r.throughput_jobs_per_mcycle(),
            r.goodput_jobs_per_mcycle(),
            "no aborts or reaps: the two rates coincide"
        );
    }

    #[test]
    fn reliability_metrics_under_faults() {
        let mut r = toy_report();
        r.faults = FaultSpec::uniform(7, 100);
        // Capacity = 1000 * (1 fabric + 2 slots) = 3000; lose 600.
        r.reliability.fault_lost_cycles = 400;
        r.reliability.slot_downtime_cycles = 200;
        r.reliability.aborted = 1;
        r.reliability.deadline_misses = 1;
        assert!((r.availability() - 0.8).abs() < 1e-12);
        // 8 completed vs 10 disposed over 1000 cycles.
        assert!((r.goodput_jobs_per_mcycle() - 8_000.0).abs() < 1e-9);
        assert!((r.throughput_jobs_per_mcycle() - 10_000.0).abs() < 1e-9);
        assert!(r.goodput_jobs_per_mcycle() <= r.throughput_jobs_per_mcycle());
        // Losses beyond capacity clamp instead of going negative.
        r.reliability.fault_lost_cycles = u64::MAX;
        assert_eq!(r.availability(), 0.0);
        let mut empty = toy_report();
        empty.makespan = 0;
        assert_eq!(empty.availability(), 1.0, "zero capacity is vacuously up");
    }

    #[test]
    fn json_and_table_shapes() {
        let r = toy_report();
        let json = report_to_json(&r);
        assert!(json.contains("\"schema\": \"amdrel-simulate/v6\""));
        assert!(json.contains("\"apps\""));
        // Each counter is said once, in its report object: no `metrics`
        // copy of `queue` or `totals`.
        assert!(!json.contains("\"metrics\""));
        assert!(json.contains("\"queue\": {\"events\": 0,"));
        assert!(json.contains("\"makespan\": 1000,"));
        assert!(json.contains("\"peak_queue_depth\": 3,"));
        assert!(json.contains("\"p95_latency\":5"));
        assert!(json.contains("\"latency_source\": \"exact\""));
        assert!(json.contains("\"queue_bound\": 0"), "None renders as 0");
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"reliability\""));
        assert!(json.contains("\"availability\": 1.0000"));
        assert!(json.contains("\"deadline\": 0"), "None renders as 0");
        let table = r.format_table();
        assert!(table.contains("policy fcfs"));
        assert!(table.contains("queue bound unbounded"));
        assert!(table.contains("p95 latency"));
        assert!(
            !table.contains("availability"),
            "inert spec keeps the table fault-silent"
        );
        let mut faulted = r.clone();
        faulted.faults = FaultSpec::uniform(7, 100);
        faulted.reliability.injected = 3;
        let table = faulted.format_table();
        assert!(table.contains("3 injected"));
        assert!(table.contains("availability"));
    }

    #[test]
    fn sketch_backed_stats_match_buffered_stats_exactly() {
        // Sorted: 3 3 10 18 40 77 99. Nearest rank: p50 is the 4th, p95
        // the 7th.
        let sketch = exact_sketch(&[40, 10, 77, 3, 3, 99, 18]);
        assert_eq!(
            AppStats::from_sketch("x", 9, 7, 2, &sketch),
            AppStats {
                name: "x".to_owned(),
                arrived: 9,
                completed: 7,
                rejected: 2,
                p50_latency: 18,
                p95_latency: 99,
                max_latency: 99,
            }
        );
    }
}
