//! Machine-readable perf baseline and the repository's one timing
//! program. Every wall-clock row goes through [`sample`] (median, min and
//! max ns per call over a fixed number of batched samples) and lands in
//! `BENCH_engine.json`: the profiling interpreter on the three case
//! studies and the native JPEG encoder, the engine move loop across app
//! sizes, grid sweeps with and without the mapping cache, one exploration
//! per search strategy, the runtime simulator per policy, fault
//! configuration, job count and shard count, the floorplanner, and the
//! tracing sink. The same run writes the deterministic baselines: one
//! seeded exploration per search strategy into `BENCH_explore.json` with
//! its effort counters, the static-vs-contention co-exploration frontiers
//! into `BENCH_explore_contention.json` (including the platform points
//! only the contention-aware search surfaces), and one seeded 3-app
//! runtime simulation per scheduling policy into `BENCH_runtime.json`
//! (simulated throughput, latency percentiles, reconfiguration-stall
//! share, wall-clock simulation speed, one fault-injected reliability row
//! for the recovery invariants, one floorplan row comparing
//! region-granular partial reconfiguration against streamed full-fabric
//! loads, and the million-job scaling, overload and sharded rows), so
//! the perf, search-efficiency and servable-workload trajectories can
//! all be tracked and checked in CI. Each file's schema and regression
//! signatures are documented in `docs/BENCHMARKS.md`.
//!
//! Run with: `cargo run --release --example bench_report`

use amdrel::apps::sobel;
use amdrel::core::json::{document, Document, Fixed, Json, Sep};
use amdrel::prelude::*;
use amdrel_bench::{synthetic_app, synthetic_tenants};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed samples per row; odd, so the median is one of them.
const SAMPLES: usize = 11;
/// The shortest span one sample should cover: a routine faster than this
/// is called `batch` times per sample.
const MIN_SAMPLE: Duration = Duration::from_millis(10);

/// Wall-clock ns per call of one routine: the median, min and max over
/// [`SAMPLES`] samples of `batch` calls each.
#[derive(Clone, Copy)]
struct Timing {
    median: f64,
    min: f64,
    max: f64,
    batch: u64,
}

impl Timing {
    /// The same spread per unit of work, for a routine doing `units`.
    fn per(self, units: usize) -> Timing {
        let units = units.max(1) as f64;
        Timing {
            median: self.median / units,
            min: self.min / units,
            max: self.max / units,
            ..self
        }
    }
}

/// Time `routine`: one warm-up call sizes the batch so each sample lasts
/// at least [`MIN_SAMPLE`], then [`SAMPLES`] batches are timed. Returns
/// the spread and the warm-up call's output.
fn sample<O>(mut routine: impl FnMut() -> O) -> (Timing, O) {
    let start = Instant::now();
    let output = routine();
    let warm_up = start.elapsed().as_nanos().max(1);
    let batch = MIN_SAMPLE.as_nanos().div_ceil(warm_up) as u64;
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let timing = Timing {
        median: ns[SAMPLES / 2],
        min: ns[0],
        max: ns[SAMPLES - 1],
        batch,
    };
    (timing, output)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut report: Vec<(String, Timing)> = Vec::new();
    let mut row = |name: &str, timing: Timing| report.push((name.to_owned(), timing));

    // --- The profiling interpreter on each case study, and the native
    //     encoder of the same 256x256 JPEG image (CI gates their ratio).
    let workload = ofdm::workload(2004);
    let jpeg_workload = jpeg::workload(jpeg::PAPER_DIM, 2004);
    let sobel_workload = sobel::workload(32, 2004);
    for (name, case) in [
        ("ofdm", &workload),
        ("jpeg_256", &jpeg_workload),
        ("sobel_32", &sobel_workload),
    ] {
        let program = compile(&case.source, "main")?;
        let inputs = case.input_refs();
        let (t, _) = sample(|| {
            Interpreter::new(&program.ir)
                .run(&inputs)
                .expect("case study runs")
        });
        row(&format!("profiler/interp_{name}"), t);
    }
    let image = &jpeg_workload.inputs[0].1;
    let (t, _) = sample(|| jpeg::encode(image, jpeg::PAPER_DIM));
    row("apps/jpeg_reference_256", t);

    // --- Engine move loop on the OFDM case study (warm mapping cache).
    let program = compile(&workload.source, "main")?;
    let execution = Interpreter::new(&program.ir).run(&workload.input_refs())?;
    let ofdm_analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    let platform = Platform::paper(1500, 2);
    let cache = MappingCache::new();
    let engine = PartitioningEngine::new(&program.cdfg, &ofdm_analysis, &platform)
        .with_mapping_cache(&cache);
    engine.run(paper::OFDM_CONSTRAINT)?; // warm the cache
    let (t, _) = sample(|| engine.run(paper::OFDM_CONSTRAINT).expect("engine runs"));
    row("engine/run_ofdm_a1500_c2_warm", t);

    // --- Engine move loop across app sizes (synthetic kernels, all
    //     moved). The loop is O(1) per move, so per_move stays flat in
    //     the block count.
    for blocks in [8, 32, 128, 512] {
        let (cdfg, freqs) = synthetic_app(blocks);
        let analysis = AnalysisReport::analyze(&cdfg, &freqs, &WeightTable::paper());
        let cache = MappingCache::new();
        let engine =
            PartitioningEngine::new(&cdfg, &analysis, &platform).with_mapping_cache(&cache);
        let moves = engine.run(1)?.moves.len(); // also warms the cache
        let (t, _) = sample(|| engine.run(1).expect("engine runs"));
        row(&format!("engine/move_loop_{blocks}_blocks_warm"), t);
        row(
            &format!("engine/per_move_{blocks}_blocks_warm"),
            t.per(moves),
        );
    }

    // --- Grid sweeps over the OFDM design space.
    let areas = [1200u64, 1500, 5000, 20_000];
    let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
    let spec = GridSpec {
        app: &workload.name,
        cdfg: &program.cdfg,
        analysis: &ofdm_analysis,
        base: &platform,
        areas: &areas,
        datapaths: &datapaths,
        constraint: paper::OFDM_CONSTRAINT,
    };
    // The pre-cache behaviour: every cell maps both fabrics privately.
    let (t, _) = sample(|| {
        for &area in &areas {
            for dp in &datapaths {
                let mut cell = platform.clone();
                cell.fpga.total_area = area;
                cell.datapath = dp.clone();
                black_box(
                    PartitioningEngine::new(&program.cdfg, &ofdm_analysis, &cell)
                        .run(paper::OFDM_CONSTRAINT)
                        .expect("engine runs"),
                );
            }
        }
    });
    row("sweep/uncached_per_cell", t);
    let (t, _) = sample(|| run_grid_cached(&spec, &MappingCache::new()).expect("grid runs"));
    row("sweep/run_grid_cached_cold", t);
    let (t, _) =
        sample(|| run_grid_parallel_jobs(&spec, &MappingCache::new(), 0).expect("grid runs"));
    row("sweep/run_grid_parallel_cold", t);
    let warm = MappingCache::new();
    run_grid_cached(&spec, &warm)?;
    let (t, _) = sample(|| run_grid_cached(&spec, &warm).expect("grid runs"));
    row("sweep/run_grid_warm_cache", t);

    // --- Exploration strategies over the OFDM design space: one seeded
    //     run per strategy on a cold mapping cache, recording effort
    //     counters for BENCH_explore.json (the search-efficiency
    //     baseline asserted by the apps-crate acceptance test).
    let space = ofdm::design_space();
    let config = ExploreConfig {
        seed: 42,
        eval_budget: 64,
        jobs: 0,
    };
    let strategies: [&dyn SearchStrategy; 3] =
        [&Exhaustive, &RandomSampling, &SimulatedAnnealing::default()];
    let mut explore_rows = Vec::new();
    for strategy in strategies {
        let (t, result) = sample(|| {
            let cache = MappingCache::new();
            let evaluator = Evaluator::new(
                &workload.name,
                &program.cdfg,
                &ofdm_analysis,
                &platform,
                EnergyModel::default(),
                &cache,
            );
            explore(&evaluator, &space, strategy, &config).expect("exploration runs")
        });
        row(&format!("explore/{}", result.strategy), t);
        explore_rows.push(result);
    }

    // --- Contention-aware co-exploration on OFDM: the static exhaustive
    //     frontier vs the 4-objective (… + p95) frontier scored by
    //     simulating the seeded standard mix on every candidate
    //     platform, for BENCH_explore_contention.json (the acceptance
    //     baseline asserted by crates/apps/tests/explore_contention.rs).
    //     Each timed call builds a fresh evaluator on the mapping cache
    //     the static run warmed.
    let contention = amdrel::apps::runtime::contention_evaluator("ofdm", &platform)?;
    let contention_objectives = ObjectiveSet::parse("cycles,area,energy,p95")?;
    let shared_cache = MappingCache::new();
    let evaluator = || {
        Evaluator::new(
            &workload.name,
            &program.cdfg,
            &ofdm_analysis,
            &platform,
            EnergyModel::default(),
            &shared_cache,
        )
    };
    let static_frontier = explore(&evaluator(), &space, &Exhaustive, &config)?;
    let (t, contention_frontier) = sample(|| {
        let contention_eval = evaluator()
            .with_objectives(contention_objectives.clone())
            .with_runtime(&contention);
        explore(&contention_eval, &space, &Exhaustive, &config).expect("exploration runs")
    });
    row("explore/contention_exhaustive", t);

    // --- Runtime simulator on the seeded 3-app standard mix: one
    //     simulation per scheduling policy for BENCH_runtime.json, each
    //     timed for the perf report.
    let sim_platform = Platform::paper(1500, 2);
    let profiles = amdrel::apps::runtime::standard_mix(&sim_platform)?;
    let spec = WorkloadSpec::uniform(42, 400, &profiles, 130);
    let sim_jobs = spec.generate(&profiles);
    let sim = Simulation::new(&sim_platform).profiles(&profiles);
    let mut runtime_rows = Vec::new();
    for name in ["fcfs", "sjf", "priority", "affinity"] {
        let policy = policy_by_name(name).expect("built-in policy");
        let run = sim.policy(policy.as_ref());
        let (t, result) = sample(|| run.run(&sim_jobs));
        let sim_jobs_per_sec = result.completed() as f64 * 1e9 / t.median;
        row(&format!("runtime/{name}_400_jobs"), t);
        runtime_rows.push((result, sim_jobs_per_sec));
    }

    // --- Fault layer on the same mix under affinity, whose fault-free
    //     run is runtime/affinity_400_jobs: inert is the zero-cost check
    //     (a zero-rate spec must not slow the hot loop), abort and
    //     degrade price recovery at 30 permille.
    let affinity = policy_by_name("affinity").expect("built-in policy");
    let affinity_sim = sim.policy(affinity.as_ref());
    let fault_rate: u16 = 30;
    let faults = FaultSpec::uniform(7, fault_rate);
    let abort = RecoveryPolicy::default();
    let recovery = RecoveryPolicy {
        degrade: true,
        ..abort
    };
    for (name, faults, recovery) in [
        ("inert", FaultSpec::uniform(7, 0), abort),
        ("abort", faults, abort),
        ("degrade", faults, recovery),
    ] {
        let run = affinity_sim.faults(faults).recovery(recovery);
        let (t, _) = sample(|| run.run(&sim_jobs));
        row(&format!("runtime/faults_{name}_400_jobs"), t);
    }

    // --- Calendar-queue engine at scale: 32 synthetic tenants streamed
    //     with sketched percentiles (the stream is never materialised and
    //     latency memory stays O(1) in the job count), so jobs/sec stays
    //     roughly flat across two orders of magnitude up to the
    //     million-job row of BENCH_runtime.json.
    let tenants = synthetic_tenants(32);
    let scaling_sim = Simulation::new(&sim_platform)
        .profiles(&tenants)
        .policy(&Fcfs)
        .sketch_mode(SketchMode::Sketched);
    for (label, jobs) in [("4k", 4_000), ("40k", 40_000), ("400k", 400_000)] {
        let mix = WorkloadSpec::uniform(42, jobs, &tenants, 90);
        let (t, _) = sample(|| scaling_sim.run_mix(&mix));
        row(&format!("runtime/fcfs_{label}_jobs_32_tenants"), t);
    }
    let scaling_spec = WorkloadSpec::uniform(42, 1_000_000, &tenants, 90);
    let (t, scaling_report) = sample(|| scaling_sim.run_mix(&scaling_spec));
    let scaling_jobs_per_sec = scaling_report.completed() as f64 * 1e9 / t.median;
    row("runtime/fcfs_1m_jobs_32_tenants", t);

    // --- Overload: the same tenants and job count at 400% load, once per
    //     policy. Half to four fifths of the jobs end up waiting at once, so
    //     these rows time the ordered wait queue; CI holds each policy's
    //     jobs/sec at >= 0.25x the 90%-load row above.
    let overload_load = 400;
    let overload_spec = WorkloadSpec::uniform(42, 1_000_000, &tenants, overload_load);
    let mut overload_rows = Vec::new();
    for name in ["fcfs", "sjf", "priority", "affinity"] {
        let policy = policy_by_name(name).expect("built-in policy");
        let run = scaling_sim.policy(policy.as_ref());
        let (t, result) = sample(|| run.run_mix(&overload_spec));
        row(&format!("runtime/{name}_1m_jobs_400_load"), t);
        let jobs_per_sec = result.completed() as f64 * 1e9 / t.median;
        overload_rows.push((result, jobs_per_sec));
    }

    // --- Sharded timelines (`Simulation::shards`): the threaded run at
    //     1/2/4/8 shards on 100k jobs, then the million-job population
    //     split across 8 replicas and folded back with the deterministic
    //     shard-order merge. The threaded wall-clock rate depends on how
    //     many cores the host has, so the committed row also records the
    //     scheduler-independent aggregate rate — each shard's
    //     subsequence timed serially through the plain engine, rates
    //     summed — which is what CI gates against the unsharded row.
    let shard_jobs = WorkloadSpec::uniform(42, 100_000, &tenants, 90).generate(&tenants);
    for shards in [1, 2, 4, 8] {
        let run = scaling_sim.shards(shards);
        let (t, _) = sample(|| run.run(&shard_jobs));
        row(&format!("runtime/fcfs_100k_jobs_{shards}_shards"), t);
    }
    let shard_count: usize = 8;
    let scaling_jobs = scaling_spec.generate(&tenants);
    let sharded = scaling_sim.shards(shard_count);
    let (t, sharded_report) = sample(|| sharded.run(&scaling_jobs));
    let sharded_jobs_per_sec = sharded_report.completed() as f64 * 1e9 / t.median;
    row("runtime/fcfs_1m_jobs_8_shards", t);
    let mut shard_agg_jobs_per_sec = 0.0;
    for shard in 0..shard_count {
        let subset: Vec<_> = scaling_jobs
            .iter()
            .copied()
            .filter(|job| shard_of(job.app, shard_count) == shard)
            .collect();
        if subset.is_empty() {
            continue;
        }
        let (t, part) = sample(|| scaling_sim.run(&subset));
        shard_agg_jobs_per_sec += part.completed() as f64 * 1e9 / t.median;
    }

    // --- Floorplanner on the standard mix's real configuration
    //     footprints: the joint 4-band placement every region-mode
    //     simulation freezes up front, the region plan built on it, and
    //     the affinity run under that plan (the streamed run is
    //     runtime/affinity_400_jobs).
    let mix_footprints: Vec<Footprint> = profiles
        .iter()
        .enumerate()
        .flat_map(|(app, p)| {
            p.config
                .partition_areas
                .iter()
                .map(move |&area| Footprint::new(app, area))
        })
        .collect();
    let floorplan_grid = FabricGrid::uniform(sim_platform.fpga.usable_area(), 4);
    let (t, _) = sample(|| Floorplanner.place(&floorplan_grid, &mix_footprints));
    row("floorplan/place_standard_mix_4_regions", t);
    let (t, region_plan) = sample(|| RegionPlan::new(&profiles, &floorplan_grid));
    row("floorplan/region_plan_standard_mix", t);
    let regioned = affinity_sim.regions(&region_plan);
    let (t, region_report) = sample(|| regioned.run(&sim_jobs));
    row("floorplan/simulate_region_400_jobs", t);

    // --- Tracing sink on the affinity run (the untraced run is
    //     runtime/affinity_400_jobs; CI holds traced below 2x of it),
    //     the same with faults injected, and the Chrome and text (timeline
    //     plus gantt, as the CLI renders it) exports of the fault-free trace.
    let traced_run = |run: &Simulation| {
        let sink = TraceBuffer::new();
        let report = run.trace(&sink).run(&sim_jobs);
        (report, sink)
    };
    let (t, (_, sink)) = sample(|| traced_run(&affinity_sim));
    row("trace/traced_400_jobs", t);
    let faulted_sim = affinity_sim.faults(faults);
    let (t, _) = sample(|| traced_run(&faulted_sim));
    row("trace/traced_faulted_400_jobs", t);
    let events = sink.take();
    let (t, _) = sample(|| chrome_trace(&events));
    row("trace/chrome_export", t);
    let (t, _) = sample(|| {
        let mut text = text_timeline(&events);
        text.push_str(&resource_gantt(&events, 72));
        text
    });
    row("trace/text_export", t);

    // --- Emit BENCH_engine.json.
    let json = document(|doc| {
        doc.field("schema", "amdrel-bench-report/v2");
        doc.field("unit", "ns per op");
        doc.field("samples", SAMPLES);
        doc.rows("benches", Sep::Spaced, |rows| {
            for (name, t) in &report {
                rows.elem_object(|row| {
                    row.field("name", name);
                    row.field("median_ns", Fixed(t.median, 1));
                    row.field("min_ns", Fixed(t.min, 1));
                    row.field("max_ns", Fixed(t.max, 1));
                    row.field("batch", t.batch);
                });
            }
        });
    });
    std::fs::write("BENCH_engine.json", &json)?;

    // --- Emit BENCH_explore.json: per-strategy evaluation counts and
    //     frontier sizes for the same seeded configuration every PR runs.
    let space_object = |doc: &mut Document| {
        doc.object("space", Sep::Spaced, |o| {
            o.field("points", space.len());
            o.field("cells", space.cells());
            o.field("constraint", space.constraint);
        });
    };
    let json = document(|doc| {
        doc.field("schema", "amdrel-explore-report/v1");
        doc.field("app", &workload.name);
        space_object(doc);
        doc.object("config", Sep::Spaced, |o| {
            o.field("seed", config.seed);
            o.field("eval_budget", config.eval_budget);
        });
        doc.rows("strategies", Sep::Spaced, |rows| {
            for r in &explore_rows {
                rows.elem_object(|row| {
                    row.field("name", &r.strategy);
                    row.field("points_evaluated", r.stats.points_evaluated);
                    row.field("engine_runs", r.stats.engine_runs);
                    row.field("cell_hits", r.stats.cell_hits);
                    row.field("frontier", r.frontier.len());
                    row.field(
                        "best_final_cycles",
                        r.best_cycles().map_or(u64::MAX, |p| p.cycles),
                    );
                });
            }
        });
    });
    std::fs::write("BENCH_explore.json", &json)?;

    // --- Emit BENCH_explore_contention.json: both frontiers of the
    //     co-exploration plus the platform points only the
    //     contention-aware search surfaces.
    let static_points: std::collections::BTreeSet<_> =
        static_frontier.frontier.iter().map(|p| p.point).collect();
    let added: Vec<&PointEval> = contention_frontier
        .frontier
        .iter()
        .filter(|p| !static_points.contains(&p.point))
        .collect();
    let frontier_rows =
        |doc: &mut Document, key, frontier: &mut dyn Iterator<Item = &PointEval>| {
            doc.rows(key, Sep::Spaced, |rows| {
                for p in frontier {
                    rows.elem_object(|row| {
                        row.field("area", p.area);
                        row.field("datapath", &p.datapath);
                        row.field("kernels_moved", p.kernels_moved);
                        row.field("final_cycles", p.cycles);
                        row.field("energy", p.energy_total());
                        if let Some(c) = &p.contention {
                            row.field("p95_latency", c.p95_latency);
                            row.field("cycles_per_job", c.cycles_per_job);
                        }
                    });
                }
            });
        };
    let json = document(|doc| {
        doc.field("schema", "amdrel-explore-contention-report/v1");
        doc.field("app", &workload.name);
        space_object(doc);
        doc.object("workload", Sep::Spaced, |o| {
            o.field("seed", contention.seed());
            o.field("njobs", contention.njobs());
            o.field("load_percent", contention.load_percent());
            o.field("policy", contention.policy_name());
            o.list(
                "background",
                contention.background().iter().map(|p| &p.name),
            );
        });
        doc.list("objectives", Sep::Spaced, &contention_frontier.objectives);
        doc.object("effort", Sep::Spaced, |o| {
            o.field("engine_runs", contention_frontier.stats.engine_runs);
            o.field("sim_runs", contention_frontier.stats.sim_runs);
        });
        frontier_rows(doc, "static_frontier", &mut static_frontier.frontier.iter());
        frontier_rows(
            doc,
            "contention_frontier",
            &mut contention_frontier.frontier.iter(),
        );
        frontier_rows(doc, "added_platform_points", &mut added.into_iter());
    });
    std::fs::write("BENCH_explore_contention.json", &json)?;

    // --- Emit BENCH_runtime.json: the servable-workload baseline on the
    //     seeded 3-app mix, per policy, plus the reliability, floorplan,
    //     million-job scaling, overload and sharded rows.
    //
    // The reliability row: the same seeded 400-job mix played under FCFS
    // with the deterministic fault layer injecting on every channel at
    // 30 permille and graceful degradation on, so CI can gate the
    // recovery invariants (availability in (0, 1], goodput <= raw
    // throughput, salvage accounting consistent with what was injected).
    let fcfs = policy_by_name("fcfs").expect("built-in policy");
    let faulted = sim
        .policy(fcfs.as_ref())
        .faults(faults)
        .recovery(recovery)
        .run(&sim_jobs);
    let rel = &faulted.reliability;
    // The floorplan row: the same seeded 400-job mix under affinity,
    // once with streamed full-fabric loads (the affinity policy row) and
    // once under the 4-region partial-reconfiguration plan, so CI can
    // gate the placement win (region stall share strictly below
    // streamed) and pin the deterministic fragmentation statistics.
    let streamed = &runtime_rows[3].0;
    let frag = region_plan.stats();
    // The scaling row: throughput_ratio normalises the wall-clock rate to
    // the 400-job FCFS row above; scale_up is the jobs/sec-normalised
    // scale factor (jobs ratio × throughput ratio) CI asserts stays ≥100.
    let fcfs_400_jobs_per_sec = runtime_rows[0].1;
    let throughput_ratio = scaling_jobs_per_sec / fcfs_400_jobs_per_sec;
    let scale_up = (scaling_spec.jobs as f64 / spec.jobs as f64) * throughput_ratio;
    // The scaling, overload and sharded rows share the workload
    // description.
    let workload_fields = |o: &mut Json, spec: &WorkloadSpec, load: u64, report: &RuntimeReport| {
        o.field("tenants", tenants.len());
        o.field("jobs", spec.jobs);
        o.field("seed", spec.seed);
        o.field("mean_interarrival", spec.mean_interarrival);
        o.field("load_percent", load);
        o.field("policy", &report.policy);
        o.field("completed", report.completed());
        o.field("rejected", report.rejected());
        o.field("makespan", report.makespan);
        o.field("p50_latency", report.p50_latency);
        o.field("p95_latency", report.p95_latency);
        o.field("latency_source", report.latency_source.as_str());
    };
    let json = document(|doc| {
        doc.field("schema", "amdrel-runtime-report/v6");
        doc.object("workload", Sep::Spaced, |o| {
            o.field("seed", spec.seed);
            o.field("jobs", spec.jobs);
            o.field("mean_interarrival", spec.mean_interarrival);
            o.list("apps", profiles.iter().map(|p| &p.name));
        });
        doc.rows("policies", Sep::Spaced, |rows| {
            for (r, sim_jobs_per_sec) in &runtime_rows {
                rows.elem_object(|row| {
                    row.field("name", &r.policy);
                    row.field("completed", r.completed());
                    row.field("rejected", r.rejected());
                    row.field("makespan", r.makespan);
                    row.field("jobs_per_mcycle", Fixed(r.jobs_per_mcycle(), 4));
                    row.field("p50_latency", r.p50_latency);
                    row.field("p95_latency", r.p95_latency);
                    row.field("reconfig_loads", r.reconfig_loads);
                    row.field("reconfig_stall_cycles", r.reconfig_stall_cycles);
                    row.field("stall_share", Fixed(r.stall_share(), 4));
                    row.field("fpga_utilization", Fixed(r.fpga_utilization(), 4));
                    row.field("cgc_utilization", Fixed(r.cgc_utilization(), 4));
                    row.field("sim_jobs_per_sec", Fixed(*sim_jobs_per_sec, 0));
                });
            }
        });
        doc.object("reliability", Sep::Spaced, |o| {
            o.field("policy", &faulted.policy);
            o.field("fault_rate_permille", fault_rate);
            o.field("fault_seed", faults.seed);
            o.field("max_retries", recovery.max_retries);
            o.field("degrade", recovery.degrade);
            o.field("injected", rel.injected);
            o.field("load_failures", rel.load_failures);
            o.field("fabric_kills", rel.fabric_kills);
            o.field("slot_outages", rel.slot_outages);
            o.field("retries", rel.retries);
            o.field("degraded", rel.degraded);
            o.field("aborted", rel.aborted);
            o.field("deadline_misses", rel.deadline_misses);
            o.field("completed", faulted.completed());
            o.field("makespan", faulted.makespan);
            o.field("availability", Fixed(faulted.availability(), 4));
            o.field(
                "goodput_jobs_per_mcycle",
                Fixed(faulted.goodput_jobs_per_mcycle(), 4),
            );
            o.field(
                "throughput_jobs_per_mcycle",
                Fixed(faulted.throughput_jobs_per_mcycle(), 4),
            );
        });
        doc.object("floorplan", Sep::Spaced, |o| {
            o.field("regions", region_plan.regions());
            o.field("policy", &streamed.policy);
            o.field("streamed_loads", streamed.reconfig_loads);
            o.field("streamed_stall_cycles", streamed.reconfig_stall_cycles);
            o.field("streamed_stall_share", Fixed(streamed.stall_share(), 4));
            o.field("region_loads", region_report.reconfig_loads);
            o.field("region_stall_cycles", region_report.reconfig_stall_cycles);
            o.field("region_stall_share", Fixed(region_report.stall_share(), 4));
            o.field("placement_failures", frag.placement_failures());
            o.field("internal_fragmentation_permille", frag.internal_permille());
            o.field("external_fragmentation_permille", frag.external_permille());
            o.field("worst_region_permille", frag.worst_region_permille());
        });
        doc.object("scaling", Sep::Spaced, |o| {
            workload_fields(o, &scaling_spec, 90, &scaling_report);
            o.field("sim_jobs_per_sec", Fixed(scaling_jobs_per_sec, 0));
            o.field("throughput_ratio", Fixed(throughput_ratio, 3));
            o.field("scale_up", Fixed(scale_up, 0));
        });
        // The overload rows: the scaling workload at 400% load, one per
        // policy, with the wait queue's high-water mark.
        doc.rows("overload", Sep::Spaced, |rows| {
            for (r, jobs_per_sec) in &overload_rows {
                rows.elem_object(|row| {
                    workload_fields(row, &overload_spec, overload_load, r);
                    row.field("peak_queue_depth", r.peak_queue_depth);
                    row.field("sim_jobs_per_sec", Fixed(*jobs_per_sec, 0));
                });
            }
        });
        // The sharded row: the scaling workload under `--shards 8`.
        // `completed` / `rejected` / `latency_source` / `busy_cycles` are
        // shard-count-invariant and CI asserts they match the scaling
        // row; makespan and the percentiles are deterministic but belong
        // to the 8-replica scenario (tenants on different shards no
        // longer contend). `shard_agg_jobs_per_sec` is the
        // scheduler-independent throughput figure CI gates at >= 2x the
        // scaling row's rate.
        doc.object("sharded", Sep::Spaced, |o| {
            o.field("shards", shard_count);
            workload_fields(o, &scaling_spec, 90, &sharded_report);
            o.field(
                "busy_cycles",
                sharded_report.fpga_busy_cycles + sharded_report.cgc_busy_cycles,
            );
            o.field("sim_jobs_per_sec", Fixed(sharded_jobs_per_sec, 0));
            o.field("shard_agg_jobs_per_sec", Fixed(shard_agg_jobs_per_sec, 0));
            o.field(
                "agg_speedup",
                Fixed(shard_agg_jobs_per_sec / scaling_jobs_per_sec, 2),
            );
        });
    });
    std::fs::write("BENCH_runtime.json", &json)?;

    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>7}",
        "bench", "median ns/op", "min", "max", "batch"
    );
    for (name, t) in &report {
        println!(
            "{name:<40} {:>14.1} {:>14.1} {:>14.1} {:>7}",
            t.median, t.min, t.max, t.batch
        );
    }
    println!(
        "\nwrote BENCH_engine.json, BENCH_explore.json, BENCH_explore_contention.json \
         and BENCH_runtime.json"
    );
    Ok(())
}
