//! # amdrel-explore — multi-objective design-space exploration
//!
//! The paper's methodology evaluates one `(FPGA config, CGC datapath,
//! kernel selection)` point at a time; the related Zynq estimator work
//! (Jiménez-González et al.) and Chen et al.'s integrated
//! partitioning/scheduling optimiser both exist to *search* such spaces.
//! This crate turns the workspace's fast evaluator (incremental
//! [`PartitioningEngine`](amdrel_core::PartitioningEngine), shared
//! [`MappingCache`](amdrel_core::MappingCache), parallel grid sweep) into
//! that explorer:
//!
//! * [`DesignSpace`] / [`PointIdx`] — the joint space of FPGA areas ×
//!   CGC datapaths × kernel-selection budgets;
//! * [`Evaluator`] — memoised point evaluation: one full-drain engine run
//!   prices every kernel budget of an `(area, datapath)` cell, timing
//!   from the engine's breakdowns and energy from
//!   [`BlockEnergyCosts`](amdrel_core::BlockEnergyCosts) deltas;
//! * [`ObjectiveSet`] / [`Objectives`] — the minimised objectives as an
//!   N-vector: the classic static triple (total cycles, FPGA area,
//!   energy) by default, extensible with runtime objectives (`p95`,
//!   `throughput`) scored under multi-tenant contention;
//! * [`RuntimeEvaluator`] — the contention scorer: derives the
//!   candidate's per-job [`AppProfile`](amdrel_runtime::AppProfile)
//!   from each design point's own engine result, joins it with fixed
//!   background tenants, and plays a seeded workload mix through the
//!   deterministic `amdrel-runtime` simulator;
//! * [`ParetoArchive`] — the non-dominated frontier over the selected
//!   objective vector (any arity), with deterministic iteration order
//!   and deterministic post-search pruning;
//! * [`SearchStrategy`] — pluggable search: [`Exhaustive`] (the parallel
//!   grid sweep), [`RandomSampling`], and [`SimulatedAnnealing`], all
//!   seeded from [`amdrel_core::rng::SplitMix64`] so frontiers are
//!   bit-reproducible and `--jobs`-independent;
//! * [`explore`] / [`ExploreReport`] — one-call driver with effort
//!   counters (evaluator, mapping cache and archive churn), a
//!   paper-style table, and [`json`] rendering (schema
//!   `amdrel-explore/v4`).
//!
//! # Examples
//!
//! ```
//! use amdrel_core::{EnergyModel, MappingCache, Platform};
//! use amdrel_explore::{
//!     explore, DesignSpace, Evaluator, ExploreConfig, SimulatedAnnealing,
//! };
//! use amdrel_profiler::{AnalysisReport, Interpreter, WeightTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     int x[64];
//!     int y[64];
//!     int main() {
//!         for (int i = 0; i < 64; i++) {
//!             y[i] = x[i] * x[i] * 3 + x[i] * 7 + 11;
//!         }
//!         return y[63];
//!     }
//! "#;
//! let program = amdrel_minic::compile(src, "main")?;
//! let execution = Interpreter::new(&program.ir).run(&[])?;
//! let analysis =
//!     AnalysisReport::analyze(&program.cdfg, &execution.block_counts, &WeightTable::paper());
//! let base = Platform::paper(1500, 2);
//! let space = DesignSpace {
//!     areas: vec![1200, 1500, 5000],
//!     datapaths: vec![
//!         amdrel_coarsegrain::CgcDatapath::two_2x2(),
//!         amdrel_coarsegrain::CgcDatapath::three_2x2(),
//!     ],
//!     max_kernel_budget: 2,
//!     constraint: 2_000,
//! };
//! let cache = MappingCache::new();
//! let eval = Evaluator::new(
//!     "toy", &program.cdfg, &analysis, &base, EnergyModel::default(), &cache,
//! );
//! let report = explore(&eval, &space, &SimulatedAnnealing::default(), &ExploreConfig {
//!     seed: 42,
//!     eval_budget: 24,
//!     jobs: 0,
//! })?;
//! assert!(!report.frontier.is_empty());
//! println!("{}", report.format_table());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod archive;
mod contention;
mod eval;
pub mod json;
mod objective;
mod report;
mod space;
mod strategy;

pub use archive::{Insert, ParetoArchive};
pub use contention::{ContentionMetrics, RuntimeEvaluator};
pub use eval::{EvalStats, Evaluator, PointEval};
pub use objective::{Objective, ObjectiveSet, Objectives};
pub use report::{explore, ExploreReport};
pub use space::{DesignSpace, PointIdx};
pub use strategy::{Exhaustive, ExploreConfig, RandomSampling, SearchStrategy, SimulatedAnnealing};

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_coarsegrain::CgcDatapath;
    use amdrel_core::{EnergyBreakdown, EnergyModel, MappingCache, Platform};
    use amdrel_profiler::{AnalysisReport, Interpreter, WeightTable};

    pub(crate) fn toy() -> (amdrel_minic::CompiledProgram, AnalysisReport) {
        let src = r#"
            int data[128];
            int out[128];
            int main() {
                int acc = 0;
                for (int i = 0; i < 128; i++) {
                    int x = data[i];
                    out[i] = x * x * 5 + x * 3 + 7;
                    acc += out[i];
                }
                return acc;
            }
        "#;
        let c = amdrel_minic::compile(src, "main").unwrap();
        let exec = Interpreter::new(&c.ir).run(&[]).unwrap();
        let a = AnalysisReport::analyze(&c.cdfg, &exec.block_counts, &WeightTable::paper());
        (c, a)
    }

    pub(crate) fn toy_space() -> DesignSpace {
        DesignSpace {
            areas: vec![1200, 1500, 5000],
            datapaths: vec![CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
            max_kernel_budget: 3,
            constraint: 3_000,
        }
    }

    fn synthetic_eval(cycles: u64, area: u64, energy: u64) -> PointEval {
        PointEval {
            point: PointIdx {
                area: 0,
                datapath: 0,
                budget: 0,
            },
            area,
            datapath: "two 2x2 CGCs".to_owned(),
            kernels_moved: 0,
            initial_cycles: cycles.max(1) * 2,
            cycles,
            energy: EnergyBreakdown {
                e_fpga_ops: energy,
                e_reconfig: 0,
                e_cgc_ops: 0,
                e_comm: 0,
            },
            contention: None,
            objectives: Objectives::new(vec![cycles, area, energy]),
            met: true,
        }
    }

    #[test]
    fn exhaustive_frontier_is_nondominated_and_optimal() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let space = toy_space();
        let report = explore(&eval, &space, &Exhaustive, &ExploreConfig::default()).unwrap();
        assert!(!report.frontier.is_empty());
        // Every pair is mutually non-dominated.
        for (i, p) in report.frontier.iter().enumerate() {
            for (j, q) in report.frontier.iter().enumerate() {
                if i != j {
                    assert!(
                        !p.objectives.dominates(&q.objectives),
                        "{p:?} dominates {q:?}"
                    );
                }
            }
        }
        // Exhaustive covers the whole space, one engine run per cell.
        assert_eq!(report.stats.points_evaluated as usize, space.len());
        assert_eq!(report.stats.engine_runs as usize, space.cells());
        // The grid-wide cycle optimum is on the frontier.
        let mut best = u64::MAX;
        for flat in 0..space.len() {
            best = best.min(eval.evaluate(&space, space.point(flat)).unwrap().cycles);
        }
        assert_eq!(report.best_cycles().unwrap().cycles, best);
    }

    #[test]
    fn fragmentation_objectives_shape_a_deterministic_frontier() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let space = toy_space();
        let run = || {
            let cache = MappingCache::new();
            let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache)
                .with_objectives(ObjectiveSet::parse("cycles,area,fragmentation").unwrap())
                .with_regions(4);
            explore(&eval, &space, &Exhaustive, &ExploreConfig::default()).unwrap()
        };
        let report = run();
        assert!(!report.frontier.is_empty());
        for p in &report.frontier {
            let frag = p.objectives.values()[2];
            assert!(frag <= 1000, "fragmentation is a permille: {frag}");
        }
        // The floorplan objective is static: no workload simulations ran.
        assert_eq!(report.stats.sim_runs, 0);
        // Pure integer placement: a fresh evaluator reproduces the
        // frontier exactly.
        assert_eq!(report.frontier, run().frontier);
    }

    #[test]
    fn worst_region_load_is_a_valid_permille_objective() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache)
            .with_objectives(ObjectiveSet::parse("cycles,worst_region_load").unwrap())
            .with_regions(2);
        let space = toy_space();
        let p = PointIdx {
            area: 2,
            datapath: 0,
            budget: 0,
        };
        let eval1 = eval.evaluate(&space, p).unwrap();
        let load = eval1.objectives.values()[1];
        assert!(load <= 1000, "worst-region occupancy is a permille: {load}");
        // Budget 0 keeps every kernel on the fabric, so something is
        // resident and the worst region is genuinely loaded.
        assert!(load > 0);
    }

    #[test]
    fn evaluator_memoises_cells() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let space = toy_space();
        let p = PointIdx {
            area: 1,
            datapath: 0,
            budget: 2,
        };
        let first = eval.evaluate(&space, p).unwrap();
        for budget in 0..space.budgets() {
            let _ = eval.evaluate(&space, PointIdx { budget, ..p }).unwrap();
        }
        let again = eval.evaluate(&space, p).unwrap();
        assert_eq!(first, again);
        let stats = eval.stats();
        assert_eq!(stats.engine_runs, 1, "one cell, one engine run");
        assert_eq!(stats.points_evaluated, 2 + space.budgets() as u64);
        assert_eq!(stats.cell_hits, stats.points_evaluated - 1);
    }

    #[test]
    fn shared_evaluator_never_reruns_cells() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let space = toy_space();
        // SA warms part of the cell map; a following exhaustive pass must
        // compute only the missing cells — across both explorations each
        // cell runs the engine exactly once, and the per-strategy deltas
        // add up exactly.
        let config = ExploreConfig::default();
        let sa = explore(&eval, &space, &SimulatedAnnealing::default(), &config).unwrap();
        let ex = explore(&eval, &space, &Exhaustive, &config).unwrap();
        assert!(sa.stats.engine_runs > 0);
        assert_eq!(
            sa.stats.engine_runs + ex.stats.engine_runs,
            space.cells() as u64
        );
        assert_eq!(eval.stats().engine_runs, space.cells() as u64);
    }

    #[test]
    fn budget_clamps_to_kernel_count() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let mut space = toy_space();
        space.max_kernel_budget = 1000;
        let p = eval
            .evaluate(
                &space,
                PointIdx {
                    area: 0,
                    datapath: 0,
                    budget: 1000,
                },
            )
            .unwrap();
        assert!(p.kernels_moved <= a.kernels().len());
    }

    #[test]
    fn energy_objective_matches_oracle() {
        use amdrel_core::{energy_of_assignment, Assignment};
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let space = toy_space();
        for budget in 0..space.budgets() {
            let p = eval
                .evaluate(
                    &space,
                    PointIdx {
                        area: 1,
                        datapath: 1,
                        budget,
                    },
                )
                .unwrap();
            // Reconstruct the assignment the engine would have after
            // moving the first `kernels_moved` ranked kernels.
            let mut platform = base.clone();
            platform.fpga.total_area = space.areas[1];
            platform.datapath = space.datapaths[1].clone();
            let mut assignment = vec![Assignment::FineGrain; c.cdfg.len()];
            for &k in a.kernels().iter().take(p.kernels_moved) {
                assignment[k.index()] = Assignment::CoarseGrain;
            }
            let oracle =
                energy_of_assignment(&c.cdfg, &a, &platform, &EnergyModel::default(), &assignment)
                    .unwrap();
            assert_eq!(p.energy, oracle, "budget {budget}");
            assert_eq!(p.energy_total(), oracle.total());
            assert_eq!(p.objectives.values()[2], oracle.total());
        }
    }

    #[test]
    fn archive_insert_outcomes() {
        let mut archive = ParetoArchive::new();
        assert_eq!(archive.insert(synthetic_eval(50, 1500, 900)), Insert::Added);
        assert_eq!(
            archive.insert(synthetic_eval(40, 5000, 900)),
            Insert::Added,
            "trade-off point joins"
        );
        assert_eq!(
            archive.insert(synthetic_eval(60, 5000, 950)),
            Insert::Dominated
        );
        assert_eq!(
            archive.insert(synthetic_eval(50, 1500, 900)),
            Insert::Duplicate
        );
        assert_eq!(
            archive.insert(synthetic_eval(30, 1200, 800)),
            Insert::Added,
            "dominator evicts everything"
        );
        assert_eq!(archive.len(), 1);
        assert!(!archive.is_empty());
    }

    #[test]
    fn archive_prune_keeps_extremes() {
        let mut archive = ParetoArchive::new();
        // A staircase frontier: cycles falls as area and energy rise.
        for i in 0..20u64 {
            archive.insert(synthetic_eval(100 - i, 1000 + i * 100, 500 + i * 7));
        }
        assert_eq!(archive.len(), 20);
        let best_cycles = 81;
        let best_area = 1000;
        archive.prune_to(5);
        assert_eq!(archive.len(), 5);
        let frontier = archive.frontier();
        assert!(frontier.iter().any(|p| p.cycles == best_cycles));
        assert!(frontier.iter().any(|p| p.area == best_area));
    }

    #[test]
    fn repeated_pruning_is_stable_and_keeps_extremes() {
        let mut archive = ParetoArchive::new();
        for i in 0..50u64 {
            archive.insert(synthetic_eval(1000 - i, 1000 + i * 10, 100 + i));
        }
        archive.prune_to(4);
        assert_eq!(archive.len(), 4);
        let once = archive.clone();
        // Pruning to the same bound again is a no-op (already ≤ max).
        archive.prune_to(4);
        assert_eq!(archive, once);
        // The cycle minimiser survived.
        assert_eq!(archive.frontier()[0].cycles, 951);
    }

    #[test]
    fn json_renders_valid_shapes() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache);
        let report = explore(
            &eval,
            &toy_space(),
            &RandomSampling,
            &ExploreConfig {
                eval_budget: 12,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        let json = json::report_to_json(&report);
        assert!(json.contains("\"schema\": \"amdrel-explore/v4\""));
        assert!(json.contains("\"objectives\": [\"cycles\", \"area\", \"energy\"]"));
        assert!(json.contains("\"frontier\""));
        // Each fact is said once: no `metrics` copy of `effort`/`cache`,
        // and the archive churn it alone held now closes `effort`.
        assert!(!json.contains("\"metrics\""));
        assert!(report.archive_inserts > 0, "the search filled the archive");
        assert!(json.contains(&format!(
            "\"sim_runs\": 0, \"archive_inserts\": {}, \"archive_pruned\": {}}}",
            report.archive_inserts, report.archive_pruned
        )));
        assert_eq!(
            json.matches("{\"area\":").count(),
            report.frontier.len(),
            "one object per frontier member"
        );
    }

    #[test]
    fn runtime_objectives_extend_the_vector_and_memoise_sims() {
        use amdrel_runtime::{AppProfile, Fcfs};
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let background = vec![AppProfile::synthetic("bg", 0, 9_000, 2_500, vec![600])];
        let contention = RuntimeEvaluator::new(background, Box::new(Fcfs))
            .with_seed(11)
            .with_njobs(48)
            .with_load(125);
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache)
            .with_objectives(ObjectiveSet::parse("cycles,area,energy,p95").unwrap())
            .with_runtime(&contention);
        let space = toy_space();
        let p = PointIdx {
            area: 1,
            datapath: 0,
            budget: 1,
        };
        let first = eval.evaluate(&space, p).unwrap();
        assert_eq!(first.objectives.len(), 4);
        let metrics = first.contention.expect("runtime objective scored");
        assert_eq!(first.objectives.values()[3], metrics.p95_latency);
        assert!(metrics.completed + metrics.rejected == 48);
        // Re-evaluating the same point reuses the memoised simulation.
        let again = eval.evaluate(&space, p).unwrap();
        assert_eq!(first, again);
        assert_eq!(eval.stats().sim_runs, 1, "one point, one simulation");
        // A different budget is a different candidate profile → new sim.
        let other = eval
            .evaluate(
                &space,
                PointIdx {
                    area: 1,
                    datapath: 0,
                    budget: 0,
                },
            )
            .unwrap();
        assert_eq!(eval.stats().sim_runs, 2);
        assert_ne!(other.contention, first.contention);
    }

    #[test]
    #[should_panic(expected = "need a RuntimeEvaluator")]
    fn runtime_objectives_without_scorer_panic() {
        let (c, a) = toy();
        let base = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let eval = Evaluator::new("toy", &c.cdfg, &a, &base, EnergyModel::default(), &cache)
            .with_objectives(ObjectiveSet::parse("cycles,p95").unwrap());
        let space = toy_space();
        let _ = eval.evaluate(
            &space,
            PointIdx {
                area: 0,
                datapath: 0,
                budget: 0,
            },
        );
    }
}
