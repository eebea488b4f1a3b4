//! Exploration outcome: effort accounting plus the frontier, with a
//! paper-style text rendering.

use crate::archive::ParetoArchive;
use crate::eval::{EvalStats, Evaluator, PointEval};
use crate::space::DesignSpace;
use crate::strategy::{ExploreConfig, SearchStrategy};
use amdrel_core::{CacheStats, CoreError};
use std::fmt::Write as _;

/// Everything one exploration produced: provenance (app, strategy, seed,
/// objective selection), effort counters, and the Pareto frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Application label.
    pub app: String,
    /// Strategy identifier ([`SearchStrategy::name`]).
    pub strategy: String,
    /// Canonical names of the minimised objectives, in vector order
    /// (aligned with every frontier member's
    /// [`objectives`](PointEval::objectives)).
    pub objectives: Vec<String>,
    /// The RNG seed used.
    pub seed: u64,
    /// The evaluation budget requested.
    pub eval_budget: usize,
    /// The worker-count setting (0 = automatic).
    pub jobs: usize,
    /// Total points in the explored space.
    pub space_points: usize,
    /// Total `(area, datapath)` cells in the space.
    pub space_cells: usize,
    /// The timing constraint points were judged against.
    pub constraint: u64,
    /// Effort this exploration added on the evaluator.
    pub stats: EvalStats,
    /// Mapping work this exploration added on the shared cache.
    pub cache: CacheStats,
    /// Candidates the archive accepted during the search.
    pub archive_inserts: u64,
    /// Frontier members removed by pruning during the search.
    pub archive_pruned: u64,
    /// The Pareto frontier, sorted ascending by `(objectives, point)`.
    pub frontier: Vec<PointEval>,
}

impl ExploreReport {
    /// The frontier member with the fewest total cycles (smallest
    /// point index on ties).
    pub fn best_cycles(&self) -> Option<&PointEval> {
        self.frontier.iter().min_by_key(|p| (p.cycles, p.point))
    }

    /// The frontier member with the smallest FPGA area (fewest cycles,
    /// then smallest point index, on ties).
    pub fn best_area(&self) -> Option<&PointEval> {
        self.frontier
            .iter()
            .min_by_key(|p| (p.area, p.cycles, p.point))
    }

    /// The frontier member with the lowest energy (fewest cycles, then
    /// smallest point index, on ties).
    pub fn best_energy(&self) -> Option<&PointEval> {
        self.frontier
            .iter()
            .min_by_key(|p| (p.energy_total(), p.cycles, p.point))
    }

    /// The frontier member with the lowest simulated p95 latency
    /// (`None` when the exploration ran without runtime objectives).
    pub fn best_p95(&self) -> Option<&PointEval> {
        self.frontier
            .iter()
            .filter(|p| p.contention.is_some())
            .min_by_key(|p| {
                (
                    p.contention.as_ref().expect("filtered").p95_latency,
                    p.cycles,
                    p.point,
                )
            })
    }

    /// `true` if the frontier carries contention metrics (a runtime
    /// objective was selected).
    fn has_contention(&self) -> bool {
        self.frontier.iter().any(|p| p.contention.is_some())
    }

    /// Render the report as a paper-style text table.
    pub fn format_table(&self) -> String {
        let contention = self.has_contention();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} design-space exploration — strategy {} (seed {}, budget {}, objectives {})",
            self.app,
            self.strategy,
            self.seed,
            self.eval_budget,
            self.objectives.join(",")
        );
        let _ = writeln!(
            out,
            "space: {} points over {} cells, constraint {} cycles",
            self.space_points, self.space_cells, self.constraint
        );
        let _ = writeln!(
            out,
            "effort: {} points evaluated, {} engine runs, {} cell-cache hits, {} workload sims; \
             mappings: {} fine + {} coarse computed, {} served from cache",
            self.stats.points_evaluated,
            self.stats.engine_runs,
            self.stats.cell_hits,
            self.stats.sim_runs,
            self.cache.fine_misses,
            self.cache.coarse_misses,
            self.cache.hits(),
        );
        let _ = writeln!(out, "Pareto frontier ({} points):", self.frontier.len());
        let _ = write!(
            out,
            "{:<8} {:<16} {:<8} {:<14} {:<9} {:<14} {:<4}",
            "A_FPGA", "datapath", "kernels", "final cycles", "speedup", "energy", "met"
        );
        if contention {
            let _ = write!(out, " {:<12} {:<10}", "p95 latency", "jobs/Mcyc");
        }
        out.push('\n');
        for p in &self.frontier {
            let _ = write!(
                out,
                "{:<8} {:<16} {:<8} {:<14} {:<9} {:<14} {:<4}",
                p.area,
                p.datapath.trim_end_matches(" CGCs"),
                p.kernels_moved,
                p.cycles,
                format!("{:.2}x", p.speedup()),
                p.energy_total(),
                if p.met { "yes" } else { "NO" },
            );
            if contention {
                match &p.contention {
                    Some(c) => {
                        let _ = write!(
                            out,
                            " {:<12} {:<10}",
                            c.p95_latency,
                            format!("{:.2}", c.jobs_per_mcycle())
                        );
                    }
                    None => {
                        let _ = write!(out, " {:<12} {:<10}", "-", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Run one strategy over one space and package the outcome.
///
/// Effort counters are reported as the *delta* this call added, so one
/// evaluator (and its shared [`amdrel_core::MappingCache`]) can serve
/// several strategies in sequence — later strategies then inherit warm
/// caches, exactly like a production sweep service would. The objective
/// selection lives on the evaluator ([`Evaluator::with_objectives`]),
/// so one call explores under whatever vector — static or
/// contention-aware — the evaluator was configured with.
///
/// # Errors
///
/// Fabric-mapping failures from the evaluator.
pub fn explore(
    eval: &Evaluator<'_>,
    space: &DesignSpace,
    strategy: &dyn SearchStrategy,
    config: &ExploreConfig,
) -> Result<ExploreReport, CoreError> {
    let stats_before = eval.stats();
    let cache_before = eval.cache_stats();
    let mut archive = ParetoArchive::new();
    strategy.run(space, eval, config, &mut archive)?;
    let stats_after = eval.stats();
    let cache_after = eval.cache_stats();
    Ok(ExploreReport {
        app: eval.app().to_owned(),
        strategy: strategy.name().to_owned(),
        objectives: eval
            .objectives()
            .names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        seed: config.seed,
        eval_budget: config.eval_budget,
        jobs: config.jobs,
        space_points: space.len(),
        space_cells: space.cells(),
        constraint: space.constraint,
        stats: stats_after.since(&stats_before),
        cache: CacheStats {
            fine_hits: cache_after.fine_hits - cache_before.fine_hits,
            fine_misses: cache_after.fine_misses - cache_before.fine_misses,
            coarse_hits: cache_after.coarse_hits - cache_before.coarse_hits,
            coarse_misses: cache_after.coarse_misses - cache_before.coarse_misses,
            // The cache never evicts, so the entry gauge only grows; the
            // delta is the mappings this run added.
            entries: cache_after.entries - cache_before.entries,
        },
        archive_inserts: archive.inserts(),
        archive_pruned: archive.pruned(),
        frontier: archive.into_frontier(),
    })
}
