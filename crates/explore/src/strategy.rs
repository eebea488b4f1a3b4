//! Pluggable search strategies over a [`DesignSpace`].
//!
//! Every strategy is a pure function of `(space, seed)` given a
//! deterministic evaluator: [`Exhaustive`] enumerates everything (cells
//! on the parallel grid sweep), [`RandomSampling`] draws a seeded uniform
//! sample, and [`SimulatedAnnealing`] walks seeded mutations of the
//! current point with a cooling acceptance rule — the metaheuristic shape
//! of Chen et al.'s combined partitioning/scheduling/floorplanning
//! optimiser, applied to this paper's (config, datapath, kernel-budget)
//! space. All randomness comes from the engine-side
//! [`SplitMix64`](amdrel_core::rng::SplitMix64) stream, so a fixed seed
//! reproduces the exact trajectory at any `--jobs` setting.

use crate::archive::ParetoArchive;
use crate::eval::Evaluator;
use crate::space::{DesignSpace, PointIdx};
use amdrel_core::rng::SplitMix64;
use amdrel_core::CoreError;

/// Strategy-independent exploration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Seed of the deterministic RNG stream (ignored by [`Exhaustive`]).
    pub seed: u64,
    /// Maximum number of design-point evaluations for sampling/annealing
    /// strategies ([`Exhaustive`] always evaluates the whole space).
    pub eval_budget: usize,
    /// Worker threads for parallel cell evaluation (0 = automatic);
    /// forwarded to [`amdrel_core::run_grid_parallel_jobs`]. Results are
    /// identical at every setting.
    pub jobs: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 42,
            eval_budget: 64,
            jobs: 0,
        }
    }
}

/// A design-space search strategy.
///
/// Implementations must be deterministic in `(space, config.seed)`: the
/// archive they leave behind may not depend on thread timing or
/// `config.jobs` (the built-in three all guarantee this; the archive's
/// order-independent insertion makes it easy to uphold). Strategies are
/// objective-agnostic: the evaluator prices each point on its configured
/// [`ObjectiveSet`](crate::ObjectiveSet), and the archive keeps the
/// frontier at whatever arity those vectors have.
///
/// # Examples
///
/// A custom strategy is one method: evaluate points, offer them to the
/// archive.
///
/// ```
/// use amdrel_core::CoreError;
/// use amdrel_explore::{
///     DesignSpace, Evaluator, ExploreConfig, ParetoArchive, SearchStrategy,
/// };
///
/// /// Evaluate the first `eval_budget` points in flat order.
/// struct Prefix;
///
/// impl SearchStrategy for Prefix {
///     fn name(&self) -> &'static str {
///         "prefix"
///     }
///
///     fn run(
///         &self,
///         space: &DesignSpace,
///         eval: &Evaluator<'_>,
///         config: &ExploreConfig,
///         archive: &mut ParetoArchive,
///     ) -> Result<(), CoreError> {
///         for flat in 0..space.len().min(config.eval_budget) {
///             archive.insert(eval.evaluate(space, space.point(flat))?);
///         }
///         Ok(())
///     }
/// }
/// ```
pub trait SearchStrategy {
    /// Short identifier (CLI `--strategy` value, report label).
    fn name(&self) -> &'static str;

    /// Explore `space`, inserting every evaluated point into `archive`.
    ///
    /// # Errors
    ///
    /// Fabric-mapping failures from the evaluator.
    fn run(
        &self,
        space: &DesignSpace,
        eval: &Evaluator<'_>,
        config: &ExploreConfig,
        archive: &mut ParetoArchive,
    ) -> Result<(), CoreError>;
}

/// Enumerate the entire space. Cells are computed by the parallel grid
/// sweep ([`amdrel_core::run_grid_parallel_jobs`], honouring
/// [`ExploreConfig::jobs`]); `eval_budget` and `seed` are ignored. The
/// result is the exact Pareto frontier of the space — the reference the
/// cheaper strategies are judged against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn run(
        &self,
        space: &DesignSpace,
        eval: &Evaluator<'_>,
        config: &ExploreConfig,
        archive: &mut ParetoArchive,
    ) -> Result<(), CoreError> {
        if space.is_empty() {
            return Ok(());
        }
        eval.prefill_cells(space, config.jobs)?;
        for flat in 0..space.len() {
            archive.insert(eval.evaluate(space, space.point(flat))?);
        }
        Ok(())
    }
}

/// Draw `eval_budget` points uniformly at random (seeded, with
/// replacement). The memoised evaluator makes repeats nearly free, so the
/// engine cost is the number of *distinct cells* sampled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomSampling;

impl SearchStrategy for RandomSampling {
    fn name(&self) -> &'static str {
        "random"
    }

    fn run(
        &self,
        space: &DesignSpace,
        eval: &Evaluator<'_>,
        config: &ExploreConfig,
        archive: &mut ParetoArchive,
    ) -> Result<(), CoreError> {
        if space.is_empty() {
            return Ok(());
        }
        let mut rng = SplitMix64::new(config.seed);
        for _ in 0..config.eval_budget {
            let p = space.point(rng.below(space.len() as u64) as usize);
            archive.insert(eval.evaluate(space, p)?);
        }
        Ok(())
    }
}

/// Seeded simulated annealing over config mutations.
///
/// The state is one [`PointIdx`]; a mutation steps ±1 along one axis
/// (budget moves are drawn twice as often — they re-price an existing
/// cell for free, while area/datapath moves cost an engine run), with an
/// occasional uniform restart jump to escape local minima. Acceptance
/// uses a scalarised cost (the objective vector normalised by the first
/// evaluated point and averaged) under a geometrically cooling
/// temperature; *every* evaluated candidate is offered to the archive, so
/// the returned frontier reflects the whole trajectory, not just the
/// final state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Starting temperature, in units of normalised cost (default 0.35).
    pub initial_temp: f64,
    /// Geometric cooling factor per evaluation, in `(0, 1]` (default 0.93).
    pub cooling: f64,
    /// One uniform restart jump is drawn every `restart_period`
    /// mutations on average (default 8; 0 disables restarts).
    pub restart_period: u64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temp: 0.35,
            cooling: 0.93,
            restart_period: 8,
        }
    }
}

impl SimulatedAnnealing {
    /// A neighbouring point: ±1 along one axis (budget axis drawn with
    /// probability 1/2), or — once per `restart_period` on average — a
    /// uniform jump anywhere in the space. Falls back to `p` itself if
    /// four draws in a row produce no change (degenerate 1×1×1 spaces).
    fn mutate(&self, space: &DesignSpace, p: PointIdx, rng: &mut SplitMix64) -> PointIdx {
        if self.restart_period > 0 && rng.below(self.restart_period) == 0 {
            return space.point(rng.below(space.len() as u64) as usize);
        }
        fn step(i: usize, len: usize, up: bool) -> usize {
            if up {
                (i + 1).min(len - 1)
            } else {
                i.saturating_sub(1)
            }
        }
        for _ in 0..4 {
            let mut q = p;
            let up = rng.below(2) == 1;
            match rng.below(4) {
                0 | 1 => q.budget = step(q.budget, space.budgets(), up),
                2 => q.area = step(q.area, space.areas.len(), up),
                _ => q.datapath = step(q.datapath, space.datapaths.len(), up),
            }
            if q != p {
                return q;
            }
        }
        p
    }
}

impl SearchStrategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn run(
        &self,
        space: &DesignSpace,
        eval: &Evaluator<'_>,
        config: &ExploreConfig,
        archive: &mut ParetoArchive,
    ) -> Result<(), CoreError> {
        if space.is_empty() || config.eval_budget == 0 {
            return Ok(());
        }
        let mut rng = SplitMix64::new(config.seed);
        let mut current =
            eval.evaluate(space, space.point(rng.below(space.len() as u64) as usize))?;
        archive.insert(current.clone());
        // Normalise each objective by the starting point so the scalar
        // cost is scale-free across applications and objective arities.
        let reference: Vec<f64> = current
            .objectives
            .values()
            .iter()
            .map(|&v| v.max(1) as f64)
            .collect();
        let cost = |o: &crate::Objectives| -> f64 {
            o.values()
                .iter()
                .zip(&reference)
                .map(|(&v, r)| v as f64 / r)
                .sum::<f64>()
                / reference.len() as f64
        };
        let mut current_cost = cost(&current.objectives);
        let mut temp = self.initial_temp;
        for _ in 1..config.eval_budget {
            let candidate = eval.evaluate(space, self.mutate(space, current.point, &mut rng))?;
            archive.insert(candidate.clone());
            let candidate_cost = cost(&candidate.objectives);
            let delta = candidate_cost - current_cost;
            if delta <= 0.0 || rng.unit_f64() < (-delta / temp.max(1e-12)).exp() {
                current = candidate;
                current_cost = candidate_cost;
            }
            temp *= self.cooling;
        }
        Ok(())
    }
}
