//! Shared, memoising evaluation of design points.
//!
//! The unit of engine work is the `(area, datapath)` **cell**: one
//! partitioning run under an unreachable constraint drains the whole
//! ranked kernel queue, and its move trace prices *every* kernel budget
//! of that cell — timing from the engine's own incremental breakdowns,
//! energy from [`BlockEnergyCosts`] O(1) deltas. The [`Evaluator`]
//! memoises cells (thread-safely) and shares one [`MappingCache`], so a
//! search that revisits configurations pays for each cell exactly once
//! and each fabric mapping exactly once. When the evaluator's
//! [`ObjectiveSet`] includes runtime objectives, each design point
//! additionally runs one seeded workload simulation through the
//! attached [`RuntimeEvaluator`] — memoised per point, so revisits are
//! free there too. Counters expose the true effort (`engine_runs`,
//! `points_evaluated`, `cell_hits`, `sim_runs`) for strategy
//! comparisons and the committed `BENCH_explore*.json` baselines.

use crate::contention::{ContentionMetrics, RuntimeEvaluator};
use crate::objective::{Objective, ObjectiveSet, Objectives};
use crate::space::{DesignSpace, PointIdx};
use amdrel_cdfg::Cdfg;
use amdrel_core::{
    run_grid_parallel_jobs, BlockEnergyCosts, Breakdown, CacheStats, CoreError, EnergyBreakdown,
    EnergyModel, GridSpec, MappingCache, PartitionResult, PartitioningEngine, Platform,
};
use amdrel_finegrain::CdfgFineGrainMapping;
use amdrel_floorplan::{FabricGrid, Floorplanner, Footprint, FragmentationStats};
use amdrel_profiler::AnalysisReport;
use amdrel_trace::TraceSink;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A timing constraint no real application meets (1 FPGA cycle), forcing
/// the engine to drain the entire kernel queue and hand back the full
/// move trace.
const FULL_DRAIN: u64 = 1;

/// Region count the floorplan objectives price against unless
/// [`Evaluator::with_regions`] overrides it.
const DEFAULT_REGIONS: usize = 4;

/// One fully evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointEval {
    /// Where in the [`DesignSpace`] this point sits.
    pub point: PointIdx,
    /// The concrete `A_FPGA`.
    pub area: u64,
    /// The concrete datapath, described (e.g. `"two 2x2 CGCs"`).
    pub datapath: String,
    /// Kernels actually moved — the budget clamped to the application's
    /// kernel count.
    pub kernels_moved: usize,
    /// All-FPGA cycles of this cell (the speedup baseline).
    pub initial_cycles: u64,
    /// eq. (2) total execution time of one job, FPGA cycles (always
    /// computed, whether or not `cycles` is a selected objective).
    pub cycles: u64,
    /// The energy decomposition behind the energy objective.
    pub energy: EnergyBreakdown,
    /// The contention outcome when the evaluator simulated the workload
    /// mix on this point (`None` under purely static objective sets).
    pub contention: Option<ContentionMetrics>,
    /// The minimised objective vector, aligned with the evaluator's
    /// [`ObjectiveSet`].
    pub objectives: Objectives,
    /// Whether `cycles` meets the space's timing constraint.
    pub met: bool,
}

impl PointEval {
    /// `initial_cycles / final_cycles` — the paper-style acceleration of
    /// this configuration over its own all-FPGA mapping.
    pub fn speedup(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.initial_cycles as f64 / self.cycles as f64
    }

    /// Total energy of one job (the value of the energy objective).
    pub fn energy_total(&self) -> u64 {
        self.energy.total()
    }
}

/// Evaluation-effort counters of an [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Design points priced (including memoised re-visits).
    pub points_evaluated: u64,
    /// Partitioning-engine runs actually performed (one per distinct
    /// cell) — the cost a strategy is judged on.
    pub engine_runs: u64,
    /// Point evaluations served from an already-computed cell.
    pub cell_hits: u64,
    /// Workload simulations actually performed (one per distinct point,
    /// only under runtime objectives).
    pub sim_runs: u64,
}

impl EvalStats {
    /// Counter-wise difference (`self − earlier`), for effort deltas when
    /// one evaluator serves several strategies in sequence.
    pub fn since(&self, earlier: &EvalStats) -> EvalStats {
        EvalStats {
            points_evaluated: self.points_evaluated - earlier.points_evaluated,
            engine_runs: self.engine_runs - earlier.engine_runs,
            cell_hits: self.cell_hits - earlier.cell_hits,
            sim_runs: self.sim_runs - earlier.sim_runs,
        }
    }
}

/// One memoised `(area, datapath)` cell: the per-budget price list plus
/// everything a contention score needs to rebuild the candidate profile.
struct Cell {
    initial_cycles: u64,
    /// Entry `k`: `(t_total, energy)` after moving the first `k` ranked
    /// kernels (entry 0 is the all-FPGA mapping).
    budgets: Vec<(u64, EnergyBreakdown)>,
    /// Entry `k`: the timing decomposition after `k` moves (entry 0 is
    /// all-FPGA: everything in `t_fpga`).
    breakdowns: Vec<Breakdown>,
    /// Block indices of the moved kernels, in move order.
    moved: Vec<usize>,
    /// The cell's fine-grain mapping (shared with the [`MappingCache`]).
    fine: Arc<CdfgFineGrainMapping>,
}

/// Memoising design-point evaluator over one analysed application.
///
/// Thread-safe (`&self` everywhere, interior mutex/atomics), so the
/// exhaustive strategy can fill cells from parallel grid workers while
/// sequential strategies share the same instance.
///
/// By default points are priced on the static objective triple
/// `(cycles, area, energy)`. [`Self::with_objectives`] selects a
/// different [`ObjectiveSet`]; sets that include runtime objectives
/// (`p95`, `throughput`) additionally need a [`RuntimeEvaluator`]
/// attached via [`Self::with_runtime`].
pub struct Evaluator<'a> {
    app: &'a str,
    cdfg: &'a Cdfg,
    analysis: &'a AnalysisReport,
    base: &'a Platform,
    model: EnergyModel,
    cache: &'a MappingCache,
    objectives: ObjectiveSet,
    regions: usize,
    runtime: Option<&'a RuntimeEvaluator>,
    cells: Mutex<HashMap<(usize, usize), Arc<Cell>>>,
    sims: Mutex<HashMap<(usize, usize, usize), ContentionMetrics>>,
    points_evaluated: AtomicU64,
    engine_runs: AtomicU64,
    cell_hits: AtomicU64,
    sim_runs: AtomicU64,
}

impl std::fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("app", &self.app)
            .field("objectives", &self.objectives.describe())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> Evaluator<'a> {
    /// A new evaluator on the static default objectives. `base` supplies
    /// everything the space's axes do not (clock ratio, communication
    /// model, scheduler, FPGA characterisation other than total area);
    /// `model` prices the energy objective; `cache` memoises the fabric
    /// mappings (shareable across evaluators and grids).
    pub fn new(
        app: &'a str,
        cdfg: &'a Cdfg,
        analysis: &'a AnalysisReport,
        base: &'a Platform,
        model: EnergyModel,
        cache: &'a MappingCache,
    ) -> Self {
        Evaluator {
            app,
            cdfg,
            analysis,
            base,
            model,
            cache,
            objectives: ObjectiveSet::static_default(),
            regions: DEFAULT_REGIONS,
            runtime: None,
            cells: Mutex::new(HashMap::new()),
            sims: Mutex::new(HashMap::new()),
            points_evaluated: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
            cell_hits: AtomicU64::new(0),
            sim_runs: AtomicU64::new(0),
        }
    }

    /// Select the objective vector points are priced on.
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Attach the contention scorer consulted for runtime objectives.
    pub fn with_runtime(mut self, runtime: &'a RuntimeEvaluator) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The region grid the floorplan objectives (`fragmentation`,
    /// `worst_region_load`) price against: each candidate's usable area
    /// is split into `regions` horizontal bands
    /// ([`FabricGrid::uniform`]) and the point's fine-grain partition
    /// footprints are floorplanned onto them. Defaults to 4.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`.
    pub fn with_regions(mut self, regions: usize) -> Self {
        assert!(regions > 0, "floorplan objectives need at least one region");
        self.regions = regions;
        self
    }

    /// The application label.
    pub fn app(&self) -> &str {
        self.app
    }

    /// The objective set points are priced on.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// A snapshot of the effort counters.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            points_evaluated: self.points_evaluated.load(Ordering::Relaxed),
            engine_runs: self.engine_runs.load(Ordering::Relaxed),
            cell_hits: self.cell_hits.load(Ordering::Relaxed),
            sim_runs: self.sim_runs.load(Ordering::Relaxed),
        }
    }

    /// The shared mapping cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Evaluate one design point.
    ///
    /// # Errors
    ///
    /// Mapping failures from the underlying fabrics (e.g. an area too
    /// small for the application's widest operator).
    ///
    /// # Panics
    ///
    /// Panics if the objective set includes a runtime objective but no
    /// [`RuntimeEvaluator`] was attached ([`Self::with_runtime`]).
    pub fn evaluate(&self, space: &DesignSpace, p: PointIdx) -> Result<PointEval, CoreError> {
        self.points_evaluated.fetch_add(1, Ordering::Relaxed);
        let cell = self.cell(space, p.area, p.datapath)?;
        let moved = p.budget.min(cell.budgets.len() - 1);
        let (cycles, energy) = cell.budgets[moved];
        let contention = if self.objectives.needs_runtime() {
            Some(self.contention(space, p, moved, &cell))
        } else {
            None
        };
        let floorplan = if self.objectives.contains(Objective::Fragmentation)
            || self.objectives.contains(Objective::WorstRegionLoad)
        {
            Some(self.floorplan_stats(space, p.area, moved, &cell))
        } else {
            None
        };
        let values = self
            .objectives
            .objectives()
            .iter()
            .map(|obj| match obj {
                Objective::Cycles => cycles,
                Objective::Area => space.areas[p.area],
                Objective::Energy => energy.total(),
                Objective::P95Latency => {
                    contention
                        .as_ref()
                        .expect("runtime metrics computed")
                        .p95_latency
                }
                Objective::Throughput => {
                    contention
                        .as_ref()
                        .expect("runtime metrics computed")
                        .cycles_per_job
                }
                Objective::P95UnderFaults => {
                    contention
                        .as_ref()
                        .expect("runtime metrics computed")
                        .p95_under_faults
                }
                Objective::DegradedShare => {
                    contention
                        .as_ref()
                        .expect("runtime metrics computed")
                        .degraded_permille
                }
                Objective::Fragmentation => floorplan
                    .expect("floorplan stats computed")
                    .fragmentation_permille(),
                Objective::WorstRegionLoad => floorplan
                    .expect("floorplan stats computed")
                    .worst_region_permille(),
            })
            .collect();
        Ok(PointEval {
            point: p,
            area: space.areas[p.area],
            datapath: space.datapaths[p.datapath].describe(),
            kernels_moved: moved,
            initial_cycles: cell.initial_cycles,
            cycles,
            energy,
            contention,
            objectives: Objectives::new(values),
            met: cycles <= space.constraint,
        })
    }

    /// The memoised contention metrics of `(cell, moved)` — one seeded
    /// simulation per distinct point, computed under the map lock so
    /// concurrent lookups never duplicate work.
    fn contention(
        &self,
        space: &DesignSpace,
        p: PointIdx,
        moved: usize,
        cell: &Cell,
    ) -> ContentionMetrics {
        let runtime = self.runtime.expect(
            "runtime objectives (p95/throughput) need a RuntimeEvaluator \
             (Evaluator::with_runtime)",
        );
        let key = (p.area, p.datapath, moved);
        let mut sims = self.sims.lock().expect("sim cache lock poisoned");
        if let Some(metrics) = sims.get(&key) {
            return *metrics;
        }
        self.sim_runs.fetch_add(1, Ordering::Relaxed);
        let breakdown = &cell.breakdowns[moved];
        let mut on_fpga = vec![true; self.cdfg.len()];
        for &k in &cell.moved[..moved] {
            on_fpga[k] = false;
        }
        let areas = cell.fine.partition_areas(|i| on_fpga[i]);
        let candidate = runtime.candidate_profile(
            self.app,
            breakdown.t_fpga,
            breakdown.t_coarse,
            breakdown.t_comm,
            areas,
        );
        let platform = self.platform_for(space, p.area, p.datapath);
        let metrics = runtime.score(&candidate, &platform);
        sims.insert(key, metrics);
        metrics
    }

    /// Re-run one design point's contention simulation with a
    /// [`TraceSink`] attached, emitting the full per-job event stream
    /// (see [`RuntimeEvaluator::trace_candidate`]). The candidate
    /// profile is rebuilt from the point's memoised cell, so the traced
    /// run is exactly the one whose metrics the search scored. A pure
    /// observer: memoised scores and counters are not perturbed
    /// (`sim_runs` does not count the replay).
    ///
    /// # Errors
    ///
    /// Mapping failures from the underlying fabrics.
    ///
    /// # Panics
    ///
    /// Panics if no [`RuntimeEvaluator`] was attached
    /// ([`Self::with_runtime`]).
    pub fn trace_point(
        &self,
        space: &DesignSpace,
        p: PointIdx,
        sink: &dyn TraceSink,
    ) -> Result<(), CoreError> {
        let runtime = self.runtime.expect(
            "tracing a contention run needs a RuntimeEvaluator \
             (Evaluator::with_runtime)",
        );
        let cell = self.cell(space, p.area, p.datapath)?;
        let moved = p.budget.min(cell.budgets.len() - 1);
        let breakdown = &cell.breakdowns[moved];
        let mut on_fpga = vec![true; self.cdfg.len()];
        for &k in &cell.moved[..moved] {
            on_fpga[k] = false;
        }
        let areas = cell.fine.partition_areas(|i| on_fpga[i]);
        let candidate = runtime.candidate_profile(
            self.app,
            breakdown.t_fpga,
            breakdown.t_coarse,
            breakdown.t_comm,
            areas,
        );
        let platform = self.platform_for(space, p.area, p.datapath);
        runtime.trace_candidate(&candidate, &platform, sink);
        Ok(())
    }

    /// Floorplan the point's remaining fine-grain footprints onto the
    /// evaluator's region grid and return the fragmentation statistics.
    /// Pure integer work on the memoised cell — cheap enough to run per
    /// evaluation without its own cache.
    fn floorplan_stats(
        &self,
        space: &DesignSpace,
        a_idx: usize,
        moved: usize,
        cell: &Cell,
    ) -> FragmentationStats {
        let mut on_fpga = vec![true; self.cdfg.len()];
        for &k in &cell.moved[..moved] {
            on_fpga[k] = false;
        }
        let footprints: Vec<Footprint> = cell
            .fine
            .partition_footprints(|i| on_fpga[i])
            .iter()
            .map(|f| Footprint::new(f.block, f.area))
            .collect();
        let mut fpga = self.base.fpga.clone();
        fpga.total_area = space.areas[a_idx];
        let grid = FabricGrid::uniform(fpga.usable_area(), self.regions);
        Floorplanner.place(&grid, &footprints).stats()
    }

    /// Compute (or adopt from the grid) every cell of `space` using the
    /// parallel grid sweep — the exhaustive strategy's fast path. `jobs`
    /// is forwarded to [`run_grid_parallel_jobs`] (0 = automatic).
    ///
    /// Already-memoised cells are never recomputed: the parallel grid is
    /// used when the cell map is cold (the common exhaustive case), and a
    /// partially warm evaluator falls back to filling only the missing
    /// cells, so `engine_runs` counts every engine run exactly once.
    /// Workload simulations are *not* prefilled — they run (memoised) as
    /// points are evaluated, on the calling thread, so contention scores
    /// are identical at every `jobs` setting.
    ///
    /// # Errors
    ///
    /// The first configuration (in area-major grid order) whose mapping
    /// fails.
    pub fn prefill_cells(&self, space: &DesignSpace, jobs: usize) -> Result<(), CoreError> {
        let all_cold = self
            .cells
            .lock()
            .expect("cell cache lock poisoned")
            .is_empty();
        if !all_cold {
            // Partially warm (e.g. another strategy already explored on
            // this evaluator): compute just the missing cells. Presence is
            // checked first so prefilling neither recomputes warm cells
            // nor skews the hit counter (prefill is bookkeeping, not a
            // point evaluation).
            for a_idx in 0..space.areas.len() {
                for d_idx in 0..space.datapaths.len() {
                    let warm = self
                        .cells
                        .lock()
                        .expect("cell cache lock poisoned")
                        .contains_key(&(a_idx, d_idx));
                    if !warm {
                        self.cell(space, a_idx, d_idx)?;
                    }
                }
            }
            return Ok(());
        }
        let spec = GridSpec {
            app: self.app,
            cdfg: self.cdfg,
            analysis: self.analysis,
            base: self.base,
            areas: &space.areas,
            datapaths: &space.datapaths,
            constraint: FULL_DRAIN,
        };
        let grid = run_grid_parallel_jobs(&spec, self.cache, jobs)?;
        let d = space.datapaths.len();
        for (i, grid_cell) in grid.cells.iter().enumerate() {
            let (a_idx, d_idx) = (i / d, i % d);
            let mut cells = self.cells.lock().expect("cell cache lock poisoned");
            if cells.contains_key(&(a_idx, d_idx)) {
                continue;
            }
            self.engine_runs.fetch_add(1, Ordering::Relaxed);
            let cell = self.cell_from_result(space, a_idx, d_idx, &grid_cell.result)?;
            cells.insert((a_idx, d_idx), Arc::new(cell));
        }
        Ok(())
    }

    /// The memoised cell for `(a_idx, d_idx)`, computed on first use. The
    /// miss is computed while the map lock is held (mirroring
    /// [`MappingCache`]), so each cell runs the engine exactly once even
    /// under concurrent lookups.
    fn cell(
        &self,
        space: &DesignSpace,
        a_idx: usize,
        d_idx: usize,
    ) -> Result<Arc<Cell>, CoreError> {
        let mut cells = self.cells.lock().expect("cell cache lock poisoned");
        if let Some(cell) = cells.get(&(a_idx, d_idx)) {
            self.cell_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(cell));
        }
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
        let platform = self.platform_for(space, a_idx, d_idx);
        let result = PartitioningEngine::new(self.cdfg, self.analysis, &platform)
            .with_mapping_cache(self.cache)
            .run(FULL_DRAIN)?;
        let cell = Arc::new(self.cell_from_result(space, a_idx, d_idx, &result)?);
        cells.insert((a_idx, d_idx), Arc::clone(&cell));
        Ok(cell)
    }

    /// Price every kernel budget of a cell from one full-drain move trace:
    /// timing straight from the engine's breakdowns, energy by replaying
    /// the trace through [`BlockEnergyCosts`] deltas.
    fn cell_from_result(
        &self,
        space: &DesignSpace,
        a_idx: usize,
        d_idx: usize,
        result: &PartitionResult,
    ) -> Result<Cell, CoreError> {
        let platform = self.platform_for(space, a_idx, d_idx);
        // The engine just mapped this configuration, so this is a cache hit.
        let fine = self.cache.fine(self.cdfg, &platform.fpga)?;
        let costs = BlockEnergyCosts::compute(self.cdfg, self.analysis, &fine, &self.model);
        let mut energy = costs.all_fpga();
        let mut budgets = Vec::with_capacity(result.moves.len() + 1);
        let mut breakdowns = Vec::with_capacity(result.moves.len() + 1);
        budgets.push((result.initial_cycles, energy));
        breakdowns.push(Breakdown {
            t_fpga: result.initial_cycles,
            t_coarse_cgc: 0,
            t_coarse: 0,
            t_comm: 0,
        });
        for m in &result.moves {
            costs.move_to_coarse(&mut energy, m.kernel.index());
            budgets.push((m.breakdown.t_total(), energy));
            breakdowns.push(m.breakdown);
        }
        Ok(Cell {
            initial_cycles: result.initial_cycles,
            budgets,
            breakdowns,
            moved: result.moves.iter().map(|m| m.kernel.index()).collect(),
            fine,
        })
    }

    /// The concrete platform of a cell: the base with the cell's area and
    /// datapath substituted (exactly what the grid sweep does).
    fn platform_for(&self, space: &DesignSpace, a_idx: usize, d_idx: usize) -> Platform {
        let mut platform = self.base.clone();
        platform.fpga.total_area = space.areas[a_idx];
        platform.datapath = space.datapaths[d_idx].clone();
        platform
    }
}
