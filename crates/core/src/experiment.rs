//! Paper-style experiment grids and their table rendering.
//!
//! Tables 2 and 3 of the paper evaluate four configurations per
//! application (`A_FPGA ∈ {1500, 5000}` × {two, three} 2×2 CGCs) against
//! one timing constraint. [`run_grid`] reproduces that sweep for any
//! analysed application; [`format_paper_table`] renders the result in the
//! paper's row layout.
//!
//! Two performance paths sit underneath:
//!
//! * every grid run goes through a [`MappingCache`], so a sweep over `A`
//!   areas × `D` datapaths computes exactly `A` fine-grain and `D`
//!   coarse-grain mappings instead of `A·D` of each (the fine-grain
//!   mapping depends only on the FPGA, the coarse-grain one only on the
//!   datapath);
//! * [`run_grid_parallel`] evaluates the cells on scoped threads (cells
//!   are independent), preserving the exact area-major output order of
//!   the sequential path.

use crate::cache::MappingCache;
use crate::engine::{PartitionResult, PartitioningEngine};
use crate::platform::Platform;
use crate::CoreError;
use amdrel_cdfg::Cdfg;
use amdrel_coarsegrain::CgcDatapath;
use amdrel_profiler::AnalysisReport;
use std::fmt::Write as _;

/// One cell of the experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// `A_FPGA` of this configuration.
    pub area: u64,
    /// Datapath description (e.g. "two 2x2 CGCs").
    pub datapath: String,
    /// The partitioning outcome.
    pub result: PartitionResult,
}

/// A full experiment grid (one application, one constraint).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    /// Application name.
    pub app: String,
    /// The timing constraint in FPGA cycles.
    pub constraint: u64,
    /// All evaluated cells, area-major.
    pub cells: Vec<GridCell>,
}

/// Everything a grid sweep needs besides the cache: the analysed
/// application, the base platform, and the swept dimensions.
///
/// `base` supplies everything except the FPGA area and the CGC datapath
/// (clock ratio, communication model, scheduler config, FPGA
/// characterisation other than total area).
#[derive(Debug, Clone, Copy)]
pub struct GridSpec<'a> {
    /// Application name (labels the grid).
    pub app: &'a str,
    /// The application CDFG.
    pub cdfg: &'a Cdfg,
    /// Its static+dynamic analysis.
    pub analysis: &'a AnalysisReport,
    /// The base platform (see type-level docs).
    pub base: &'a Platform,
    /// `A_FPGA` values to sweep.
    pub areas: &'a [u64],
    /// CGC datapaths to sweep.
    pub datapaths: &'a [CgcDatapath],
    /// The timing constraint, in FPGA cycles.
    pub constraint: u64,
}

impl GridSpec<'_> {
    /// The `(area, datapath)` cells in area-major order.
    fn configs(&self) -> Vec<(u64, &CgcDatapath)> {
        let mut configs = Vec::with_capacity(self.areas.len() * self.datapaths.len());
        for &area in self.areas {
            for dp in self.datapaths {
                configs.push((area, dp));
            }
        }
        configs
    }

    fn cell(
        &self,
        area: u64,
        dp: &CgcDatapath,
        cache: &MappingCache,
    ) -> Result<GridCell, CoreError> {
        let mut platform = self.base.clone();
        platform.fpga.total_area = area;
        platform.datapath = dp.clone();
        let result = PartitioningEngine::new(self.cdfg, self.analysis, &platform)
            .with_mapping_cache(cache)
            .run(self.constraint)?;
        Ok(GridCell {
            area,
            datapath: dp.describe(),
            result,
        })
    }

    fn grid(&self, cells: Vec<GridCell>) -> ExperimentGrid {
        ExperimentGrid {
            app: self.app.to_owned(),
            constraint: self.constraint,
            cells,
        }
    }
}

/// Run the engine over every `(area, datapath)` combination.
///
/// A private [`MappingCache`] deduplicates the fabric mappings, so a grid
/// over `A` areas and `D` datapaths performs exactly `A` fine-grain and
/// `D` coarse-grain mappings. To share mappings across several grids (or
/// read the hit counters), use [`run_grid_cached`].
///
/// # Errors
///
/// The first configuration whose mapping fails.
pub fn run_grid(
    app: &str,
    cdfg: &Cdfg,
    analysis: &AnalysisReport,
    base: &Platform,
    areas: &[u64],
    datapaths: &[CgcDatapath],
    constraint: u64,
) -> Result<ExperimentGrid, CoreError> {
    run_grid_cached(
        &GridSpec {
            app,
            cdfg,
            analysis,
            base,
            areas,
            datapaths,
            constraint,
        },
        &MappingCache::new(),
    )
}

/// [`run_grid`] against a caller-supplied [`MappingCache`], enabling
/// mapping reuse across grids (e.g. sweeping several constraints) and
/// inspection of the cache counters.
///
/// # Errors
///
/// The first configuration whose mapping fails.
pub fn run_grid_cached(
    spec: &GridSpec<'_>,
    cache: &MappingCache,
) -> Result<ExperimentGrid, CoreError> {
    let mut cells = Vec::with_capacity(spec.areas.len() * spec.datapaths.len());
    for (area, dp) in spec.configs() {
        cells.push(spec.cell(area, dp, cache)?);
    }
    Ok(spec.grid(cells))
}

/// [`run_grid`] with the cells evaluated on scoped threads (at most
/// [`std::thread::available_parallelism`] workers, each owning a
/// contiguous run of cells — cells are independent). Output is identical
/// to the sequential path, cell for cell: results land in preallocated
/// area-major slots, and on error the first failing cell *in grid order*
/// is reported, regardless of thread timing.
///
/// # Errors
///
/// The first configuration (in area-major grid order) whose mapping
/// fails.
pub fn run_grid_parallel(spec: &GridSpec<'_>) -> Result<ExperimentGrid, CoreError> {
    run_grid_parallel_cached(spec, &MappingCache::new())
}

/// [`run_grid_parallel`] against a caller-supplied [`MappingCache`].
///
/// # Errors
///
/// The first configuration (in area-major grid order) whose mapping
/// fails.
pub fn run_grid_parallel_cached(
    spec: &GridSpec<'_>,
    cache: &MappingCache,
) -> Result<ExperimentGrid, CoreError> {
    run_grid_parallel_jobs(spec, cache, 0)
}

/// [`run_grid_parallel_cached`] with an explicit worker count.
///
/// `jobs == 0` keeps the automatic heuristic (one worker per available
/// core, capped at the cell count); any other value requests exactly
/// `min(jobs, cells)` workers — the knob behind the CLI's `--jobs N` and
/// the explorer's `ExploreConfig::jobs` setting. The output is identical
/// cell for cell at every worker count (results land in preallocated
/// area-major slots), so callers may tune throughput without affecting
/// results.
///
/// # Errors
///
/// The first configuration (in area-major grid order) whose mapping
/// fails.
pub fn run_grid_parallel_jobs(
    spec: &GridSpec<'_>,
    cache: &MappingCache,
    jobs: usize,
) -> Result<ExperimentGrid, CoreError> {
    let configs = spec.configs();
    if configs.is_empty() {
        return Ok(spec.grid(Vec::new()));
    }
    let workers = match jobs {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4),
        n => n,
    }
    .min(configs.len());
    let chunk = configs.len().div_ceil(workers);
    let mut slots: Vec<Option<Result<GridCell, CoreError>>> = Vec::new();
    slots.resize_with(configs.len(), || None);
    std::thread::scope(|s| {
        for (slot_chunk, config_chunk) in slots.chunks_mut(chunk).zip(configs.chunks(chunk)) {
            s.spawn(move || {
                for (slot, (area, dp)) in slot_chunk.iter_mut().zip(config_chunk) {
                    *slot = Some(spec.cell(*area, dp, cache));
                }
            });
        }
    });
    let mut cells = Vec::with_capacity(slots.len());
    for slot in slots {
        cells.push(slot.expect("scoped worker fills its slots")?);
    }
    Ok(spec.grid(cells))
}

/// Render the grid in the layout of the paper's Tables 2/3:
///
/// ```text
///                    A_FPGA=1500            A_FPGA=5000
/// Initial cycles     <initial>              <initial>
/// CGCs no.           two 2x2   three 2x2    two 2x2   three 2x2
/// Cycles in CGC      …         …            …         …
/// BB no.             …         …            …         …
/// Final cycles       …         …            …         …
/// % cycles reduction …         …            …         …
/// ```
pub fn format_paper_table(grid: &ExperimentGrid) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} partitioning results for timing constraint of {} cycles",
        grid.app, grid.constraint
    );
    let areas: Vec<u64> = {
        let mut a: Vec<u64> = grid.cells.iter().map(|c| c.area).collect();
        a.dedup();
        a
    };
    let col = 14usize;

    // Header: areas span their datapath columns.
    let mut header = format!("{:<20}", "");
    for &area in &areas {
        let span = grid.cells.iter().filter(|c| c.area == area).count();
        header.push_str(&format!(
            "{:<width$}",
            format!("A_FPGA={area}"),
            width = col * span
        ));
    }
    let _ = writeln!(out, "{header}");

    let cells_for = |area: u64| grid.cells.iter().filter(move |c| c.area == area);

    let mut line = format!("{:<20}", "Initial cycles");
    for &area in &areas {
        let span = cells_for(area).count();
        let initial = cells_for(area)
            .next()
            .map(|c| c.result.initial_cycles)
            .unwrap_or(0);
        line.push_str(&format!("{:<width$}", initial, width = col * span));
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "CGCs no.");
    for &area in &areas {
        for c in cells_for(area) {
            let dp = c.datapath.trim_end_matches(" CGCs");
            line.push_str(&format!("{:<col$}", dp));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "Cycles in CGC");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$}", c.result.breakdown.t_coarse_cgc));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "BB no.");
    for &area in &areas {
        for c in cells_for(area) {
            let moved = c.result.moved_blocks();
            let shown: Vec<String> = moved
                .iter()
                .take(3)
                .map(|b| b.index().to_string())
                .collect();
            let text = if moved.len() > 3 {
                format!("{}+{}", shown.join(","), moved.len() - 3)
            } else {
                shown.join(",")
            };
            line.push_str(&format!("{:<col$}", text));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "Final cycles");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$}", c.result.final_cycles()));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "% cycles reduction");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!("{:<col$.1}", c.result.reduction_percent()));
        }
    }
    let _ = writeln!(out, "{line}");

    let mut line = format!("{:<20}", "constraint met");
    for &area in &areas {
        for c in cells_for(area) {
            line.push_str(&format!(
                "{:<col$}",
                if c.result.met { "yes" } else { "NO" }
            ));
        }
    }
    let _ = writeln!(out, "{line}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;
    use amdrel_profiler::{Interpreter, WeightTable};

    fn toy_app() -> (amdrel_minic::CompiledProgram, AnalysisReport, u64) {
        let src = r#"
            int data[128];
            int main() {
                int acc = 0;
                for (int i = 0; i < 128; i++) {
                    acc += data[i] * data[i] * 5 + data[i];
                }
                return acc;
            }
        "#;
        let c = compile(src, "main").unwrap();
        let exec = Interpreter::new(&c.ir).run(&[]).unwrap();
        let report = AnalysisReport::analyze(&c.cdfg, &exec.block_counts, &WeightTable::paper());
        let base = Platform::paper(1500, 2);
        let initial = PartitioningEngine::new(&c.cdfg, &report, &base)
            .run(u64::MAX)
            .unwrap()
            .initial_cycles;
        (c, report, initial)
    }

    fn grid() -> ExperimentGrid {
        let (c, report, initial) = toy_app();
        run_grid(
            "toy",
            &c.cdfg,
            &report,
            &Platform::paper(1500, 2),
            &[1500, 5000],
            &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
            initial / 2,
        )
        .unwrap()
    }

    #[test]
    fn grid_has_four_cells() {
        let g = grid();
        assert_eq!(g.cells.len(), 4);
        assert_eq!(g.cells[0].area, 1500);
        assert_eq!(g.cells[3].area, 5000);
    }

    #[test]
    fn larger_area_smaller_initial() {
        let g = grid();
        let initial_1500 = g.cells[0].result.initial_cycles;
        let initial_5000 = g.cells[2].result.initial_cycles;
        assert!(initial_5000 <= initial_1500);
    }

    #[test]
    fn parallel_grid_equals_sequential() {
        let (c, report, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [
            CgcDatapath::two_2x2(),
            CgcDatapath::three_2x2(),
            CgcDatapath::uniform(1, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO),
        ];
        let spec = GridSpec {
            app: "toy",
            cdfg: &c.cdfg,
            analysis: &report,
            base: &base,
            areas: &[1200, 1500, 5000],
            datapaths: &datapaths,
            constraint: initial / 2,
        };
        let sequential = run_grid_cached(&spec, &MappingCache::new()).unwrap();
        let parallel = run_grid_parallel(&spec).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (c, report, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [
            CgcDatapath::two_2x2(),
            CgcDatapath::three_2x2(),
            CgcDatapath::uniform(4, amdrel_coarsegrain::CgcGeometry::TWO_BY_TWO),
        ];
        let spec = GridSpec {
            app: "toy",
            cdfg: &c.cdfg,
            analysis: &report,
            base: &base,
            areas: &[1200, 1500, 5000],
            datapaths: &datapaths,
            constraint: initial / 2,
        };
        let sequential = run_grid_cached(&spec, &MappingCache::new()).unwrap();
        for jobs in [1usize, 2, 7, 64] {
            let grid = run_grid_parallel_jobs(&spec, &MappingCache::new(), jobs).unwrap();
            assert_eq!(grid, sequential, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn grid_computes_a_plus_d_mappings() {
        let (c, report, initial) = toy_app();
        let base = Platform::paper(1500, 2);
        let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
        let areas = [1200u64, 1500, 5000];
        let spec = GridSpec {
            app: "toy",
            cdfg: &c.cdfg,
            analysis: &report,
            base: &base,
            areas: &areas,
            datapaths: &datapaths,
            // Tight enough that no cell exits at step 2, so every cell
            // demands both mappings.
            constraint: 1,
        };
        let cache = MappingCache::new();
        // Sweep several constraints through one cache: an A×D×C sweep
        // still computes only A fine-grain and D coarse-grain mappings.
        for divisor in [1u64, 2, 4] {
            let spec = GridSpec {
                constraint: (initial / divisor).max(1),
                ..spec
            };
            run_grid_cached(&spec, &cache).unwrap();
        }
        run_grid_parallel_cached(&spec, &cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.fine_misses, areas.len() as u64);
        assert_eq!(stats.coarse_misses, datapaths.len() as u64);
        // 4 sweeps × (3 areas × 2 datapaths) cells, minus one lookup per miss.
        assert_eq!(stats.fine_hits, 4 * 6 - 3);
        // Step-2 exits skip the coarse lookup, so only a lower bound holds.
        assert!(stats.coarse_hits >= 6 - 2);
    }

    #[test]
    fn table_contains_all_rows() {
        let g = grid();
        let t = format_paper_table(&g);
        for row in [
            "Initial cycles",
            "CGCs no.",
            "Cycles in CGC",
            "BB no.",
            "Final cycles",
            "% cycles reduction",
        ] {
            assert!(t.contains(row), "missing row {row} in:\n{t}");
        }
        assert!(t.contains("A_FPGA=1500") && t.contains("A_FPGA=5000"));
    }
}
