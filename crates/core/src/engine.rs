//! The partitioning engine — the heart of the methodology (steps 2, 4 and
//! 5 of Figure 2).
//!
//! "The partitioning engine moves kernels one by one to the coarse-grain
//! hardware until the performance requirements are satisfied. After the
//! movement of each kernel to the coarse-grain hardware, the total
//! execution time of the application is calculated to check if the timing
//! constraints are met."
//!
//! Total time follows eq. (2): `t_total = t_FPGA + t_coarse + t_comm`,
//! with `t_FPGA` from eq. (4) (fine-grain temporal-partitioned blocks ×
//! iteration counts), `t_coarse` from eq. (3) (CGC schedule lengths ×
//! iteration counts, converted to FPGA cycles by the platform clock
//! ratio) and `t_comm` from the shared-memory model.
//!
//! The inner loop is incremental: at `run()` entry the engine computes,
//! once per block, its fine-grain cycle contribution, its raw CGC cycle
//! contribution and its communication cycles (each already
//! `exec_freq`-scaled), then maintains running sums so each kernel move —
//! and each `skip_unprofitable` revert — is an O(1) delta update rather
//! than an O(n) rescan of all blocks. The raw `t_coarse_cgc` sum is kept
//! exact and the `cgc_to_fpga_cycles` ceiling is applied only when a
//! [`Breakdown`] is read, so the results are bit-identical to a full
//! recomputation (the differential tests below and in
//! `tests/engine_properties.rs` assert exactly that).

use crate::cache::{CdfgFingerprint, MappingCache};
use crate::platform::Platform;
use crate::CoreError;
use amdrel_cdfg::{BlockId, Cdfg};
use amdrel_coarsegrain::CdfgCoarseGrainMapping;
use amdrel_finegrain::CdfgFineGrainMapping;
use amdrel_profiler::AnalysisReport;
use std::sync::Arc;

/// Which hardware a basic block executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Fine-grain (embedded FPGA) hardware.
    FineGrain,
    /// Coarse-grain CGC datapath.
    CoarseGrain,
}

/// The eq. (2) decomposition of total execution time, in FPGA cycles
/// except where noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// eq. (4): fine-grain time of the blocks still on the FPGA.
    pub t_fpga: u64,
    /// eq. (3) in raw CGC cycles (the paper's "Cycles in CGC" row).
    pub t_coarse_cgc: u64,
    /// eq. (3) converted to FPGA cycles (`ceil(t_coarse_cgc / ratio)`).
    pub t_coarse: u64,
    /// Shared-memory transfer time for the moved kernels.
    pub t_comm: u64,
}

impl Breakdown {
    /// eq. (2): `t_total = t_FPGA + t_coarse + t_comm`.
    pub fn t_total(&self) -> u64 {
        self.t_fpga + self.t_coarse + self.t_comm
    }
}

/// One step of the engine's kernel-movement loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRecord {
    /// The kernel moved to the coarse-grain hardware.
    pub kernel: BlockId,
    /// Its label.
    pub label: String,
    /// The timing decomposition *after* this move.
    pub breakdown: Breakdown,
}

/// Engine policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineConfig {
    /// Skip kernels whose movement would *increase* `t_total`
    /// (communication outweighs acceleration). The paper's engine moves
    /// unconditionally, so this defaults to `false`; the communication
    /// ablation enables it.
    pub skip_unprofitable: bool,
}

/// The complete outcome of a partitioning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionResult {
    /// The timing constraint, in FPGA cycles.
    pub constraint: u64,
    /// All-FPGA execution time (the paper's "Initial Cycles" row).
    pub initial_cycles: u64,
    /// `true` if the all-FPGA mapping already met the constraint and the
    /// flow exited at step 2.
    pub met_without_partitioning: bool,
    /// The kernel moves performed, in order.
    pub moves: Vec<MoveRecord>,
    /// Candidate moves undone because they would have *increased*
    /// `t_total` — nonzero only under
    /// [`EngineConfig::skip_unprofitable`].
    pub moves_reverted: u64,
    /// Final block→hardware assignment.
    pub assignment: Vec<Assignment>,
    /// Final timing decomposition.
    pub breakdown: Breakdown,
    /// Whether the constraint was met.
    pub met: bool,
}

impl PartitionResult {
    /// Final total cycles (the paper's "Final cycles" row).
    pub fn final_cycles(&self) -> u64 {
        self.breakdown.t_total()
    }

    /// The paper's "% cycles reduction" row:
    /// `(initial − final) / initial × 100`.
    pub fn reduction_percent(&self) -> f64 {
        if self.initial_cycles == 0 {
            return 0.0;
        }
        let initial = self.initial_cycles as f64;
        (initial - self.final_cycles() as f64) / initial * 100.0
    }

    /// Block ids moved to the coarse-grain hardware (the paper's "BB no."
    /// row), in move order.
    pub fn moved_blocks(&self) -> Vec<BlockId> {
        self.moves.iter().map(|m| m.kernel).collect()
    }
}

/// The per-block cost vectors precomputed at `run()` entry, plus the
/// running sums over them. Moving a kernel (or reverting a move) touches
/// three additions — no rescan of the block list.
struct RunningSums {
    /// `t_to_FPGA(BB_i) × Iter(BB_i)` per block.
    fine_costs: Vec<u64>,
    /// `t_to_coarse(BB_i) × Iter(BB_i)` per block, in raw CGC cycles.
    coarse_costs: Vec<u64>,
    /// Shared-memory cycles per block (`exec_freq`-scaled).
    comm_costs: Vec<u64>,
    /// Σ fine_costs over blocks currently on the FPGA.
    t_fpga: u64,
    /// Σ coarse_costs over moved blocks, kept in raw CGC cycles — the
    /// clock-ratio ceiling is applied only at read time so the sum stays
    /// exactly revertible.
    t_coarse_cgc: u64,
    /// Σ comm_costs over moved blocks.
    t_comm: u64,
}

impl RunningSums {
    fn new(fine_costs: Vec<u64>, coarse_costs: Vec<u64>, comm_costs: Vec<u64>) -> Self {
        let t_fpga = fine_costs.iter().sum();
        RunningSums {
            fine_costs,
            coarse_costs,
            comm_costs,
            t_fpga,
            t_coarse_cgc: 0,
            t_comm: 0,
        }
    }

    /// Move block `i` to the coarse-grain hardware.
    fn move_to_coarse(&mut self, i: usize) {
        self.t_fpga -= self.fine_costs[i];
        self.t_coarse_cgc += self.coarse_costs[i];
        self.t_comm += self.comm_costs[i];
    }

    /// Undo [`Self::move_to_coarse`] for block `i`.
    fn revert(&mut self, i: usize) {
        self.t_fpga += self.fine_costs[i];
        self.t_coarse_cgc -= self.coarse_costs[i];
        self.t_comm -= self.comm_costs[i];
    }

    /// The eq. (2) decomposition at the current assignment.
    fn breakdown(&self, platform: &Platform) -> Breakdown {
        Breakdown {
            t_fpga: self.t_fpga,
            t_coarse_cgc: self.t_coarse_cgc,
            t_coarse: platform.cgc_to_fpga_cycles(self.t_coarse_cgc),
            t_comm: self.t_comm,
        }
    }
}

/// The partitioning engine.
#[derive(Debug)]
pub struct PartitioningEngine<'a> {
    cdfg: &'a Cdfg,
    analysis: &'a AnalysisReport,
    platform: &'a Platform,
    config: EngineConfig,
    cache: Option<&'a MappingCache>,
}

impl<'a> PartitioningEngine<'a> {
    /// A new engine over an analysed application and a platform.
    pub fn new(cdfg: &'a Cdfg, analysis: &'a AnalysisReport, platform: &'a Platform) -> Self {
        PartitioningEngine {
            cdfg,
            analysis,
            platform,
            config: EngineConfig::default(),
            cache: None,
        }
    }

    /// Builder-style override of the engine policy.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Serve the fabric mappings from (and record them into) a shared
    /// [`MappingCache`] instead of computing them privately per run.
    pub fn with_mapping_cache(mut self, cache: &'a MappingCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache fingerprint of the application, computed at most once
    /// per run (both lookups of a run share it).
    fn cache_fingerprint(&self) -> Option<CdfgFingerprint> {
        self.cache.map(|_| MappingCache::fingerprint(self.cdfg))
    }

    fn fine_mapping(
        &self,
        fp: Option<CdfgFingerprint>,
    ) -> Result<Arc<CdfgFineGrainMapping>, CoreError> {
        match (self.cache, fp) {
            (Some(cache), Some(fp)) => cache.fine_keyed(fp, self.cdfg, &self.platform.fpga),
            _ => Ok(Arc::new(CdfgFineGrainMapping::map(
                self.cdfg,
                &self.platform.fpga,
            )?)),
        }
    }

    fn coarse_mapping(
        &self,
        fp: Option<CdfgFingerprint>,
    ) -> Result<Arc<CdfgCoarseGrainMapping>, CoreError> {
        match (self.cache, fp) {
            (Some(cache), Some(fp)) => cache.coarse_keyed(
                fp,
                self.cdfg,
                &self.platform.datapath,
                &self.platform.scheduler,
            ),
            _ => Ok(Arc::new(CdfgCoarseGrainMapping::map(
                self.cdfg,
                &self.platform.datapath,
                &self.platform.scheduler,
            )?)),
        }
    }

    /// Run the Figure 2 flow for a timing constraint in FPGA cycles.
    ///
    /// # Errors
    ///
    /// [`CoreError`] if a block cannot be mapped to either fabric.
    pub fn run(&self, constraint: u64) -> Result<PartitionResult, CoreError> {
        let n = self.cdfg.len();
        let exec_freq: Vec<u64> = self.analysis.blocks().iter().map(|b| b.exec_freq).collect();
        let fp = self.cache_fingerprint();

        // Step 2: map everything to the fine-grain hardware.
        let fine = self.fine_mapping(fp)?;
        let initial_cycles = fine.t_fpga(&exec_freq, |_| true);
        let mut assignment = vec![Assignment::FineGrain; n];
        if initial_cycles <= constraint {
            return Ok(PartitionResult {
                constraint,
                initial_cycles,
                met_without_partitioning: true,
                moves: Vec::new(),
                moves_reverted: 0,
                assignment,
                breakdown: Breakdown {
                    t_fpga: initial_cycles,
                    t_coarse_cgc: 0,
                    t_coarse: 0,
                    t_comm: 0,
                },
                met: true,
            });
        }

        // Step 5 support: coarse-grain mapping of every block (the engine
        // only reads the ones it moves; mapping is per-block independent).
        let coarse = self.coarse_mapping(fp)?;

        // Per-block cost vectors, computed once; the kernel loop below
        // only does O(1) delta updates against these.
        let comm_costs: Vec<u64> = self
            .cdfg
            .iter()
            .enumerate()
            .map(|(i, (_, bb))| {
                exec_freq[i]
                    .saturating_mul(self.platform.comm.cycles_per_exec(bb.live_in, bb.live_out))
            })
            .collect();
        let mut sums = RunningSums::new(
            fine.block_costs(&exec_freq),
            coarse.block_costs(&exec_freq),
            comm_costs,
        );

        // Steps 3+4: drain the ordered kernel queue.
        let mut moves = Vec::new();
        let mut moves_reverted = 0u64;
        let mut breakdown = sums.breakdown(self.platform);
        for &kernel in self.analysis.kernels() {
            if breakdown.t_total() <= constraint {
                break;
            }
            let prev_total = breakdown.t_total();
            sums.move_to_coarse(kernel.index());
            let candidate = sums.breakdown(self.platform);
            if self.config.skip_unprofitable && candidate.t_total() >= prev_total {
                sums.revert(kernel.index());
                moves_reverted += 1;
                continue;
            }
            assignment[kernel.index()] = Assignment::CoarseGrain;
            breakdown = candidate;
            moves.push(MoveRecord {
                kernel,
                label: self.cdfg.block(kernel).label.clone(),
                breakdown,
            });
        }

        let met = breakdown.t_total() <= constraint;
        Ok(PartitionResult {
            constraint,
            initial_cycles,
            met_without_partitioning: false,
            moves,
            moves_reverted,
            assignment,
            breakdown,
            met,
        })
    }

    /// The seed implementation of the kernel loop, retained verbatim as
    /// the differential-testing oracle: every breakdown is an O(n)
    /// recomputation from the assignment.
    #[cfg(test)]
    fn run_naive(&self, constraint: u64) -> Result<PartitionResult, CoreError> {
        let n = self.cdfg.len();
        let exec_freq: Vec<u64> = self.analysis.blocks().iter().map(|b| b.exec_freq).collect();

        let fp = self.cache_fingerprint();
        let fine = self.fine_mapping(fp)?;
        let initial_cycles = fine.t_fpga(&exec_freq, |_| true);
        let mut assignment = vec![Assignment::FineGrain; n];
        if initial_cycles <= constraint {
            return Ok(PartitionResult {
                constraint,
                initial_cycles,
                met_without_partitioning: true,
                moves: Vec::new(),
                moves_reverted: 0,
                assignment,
                breakdown: Breakdown {
                    t_fpga: initial_cycles,
                    t_coarse_cgc: 0,
                    t_coarse: 0,
                    t_comm: 0,
                },
                met: true,
            });
        }

        let coarse = self.coarse_mapping(fp)?;
        let mut moves = Vec::new();
        let mut moves_reverted = 0u64;
        let mut breakdown = self.breakdown_for(&assignment, &exec_freq, &fine, &coarse);
        for &kernel in self.analysis.kernels() {
            if breakdown.t_total() <= constraint {
                break;
            }
            let prev_total = breakdown.t_total();
            assignment[kernel.index()] = Assignment::CoarseGrain;
            let candidate = self.breakdown_for(&assignment, &exec_freq, &fine, &coarse);
            if self.config.skip_unprofitable && candidate.t_total() >= prev_total {
                assignment[kernel.index()] = Assignment::FineGrain; // revert
                moves_reverted += 1;
                continue;
            }
            breakdown = candidate;
            moves.push(MoveRecord {
                kernel,
                label: self.cdfg.block(kernel).label.clone(),
                breakdown,
            });
        }

        let met = breakdown.t_total() <= constraint;
        Ok(PartitionResult {
            constraint,
            initial_cycles,
            met_without_partitioning: false,
            moves,
            moves_reverted,
            assignment,
            breakdown,
            met,
        })
    }

    #[cfg(test)]
    fn breakdown_for(
        &self,
        assignment: &[Assignment],
        exec_freq: &[u64],
        fine: &CdfgFineGrainMapping,
        coarse: &CdfgCoarseGrainMapping,
    ) -> Breakdown {
        let t_fpga = fine.t_fpga(exec_freq, |i| assignment[i] == Assignment::FineGrain);
        let t_coarse_cgc = coarse.t_coarse(exec_freq, |i| assignment[i] == Assignment::CoarseGrain);
        let t_coarse = self.platform.cgc_to_fpga_cycles(t_coarse_cgc);
        let t_comm: u64 = self
            .cdfg
            .iter()
            .enumerate()
            .filter(|(i, _)| assignment[*i] == Assignment::CoarseGrain)
            .map(|(i, (_, bb))| {
                exec_freq[i]
                    .saturating_mul(self.platform.comm.cycles_per_exec(bb.live_in, bb.live_out))
            })
            .sum();
        Breakdown {
            t_fpga,
            t_coarse_cgc,
            t_coarse,
            t_comm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;
    use amdrel_profiler::{Interpreter, WeightTable};

    /// A program with one hot multiply-heavy loop and a cold tail.
    const HOT_LOOP: &str = r#"
        int data[256];
        int out[256];
        int main() {
            for (int i = 0; i < 256; i++) {
                int x = data[i];
                out[i] = x * x * 3 + x * 7 + 11;
            }
            int checksum = 0;
            for (int j = 0; j < 4; j++) {
                checksum = checksum + out[j];
            }
            return checksum;
        }
    "#;

    fn analyzed(src: &str) -> (amdrel_minic::CompiledProgram, AnalysisReport) {
        let c = compile(src, "main").unwrap();
        let exec = Interpreter::new(&c.ir).run(&[]).unwrap();
        let report = AnalysisReport::analyze(&c.cdfg, &exec.block_counts, &WeightTable::paper());
        (c, report)
    }

    #[test]
    fn trivial_constraint_exits_at_step2() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(5000, 2);
        let engine = PartitioningEngine::new(&c.cdfg, &report, &platform);
        let result = engine.run(u64::MAX).unwrap();
        assert!(result.met_without_partitioning);
        assert!(result.met);
        assert!(result.moves.is_empty());
        assert_eq!(result.final_cycles(), result.initial_cycles);
    }

    #[test]
    fn tight_constraint_moves_kernels() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 2);
        let engine = PartitioningEngine::new(&c.cdfg, &report, &platform);
        // Demand a 2× speed-up over all-FPGA.
        let initial = engine.run(u64::MAX).unwrap().initial_cycles;
        let result = engine.run(initial / 2).unwrap();
        assert!(!result.met_without_partitioning);
        assert!(!result.moves.is_empty());
        assert!(result.final_cycles() < result.initial_cycles);
        // The first move must be the heaviest kernel.
        assert_eq!(result.moves[0].kernel, report.kernels()[0]);
    }

    #[test]
    fn eq2_accounting_identity() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 3);
        let initial = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(u64::MAX)
            .unwrap()
            .initial_cycles;
        let result = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(initial / 3)
            .unwrap();
        let b = result.breakdown;
        assert_eq!(b.t_total(), b.t_fpga + b.t_coarse + b.t_comm);
        assert_eq!(result.final_cycles(), b.t_total());
        // Every move's breakdown satisfies the same identity.
        for m in &result.moves {
            assert_eq!(
                m.breakdown.t_total(),
                m.breakdown.t_fpga + m.breakdown.t_coarse + m.breakdown.t_comm
            );
        }
    }

    #[test]
    fn impossible_constraint_reports_unmet() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 2);
        let result = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        assert!(!result.met);
        // All kernels were tried.
        assert_eq!(result.moves.len(), report.kernels().len());
    }

    #[test]
    fn moves_follow_kernel_order() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 2);
        let result = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        let moved = result.moved_blocks();
        assert_eq!(&moved[..], &report.kernels()[..moved.len()]);
    }

    #[test]
    fn assignment_matches_moves() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 2);
        let result = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        for (i, a) in result.assignment.iter().enumerate() {
            let moved = result
                .moved_blocks()
                .contains(&amdrel_cdfg::BlockId(i as u32));
            assert_eq!(moved, *a == Assignment::CoarseGrain);
        }
    }

    #[test]
    fn reduction_percent_sane() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 3);
        let initial = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(u64::MAX)
            .unwrap()
            .initial_cycles;
        let result = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(initial / 2)
            .unwrap();
        let r = result.reduction_percent();
        assert!((0.0..100.0).contains(&r), "reduction {r}%");
    }

    #[test]
    fn skip_unprofitable_reverts_bad_moves() {
        let (c, report) = analyzed(HOT_LOOP);
        // Make communication brutally expensive so moves don't pay.
        let platform = Platform::paper(1500, 2).with_comm(crate::CommModel {
            cycles_per_word: 10_000,
            setup_cycles: 10_000,
        });
        let strict = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .with_config(EngineConfig {
                skip_unprofitable: true,
            })
            .run(1)
            .unwrap();
        // With skipping, final must never exceed initial.
        assert!(strict.final_cycles() <= strict.initial_cycles);
        // Paper-faithful engine would blow past initial on this platform.
        let faithful = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        assert!(faithful.final_cycles() > strict.final_cycles());
    }

    /// Differential property: across random applications, platforms and
    /// constraints, the incremental engine must produce a result equal in
    /// every field (every `MoveRecord.breakdown` included) to the retained
    /// naive O(n)-per-move oracle.
    #[test]
    fn incremental_engine_matches_naive_oracle() {
        use amdrel_cdfg::synth::{random_dfg, SplitMix64, SynthConfig};
        use amdrel_cdfg::BasicBlock;
        use amdrel_profiler::WeightTable;

        for seed in 0u64..64 {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1FF);
            let blocks = 2 + rng.below(10) as usize;
            let mut cdfg = Cdfg::new(format!("diff{seed}"));
            let mut freqs = Vec::with_capacity(blocks);
            for i in 0..blocks {
                let dfg = random_dfg(
                    seed.wrapping_add(i as u64 * 131),
                    &SynthConfig {
                        nodes: 4 + rng.below(36) as usize,
                        mul_fraction: 0.3,
                        load_fraction: 0.15,
                        ..SynthConfig::default()
                    },
                );
                cdfg.add_block(BasicBlock::from_dfg(format!("b{i}"), dfg));
                freqs.push(1 + rng.below(3000));
            }
            for i in 0..blocks - 1 {
                cdfg.add_edge(BlockId(i as u32), BlockId(i as u32 + 1))
                    .unwrap();
            }
            cdfg.add_edge(BlockId(blocks as u32 - 1), BlockId(0))
                .unwrap();

            let analysis = AnalysisReport::analyze(&cdfg, &freqs, &WeightTable::paper());
            let area = [1200u64, 1500, 2000, 5000][rng.below(4) as usize];
            let cgcs = 1 + rng.below(3) as usize;
            let ratio = 1 + rng.below(4);
            let platform = Platform::paper(area, cgcs)
                .with_clock_ratio(ratio)
                .with_comm(crate::CommModel {
                    cycles_per_word: rng.below(50),
                    setup_cycles: rng.below(50),
                });
            let config = EngineConfig {
                skip_unprofitable: rng.below(2) == 1,
            };

            let engine = PartitioningEngine::new(&cdfg, &analysis, &platform).with_config(config);
            let initial = engine.run(u64::MAX).unwrap().initial_cycles;
            for constraint in [1, initial / 3, initial / 2, initial, u64::MAX] {
                let incremental = engine.run(constraint).unwrap();
                let naive = engine.run_naive(constraint).unwrap();
                assert_eq!(
                    incremental, naive,
                    "divergence at seed {seed}, constraint {constraint}"
                );
            }
        }
    }

    /// The same engine served by a [`MappingCache`] produces the same
    /// result as one mapping privately.
    #[test]
    fn cached_engine_matches_uncached() {
        let (c, report) = analyzed(HOT_LOOP);
        let platform = Platform::paper(1500, 2);
        let cache = MappingCache::new();
        let uncached = PartitioningEngine::new(&c.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        for _ in 0..3 {
            let cached = PartitioningEngine::new(&c.cdfg, &report, &platform)
                .with_mapping_cache(&cache)
                .run(1)
                .unwrap();
            assert_eq!(cached, uncached);
        }
        let stats = cache.stats();
        assert_eq!((stats.fine_misses, stats.coarse_misses), (1, 1));
        assert_eq!((stats.fine_hits, stats.coarse_hits), (2, 2));
    }
}
