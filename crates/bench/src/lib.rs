//! # amdrel-bench — shared setup for the benchmark harness
//!
//! Each Criterion bench under `benches/` times one hot path of the flow
//! or the runtime simulator. This crate hosts the workload setup those
//! benches share with the tests, the examples and `bench_report`.

#![warn(missing_docs)]

use amdrel_apps::{jpeg, ofdm};
use amdrel_minic::CompiledProgram;
use amdrel_profiler::{AnalysisReport, Execution, Interpreter, WeightTable};

/// A fully analysed application, ready for the partitioning engine.
#[derive(Debug)]
pub struct Prepared {
    /// Application name.
    pub name: String,
    /// Compiled program (IR + CDFG).
    pub program: CompiledProgram,
    /// The profiling run.
    pub execution: Execution,
    /// The combined analysis.
    pub analysis: AnalysisReport,
}

impl Prepared {
    /// Cycles the kernels take in the CGC datapath `dp` when every
    /// kernel is moved there (the `t_coarse` of the all-moved mapping).
    pub fn kernel_cgc_cycles(
        &self,
        dp: &amdrel_coarsegrain::CgcDatapath,
        cfg: &amdrel_coarsegrain::SchedulerConfig,
    ) -> u64 {
        let exec_freq: Vec<u64> = self.analysis.blocks().iter().map(|b| b.exec_freq).collect();
        let map = amdrel_coarsegrain::CdfgCoarseGrainMapping::map(&self.program.cdfg, dp, cfg)
            .expect("kernels map onto the CGC datapath");
        let kernels = self.analysis.kernels();
        map.t_coarse(&exec_freq, |i| {
            kernels.contains(&amdrel_cdfg::BlockId(i as u32))
        })
    }
}

fn prepare(workload: &amdrel_apps::Workload) -> Prepared {
    let program =
        amdrel_minic::compile(&workload.source, "main").expect("workload source compiles");
    let execution = Interpreter::new(&program.ir)
        .run(&workload.input_refs())
        .expect("workload runs");
    let analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    Prepared {
        name: workload.name.clone(),
        program,
        execution,
        analysis,
    }
}

/// The OFDM transmitter at the paper's workload size (6 payload symbols).
pub fn ofdm_prepared() -> Prepared {
    prepare(&ofdm::workload(2004))
}

/// The JPEG encoder at a reduced 64×64 size (same structure as the
/// paper's 256×256, ~16× less interpretation work).
pub fn jpeg_small_prepared() -> Prepared {
    prepare(&jpeg::workload(64, 2004))
}

/// A synthetic application for scaling studies: `blocks` random DFG
/// bodies strung into one loop (so every block is a kernel candidate)
/// with random execution frequencies. Deterministic in `blocks`, and
/// shared between the `engine_scaling` bench and the `bench_report`
/// example so the committed `BENCH_engine.json` baseline and the bench
/// measure the same workload.
pub fn synthetic_app(blocks: usize) -> (amdrel_cdfg::Cdfg, Vec<u64>) {
    use amdrel_cdfg::synth::{random_dfg, SplitMix64, SynthConfig};
    use amdrel_cdfg::{BasicBlock, BlockId, Cdfg};

    assert!(blocks >= 2, "a synthetic app needs at least 2 blocks");
    let mut rng = SplitMix64::new(0x5CA1_AB1E ^ blocks as u64);
    let mut cdfg = Cdfg::new(format!("synth{blocks}"));
    let mut freqs = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let dfg = random_dfg(
            blocks as u64 * 1000 + i as u64,
            &SynthConfig {
                nodes: 6 + (rng.below(24) as usize),
                mul_fraction: 0.3,
                load_fraction: 0.15,
                ..SynthConfig::default()
            },
        );
        cdfg.add_block(BasicBlock::from_dfg(format!("b{i}"), dfg));
        freqs.push(1 + rng.below(2000));
    }
    for i in 0..blocks - 1 {
        cdfg.add_edge(BlockId(i as u32), BlockId(i as u32 + 1))
            .expect("edge");
    }
    cdfg.add_edge(BlockId(blocks as u32 - 1), BlockId(0))
        .expect("back edge");
    (cdfg, freqs)
}

/// `n` synthetic tenant profiles for runtime scaling studies: varied
/// service demands (2k–40k fine-grain cycles), priorities, partition
/// footprints and communication costs, deterministic in `n`. Shared
/// between the `runtime_scaling` bench and the `bench_report` example so
/// the committed `BENCH_runtime.json` scaling row and the bench measure
/// the same tenant population.
pub fn synthetic_tenants(n: usize) -> Vec<amdrel_runtime::AppProfile> {
    use amdrel_core::rng::SplitMix64;

    assert!(n >= 1, "a tenant population needs at least one tenant");
    let mut rng = SplitMix64::new(0x7E4A_4174 ^ n as u64);
    (0..n)
        .map(|i| {
            let parts = 1 + rng.below(3) as usize;
            let areas: Vec<u64> = (0..parts).map(|_| 50 + rng.below(400)).collect();
            let mut p = amdrel_runtime::AppProfile::synthetic(
                &format!("tenant{i:02}"),
                (i % 4) as u8,
                2_000 + rng.below(38_000),
                rng.below(8_000),
                areas,
            );
            p.comm_cycles = rng.below(1_000);
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_setup_works() {
        let p = ofdm_prepared();
        assert!(!p.analysis.kernels().is_empty());
        assert!(p.execution.instrs_retired > 0);
    }

    #[test]
    fn synthetic_tenants_are_deterministic_and_well_formed() {
        let a = synthetic_tenants(32);
        assert_eq!(a.len(), 32);
        assert_eq!(a, synthetic_tenants(32));
        for t in &a {
            assert!(t.fine_cycles >= 2_000);
            assert!(!t.config.partition_areas.is_empty());
        }
    }
}
