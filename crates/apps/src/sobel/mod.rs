//! The Sobel edge-detector case study (an extension beyond the paper's
//! two applications, same DSP/multimedia domain).

pub mod reference;
pub mod source;

pub use reference::{detect, SobelOutput};
pub use source::sobel_source;

use crate::Workload;
use amdrel_cdfg::synth::SplitMix64;

/// Build the Sobel workload for a `dim × dim` synthetic image.
///
/// # Panics
///
/// Panics if `dim < 3`.
pub fn workload(dim: usize, seed: u64) -> Workload {
    let image = test_image(dim, seed);
    Workload {
        name: format!("Sobel edge detector ({dim}x{dim})"),
        source: sobel_source(dim),
        inputs: vec![
            ("image".to_owned(), image),
            ("threshold".to_owned(), vec![160]),
        ],
    }
}

/// The Sobel exploration entry point: the
/// [standard space](crate::standard_design_space) under a caller-chosen
/// timing constraint (Sobel is not in the paper, so there is no published
/// constant — half the workload's all-FPGA cycle count is a good
/// starting point).
pub fn design_space(constraint: u64) -> amdrel_explore::DesignSpace {
    crate::standard_design_space(constraint)
}

/// A deterministic image with structured edges: blocks of alternating
/// intensity plus noise.
fn test_image(dim: usize, seed: u64) -> Vec<i64> {
    let mut rng = SplitMix64::new(seed);
    let mut img = Vec::with_capacity(dim * dim);
    for y in 0..dim {
        for x in 0..dim {
            let tile = ((x / 8) + (y / 8)) % 2;
            let base = if tile == 0 { 60 } else { 190 };
            img.push(base + (rng.next_u64() % 11) as i64);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;
    use amdrel_profiler::Interpreter;

    #[test]
    fn minic_matches_reference_bit_exactly() {
        let dim = 24;
        let w = workload(dim, 5);
        let program = compile(&w.source, "main").expect("Sobel compiles");
        let exec = Interpreter::new(&program.ir)
            .run(&w.input_refs())
            .expect("Sobel runs");
        let expected = detect(&w.inputs[0].1, dim, 160);
        assert_eq!(exec.return_value, Some(expected.count));
        assert_eq!(exec.global("edges").unwrap(), &expected.edges[..]);
    }

    #[test]
    fn stencil_body_is_the_dominant_kernel() {
        let dim = 24;
        let w = workload(dim, 5);
        let program = compile(&w.source, "main").unwrap();
        let exec = Interpreter::new(&program.ir).run(&w.input_refs()).unwrap();
        let report = amdrel_profiler::AnalysisReport::analyze(
            &program.cdfg,
            &exec.block_counts,
            &amdrel_profiler::WeightTable::paper(),
        );
        let top = report.top_kernels(1)[0];
        // Interior pixel count, possibly split across the abs-branching
        // blocks; the top kernel must at least run per interior pixel.
        let interior = ((dim - 2) * (dim - 2)) as u64;
        assert_eq!(top.exec_freq, interior);
        assert!(top.bb_weight >= 20, "stencil body weight {}", top.bb_weight);
    }

    #[test]
    fn partitioning_accelerates_the_detector() {
        use amdrel_core::{PartitioningEngine, Platform};
        let w = workload(32, 9);
        let (program, exec) = w.compile_and_profile().unwrap();
        let report = amdrel_profiler::AnalysisReport::analyze(
            &program.cdfg,
            &exec.block_counts,
            &amdrel_profiler::WeightTable::paper(),
        );
        let platform = Platform::paper(1500, 2);
        let r = PartitioningEngine::new(&program.cdfg, &report, &platform)
            .run(1)
            .unwrap();
        assert!(r.final_cycles() < r.initial_cycles);
        assert!(r.reduction_percent() > 30.0);
    }
}
