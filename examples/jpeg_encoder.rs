//! Reproduce the paper's JPEG experiment (Tables 1 and 3).
//!
//! Compiles the re-implemented JPEG encoder, profiles it on a 256×256
//! synthetic image (the paper's workload), prints the Table 1 analysis,
//! then sweeps the four platform configurations of Table 3 against the
//! paper's 11×10⁶-cycle constraint.
//!
//! Run with: `cargo run --release --example jpeg_encoder`
//! (Pass a smaller dimension, e.g. `-- 64`, for a quick run.)

use amdrel_apps::{jpeg, paper};
use amdrel_coarsegrain::CgcDatapath;
use amdrel_core::{format_paper_table, run_grid, Platform};
use amdrel_profiler::{AnalysisReport, WeightTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(jpeg::PAPER_DIM);
    let workload = jpeg::workload(dim, 2004);
    println!("== {} ==", workload.name);

    let (program, execution) = workload.compile_and_profile()?;
    println!(
        "compiled: {} basic blocks, {} ops; profile retired {} instructions; {} bits emitted",
        program.cdfg.len(),
        program.cdfg.total_ops(),
        execution.instrs_retired,
        execution.return_value.unwrap_or(0),
    );

    let analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    println!();
    println!(
        "{}",
        analysis.format_table1("Table 1 analogue — ordered total weights", 8)
    );
    println!("paper Table 1 for comparison (BB, freq, weight, total):");
    for r in &paper::JPEG_TABLE1 {
        println!(
            "  {:<6} {:>10} {:>8} {:>12}",
            r.bb, r.exec_freq, r.ops_weight, r.total_weight
        );
    }
    println!();

    // Scale the constraint with the image area so small trial runs keep
    // the paper's constraint-to-workload proportion.
    let constraint =
        paper::JPEG_CONSTRAINT * (dim * dim) as u64 / (jpeg::PAPER_DIM * jpeg::PAPER_DIM) as u64;
    let base = Platform::paper(1500, 2);
    let grid = run_grid(
        "JPEG encoder",
        &program.cdfg,
        &analysis,
        &base,
        &[1500, 5000],
        &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
        constraint,
    )?;
    println!("{}", format_paper_table(&grid));

    println!("paper Table 3 for comparison (constraint 11e6):");
    for r in &paper::JPEG_TABLE3 {
        println!(
            "  A={:<5} {} CGCs: initial {:>9}, CGC {:>8}, final {:>9}, {:>5.1}% reduction",
            r.area, r.cgcs, r.initial_cycles, r.cycles_in_cgc, r.final_cycles, r.reduction_percent
        );
    }
    Ok(())
}
