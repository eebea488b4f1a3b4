//! Reproduce the paper's OFDM experiment (Tables 1 and 2).
//!
//! Compiles the re-implemented IEEE 802.11a OFDM transmitter front-end,
//! profiles it on 6 payload symbols, prints the Table 1 analysis, then
//! sweeps the four platform configurations of Table 2
//! (`A_FPGA ∈ {1500, 5000}` × {two, three} 2×2 CGCs) against the paper's
//! 60 000-cycle constraint.
//!
//! Run with: `cargo run --release --example ofdm_transmitter`

use amdrel_apps::{ofdm, paper};
use amdrel_coarsegrain::CgcDatapath;
use amdrel_core::{format_paper_table, run_grid, Platform};
use amdrel_profiler::{AnalysisReport, WeightTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ofdm::workload(2004);
    println!("== {} ==", workload.name);

    let (program, execution) = workload.compile_and_profile()?;
    println!(
        "compiled: {} basic blocks, {} ops; profile retired {} instructions",
        program.cdfg.len(),
        program.cdfg.total_ops(),
        execution.instrs_retired,
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
    for r in &paper::OFDM_TABLE1 {
        println!(
            "  {:<6} {:>10} {:>8} {:>12}",
            r.bb, r.exec_freq, r.ops_weight, r.total_weight
        );
    }
    println!();

    let base = Platform::paper(1500, 2);
    let grid = run_grid(
        "OFDM transmitter",
        &program.cdfg,
        &analysis,
        &base,
        &[1500, 5000],
        &[CgcDatapath::two_2x2(), CgcDatapath::three_2x2()],
        paper::OFDM_CONSTRAINT,
    )?;
    println!("{}", format_paper_table(&grid));

    println!("paper Table 2 for comparison:");
    for r in &paper::OFDM_TABLE2 {
        println!(
            "  A={:<5} {} CGCs: initial {:>7}, CGC {:>6}, final {:>6}, {:>5.1}% reduction",
            r.area, r.cgcs, r.initial_cycles, r.cycles_in_cgc, r.final_cycles, r.reduction_percent
        );
    }
    Ok(())
}
