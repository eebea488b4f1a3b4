//! Integration tests of the mapping cache and the parallel grid executor
//! through the facade crate, the way library users reach them.

use amdrel::prelude::*;
use std::sync::Arc;

const FIR: &str = r#"
    int samples[72];
    int taps[8];
    int out[64];
    int main() {
        for (int i = 0; i < 64; i++) {
            int acc = 0;
            for (int t = 0; t < 8; t++) {
                acc += samples[i + t] * taps[t];
            }
            out[i] = acc >> 4;
        }
        return out[0];
    }
"#;

fn analyzed() -> (amdrel::minic::CompiledProgram, AnalysisReport) {
    let program = compile(FIR, "main").expect("compiles");
    let execution = Interpreter::new(&program.ir).run(&[]).expect("runs");
    let analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    (program, analysis)
}

#[test]
fn parallel_grid_matches_sequential_through_facade() {
    let (program, analysis) = analyzed();
    let base = Platform::paper(1500, 2);
    let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
    let initial = PartitioningEngine::new(&program.cdfg, &analysis, &base)
        .run(u64::MAX)
        .expect("engine runs")
        .initial_cycles;
    let spec = GridSpec {
        app: "fir",
        cdfg: &program.cdfg,
        analysis: &analysis,
        base: &base,
        areas: &[1200, 1500, 5000],
        datapaths: &datapaths,
        constraint: initial / 2,
    };
    let sequential = run_grid(
        "fir",
        &program.cdfg,
        &analysis,
        &base,
        &[1200, 1500, 5000],
        &datapaths,
        initial / 2,
    )
    .expect("grid runs");
    let parallel = run_grid_parallel_jobs(&spec, &MappingCache::new(), 0).expect("grid runs");
    assert_eq!(sequential, parallel);
    // And the paper-table rendering agrees, cell for cell.
    assert_eq!(
        format_paper_table(&sequential),
        format_paper_table(&parallel)
    );
}

#[test]
fn cache_shares_mappings_by_pointer() {
    let (program, _) = analyzed();
    let cache = MappingCache::new();
    let platform = Platform::paper(1500, 2);
    let f1 = cache
        .fine(&program.cdfg, &platform.fpga)
        .expect("fine maps");
    let f2 = cache
        .fine(&program.cdfg, &platform.fpga)
        .expect("fine maps");
    assert!(Arc::ptr_eq(&f1, &f2));
    let c1 = cache
        .coarse(&program.cdfg, &platform.datapath, &platform.scheduler)
        .expect("coarse maps");
    let c2 = cache
        .coarse(&program.cdfg, &platform.datapath, &platform.scheduler)
        .expect("coarse maps");
    assert!(Arc::ptr_eq(&c1, &c2));
    let stats = cache.stats();
    assert_eq!((stats.fine_misses, stats.fine_hits), (1, 1));
    assert_eq!((stats.coarse_misses, stats.coarse_hits), (1, 1));
}

#[test]
fn grid_maps_each_area_and_datapath_once() {
    let (program, analysis) = analyzed();
    let base = Platform::paper(1500, 2);
    let areas = [1200u64, 1500, 5000];
    let datapaths = [CgcDatapath::two_2x2(), CgcDatapath::three_2x2()];
    let cache = MappingCache::new();
    let spec = GridSpec {
        app: "fir",
        cdfg: &program.cdfg,
        analysis: &analysis,
        base: &base,
        areas: &areas,
        datapaths: &datapaths,
        constraint: 1, // tight: every cell maps both fabrics
    };
    run_grid_cached(&spec, &cache).expect("grid runs");
    run_grid_parallel_jobs(&spec, &cache, 0).expect("grid runs");
    let stats = cache.stats();
    assert_eq!(stats.fine_misses, areas.len() as u64);
    assert_eq!(stats.coarse_misses, datapaths.len() as u64);
    // 2 sweeps × 6 cells × 2 lookups, minus one lookup per miss.
    assert_eq!(stats.hits(), 2 * 6 * 2 - 5);
}

#[test]
fn run_flow_cached_reuses_mappings_across_constraints() {
    let cache = MappingCache::new();
    let platform = Platform::paper(1500, 2);
    let first = run_flow_cached(FIR, &[], &platform, 1, EngineConfig::default(), &cache)
        .expect("flow runs");
    let again = run_flow_cached(FIR, &[], &platform, 1, EngineConfig::default(), &cache)
        .expect("flow runs");
    assert_eq!(first.result, again.result);
    // Sweep constraints: still only one mapping per fabric.
    for divisor in [2u64, 4, 8] {
        let constraint = first.result.initial_cycles / divisor;
        run_flow_cached(
            FIR,
            &[],
            &platform,
            constraint,
            EngineConfig::default(),
            &cache,
        )
        .expect("flow runs");
    }
    let stats = cache.stats();
    assert_eq!(stats.fine_misses, 1);
    assert_eq!(stats.coarse_misses, 1);
    assert!(stats.hits() >= 5);
}
