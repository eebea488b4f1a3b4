//! Per-application runtime profiles for the multi-tenant simulator
//! (`amdrel-runtime`).
//!
//! Each case study compiles, profiles and partitions once on a given
//! platform; the resulting [`AppProfile`] carries the per-job phase
//! costs (eq. (2) breakdown) and the fine-grain configuration footprint
//! (temporal-partition areas of the blocks the engine left on the
//! FPGA). The [`standard_mix`] bundles all three case studies at
//! simulation-friendly input sizes with distinct service classes:
//! OFDM symbols are latency-critical, Sobel frames are interactive,
//! JPEG encodes are batch work.

use crate::{jpeg, ofdm, paper, sobel, Workload};
use amdrel_core::{MappingCache, PartitioningEngine, Platform};
use amdrel_explore::RuntimeEvaluator;
use amdrel_finegrain::CdfgFineGrainMapping;
use amdrel_profiler::{AnalysisReport, WeightTable};
use amdrel_runtime::{AppProfile, ShortestJobFirst};

/// Workload seed shared by the profile builders (the same seed the
/// bench harness uses, so profiles line up with the committed
/// baselines).
pub const PROFILE_SEED: u64 = 2004;

/// Reduced input sizes for the heavy encoders: profiles only need the
/// per-job cost structure, not the paper's full-resolution runtime.
const JPEG_RUNTIME_DIM: usize = 64;
/// Sobel frame edge length used for the runtime profile.
pub const SOBEL_RUNTIME_DIM: usize = 32;

/// Derive the runtime profile of `workload` partitioned on `platform`
/// under `constraint` (`None` targets half the all-FPGA cycle count,
/// forcing a real partitioning).
///
/// # Errors
///
/// Compilation, profiling, mapping or partitioning failures.
fn profile_workload(
    name: &str,
    priority: u8,
    workload: &Workload,
    platform: &Platform,
    constraint: Option<u64>,
) -> Result<AppProfile, Box<dyn std::error::Error>> {
    let (program, execution) = workload.compile_and_profile()?;
    let analysis = AnalysisReport::analyze(
        &program.cdfg,
        &execution.block_counts,
        &WeightTable::paper(),
    );
    let cache = MappingCache::new();
    let engine =
        PartitioningEngine::new(&program.cdfg, &analysis, platform).with_mapping_cache(&cache);
    let constraint = match constraint {
        Some(c) => c,
        None => (engine.run(u64::MAX)?.initial_cycles / 2).max(1),
    };
    let result = engine.run(constraint)?;
    let mapping = CdfgFineGrainMapping::map(&program.cdfg, &platform.fpga)?;
    Ok(AppProfile::from_partitioning(
        name, priority, &result, &mapping,
    ))
}

/// The OFDM transmitter profile (paper workload size, priority 2 —
/// the latency-critical communications tenant).
///
/// # Errors
///
/// Compilation, profiling, mapping or partitioning failures.
pub fn ofdm_profile(platform: &Platform) -> Result<AppProfile, Box<dyn std::error::Error>> {
    profile_workload(
        "ofdm",
        2,
        &ofdm::workload(PROFILE_SEED),
        platform,
        Some(paper::OFDM_CONSTRAINT),
    )
}

/// The JPEG encoder profile on a reduced 64×64 image (priority 0 —
/// batch work).
///
/// # Errors
///
/// Compilation, profiling, mapping or partitioning failures.
pub fn jpeg_profile(platform: &Platform) -> Result<AppProfile, Box<dyn std::error::Error>> {
    profile_workload(
        "jpeg",
        0,
        &jpeg::workload(JPEG_RUNTIME_DIM, PROFILE_SEED),
        platform,
        None,
    )
}

/// The Sobel edge-detector profile at [`SOBEL_RUNTIME_DIM`]² (priority
/// 1 — interactive vision).
///
/// # Errors
///
/// Compilation, profiling, mapping or partitioning failures.
pub fn sobel_profile(platform: &Platform) -> Result<AppProfile, Box<dyn std::error::Error>> {
    profile_workload(
        "sobel",
        1,
        &sobel::workload(SOBEL_RUNTIME_DIM, PROFILE_SEED),
        platform,
        None,
    )
}

/// The three-tenant standard mix (`ofdm`, `jpeg`, `sobel`), in that
/// order, partitioned on `platform`.
///
/// # Errors
///
/// The first profile that fails to build.
pub fn standard_mix(platform: &Platform) -> Result<Vec<AppProfile>, Box<dyn std::error::Error>> {
    Ok(vec![
        ofdm_profile(platform)?,
        jpeg_profile(platform)?,
        sobel_profile(platform)?,
    ])
}

/// Workload seed of the contention-aware exploration entry points
/// (shared with `bench_report`, so explorations line up with the
/// committed `BENCH_explore_contention.json` baseline).
pub const CONTENTION_SEED: u64 = 42;
/// Jobs per contention simulation.
pub const CONTENTION_NJOBS: usize = 200;
/// Offered fine-grain load of the contention workload, percent
/// (sustained overload — the regime where platforms differentiate).
pub const CONTENTION_LOAD: u64 = 130;

/// A [`RuntimeEvaluator`] for exploring `candidate` (one of the three
/// case studies) under contention from the *other two* standard-mix
/// tenants, profiled on `platform`: the candidate's per-job profile is
/// re-derived from each design point's own engine result, while the
/// background tenants keep the profiles the static flow gave them on
/// the base platform. Scheduling is shortest-job-first — the policy the
/// committed `BENCH_runtime.json` baseline recommends for latency, i.e.
/// the one a deployment would actually run — over the seeded
/// [`CONTENTION_NJOBS`]-job mix, with the arrival rate pinned to
/// [`CONTENTION_LOAD`]% of the *standard mix on the base platform*:
/// one absolute traffic level for the whole design space, so candidate
/// platforms are compared under identical offered load.
///
/// Attach it with
/// [`Evaluator::with_runtime`](amdrel_explore::Evaluator::with_runtime)
/// and select runtime objectives
/// ([`ObjectiveSet::parse`](amdrel_explore::ObjectiveSet::parse), e.g.
/// `"cycles,area,energy,p95"`) to make the search contention-aware.
///
/// # Errors
///
/// An unknown case-study name, or a background profile that fails to
/// build.
pub fn contention_evaluator(
    candidate: &str,
    platform: &Platform,
) -> Result<RuntimeEvaluator, Box<dyn std::error::Error>> {
    let mix = standard_mix(platform)?;
    let arrival = amdrel_runtime::WorkloadSpec::mean_interarrival_for(&mix, CONTENTION_LOAD);
    let idx = mix
        .iter()
        .position(|p| p.name == candidate)
        .ok_or_else(|| {
            format!("unknown case study '{candidate}' (expected ofdm, jpeg or sobel)")
        })?;
    let priority = mix[idx].priority;
    let background: Vec<AppProfile> = mix.into_iter().filter(|p| p.name != candidate).collect();
    Ok(
        RuntimeEvaluator::new(background, Box::new(ShortestJobFirst))
            .with_priority(priority)
            .with_seed(CONTENTION_SEED)
            .with_njobs(CONTENTION_NJOBS)
            .with_load(CONTENTION_LOAD)
            .with_arrival(arrival),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ofdm_profile_is_partitioned_and_configured() {
        let platform = Platform::paper(1500, 2);
        let p = ofdm_profile(&platform).unwrap();
        assert_eq!(p.name, "ofdm");
        assert_eq!(p.priority, 2);
        assert!(p.fine_cycles > 0, "some blocks stay on the FPGA");
        assert!(p.coarse_cycles > 0, "the engine moved kernels to the CGCs");
        assert!(
            !p.config.partition_areas.is_empty(),
            "FPGA-resident blocks occupy temporal partitions"
        );
        // The configuration footprint fits the paper's device count no
        // better than sanity: each partition respects usable area.
        let usable = platform.fpga.usable_area();
        assert!(p.config.partition_areas.iter().all(|&a| a <= usable));
    }
}
