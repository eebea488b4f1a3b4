//! JSON rendering for exploration reports.
//!
//! The generic writer (string escaping, cache counters, sweep grids)
//! lives in [`amdrel_core::json`] so every `--json` output in the
//! workspace shares one renderer; this module adds the [`ExploreReport`]
//! shape.
//!
//! # Schema `amdrel-explore/v4`
//!
//! The v3→v4 bump drops v3's flat `"metrics"` object, whose entries
//! copied `"effort"` and `"cache"` or equalled the frontier length. The
//! two facts only it held move to the end of `"effort"` as
//! `"archive_inserts"` and `"archive_pruned"` (lifetime Pareto-archive
//! churn). Every other v3 key is retained unchanged.
//!
//! Earlier history — v3 added the `"metrics"` object; the v1→v2 bump
//! accompanied the N-objective generalisation (see `docs/BENCHMARKS.md`
//! for the migration notes):
//!
//! * a top-level `"objectives"` array names the minimised objectives in
//!   vector order;
//! * every frontier member carries an `"objectives"` value array
//!   aligned with those names (the per-metric keys `final_cycles`,
//!   `area`, `energy` remain for compatibility);
//! * `"effort"` gains `"sim_runs"` (workload simulations performed);
//! * frontier members scored under runtime objectives carry a
//!   `"contention"` object (`p95_latency`, `cycles_per_job`,
//!   `jobs_per_mcycle`, `completed`, `rejected`, `makespan`,
//!   `reconfig_stall_cycles`, and the reliability pair
//!   `p95_under_faults` / `degraded_permille`).

use crate::report::ExploreReport;
use amdrel_core::json::{cache_to_json, escape, string_array, u64_array};
use std::fmt::Write as _;

/// Render an [`ExploreReport`] as JSON (schema `amdrel-explore/v4`).
pub fn report_to_json(report: &ExploreReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"amdrel-explore/v4\",\n");
    let _ = writeln!(out, "  \"app\": \"{}\",", escape(&report.app));
    let _ = writeln!(out, "  \"strategy\": \"{}\",", escape(&report.strategy));
    let _ = writeln!(
        out,
        "  \"objectives\": {},",
        string_array(&report.objectives)
    );
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"eval_budget\": {},", report.eval_budget);
    let _ = writeln!(out, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(
        out,
        "  \"space\": {{\"points\": {}, \"cells\": {}, \"constraint\": {}}},",
        report.space_points, report.space_cells, report.constraint
    );
    let _ = writeln!(
        out,
        "  \"effort\": {{\"points_evaluated\": {}, \"engine_runs\": {}, \"cell_hits\": {}, \
         \"sim_runs\": {}, \"archive_inserts\": {}, \"archive_pruned\": {}}},",
        report.stats.points_evaluated,
        report.stats.engine_runs,
        report.stats.cell_hits,
        report.stats.sim_runs,
        report.archive_inserts,
        report.archive_pruned
    );
    let _ = writeln!(out, "  \"cache\": {},", cache_to_json(&report.cache));
    out.push_str("  \"frontier\": [\n");
    for (i, p) in report.frontier.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"area\":{},\"datapath\":\"{}\",\"kernels_moved\":{},\"initial_cycles\":{},\
             \"final_cycles\":{},\"speedup\":{:.3},\"energy\":{},\"met\":{},\"objectives\":{}",
            p.area,
            escape(&p.datapath),
            p.kernels_moved,
            p.initial_cycles,
            p.cycles,
            p.speedup(),
            p.energy_total(),
            p.met,
            u64_array(p.objectives.values()),
        );
        if let Some(c) = &p.contention {
            let _ = write!(
                out,
                ",\"contention\":{{\"p95_latency\":{},\"cycles_per_job\":{},\
                 \"jobs_per_mcycle\":{:.4},\"completed\":{},\"rejected\":{},\"makespan\":{},\
                 \"reconfig_stall_cycles\":{},\"p95_under_faults\":{},\"degraded_permille\":{}}}",
                c.p95_latency,
                c.cycles_per_job,
                c.jobs_per_mcycle(),
                c.completed,
                c.rejected,
                c.makespan,
                c.reconfig_stall_cycles,
                c.p95_under_faults,
                c.degraded_permille,
            );
        }
        out.push('}');
        out.push_str(if i + 1 == report.frontier.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
