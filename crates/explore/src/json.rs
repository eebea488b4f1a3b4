//! JSON rendering for exploration reports (schema `amdrel-explore/v4`)
//! through the workspace's one [`amdrel_core::json`] writer. The schema
//! history and its migration notes are in `docs/BENCHMARKS.md`.

use crate::report::ExploreReport;
use amdrel_core::json::{cache_object, document, Fixed, Sep};

/// Render an [`ExploreReport`] as JSON (schema `amdrel-explore/v4`).
pub fn report_to_json(report: &ExploreReport) -> String {
    document(|doc| {
        doc.field("schema", "amdrel-explore/v4");
        doc.field("app", &report.app);
        doc.field("strategy", &report.strategy);
        doc.list("objectives", Sep::Spaced, &report.objectives);
        doc.field("seed", report.seed);
        doc.field("eval_budget", report.eval_budget);
        doc.field("jobs", report.jobs);
        doc.object("space", Sep::Spaced, |o| {
            o.field("points", report.space_points);
            o.field("cells", report.space_cells);
            o.field("constraint", report.constraint);
        });
        doc.object("effort", Sep::Spaced, |o| {
            o.field("points_evaluated", report.stats.points_evaluated);
            o.field("engine_runs", report.stats.engine_runs);
            o.field("cell_hits", report.stats.cell_hits);
            o.field("sim_runs", report.stats.sim_runs);
            o.field("archive_inserts", report.archive_inserts);
            o.field("archive_pruned", report.archive_pruned);
        });
        cache_object(doc, &report.cache);
        doc.rows("frontier", Sep::Tight, |rows| {
            for p in &report.frontier {
                rows.elem_object(|row| {
                    row.field("area", p.area);
                    row.field("datapath", &p.datapath);
                    row.field("kernels_moved", p.kernels_moved);
                    row.field("initial_cycles", p.initial_cycles);
                    row.field("final_cycles", p.cycles);
                    row.field("speedup", Fixed(p.speedup(), 3));
                    row.field("energy", p.energy_total());
                    row.field("met", p.met);
                    row.list("objectives", p.objectives.values());
                    if let Some(c) = &p.contention {
                        row.object("contention", |o| {
                            o.field("p95_latency", c.p95_latency);
                            o.field("cycles_per_job", c.cycles_per_job);
                            o.field("jobs_per_mcycle", Fixed(c.jobs_per_mcycle(), 4));
                            o.field("completed", c.completed);
                            o.field("rejected", c.rejected);
                            o.field("makespan", c.makespan);
                            o.field("reconfig_stall_cycles", c.reconfig_stall_cycles);
                            o.field("p95_under_faults", c.p95_under_faults);
                            o.field("degraded_permille", c.degraded_permille);
                        });
                    }
                });
            }
        });
    })
}
