//! Chaining-aware list scheduling onto the CGC datapath.
//!
//! "A proper list-based scheduler has been developed" (§3.3). The
//! scheduler fills one `T_CGC` cycle at a time:
//!
//! 1. **seed** — ready operations (all predecessors finished in earlier
//!    cycles) claim any free CGC node (the steering logic routes their
//!    inputs from the register bank) or a shared-memory port, highest
//!    priority first;
//! 2. **chain** — an operation whose only same-cycle predecessor sits at
//!    row `r` of a column with row `r+1` free is placed directly below
//!    it, completing in the same cycle through the steering logic (the
//!    multiply-add case of [6]). Disabled by
//!    [`SchedulerConfig::chaining`] for the ablation study.
//!
//! Loads/stores use memory ports and never chain. Boundary pseudo-ops are
//! free. Every cycle costs exactly one `T_CGC` ("unit execution delay").

use crate::datapath::CgcDatapath;
use crate::CoarseGrainError;
use amdrel_cdfg::{mobility, path_to_sink, Dfg, NodeId};

/// Where a scheduled operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A CGC node: `(cgc instance, column, row within the chain)`.
    CgcNode {
        /// CGC instance index.
        cgc: u32,
        /// Column (chain) index.
        col: u32,
        /// Row (chain depth) index.
        row: u32,
    },
    /// A shared-memory port.
    MemPort {
        /// Port index.
        port: u32,
    },
}

/// A node's placement: which cycle, which site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Clock cycle (0-based, period `T_CGC`).
    pub cycle: u64,
    /// Execution site.
    pub site: Site,
}

/// List-scheduler priority function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Longest path to a sink, descending — the classic critical-path
    /// list scheduler. The default.
    #[default]
    LongestPath,
    /// Least mobility (ALAP − ASAP) first.
    Mobility,
    /// Node-id order (no intelligence) — ablation baseline.
    Fifo,
}

/// Scheduler knobs. Implements [`Hash`] so that, together with
/// [`crate::CgcDatapath`], it can key memoised coarse-grain mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulerConfig {
    /// Allow same-cycle chaining through the CGC steering logic.
    pub chaining: bool,
    /// Ready-list priority.
    pub priority: Priority,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            chaining: true,
            priority: Priority::default(),
        }
    }
}

/// A complete schedule of one DFG on the datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    placements: Vec<Option<Placement>>,
    length: u64,
    chained_ops: u64,
}

impl Schedule {
    /// The placement of `node`; `None` for boundary pseudo-ops.
    pub fn placement(&self, node: NodeId) -> Option<Placement> {
        self.placements.get(node.index()).copied().flatten()
    }

    /// Schedule length in `T_CGC` cycles (`t_to_coarse(BB)` before
    /// iteration weighting).
    pub fn length(&self) -> u64 {
        self.length
    }

    /// Number of operations that completed by chaining onto a same-cycle
    /// predecessor (the complex-operation wins of the CGC structure).
    pub fn chained_ops(&self) -> u64 {
        self.chained_ops
    }

    /// All placements, indexed by node.
    pub fn placements(&self) -> &[Option<Placement>] {
        &self.placements
    }
}

/// Schedule `dfg` onto `datapath`.
///
/// # Errors
///
/// * [`CoarseGrainError::NoMemPorts`] if the DFG has memory operations but
///   the datapath has zero ports;
/// * [`CoarseGrainError::Graph`] for malformed DFGs.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{Dfg, OpKind};
/// use amdrel_coarsegrain::{schedule_dfg, CgcDatapath, SchedulerConfig};
///
/// # fn main() -> Result<(), amdrel_coarsegrain::CoarseGrainError> {
/// let mut dfg = Dfg::new("mac");
/// let m = dfg.add_op(OpKind::Mul, 16);
/// let a = dfg.add_op(OpKind::Add, 32);
/// dfg.add_edge(m, a)?;
/// let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default())?;
/// assert_eq!(s.length(), 1); // multiply-add chains into one T_CGC cycle
/// # Ok(())
/// # }
/// ```
pub fn schedule_dfg(
    dfg: &Dfg,
    datapath: &CgcDatapath,
    config: &SchedulerConfig,
) -> Result<Schedule, CoarseGrainError> {
    let priorities: Vec<u64> = match config.priority {
        Priority::LongestPath => path_to_sink(dfg, |_| 1)?,
        Priority::Mobility => {
            let mob = mobility(dfg)?;
            // Least mobility = highest priority; invert.
            let max = mob.iter().copied().max().unwrap_or(0) as u64;
            mob.into_iter().map(|m| max - u64::from(m)).collect()
        }
        Priority::Fifo => {
            let n = dfg.len() as u64;
            (0..dfg.len() as u64).map(|i| n - i).collect()
        }
    };

    let is_compute = |n: NodeId| {
        let k = dfg.node(n).kind;
        k.is_schedulable() && !k.is_mem()
    };
    let is_mem = |n: NodeId| dfg.node(n).kind.is_mem();

    if datapath.mem_ports == 0 && dfg.node_ids().any(is_mem) {
        return Err(CoarseGrainError::NoMemPorts);
    }

    let mut placements: Vec<Option<Placement>> = vec![None; dfg.len()];
    // done[n]: finished in a cycle strictly before the current one.
    let mut done = vec![false; dfg.len()];
    // Boundary ops are immediately done.
    let mut remaining = 0usize;
    for n in dfg.node_ids() {
        if dfg.node(n).kind.is_schedulable() {
            remaining += 1;
        } else {
            done[n.index()] = true;
        }
    }

    let mut cycle: u64 = 0;
    let mut chained_ops: u64 = 0;
    let mut length: u64 = 0;
    while remaining > 0 {
        // Per-cycle resource state: nodes[cgc][col][row] = occupant.
        let mut nodes: Vec<Vec<Vec<Option<NodeId>>>> = datapath
            .cgcs
            .iter()
            .map(|g| vec![vec![None; g.rows as usize]; g.cols as usize])
            .collect();
        let mut mem_used: u32 = 0;
        // Scheduled in *this* cycle (not yet "done" for readiness checks).
        let mut this_cycle: Vec<NodeId> = Vec::new();
        let mut placed_any = false;

        // Phase 1: ready ops fill free CGC nodes / memory ports.
        let mut ready: Vec<NodeId> = dfg
            .node_ids()
            .filter(|&n| {
                placements[n.index()].is_none()
                    && dfg.node(n).kind.is_schedulable()
                    && dfg.preds(n).iter().all(|p| done[p.index()])
            })
            .collect();
        ready.sort_by_key(|&n| (std::cmp::Reverse(priorities[n.index()]), n));
        for n in ready {
            if is_mem(n) {
                if mem_used < datapath.mem_ports {
                    placements[n.index()] = Some(Placement {
                        cycle,
                        site: Site::MemPort { port: mem_used },
                    });
                    mem_used += 1;
                    this_cycle.push(n);
                    placed_any = true;
                }
            } else {
                // First free node in row-major order (all row-0 slots
                // before any row-1 slot) so seeded ops leave the rows
                // below them open for chain extension.
                let max_rows = datapath.cgcs.iter().map(|g| g.rows).max().unwrap_or(0);
                'rows: for ri in 0..max_rows as usize {
                    for (ci, cols) in nodes.iter_mut().enumerate() {
                        if ri >= datapath.cgcs[ci].rows as usize {
                            continue;
                        }
                        for (coli, rows) in cols.iter_mut().enumerate() {
                            let slot = &mut rows[ri];
                            if slot.is_none() {
                                *slot = Some(n);
                                placements[n.index()] = Some(Placement {
                                    cycle,
                                    site: Site::CgcNode {
                                        cgc: ci as u32,
                                        col: coli as u32,
                                        row: ri as u32,
                                    },
                                });
                                this_cycle.push(n);
                                placed_any = true;
                                break 'rows;
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: chain extension through the steering logic — place an
        // op directly below its (unique) same-cycle predecessor.
        if config.chaining {
            loop {
                // Candidates: unplaced compute ops whose preds are done
                // except exactly one, placed this cycle at (c, col, r)
                // with row r+1 free.
                let mut candidates: Vec<(NodeId, usize, usize, usize)> = Vec::new();
                for n in dfg.node_ids() {
                    if placements[n.index()].is_some() || !is_compute(n) {
                        continue;
                    }
                    let mut same_cycle_pred: Option<NodeId> = None;
                    let mut ok = true;
                    for &p in dfg.preds(n) {
                        if done[p.index()] {
                            continue;
                        }
                        if this_cycle.contains(&p) && same_cycle_pred.is_none() {
                            same_cycle_pred = Some(p);
                        } else {
                            ok = false;
                            break;
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let Some(p) = same_cycle_pred else { continue };
                    let Some(Placement {
                        site: Site::CgcNode { cgc, col, row },
                        ..
                    }) = placements[p.index()]
                    else {
                        continue; // pred on a memory port: no chaining
                    };
                    let (ci, coli, ri) = (cgc as usize, col as usize, row as usize);
                    if ri + 1 < datapath.cgcs[ci].rows as usize && nodes[ci][coli][ri + 1].is_none()
                    {
                        candidates.push((n, ci, coli, ri + 1));
                    }
                }
                if candidates.is_empty() {
                    break;
                }
                candidates.sort_by_key(|&(n, ..)| (std::cmp::Reverse(priorities[n.index()]), n));
                let mut extended = false;
                for (n, ci, coli, ri) in candidates {
                    // Re-check (an earlier extension may have taken the
                    // slot or placed the node).
                    if placements[n.index()].is_some() || nodes[ci][coli][ri].is_some() {
                        continue;
                    }
                    nodes[ci][coli][ri] = Some(n);
                    placements[n.index()] = Some(Placement {
                        cycle,
                        site: Site::CgcNode {
                            cgc: ci as u32,
                            col: coli as u32,
                            row: ri as u32,
                        },
                    });
                    this_cycle.push(n);
                    chained_ops += 1;
                    placed_any = true;
                    extended = true;
                }
                if !extended {
                    break;
                }
            }
        }

        if !placed_any {
            // No ready op fit: with ≥1 compute slot and ≥1 port this can
            // only happen on a malformed graph (cycle) — path_to_sink
            // would already have failed — or an all-slots-busy cycle,
            // which cannot occur when nothing was placed. Guard anyway.
            return Err(CoarseGrainError::SchedulerStalled { cycle });
        }

        for n in &this_cycle {
            done[n.index()] = true;
        }
        remaining -= this_cycle.len();
        length = cycle + 1;
        cycle += 1;
    }

    Ok(Schedule {
        placements,
        length,
        chained_ops,
    })
}

/// Unconstrained lower bound on the schedule length: the DFG's critical
/// path with chaining collapsed (every maximal chain of single-successor
/// dependencies costs one cycle is hard to bound exactly; this returns the
/// resource bound `ceil(ops / slots)` and 1-cycle minimum, whichever is
/// larger).
pub fn length_lower_bound(dfg: &Dfg, datapath: &CgcDatapath) -> u64 {
    let compute_ops = dfg
        .node_ids()
        .filter(|&n| {
            let k = dfg.node(n).kind;
            k.is_schedulable() && !k.is_mem()
        })
        .count() as u64;
    let mem_ops = dfg
        .node_ids()
        .filter(|&n| dfg.node(n).kind.is_mem())
        .count() as u64;
    let slots = u64::from(datapath.compute_slots()).max(1);
    let ports = u64::from(datapath.mem_ports).max(1);
    let resource = compute_ops.div_ceil(slots).max(mem_ops.div_ceil(ports));
    if compute_ops + mem_ops == 0 {
        0
    } else {
        resource.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::synth::{random_dfg, SynthConfig};
    use amdrel_cdfg::OpKind;

    fn chain_dfg(len: usize) -> Dfg {
        let mut dfg = Dfg::new("chain");
        let mut prev = None;
        for _ in 0..len {
            let n = dfg.add_op(OpKind::Add, 32);
            if let Some(p) = prev {
                dfg.add_edge(p, n).unwrap();
            }
            prev = Some(n);
        }
        dfg
    }

    #[test]
    fn multiply_add_chains_into_one_cycle() {
        let mut dfg = Dfg::new("mac");
        let m = dfg.add_op(OpKind::Mul, 16);
        let a = dfg.add_op(OpKind::Add, 32);
        dfg.add_edge(m, a).unwrap();
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
        assert_eq!(s.length(), 1);
        assert_eq!(s.chained_ops(), 1);
    }

    #[test]
    fn chain_depth_limited_by_rows() {
        // A 4-deep chain on 2-row CGCs: 2 ops per cycle → 2 cycles.
        let dfg = chain_dfg(4);
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn chaining_disabled_serialises_chain() {
        let dfg = chain_dfg(4);
        let cfg = SchedulerConfig {
            chaining: false,
            ..SchedulerConfig::default()
        };
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &cfg).unwrap();
        assert_eq!(s.length(), 4);
        assert_eq!(s.chained_ops(), 0);
    }

    #[test]
    fn wide_graph_limited_by_slots() {
        // 16 independent adds on two 2x2 CGCs (8 slots): 2 cycles.
        let mut dfg = Dfg::new("wide");
        for _ in 0..16 {
            dfg.add_op(OpKind::Add, 32);
        }
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
        assert_eq!(s.length(), 2);
    }

    #[test]
    fn more_cgcs_never_slower() {
        for seed in 0..10 {
            let dfg = random_dfg(seed, &SynthConfig::default());
            let two =
                schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
            let three =
                schedule_dfg(&dfg, &CgcDatapath::three_2x2(), &SchedulerConfig::default()).unwrap();
            assert!(
                three.length() <= two.length(),
                "seed {seed}: three 2x2 ({}) slower than two 2x2 ({})",
                three.length(),
                two.length()
            );
        }
    }

    #[test]
    fn mem_ops_respect_ports() {
        let mut dfg = Dfg::new("mem");
        for _ in 0..8 {
            dfg.add_op(OpKind::Load, 32);
        }
        let dp = CgcDatapath::two_2x2().with_mem_ports(2);
        let s = schedule_dfg(&dfg, &dp, &SchedulerConfig::default()).unwrap();
        assert_eq!(s.length(), 4); // 8 loads / 2 ports
    }

    #[test]
    fn no_mem_ports_error() {
        let mut dfg = Dfg::new("mem");
        dfg.add_op(OpKind::Load, 32);
        let dp = CgcDatapath::two_2x2().with_mem_ports(0);
        assert!(matches!(
            schedule_dfg(&dfg, &dp, &SchedulerConfig::default()),
            Err(CoarseGrainError::NoMemPorts)
        ));
    }

    #[test]
    fn dependencies_always_respected() {
        for seed in 0..25 {
            let dfg = random_dfg(seed, &SynthConfig::default());
            let s =
                schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
            for n in dfg.node_ids() {
                let Some(pn) = s.placement(n) else { continue };
                for &p in dfg.preds(n) {
                    let Some(pp) = s.placement(p) else { continue };
                    assert!(
                        pp.cycle < pn.cycle || (pp.cycle == pn.cycle && same_chain_below(&pp, &pn)),
                        "seed {seed}: {p} at {pp:?} not before {n} at {pn:?}"
                    );
                }
            }
        }
    }

    fn same_chain_below(p: &Placement, n: &Placement) -> bool {
        match (p.site, n.site) {
            (
                Site::CgcNode {
                    cgc: c1,
                    col: k1,
                    row: r1,
                },
                Site::CgcNode {
                    cgc: c2,
                    col: k2,
                    row: r2,
                },
            ) => c1 == c2 && k1 == k2 && r1 < r2,
            _ => false,
        }
    }

    #[test]
    fn slot_capacity_never_exceeded() {
        for seed in 0..25 {
            let dfg = random_dfg(
                seed,
                &SynthConfig {
                    nodes: 80,
                    ..SynthConfig::default()
                },
            );
            let dp = CgcDatapath::two_2x2();
            let s = schedule_dfg(&dfg, &dp, &SchedulerConfig::default()).unwrap();
            let mut per_cycle: std::collections::HashMap<u64, u32> = Default::default();
            let mut mem_per_cycle: std::collections::HashMap<u64, u32> = Default::default();
            for n in dfg.node_ids() {
                if let Some(p) = s.placement(n) {
                    match p.site {
                        Site::CgcNode { .. } => *per_cycle.entry(p.cycle).or_default() += 1,
                        Site::MemPort { .. } => *mem_per_cycle.entry(p.cycle).or_default() += 1,
                    }
                }
            }
            for (&cy, &count) in &per_cycle {
                assert!(count <= dp.compute_slots(), "seed {seed} cycle {cy}");
            }
            for (&cy, &count) in &mem_per_cycle {
                assert!(count <= dp.mem_ports, "seed {seed} cycle {cy}");
            }
        }
    }

    #[test]
    fn priorities_all_terminate_with_valid_lengths() {
        let dfg = random_dfg(7, &SynthConfig::default());
        for prio in [Priority::LongestPath, Priority::Mobility, Priority::Fifo] {
            let cfg = SchedulerConfig {
                chaining: true,
                priority: prio,
            };
            let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &cfg).unwrap();
            assert!(
                s.length() >= length_lower_bound(&dfg, &CgcDatapath::two_2x2()) || s.length() > 0
            );
        }
    }

    #[test]
    fn empty_dfg_schedules_to_zero() {
        let dfg = Dfg::new("empty");
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
        assert_eq!(s.length(), 0);
    }

    #[test]
    fn boundary_ops_have_no_placement() {
        let mut dfg = Dfg::new("io");
        let i = dfg.add_op(OpKind::LiveIn, 32);
        let a = dfg.add_op(OpKind::Add, 32);
        dfg.add_edge(i, a).unwrap();
        let s = schedule_dfg(&dfg, &CgcDatapath::two_2x2(), &SchedulerConfig::default()).unwrap();
        assert!(s.placement(i).is_none());
        assert!(s.placement(a).is_some());
    }
}
