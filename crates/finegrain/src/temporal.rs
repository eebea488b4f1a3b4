//! The temporal partitioning algorithm of the paper's Figure 3.
//!
//! "The mapping methodology classifies the nodes in the Data Flow Graph of
//! the input application according to their As Soon As Possible (ASAP)
//! levels … The algorithm traverses each node of the DFG, level by level,
//! and assigns them to a partition. … Nodes of the same ASAP level are
//! placed in a single partition and if the available area in the fine-grain
//! hardware is exhausted then the nodes are assigned to the next
//! partition."
//!
//! [`temporal_partition`] is a line-by-line transcription of the
//! pseudocode, with one production hardening: a node whose own area
//! exceeds the usable device area is rejected instead of silently
//! overflowing a partition.

use crate::device::FpgaDevice;
use crate::FineGrainError;
use amdrel_cdfg::{asap_levels, Dfg, NodeId};

/// One temporal partition: the nodes configured on the device together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalPartition {
    /// 1-based partition number (`partition(ui) = i` in Figure 3).
    pub index: u32,
    /// Nodes in the partition, in assignment order.
    pub nodes: Vec<NodeId>,
    /// Total area of the partition's nodes.
    pub area: u64,
    /// The ASAP levels this partition covers (ascending, deduplicated).
    pub levels: Vec<u32>,
}

/// The output of the Figure 3 algorithm over one DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalPartitioning {
    partitions: Vec<TemporalPartition>,
    assignment: Vec<u32>,
    max_level: u32,
}

impl TemporalPartitioning {
    /// The partitions, in execution order.
    pub fn partitions(&self) -> &[TemporalPartition] {
        &self.partitions
    }

    /// Number of partitions (= number of bitstreams generated).
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether the DFG had no schedulable nodes at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The 1-based partition number of `node`; 0 for boundary pseudo-ops,
    /// which occupy no partition.
    pub fn partition_of(&self, node: NodeId) -> u32 {
        self.assignment[node.index()]
    }

    /// The maximum ASAP level of the DFG (`max_level` in Figure 3).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Total configured area across all partitions — the amount of
    /// configuration data a runtime must stream in to make this DFG's
    /// bitstream set resident on the device.
    pub fn total_area(&self) -> u64 {
        self.partitions.iter().map(|p| p.area).sum()
    }

    /// The areas of the partitions in execution order (the per-bitstream
    /// load granularity: a prefetching runtime overlaps the load of
    /// partition `i + 1` with the execution of partition `i`).
    pub fn partition_areas(&self) -> impl Iterator<Item = u64> + '_ {
        self.partitions.iter().map(|p| p.area)
    }
}

/// Run the Figure 3 temporal partitioning algorithm.
///
/// Boundary pseudo-ops (constants, live-ins/outs) occupy no area and no
/// partition; they are skipped exactly as a netlist's I/O pins would be.
///
/// # Errors
///
/// * [`FineGrainError::NodeTooLarge`] if one node alone exceeds the usable
///   area — no temporal partitioning can place it;
/// * [`FineGrainError::Graph`] if the DFG is cyclic.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{Dfg, OpKind};
/// use amdrel_finegrain::{temporal_partition, FpgaDevice};
///
/// # fn main() -> Result<(), amdrel_finegrain::FineGrainError> {
/// let mut dfg = Dfg::new("chain");
/// let a = dfg.add_op(OpKind::Add, 32); // 180 units (default library)
/// let b = dfg.add_op(OpKind::Add, 32);
/// dfg.add_edge(a, b)?;
/// // Tiny device: only one 180-unit op fits per partition.
/// let dev = FpgaDevice::new(300).with_usable_fraction(0.8); // usable 240
/// let tp = temporal_partition(&dfg, &dev)?;
/// assert_eq!(tp.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn temporal_partition(
    dfg: &Dfg,
    device: &FpgaDevice,
) -> Result<TemporalPartitioning, FineGrainError> {
    let usable = device.usable_area();
    let levels = asap_levels(dfg)?;
    let max_level = levels.max_level();

    let mut partitions: Vec<TemporalPartition> = Vec::new();
    let mut assignment = vec![0u32; dfg.len()];

    // Figure 3: i = 1; level = 1; area_covered = 0;
    let mut i: u32 = 1;
    let mut area_covered: u64 = 0;
    let mut current: Option<TemporalPartition> = None;

    // while (level <= max_level) / for each node with level(ui) == level
    for level in 1..=max_level {
        for node in levels.nodes_at(level) {
            let n = dfg.node(node);
            if !n.kind.is_schedulable() {
                continue;
            }
            let current_area = device.area.node_area(n);
            if current_area > usable {
                return Err(FineGrainError::NodeTooLarge {
                    node,
                    area: current_area,
                    usable,
                });
            }
            if area_covered + current_area <= usable && current.is_some() {
                // partition(ui) = i; area_covered += current_area;
                area_covered += current_area;
            } else if current.is_none() {
                // First schedulable node opens partition 1.
                current = Some(TemporalPartition {
                    index: i,
                    nodes: Vec::new(),
                    area: 0,
                    levels: Vec::new(),
                });
                area_covered = current_area;
            } else {
                // i = i + 1; partition(ui) = i; area_covered = current_area;
                let done = current.take().expect("checked is_some");
                partitions.push(done);
                i += 1;
                current = Some(TemporalPartition {
                    index: i,
                    nodes: Vec::new(),
                    area: 0,
                    levels: Vec::new(),
                });
                area_covered = current_area;
            }
            let p = current.as_mut().expect("partition opened above");
            p.nodes.push(node);
            p.area += current_area;
            if p.levels.last() != Some(&level) {
                p.levels.push(level);
            }
            assignment[node.index()] = p.index;
        }
    }
    if let Some(p) = current {
        partitions.push(p);
    }
    Ok(TemporalPartitioning {
        partitions,
        assignment,
        max_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::OpKind;

    /// A device with the legacy test characterisation (ALU 30 / MUL 120 /
    /// mem 20) so the algorithm tests pin concrete partition counts
    /// independently of the calibrated crate defaults. Usable area is
    /// `0.7 × total`.
    fn device(total: u64) -> FpgaDevice {
        let mut dev = FpgaDevice::new(total);
        dev.area = crate::AreaLibrary {
            alu: 30,
            mul: 120,
            div: 240,
            mem: 20,
        };
        dev
    }

    fn wide_dfg(n: usize) -> Dfg {
        // n independent 32-bit adds, all at level 1, 30 units each.
        let mut dfg = Dfg::new("wide");
        for _ in 0..n {
            dfg.add_op(OpKind::Add, 32);
        }
        dfg
    }

    #[test]
    fn everything_fits_one_partition() {
        let dfg = wide_dfg(10); // 300 units
        let tp = temporal_partition(&dfg, &device(1500)).unwrap(); // usable 1050
        assert_eq!(tp.len(), 1);
        assert_eq!(tp.partitions()[0].area, 300);
        for n in dfg.node_ids() {
            assert_eq!(tp.partition_of(n), 1);
        }
    }

    #[test]
    fn area_exhaustion_opens_new_partition() {
        let dfg = wide_dfg(50); // 1500 units of adds
        let tp = temporal_partition(&dfg, &device(1500)).unwrap(); // usable 1050 → 35 adds
        assert_eq!(tp.len(), 2);
        assert_eq!(tp.partitions()[0].nodes.len(), 35);
        assert_eq!(tp.partitions()[1].nodes.len(), 15);
        assert!(tp.partitions().iter().all(|p| p.area <= 1050));
    }

    #[test]
    fn level_order_is_respected() {
        // Two levels: 3 muls at level 1 feeding 3 adds at level 2.
        let mut dfg = Dfg::new("two_level");
        let mut muls = Vec::new();
        for _ in 0..3 {
            muls.push(dfg.add_op(OpKind::Mul, 32)); // 120 each
        }
        for &m in &muls {
            let a = dfg.add_op(OpKind::Add, 32);
            dfg.add_edge(m, a).unwrap();
        }
        // usable 280: fits 2 muls; partition boundaries must never place a
        // level-2 node before a level-1 node.
        let dev = device(400); // usable 280
        let tp = temporal_partition(&dfg, &dev).unwrap();
        let mut seen_level2 = false;
        for p in tp.partitions() {
            for &n in &p.nodes {
                let lv = amdrel_cdfg::asap_levels(&dfg).unwrap().level(n);
                if lv == 2 {
                    seen_level2 = true;
                } else {
                    assert!(!seen_level2, "level-1 node after level-2 node");
                }
            }
        }
    }

    #[test]
    fn partition_indices_are_sequential() {
        let dfg = wide_dfg(50);
        let tp = temporal_partition(&dfg, &device(1500)).unwrap();
        for (k, p) in tp.partitions().iter().enumerate() {
            assert_eq!(p.index, k as u32 + 1);
        }
    }

    #[test]
    fn boundary_nodes_excluded() {
        let mut dfg = Dfg::new("io");
        let inp = dfg.add_op(OpKind::LiveIn, 32);
        let add = dfg.add_op(OpKind::Add, 32);
        let out = dfg.add_op(OpKind::LiveOut, 32);
        dfg.add_edge(inp, add).unwrap();
        dfg.add_edge(add, out).unwrap();
        let tp = temporal_partition(&dfg, &device(1500)).unwrap();
        assert_eq!(tp.len(), 1);
        assert_eq!(tp.partition_of(inp), 0);
        assert_eq!(tp.partition_of(add), 1);
        assert_eq!(tp.partition_of(out), 0);
    }

    #[test]
    fn oversized_node_rejected() {
        let mut dfg = Dfg::new("big");
        dfg.add_op(OpKind::Mul, 32); // 120 units
        let err = temporal_partition(&dfg, &device(100)).unwrap_err(); // usable 70
        assert!(matches!(
            err,
            FineGrainError::NodeTooLarge {
                area: 120,
                usable: 70,
                ..
            }
        ));
    }

    #[test]
    fn empty_dfg_yields_no_partitions() {
        let dfg = Dfg::new("empty");
        let tp = temporal_partition(&dfg, &device(1500)).unwrap();
        assert!(tp.is_empty());
        assert_eq!(tp.max_level(), 0);
    }

    #[test]
    fn exact_fit_boundary() {
        // usable = 70 exactly fits 2 adds of 35... adds are 30, so pick
        // total 100 → usable 70 → two 30-unit adds fit (60), third opens
        // a new partition.
        let dfg = wide_dfg(3);
        let tp = temporal_partition(&dfg, &device(100)).unwrap();
        assert_eq!(tp.len(), 2);
        assert_eq!(tp.partitions()[0].nodes.len(), 2);
    }

    #[test]
    fn levels_recorded_per_partition() {
        let mut dfg = Dfg::new("chain");
        let a = dfg.add_op(OpKind::Add, 32);
        let b = dfg.add_op(OpKind::Add, 32);
        let c = dfg.add_op(OpKind::Add, 32);
        dfg.add_edge(a, b).unwrap();
        dfg.add_edge(b, c).unwrap();
        let tp = temporal_partition(&dfg, &device(1500)).unwrap();
        assert_eq!(tp.partitions()[0].levels, vec![1, 2, 3]);
    }
}
