//! Human-readable rendering of a temporal partitioning — the bitstream
//! plan the fine-grain mapper would hand to configuration generation.

use crate::mapping::FineGrainMapping;
use amdrel_cdfg::Dfg;
use std::fmt::Write as _;

/// Render the partition table of one block's mapping: per partition its
/// ASAP levels, node count, area, and the ops it configures.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{Dfg, OpKind};
/// use amdrel_finegrain::{map_dfg, report::partition_table, FpgaDevice};
///
/// # fn main() -> Result<(), amdrel_finegrain::FineGrainError> {
/// let mut dfg = Dfg::new("k");
/// dfg.add_op(OpKind::Mul, 16);
/// let mapping = map_dfg(&dfg, &FpgaDevice::new(1500))?;
/// let table = partition_table(&dfg, &mapping);
/// assert!(table.contains("partition 1"));
/// # Ok(())
/// # }
/// ```
pub fn partition_table(dfg: &Dfg, mapping: &FineGrainMapping) -> String {
    let mut out = String::new();
    let tp = &mapping.partitioning;
    let _ = writeln!(
        out,
        "temporal partitioning of '{}': {} partitions, {} + {} cycles/exec (compute + reconfig)",
        dfg.name(),
        tp.len(),
        mapping.compute_cycles,
        mapping.reconfig_cycles,
    );
    for p in tp.partitions() {
        let levels = p
            .levels
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let ops = p
            .nodes
            .iter()
            .map(|&n| format!("{n}:{}", dfg.node(n).kind))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "  partition {}: levels [{}], {} nodes, {} area units",
            p.index,
            levels,
            p.nodes.len(),
            p.area,
        );
        let _ = writeln!(out, "    {ops}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FpgaDevice;
    use crate::mapping::map_dfg;
    use amdrel_cdfg::OpKind;

    fn test_device(total: u64) -> FpgaDevice {
        let mut dev = FpgaDevice::new(total);
        dev.area = crate::AreaLibrary {
            alu: 30,
            mul: 120,
            div: 240,
            mem: 20,
        };
        dev
    }

    #[test]
    fn table_lists_every_partition_and_node() {
        let mut dfg = Dfg::new("k");
        for _ in 0..50 {
            dfg.add_op(OpKind::Add, 32); // 1500 units: splits at usable 1050
        }
        let mapping = map_dfg(&dfg, &test_device(1500)).unwrap();
        let table = partition_table(&dfg, &mapping);
        assert!(table.contains("2 partitions"));
        assert!(table.contains("partition 1"));
        assert!(table.contains("partition 2"));
        for n in dfg.node_ids() {
            assert!(table.contains(&format!("{n}:add")), "{n} missing");
        }
    }
}
