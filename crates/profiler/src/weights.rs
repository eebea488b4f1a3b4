//! Static analysis: weighted operation counting per basic block.
//!
//! §3.1 of the paper: "Since operations in a basic block do not have a
//! uniform cost, a weighted sum is calculated and aggregated at the basic
//! block level … The weights indicate the delay allocated to each basic
//! operator." The experiments use ALU = 1 and MUL = 2; memory accesses are
//! counted alongside basic operations.

use amdrel_cdfg::{Dfg, OpClass};

/// Per-class operation weights for eq. (1)'s `bb_weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightTable {
    /// Weight of ALU-class operations (paper: 1).
    pub alu: u64,
    /// Weight of multiplications (paper: 2).
    pub mul: u64,
    /// Weight of divisions (absent from the paper's DFGs; default 16
    /// reflects a typical iterative divider).
    pub div: u64,
    /// Weight of memory accesses (counted by the paper; weight 1 here).
    pub mem: u64,
}

impl WeightTable {
    /// The paper's weights: ALU 1, MUL 2, memory access 1, DIV 16.
    pub fn paper() -> Self {
        WeightTable {
            alu: 1,
            mul: 2,
            div: 16,
            mem: 1,
        }
    }

    /// The weight of one operation class. Boundary pseudo-ops weigh 0.
    fn class_weight(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Mem => self.mem,
            OpClass::Boundary => 0,
        }
    }
}

impl Default for WeightTable {
    fn default() -> Self {
        WeightTable::paper()
    }
}

/// The `bb_weight` of eq. (1): the weighted sum of a block's operations.
///
/// # Examples
///
/// ```
/// use amdrel_cdfg::{Dfg, OpKind};
/// use amdrel_profiler::{bb_weight, WeightTable};
///
/// let mut dfg = Dfg::new("mac");
/// dfg.add_op(OpKind::Mul, 16);
/// dfg.add_op(OpKind::Add, 16);
/// dfg.add_op(OpKind::Const, 16); // boundary: free
/// assert_eq!(bb_weight(&dfg, &WeightTable::paper()), 3); // 2 + 1
/// ```
pub fn bb_weight(dfg: &Dfg, table: &WeightTable) -> u64 {
    dfg.iter()
        .map(|(_, n)| table.class_weight(n.kind.class()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_cdfg::OpKind;

    #[test]
    fn paper_weights() {
        let t = WeightTable::paper();
        assert_eq!(t.class_weight(OpClass::Alu), 1);
        assert_eq!(t.class_weight(OpClass::Mul), 2);
        assert_eq!(t.class_weight(OpClass::Boundary), 0);
    }

    #[test]
    fn weight_sums_by_class() {
        let mut dfg = Dfg::new("w");
        for _ in 0..3 {
            dfg.add_op(OpKind::Add, 32);
        }
        for _ in 0..2 {
            dfg.add_op(OpKind::Mul, 32);
        }
        dfg.add_op(OpKind::Load, 32);
        dfg.add_op(OpKind::LiveIn, 32);
        let custom = WeightTable {
            alu: 1,
            mul: 2,
            div: 16,
            mem: 5,
        };
        assert_eq!(bb_weight(&dfg, &custom), 3 + 4 + 5);
    }

    #[test]
    fn empty_block_weighs_zero() {
        assert_eq!(bb_weight(&Dfg::new("e"), &WeightTable::paper()), 0);
    }
}
