//! Per-block scalar liveness (backward dataflow).
//!
//! The CDFG conversion uses liveness to place `LiveOut` boundary nodes —
//! the values a basic block must publish to the shared data memory. Those
//! counts feed `t_comm` in the partitioning engine's eq. (2), so liveness
//! here directly shapes the communication cost of moving a kernel to the
//! coarse-grain datapath.

use crate::ir::{Function, Instr, Operand, Terminator, VarId};
use std::collections::HashSet;

/// Live-variable sets for every block of a [`Function`].
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<HashSet<VarId>>,
    live_out: Vec<HashSet<VarId>>,
}

fn operand_use(op: Operand, set: &mut HashSet<VarId>, defs: &HashSet<VarId>) {
    if let Operand::Var(v) = op {
        if !defs.contains(&v) {
            set.insert(v);
        }
    }
}

impl Liveness {
    /// Compute liveness for `f` with the standard iterative backward
    /// dataflow over `use`/`def` sets.
    pub fn compute(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut uses = vec![HashSet::new(); n];
        let mut defs = vec![HashSet::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            let (u, d) = (&mut uses[i], &mut defs[i]);
            for instr in &b.instrs {
                match instr {
                    Instr::Bin { dst, lhs, rhs, .. } => {
                        operand_use(*lhs, u, d);
                        operand_use(*rhs, u, d);
                        d.insert(*dst);
                    }
                    Instr::Un { dst, src, .. } => {
                        operand_use(*src, u, d);
                        d.insert(*dst);
                    }
                    Instr::Copy { dst, src } => {
                        operand_use(*src, u, d);
                        d.insert(*dst);
                    }
                    Instr::Load { dst, index, .. } => {
                        operand_use(*index, u, d);
                        d.insert(*dst);
                    }
                    Instr::Store { index, value, .. } => {
                        operand_use(*index, u, d);
                        operand_use(*value, u, d);
                    }
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => operand_use(*cond, u, d),
                Terminator::Return(Some(v)) => operand_use(*v, u, d),
                _ => {}
            }
        }

        let mut live_in = vec![HashSet::new(); n];
        let mut live_out = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Iterate in reverse index order for faster convergence.
            for i in (0..n).rev() {
                let mut out: HashSet<VarId> = HashSet::new();
                for s in f.blocks[i].successors() {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn = uses[i].clone();
                for v in out.iter() {
                    if !defs[i].contains(v) {
                        inn.insert(*v);
                    }
                }
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Variables live on entry to block `i`.
    pub fn live_in(&self, i: usize) -> &HashSet<VarId> {
        &self.live_in[i]
    }

    /// Variables live on exit from block `i`.
    pub fn live_out(&self, i: usize) -> &HashSet<VarId> {
        &self.live_out[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ir;

    fn liveness_of(src: &str) -> (crate::ir::IrProgram, Liveness) {
        let ir = compile_to_ir(src, "main").unwrap();
        let lv = Liveness::compute(&ir.entry);
        (ir, lv)
    }

    fn var_named(f: &Function, name: &str) -> VarId {
        VarId(
            f.vars
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    }

    #[test]
    fn loop_counter_live_around_loop() {
        let (ir, lv) = liveness_of(
            "int main() { int s = 0; for (int i = 0; i < 8; i++) { s = s + i; } return s; }",
        );
        let f = &ir.entry;
        let s = var_named(f, "s");
        let i = var_named(f, "i");
        // Both loop-carried values are live into and out of the loop body.
        let both = |set: &HashSet<VarId>| set.contains(&s) && set.contains(&i);
        assert!(
            (0..f.blocks.len()).any(|b| both(lv.live_in(b)) && both(lv.live_out(b))),
            "s and i must be live around the loop"
        );
        // The entry block defines both, so neither is live into it.
        assert!(!lv.live_in(0).contains(&s) && !lv.live_in(0).contains(&i));
    }

    #[test]
    fn dead_value_not_live_out() {
        let (ir, lv) = liveness_of("int main() { int dead = 5; int x = 2; return x; }");
        let f = &ir.entry;
        let dead = var_named(f, "dead");
        for b in 0..f.blocks.len() {
            assert!(!lv.live_out(b).contains(&dead));
        }
    }

    #[test]
    fn branch_condition_is_a_use() {
        let (ir, lv) = liveness_of("int main() { int c = 1; if (c) { return 1; } return 0; }");
        let f = &ir.entry;
        let c = var_named(f, "c");
        // The block whose terminator branches on c must either define c or
        // have it live-in.
        let mut found = false;
        for (i, b) in f.blocks.iter().enumerate() {
            if let Terminator::Branch {
                cond: Operand::Var(v),
                ..
            } = b.term
            {
                if v == c {
                    found = true;
                    let defines_c = b.instrs.iter().any(|instr| match instr {
                        Instr::Bin { dst, .. }
                        | Instr::Un { dst, .. }
                        | Instr::Copy { dst, .. }
                        | Instr::Load { dst, .. } => *dst == c,
                        Instr::Store { .. } => false,
                    });
                    assert!(defines_c || lv.live_in(i).contains(&c));
                }
            }
        }
        assert!(found, "no branch on c found");
    }

    #[test]
    fn store_operands_are_uses() {
        let (ir, lv) = liveness_of(
            "int a[4]; int main() { int v = 3; int i = 1; if (i) { a[i] = v; } return a[1]; }",
        );
        let f = &ir.entry;
        // The store sits in the branch arm; its index and value operands
        // are defined in the entry block, so both must be live out of it.
        for name in ["v", "i"] {
            assert!(lv.live_out(0).contains(&var_named(f, name)), "{name}");
        }
    }
}
