//! Three-address-code IR with an explicit basic-block CFG.
//!
//! This is the frontend's equivalent of the paper's MachineSUIF-level
//! representation: the lowering pass turns the AST into `Instr` sequences
//! grouped into basic blocks, calls are inlined away, and the result is
//! what both the profiler (interpretation with per-BB counters) and the
//! CDFG conversion consume. Keeping one shared block structure guarantees
//! the exec-frequency counters and the partitioned basic blocks line up
//! one-to-one — the property the paper gets by placing Lex counters in the
//! same source the partitioner reads.

use crate::ast::{BinOp, UnOp};
use std::fmt;

/// Index of a scalar variable (parameter, named local, or compiler temp)
/// within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockIdx(pub u32);

impl BlockIdx {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Reference to an array: program-global or function-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayRef {
    /// Index into [`IrProgram::globals`].
    Global(u32),
    /// Index into [`Function::arrays`].
    Local(u32),
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayRef::Global(i) => write!(f, "g{i}"),
            ArrayRef::Local(i) => write!(f, "a{i}"),
        }
    }
}

/// An instruction operand: a scalar variable or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read of a scalar variable.
    Var(VarId),
    /// Immediate constant.
    Const(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// One three-address instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination variable.
        dst: VarId,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op src`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination variable.
        dst: VarId,
        /// Operand.
        src: Operand,
    },
    /// `dst = src` (copy / materialise constant).
    Copy {
        /// Destination variable.
        dst: VarId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = array[index]`.
    Load {
        /// Destination variable.
        dst: VarId,
        /// Array accessed.
        array: ArrayRef,
        /// Element index.
        index: Operand,
    },
    /// `array[index] = value`.
    Store {
        /// Array accessed.
        array: ArrayRef,
        /// Element index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {lhs} {op} {rhs}"),
            Instr::Un { op, dst, src } => write!(f, "{dst} = {op}{src}"),
            Instr::Copy { dst, src } => write!(f, "{dst} = {src}"),
            Instr::Load { dst, array, index } => write!(f, "{dst} = {array}[{index}]"),
            Instr::Store {
                array,
                index,
                value,
            } => write!(f, "{array}[{index}] = {value}"),
        }
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockIdx),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Target when non-zero.
        then_bb: BlockIdx,
        /// Target when zero.
        else_bb: BlockIdx,
    },
    /// Function return (the inlined whole-program function returns from
    /// the application).
    Return(Option<Operand>),
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Jump(t) => write!(f, "jump {t}"),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                write!(f, "branch {cond} ? {then_bb} : {else_bb}")
            }
            Terminator::Return(Some(v)) => write!(f, "return {v}"),
            Terminator::Return(None) => write!(f, "return"),
        }
    }
}

/// One basic block of straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Human-readable label.
    pub label: String,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// Successor blocks of this block's terminator.
    pub fn successors(&self) -> Vec<BlockIdx> {
        match &self.term {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    vec![*then_bb]
                } else {
                    vec![*then_bb, *else_bb]
                }
            }
            Terminator::Return(_) => Vec::new(),
        }
    }
}

/// Metadata for one scalar variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Source name, or a generated `%tN` name for compiler temps.
    pub name: String,
    /// Declared bitwidth.
    pub bits: u16,
    /// Whether this is a compiler-generated temporary.
    pub is_temp: bool,
}

/// Metadata for one local array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalArray {
    /// Source name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Element bitwidth.
    pub bits: u16,
}

/// A lowered function (after inlining there is exactly one per program).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter variables (prefix of `vars`).
    pub params: Vec<VarId>,
    /// All scalar variables.
    pub vars: Vec<VarInfo>,
    /// All local arrays.
    pub arrays: Vec<LocalArray>,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block index (always `L0`).
    pub fn entry(&self) -> BlockIdx {
        BlockIdx(0)
    }

    /// Variable metadata lookup.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Number of instructions across all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Predecessor lists for all blocks.
    pub fn predecessors(&self) -> Vec<Vec<BlockIdx>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.successors() {
                preds[s.index()].push(BlockIdx(i as u32));
            }
        }
        preds
    }
}

/// Metadata for one global array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalArray {
    /// Source name.
    pub name: String,
    /// Element count.
    pub len: usize,
    /// Element bitwidth.
    pub bits: u16,
    /// Initial contents (length `len`, zero-padded).
    pub init: Vec<i64>,
}

/// A whole lowered program: global arrays plus the single inlined entry
/// function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Global arrays.
    pub globals: Vec<GlobalArray>,
    /// The inlined entry function.
    pub entry: Function,
}

impl IrProgram {
    /// Pretty listing of the whole program (labels, instructions,
    /// terminators) — the `-emit-ir` style debugging view.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for g in &self.globals {
            let _ = writeln!(out, "global {}[{}] : i{}", g.name, g.len, g.bits);
        }
        let f = &self.entry;
        let _ = writeln!(
            out,
            "fn {}({} vars, {} arrays):",
            f.name,
            f.vars.len(),
            f.arrays.len()
        );
        for (i, b) in f.blocks.iter().enumerate() {
            let _ = writeln!(out, "L{i}: ; {}", b.label);
            for ins in &b.instrs {
                let _ = writeln!(out, "  {ins}");
            }
            let _ = writeln!(out, "  {}", b.term);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_of_terminators() {
        let jump = Block {
            label: "j".into(),
            instrs: vec![],
            term: Terminator::Jump(BlockIdx(3)),
        };
        assert_eq!(jump.successors(), vec![BlockIdx(3)]);

        let branch = Block {
            label: "b".into(),
            instrs: vec![],
            term: Terminator::Branch {
                cond: Operand::Const(1),
                then_bb: BlockIdx(1),
                else_bb: BlockIdx(2),
            },
        };
        assert_eq!(branch.successors(), vec![BlockIdx(1), BlockIdx(2)]);

        let same = Block {
            label: "s".into(),
            instrs: vec![],
            term: Terminator::Branch {
                cond: Operand::Const(1),
                then_bb: BlockIdx(1),
                else_bb: BlockIdx(1),
            },
        };
        assert_eq!(same.successors(), vec![BlockIdx(1)]);

        let ret = Block {
            label: "r".into(),
            instrs: vec![],
            term: Terminator::Return(None),
        };
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn display_forms() {
        let i = Instr::Bin {
            op: BinOp::Mul,
            dst: VarId(3),
            lhs: Operand::Var(VarId(1)),
            rhs: Operand::Const(7),
        };
        assert_eq!(i.to_string(), "v3 = v1 * 7");
        let s = Instr::Store {
            array: ArrayRef::Global(0),
            index: Operand::Var(VarId(2)),
            value: Operand::Const(5),
        };
        assert_eq!(s.to_string(), "g0[v2] = 5");
        let t = Terminator::Branch {
            cond: Operand::Var(VarId(0)),
            then_bb: BlockIdx(1),
            else_bb: BlockIdx(2),
        };
        assert_eq!(t.to_string(), "branch v0 ? L1 : L2");
    }
}
