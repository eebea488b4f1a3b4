//! The IR interpreter — the dynamic-analysis half of the paper's step 3.
//!
//! The paper instruments the C source with Lex-placed counters, compiles
//! and runs it on representative inputs, and reads back per-basic-block
//! execution counts. Here the same effect comes from interpreting the very
//! IR the partitioner works on: every block entry bumps a counter, so
//! `exec_freq` aligns with CDFG blocks by construction.
//!
//! Arithmetic is 64-bit two's complement with wrapping, the common choice
//! for simulating 32-bit DSP code with headroom. Division by zero and
//! out-of-bounds array accesses abort with a [`ProfileError`], as does
//! exceeding the configurable step budget (which turns accidental infinite
//! loops into errors instead of hangs).

use crate::ProfileError;
use amdrel_minic::ast::{BinOp, UnOp};
use amdrel_minic::ir::{ArrayRef, Instr, IrProgram, Operand, Terminator};
use std::collections::HashMap;

/// Result of one interpreted run.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Per-block entry counts, indexed by IR/CDFG block index.
    pub block_counts: Vec<u64>,
    /// Total instructions retired (terminators excluded).
    pub instrs_retired: u64,
    /// The entry function's return value, if it returned one.
    pub return_value: Option<i64>,
    /// Final contents of every global array, by name.
    pub globals: HashMap<String, Vec<i64>>,
}

impl Execution {
    /// Final contents of the named global array.
    pub fn global(&self, name: &str) -> Option<&[i64]> {
        self.globals.get(name).map(Vec::as_slice)
    }
}

/// Interpreter for a compiled [`IrProgram`].
///
/// # Examples
///
/// ```
/// use amdrel_minic::compile_to_ir;
/// use amdrel_profiler::Interpreter;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ir = compile_to_ir(
///     "int out[1]; int main() { out[0] = 6 * 7; return out[0]; }",
///     "main",
/// )?;
/// let exec = Interpreter::new(&ir).run(&[])?;
/// assert_eq!(exec.return_value, Some(42));
/// assert_eq!(exec.global("out"), Some(&[42][..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Interpreter<'p> {
    ir: &'p IrProgram,
    step_limit: u64,
}

/// Default instruction budget: generous enough for a 256×256 JPEG encode,
/// small enough to stop runaways in seconds.
pub const DEFAULT_STEP_LIMIT: u64 = 500_000_000;

impl<'p> Interpreter<'p> {
    /// An interpreter with the default step budget.
    pub fn new(ir: &'p IrProgram) -> Self {
        Interpreter {
            ir,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Replace the step budget.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Run the program. `inputs` overwrites named global arrays before
    /// execution (shorter vectors set a prefix; the rest keeps its
    /// initialiser value).
    ///
    /// # Errors
    ///
    /// [`ProfileError`] on unknown input names, oversized inputs, division
    /// by zero, out-of-range shifts/indices, or step-budget exhaustion.
    pub fn run(&self, inputs: &[(&str, &[i64])]) -> Result<Execution, ProfileError> {
        let f = &self.ir.entry;
        let mut globals: Vec<Vec<i64>> = self.ir.globals.iter().map(|g| g.init.clone()).collect();
        for (name, data) in inputs {
            let gi = self
                .ir
                .globals
                .iter()
                .position(|g| g.name == *name)
                .ok_or_else(|| ProfileError::UnknownInput {
                    name: (*name).to_owned(),
                })?;
            if data.len() > globals[gi].len() {
                return Err(ProfileError::InputTooLong {
                    name: (*name).to_owned(),
                    len: data.len(),
                    capacity: globals[gi].len(),
                });
            }
            globals[gi][..data.len()].copy_from_slice(data);
        }

        let mut locals: Vec<Vec<i64>> = f.arrays.iter().map(|a| vec![0; a.len]).collect();
        let mut vars: Vec<i64> = vec![0; f.vars.len()];
        let mut counts = vec![0u64; f.blocks.len()];
        let mut retired: u64 = 0;
        // The budget is charged per block visit as well as per retired
        // instruction, so a loop of empty blocks still runs out of steps.
        let mut steps: u64 = 0;
        let mut block = f.entry();
        let return_value = loop {
            counts[block.index()] += 1;
            let b = &f.blocks[block.index()];
            steps += 1 + b.instrs.len() as u64;
            if steps > self.step_limit {
                return Err(ProfileError::StepLimit {
                    limit: self.step_limit,
                });
            }
            for instr in &b.instrs {
                self.exec_instr(instr, &mut vars, &mut globals, &mut locals)?;
            }
            retired += b.instrs.len() as u64;
            match &b.term {
                Terminator::Jump(t) => block = *t,
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    block = if read(*cond, &vars) != 0 {
                        *then_bb
                    } else {
                        *else_bb
                    };
                }
                Terminator::Return(v) => break v.map(|v| read(v, &vars)),
            }
        };

        let globals_out = self
            .ir
            .globals
            .iter()
            .zip(globals)
            .map(|(g, data)| (g.name.clone(), data))
            .collect();
        Ok(Execution {
            block_counts: counts,
            instrs_retired: retired,
            return_value,
            globals: globals_out,
        })
    }

    fn exec_instr(
        &self,
        instr: &Instr,
        vars: &mut [i64],
        globals: &mut [Vec<i64>],
        locals: &mut [Vec<i64>],
    ) -> Result<(), ProfileError> {
        match instr {
            Instr::Bin { op, dst, lhs, rhs } => {
                let a = read(*lhs, vars);
                let b = read(*rhs, vars);
                vars[dst.index()] = eval_bin(*op, a, b)?;
            }
            Instr::Un { op, dst, src } => {
                let v = read(*src, vars);
                vars[dst.index()] = match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::BitNot => !v,
                    UnOp::LogicalNot => i64::from(v == 0),
                };
            }
            Instr::Copy { dst, src } => {
                vars[dst.index()] = read(*src, vars);
            }
            Instr::Load { dst, array, index } => {
                let i = read(*index, vars);
                let slice = array_slice(*array, globals, locals);
                vars[dst.index()] = checked_index(slice, i, || self.array_name(*array))?;
            }
            Instr::Store {
                array,
                index,
                value,
            } => {
                let i = read(*index, vars);
                let v = read(*value, vars);
                let slice = array_slice_mut(*array, globals, locals);
                *checked_index_mut(slice, i, || self.array_name(*array))? = v;
            }
        }
        Ok(())
    }

    /// The array's source name, built only for an out-of-bounds error.
    fn array_name(&self, array: ArrayRef) -> String {
        match array {
            ArrayRef::Global(g) => self.ir.globals[g as usize].name.clone(),
            ArrayRef::Local(a) => self.ir.entry.arrays[a as usize].name.clone(),
        }
    }
}

fn read(op: Operand, vars: &[i64]) -> i64 {
    match op {
        Operand::Var(v) => vars[v.index()],
        Operand::Const(c) => c,
    }
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Result<i64, ProfileError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(ProfileError::DivisionByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(ProfileError::DivisionByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if !(0..64).contains(&b) {
                return Err(ProfileError::ShiftOutOfRange { amount: b });
            }
            a.wrapping_shl(b as u32)
        }
        BinOp::Shr => {
            if !(0..64).contains(&b) {
                return Err(ProfileError::ShiftOutOfRange { amount: b });
            }
            a.wrapping_shr(b as u32)
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
    })
}

fn array_slice<'a>(array: ArrayRef, globals: &'a [Vec<i64>], locals: &'a [Vec<i64>]) -> &'a [i64] {
    match array {
        ArrayRef::Global(g) => &globals[g as usize],
        ArrayRef::Local(a) => &locals[a as usize],
    }
}

fn array_slice_mut<'a>(
    array: ArrayRef,
    globals: &'a mut [Vec<i64>],
    locals: &'a mut [Vec<i64>],
) -> &'a mut [i64] {
    match array {
        ArrayRef::Global(g) => &mut globals[g as usize],
        ArrayRef::Local(a) => &mut locals[a as usize],
    }
}

// Both take the array name as a closure: it is called only on the error
// path, so an in-range access allocates nothing.
fn checked_index(
    slice: &[i64],
    i: i64,
    name: impl FnOnce() -> String,
) -> Result<i64, ProfileError> {
    usize::try_from(i)
        .ok()
        .and_then(|i| slice.get(i).copied())
        .ok_or_else(|| ProfileError::IndexOutOfBounds {
            array: name(),
            index: i,
            len: slice.len(),
        })
}

fn checked_index_mut(
    slice: &mut [i64],
    i: i64,
    name: impl FnOnce() -> String,
) -> Result<&mut i64, ProfileError> {
    let len = slice.len();
    usize::try_from(i)
        .ok()
        .and_then(move |idx| slice.get_mut(idx))
        .ok_or_else(|| ProfileError::IndexOutOfBounds {
            array: name(),
            index: i,
            len,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile_to_ir;

    fn run(src: &str) -> Execution {
        let ir = compile_to_ir(src, "main").unwrap();
        Interpreter::new(&ir).run(&[]).unwrap()
    }

    fn run_err(src: &str) -> ProfileError {
        let ir = compile_to_ir(src, "main").unwrap();
        Interpreter::new(&ir).run(&[]).unwrap_err()
    }

    #[test]
    fn arithmetic_and_logic() {
        let e = run(
            "int main() { int a = 7; int b = 3; return (a / b) * 100 + (a % b) * 10 + (a ^ b); }",
        );
        assert_eq!(e.return_value, Some(200 + 10 + 4));
    }

    #[test]
    fn shifts_and_comparisons() {
        let e = run("int main() { int x = 1 << 10; return (x >> 3) + (x > 0) + (x == 1024); }");
        assert_eq!(e.return_value, Some(128 + 1 + 1));
    }

    #[test]
    fn loop_counts_are_exact() {
        let src = "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }";
        let e = run(src);
        assert_eq!(e.return_value, Some(45));
        // Body executed exactly 10 times: find a block with count 10 that
        // is not the (11×) condition block.
        assert!(e.block_counts.contains(&10));
        assert!(e.block_counts.contains(&11));
    }

    #[test]
    fn nested_loop_counts_multiply() {
        let src = "int main() { int n = 0; for (int i = 0; i < 6; i++) { for (int j = 0; j < 7; j++) { n++; } } return n; }";
        let e = run(src);
        assert_eq!(e.return_value, Some(42));
        assert!(e.block_counts.contains(&42));
    }

    #[test]
    fn do_while_executes_at_least_once() {
        let e =
            run("int main() { int i = 100; int n = 0; do { n++; i++; } while (i < 0); return n; }");
        assert_eq!(e.return_value, Some(1));
    }

    #[test]
    fn short_circuit_semantics() {
        // Division by zero on the RHS must NOT run when the LHS is false.
        let e = run(
            "int main() { int zero = 0; int t = 0; if (zero && (1 / zero)) { t = 1; } return t; }",
        );
        assert_eq!(e.return_value, Some(0));
    }

    #[test]
    fn ternary_evaluation() {
        let e = run("int main() { int a = 5; return a > 3 ? a * 2 : a - 1; }");
        assert_eq!(e.return_value, Some(10));
    }

    #[test]
    fn global_arrays_and_inputs() {
        let ir = compile_to_ir(
            "int x[4]; int y[4]; int main() { for (int i = 0; i < 4; i++) { y[i] = x[i] * x[i]; } return y[3]; }",
            "main",
        )
        .unwrap();
        let e = Interpreter::new(&ir).run(&[("x", &[1, 2, 3, 4])]).unwrap();
        assert_eq!(e.return_value, Some(16));
        assert_eq!(e.global("y"), Some(&[1, 4, 9, 16][..]));
    }

    #[test]
    fn function_inlining_preserves_semantics() {
        let e = run(
            "int fib_step(int a, int b) { return a + b; }\n             int main() { int a = 0; int b = 1; for (int i = 0; i < 10; i++) { int c = fib_step(a, b); a = b; b = c; } return a; }",
        );
        assert_eq!(e.return_value, Some(55)); // fib(10)
    }

    #[test]
    fn local_arrays_are_zeroed() {
        let e = run("int main() { int buf[8]; int s = 0; for (int i = 0; i < 8; i++) { s += buf[i]; } return s; }");
        assert_eq!(e.return_value, Some(0));
    }

    #[test]
    fn division_by_zero_reported() {
        assert!(matches!(
            run_err("int main() { int z = 0; return 1 / z; }"),
            ProfileError::DivisionByZero
        ));
    }

    #[test]
    fn index_out_of_bounds_reported() {
        let e = run_err("int a[4]; int main() { int i = 9; return a[i]; }");
        assert!(matches!(
            e,
            ProfileError::IndexOutOfBounds {
                index: 9,
                len: 4,
                ..
            }
        ));
    }

    fn assert_out_of_bounds(src: &str, array: &str, index: i64, len: usize, message: &str) {
        let e = run_err(src);
        assert_eq!(
            e,
            ProfileError::IndexOutOfBounds {
                array: array.to_owned(),
                index,
                len,
            }
        );
        assert_eq!(e.to_string(), message);
    }

    // Each program declares a global and a local array of different names
    // and lengths, so a name or length read from the wrong table fails.
    #[test]
    fn global_load_out_of_bounds_names_the_global() {
        assert_out_of_bounds(
            "int a[4]; int main() { int b[6]; int i = 9; return a[i] + b[0]; }",
            "a",
            9,
            4,
            "index 9 out of bounds for 'a' (len 4)",
        );
    }

    #[test]
    fn global_store_out_of_bounds_names_the_global() {
        assert_out_of_bounds(
            "int a[4]; int main() { int b[6]; int i = 0 - 2; a[i] = 1; return b[0]; }",
            "a",
            -2,
            4,
            "index -2 out of bounds for 'a' (len 4)",
        );
    }

    #[test]
    fn local_load_out_of_bounds_names_the_local() {
        assert_out_of_bounds(
            "int a[4]; int main() { int b[6]; int i = 6; return a[0] + b[i]; }",
            "b",
            6,
            6,
            "index 6 out of bounds for 'b' (len 6)",
        );
    }

    #[test]
    fn local_store_out_of_bounds_names_the_local() {
        assert_out_of_bounds(
            "int a[4]; int main() { int b[6]; int i = 0 - 1; b[i] = a[0]; return b[0]; }",
            "b",
            -1,
            6,
            "index -1 out of bounds for 'b' (len 6)",
        );
    }

    #[test]
    fn negative_index_reported() {
        let e = run_err("int a[4]; int main() { int i = 0 - 1; return a[i]; }");
        assert!(matches!(
            e,
            ProfileError::IndexOutOfBounds { index: -1, .. }
        ));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let ir = compile_to_ir(
            "int main() { int x = 1; while (1) { x++; } return x; }",
            "main",
        )
        .unwrap();
        let e = Interpreter::new(&ir)
            .with_step_limit(10_000)
            .run(&[])
            .unwrap_err();
        assert!(matches!(e, ProfileError::StepLimit { limit: 10_000 }));
    }

    #[test]
    fn step_limit_stops_empty_loop() {
        let ir = compile_to_ir("int main() { while (1) { } return 0; }", "main").unwrap();
        let e = Interpreter::new(&ir)
            .with_step_limit(10_000)
            .run(&[])
            .unwrap_err();
        assert!(matches!(e, ProfileError::StepLimit { limit: 10_000 }));
    }

    #[test]
    fn block_visits_do_not_count_as_retired_instructions() {
        let ir = compile_to_ir(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }",
            "main",
        )
        .unwrap();
        let exec = Interpreter::new(&ir).run(&[]).unwrap();
        let instrs: u64 = ir
            .entry
            .blocks
            .iter()
            .zip(&exec.block_counts)
            .map(|(b, &n)| b.instrs.len() as u64 * n)
            .sum();
        assert_eq!(exec.instrs_retired, instrs);
        assert_eq!(exec.return_value, Some(45));
    }

    #[test]
    fn unknown_input_rejected() {
        let ir = compile_to_ir("int main() { return 0; }", "main").unwrap();
        assert!(matches!(
            Interpreter::new(&ir).run(&[("nope", &[1])]),
            Err(ProfileError::UnknownInput { .. })
        ));
    }

    #[test]
    fn oversized_input_rejected() {
        let ir = compile_to_ir("int a[2]; int main() { return a[0]; }", "main").unwrap();
        assert!(matches!(
            Interpreter::new(&ir).run(&[("a", &[1, 2, 3])]),
            Err(ProfileError::InputTooLong { .. })
        ));
    }

    #[test]
    fn wrapping_arithmetic_matches_two_complement() {
        let e = run("int main() { long big = 0x7FFFFFFFFFFFFFFF; return (big + 1) < 0; }");
        assert_eq!(e.return_value, Some(1));
    }

    #[test]
    fn break_and_continue_semantics() {
        let e = run(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i == 3) { continue; } if (i == 7) { break; } s += i; } return s; }",
        );
        // 0+1+2+4+5+6 = 18
        assert_eq!(e.return_value, Some(18));
    }
}
