//! The combined analysis step (step 3 of Figure 2): merge dynamic
//! execution frequencies with static block weights, compute eq. (1)'s
//! `total_weight = exec_freq × bb_weight`, and extract the ordered kernel
//! list the partitioning engine consumes.

use crate::weights::{bb_weight, WeightTable};
use amdrel_cdfg::{BlockId, Cdfg, LoopInfo};
use std::fmt::Write as _;

/// Analysis results for one basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    /// The block.
    pub block: BlockId,
    /// The block's label.
    pub label: String,
    /// Dynamic execution frequency (`Iter(BB)` in eqs. (3)/(4)).
    pub exec_freq: u64,
    /// Static weighted operation count (`bb_weight` in eq. (1)).
    pub bb_weight: u64,
    /// `exec_freq × bb_weight` (eq. (1)).
    pub total_weight: u64,
    /// Loop-nesting depth (kernel candidates have depth ≥ 1).
    pub loop_depth: u32,
}

/// Output of the analysis step: per-block profiles plus the kernel
/// ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    blocks: Vec<BlockProfile>,
    kernels: Vec<BlockId>,
}

impl AnalysisReport {
    /// Run the analysis over a CDFG and its measured execution counts
    /// (`exec_freq[i]` belongs to block `i`).
    ///
    /// Kernels are the blocks inside loops with non-zero dynamic weight,
    /// "sorted in descending order of computational complexity" (§3.1);
    /// ties break toward the lower block id for determinism.
    ///
    /// # Panics
    ///
    /// Panics if `exec_freq.len() != cdfg.len()`.
    pub fn analyze(cdfg: &Cdfg, exec_freq: &[u64], table: &WeightTable) -> Self {
        assert_eq!(
            exec_freq.len(),
            cdfg.len(),
            "one execution count per CDFG block"
        );
        let loops = LoopInfo::analyze(cdfg);
        let blocks: Vec<BlockProfile> = cdfg
            .iter()
            .map(|(id, bb)| {
                let w = bb_weight(&bb.dfg, table);
                let freq = exec_freq[id.index()];
                BlockProfile {
                    block: id,
                    label: bb.label.clone(),
                    exec_freq: freq,
                    bb_weight: w,
                    total_weight: freq.saturating_mul(w),
                    loop_depth: loops.depth(id),
                }
            })
            .collect();
        let mut kernels: Vec<BlockId> = blocks
            .iter()
            .filter(|b| b.loop_depth >= 1 && b.total_weight > 0)
            .map(|b| b.block)
            .collect();
        kernels.sort_by_key(|&id| {
            let b = &blocks[id.index()];
            (std::cmp::Reverse(b.total_weight), id)
        });
        AnalysisReport { blocks, kernels }
    }

    /// Profile of every block, in block order.
    pub fn blocks(&self) -> &[BlockProfile] {
        &self.blocks
    }

    /// Profile of one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BlockProfile {
        &self.blocks[id.index()]
    }

    /// Kernel candidates in descending `total_weight` order — the order
    /// the partitioning engine moves them to the coarse-grain hardware.
    pub fn kernels(&self) -> &[BlockId] {
        &self.kernels
    }

    /// The `n` heaviest kernels (Table 1 reports the top 8).
    pub fn top_kernels(&self, n: usize) -> Vec<&BlockProfile> {
        self.kernels
            .iter()
            .take(n)
            .map(|&id| self.block(id))
            .collect()
    }

    /// Render the paper's Table 1 ("Ordered total weights of basic
    /// blocks") for this application: block number, execution frequency,
    /// operations weight, total weight.
    pub fn format_table1(&self, title: &str, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>12} {:>14}",
            "BB no.", "exec. freq.", "ops weight", "total weight"
        );
        for b in self.top_kernels(n) {
            let _ = writeln!(
                out,
                "{:<10} {:>12} {:>12} {:>14}",
                b.block.index(),
                b.exec_freq,
                b.bb_weight,
                b.total_weight
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdrel_minic::compile;

    fn analyze_src(
        src: &str,
        inputs: &[(&str, &[i64])],
    ) -> (amdrel_minic::CompiledProgram, AnalysisReport) {
        let c = compile(src, "main").unwrap();
        let exec = crate::Interpreter::new(&c.ir).run(inputs).unwrap();
        let report = AnalysisReport::analyze(&c.cdfg, &exec.block_counts, &WeightTable::paper());
        (c, report)
    }

    #[test]
    fn hot_inner_loop_ranks_first() {
        let src = r#"
            int a[64];
            int main() {
                int light = 0;
                for (int i = 0; i < 4; i++) { light = light + 1; }
                int heavy = 0;
                for (int i = 0; i < 64; i++) {
                    heavy = heavy + a[i] * a[i] * 3;
                }
                return light + heavy;
            }
        "#;
        let (_, report) = analyze_src(src, &[]);
        let kernels = report.kernels();
        assert!(!kernels.is_empty());
        let first = report.block(kernels[0]);
        // The heavy body must outrank everything else.
        for &k in &kernels[1..] {
            assert!(report.block(k).total_weight <= first.total_weight);
        }
        assert!(first.bb_weight >= 4, "heavy body has mul+mul+add+loads");
        assert_eq!(first.exec_freq, 64);
    }

    #[test]
    fn total_weight_is_product(/* eq. (1) */) {
        let (_, report) = analyze_src(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i * i; } return s; }",
            &[],
        );
        for b in report.blocks() {
            assert_eq!(b.total_weight, b.exec_freq * b.bb_weight);
        }
    }

    #[test]
    fn kernels_exclude_straightline_blocks() {
        let (_, report) = analyze_src(
            "int main() { int x = 3 * 3; for (int i = 0; i < 4; i++) { x += i * x; } return x; }",
            &[],
        );
        for &k in report.kernels() {
            assert!(report.block(k).loop_depth >= 1);
        }
    }

    #[test]
    fn kernels_sorted_descending() {
        let (_, report) = analyze_src(
            r#"
            int main() {
                int a = 0;
                for (int i = 0; i < 100; i++) { a += i * i * i; }
                int b = 0;
                for (int i = 0; i < 10; i++) { b += i; }
                return a + b;
            }
            "#,
            &[],
        );
        let ws: Vec<u64> = report
            .kernels()
            .iter()
            .map(|&k| report.block(k).total_weight)
            .collect();
        let mut sorted = ws.clone();
        sorted.sort_by(|x, y| y.cmp(x));
        assert_eq!(ws, sorted);
    }

    #[test]
    fn table1_formatting() {
        let (_, report) = analyze_src(
            "int main() { int s = 0; for (int i = 0; i < 8; i++) { s += i * i; } return s; }",
            &[],
        );
        let t = report.format_table1("test app", 8);
        assert!(t.contains("BB no."));
        assert!(t.contains("total weight"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "one execution count per CDFG block")]
    fn mismatched_counts_panic() {
        let c = compile("int main() { return 0; }", "main").unwrap();
        AnalysisReport::analyze(&c.cdfg, &[], &WeightTable::paper());
    }
}
