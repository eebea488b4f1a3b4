//! Natural-loop recognition and loop-nesting depth.
//!
//! The analysis step of the paper restricts kernel candidates to "basic
//! blocks inside loops" (the critical basic blocks "are often located in
//! nested loops"). This module recognises natural loops from back edges
//! (`tail → header` where `header` dominates `tail`) and derives each
//! block's nesting depth, which the profiler's kernel extraction consumes.

use crate::cfg::{BlockId, Cdfg};
use crate::dom::Dominators;

/// One natural loop: its header and member blocks (header included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge; dominates every member).
    pub header: BlockId,
    /// All blocks in the loop, header first, rest in discovery order.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Number of blocks in the loop (≥ 1).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// A natural loop always has at least its header, so this is `false`;
    /// provided for API symmetry with collection types.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// The loop structure of a [`Cdfg`]: all natural loops plus per-block
/// nesting depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    loops: Vec<NaturalLoop>,
    depth: Vec<u32>,
}

impl LoopInfo {
    /// Analyse `cdfg` (computes dominators internally).
    ///
    /// Loops sharing a header are merged into a single natural loop, the
    /// conventional treatment for multiple back edges to one header (e.g. a
    /// `continue` inside a `while`).
    ///
    /// # Panics
    ///
    /// Panics if the CDFG is empty.
    pub fn analyze(cdfg: &Cdfg) -> Self {
        let dom = Dominators::compute(cdfg);
        // Collect back edges per header.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new(); // (tail, header)
        for b in cdfg.block_ids() {
            if !dom.is_reachable(b) {
                continue;
            }
            for &s in cdfg.succs(b) {
                if dom.dominates(s, b) {
                    back_edges.push((b, s));
                }
            }
        }
        back_edges.sort_by_key(|&(_, h)| h);

        // Grow each loop body backwards from the tails.
        let mut loops: Vec<NaturalLoop> = Vec::new();
        let mut i = 0;
        while i < back_edges.len() {
            let header = back_edges[i].1;
            let mut in_loop = vec![false; cdfg.len()];
            in_loop[header.index()] = true;
            let mut blocks = vec![header];
            let mut stack: Vec<BlockId> = Vec::new();
            while i < back_edges.len() && back_edges[i].1 == header {
                let tail = back_edges[i].0;
                if !in_loop[tail.index()] {
                    in_loop[tail.index()] = true;
                    blocks.push(tail);
                    stack.push(tail);
                }
                i += 1;
            }
            while let Some(b) = stack.pop() {
                for &p in cdfg.preds(b) {
                    if dom.is_reachable(p) && !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        blocks.push(p);
                        stack.push(p);
                    }
                }
            }
            loops.push(NaturalLoop { header, blocks });
        }

        // Depth = number of loops containing the block.
        let mut depth = vec![0u32; cdfg.len()];
        for l in &loops {
            for &b in &l.blocks {
                depth[b.index()] += 1;
            }
        }
        LoopInfo { loops, depth }
    }

    /// All recognised natural loops, ordered by header id.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Nesting depth of `b`: 0 = not in any loop, 1 = innermost level of a
    /// non-nested loop, etc.
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth.get(b.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::BasicBlock;
    use crate::dfg::Dfg;

    fn block(g: &mut Cdfg, label: &str) -> BlockId {
        g.add_block(BasicBlock::from_dfg(label, Dfg::new(label)))
    }

    #[test]
    fn simple_while_loop() {
        let mut g = Cdfg::new("while");
        let entry = block(&mut g, "entry");
        let head = block(&mut g, "head");
        let body = block(&mut g, "body");
        let exit = block(&mut g, "exit");
        g.add_edge(entry, head).unwrap();
        g.add_edge(head, body).unwrap();
        g.add_edge(body, head).unwrap();
        g.add_edge(head, exit).unwrap();
        let li = LoopInfo::analyze(&g);
        assert_eq!(li.loops().len(), 1);
        let l = &li.loops()[0];
        assert_eq!(l.header, head);
        assert!(l.contains(body) && l.contains(head));
        assert!(!l.contains(entry) && !l.contains(exit));
        assert_eq!(li.depth(body), 1);
        assert_eq!(li.depth(entry), 0);
        assert_eq!(li.depth(head), 1);
    }

    #[test]
    fn nested_loops_depth_two() {
        // entry → oh; oh → ob; ob → ih; ih → ib; ib → ih(back); ih → ob2;
        // ob2 → oh(back); oh → exit.
        let mut g = Cdfg::new("nested");
        let entry = block(&mut g, "entry");
        let oh = block(&mut g, "outer_head");
        let ob = block(&mut g, "outer_body");
        let ih = block(&mut g, "inner_head");
        let ib = block(&mut g, "inner_body");
        let ob2 = block(&mut g, "outer_tail");
        let exit = block(&mut g, "exit");
        g.add_edge(entry, oh).unwrap();
        g.add_edge(oh, ob).unwrap();
        g.add_edge(ob, ih).unwrap();
        g.add_edge(ih, ib).unwrap();
        g.add_edge(ib, ih).unwrap();
        g.add_edge(ih, ob2).unwrap();
        g.add_edge(ob2, oh).unwrap();
        g.add_edge(oh, exit).unwrap();
        let li = LoopInfo::analyze(&g);
        assert_eq!(li.loops().len(), 2);
        assert_eq!(li.depth(ib), 2);
        assert_eq!(li.depth(ih), 2);
        assert_eq!(li.depth(ob), 1);
        assert_eq!(li.depth(ob2), 1);
        assert_eq!(li.depth(exit), 0);
        assert_eq!(g.block_ids().map(|b| li.depth(b)).max(), Some(2));
    }

    #[test]
    fn self_loop_block() {
        let mut g = Cdfg::new("tight");
        let entry = block(&mut g, "entry");
        let b = block(&mut g, "spin");
        let exit = block(&mut g, "exit");
        g.add_edge(entry, b).unwrap();
        g.add_edge(b, b).unwrap();
        g.add_edge(b, exit).unwrap();
        let li = LoopInfo::analyze(&g);
        assert_eq!(li.loops().len(), 1);
        assert_eq!(li.loops()[0].blocks, vec![b]);
        assert_eq!(li.depth(b), 1);
    }

    #[test]
    fn two_back_edges_one_header_merge() {
        // head → b1 → head, head → b2 → head: one loop {head, b1, b2}.
        let mut g = Cdfg::new("continue");
        let entry = block(&mut g, "entry");
        let head = block(&mut g, "head");
        let b1 = block(&mut g, "b1");
        let b2 = block(&mut g, "b2");
        let exit = block(&mut g, "exit");
        g.add_edge(entry, head).unwrap();
        g.add_edge(head, b1).unwrap();
        g.add_edge(head, b2).unwrap();
        g.add_edge(b1, head).unwrap();
        g.add_edge(b2, head).unwrap();
        g.add_edge(head, exit).unwrap();
        let li = LoopInfo::analyze(&g);
        assert_eq!(li.loops().len(), 1);
        let l = &li.loops()[0];
        assert_eq!(l.len(), 3);
        assert!(l.contains(b1) && l.contains(b2));
        assert_eq!(li.depth(b1), 1);
    }

    #[test]
    fn acyclic_graph_has_no_loops() {
        let mut g = Cdfg::new("straight");
        let a = block(&mut g, "a");
        let b = block(&mut g, "b");
        g.add_edge(a, b).unwrap();
        let li = LoopInfo::analyze(&g);
        assert!(li.loops().is_empty());
        assert!(g.block_ids().all(|b| li.depth(b) == 0));
    }
}
