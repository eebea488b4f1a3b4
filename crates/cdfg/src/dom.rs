//! Dominator computation over the control-flow side of a [`Cdfg`].
//!
//! Implements the iterative dominance algorithm of Cooper, Harvey & Kennedy
//! ("A Simple, Fast Dominance Algorithm") over the reverse post-order. The
//! loop analysis ([`crate::loops`]) uses dominance to recognise natural
//! loops — the paper's kernels are "basic blocks inside loops", so dominance
//! is what turns raw control edges into kernel candidacy.

use crate::cfg::{BlockId, Cdfg};

/// The dominator tree of a [`Cdfg`] (reachable blocks only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Immediate dominator per block; `None` for the entry block and for
    /// unreachable blocks.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
    reachable: Vec<bool>,
}

impl Dominators {
    /// Compute dominators for `cdfg`.
    ///
    /// # Panics
    ///
    /// Panics if the CDFG is empty.
    pub fn compute(cdfg: &Cdfg) -> Self {
        let entry = cdfg.entry();
        let rpo = cdfg.reverse_postorder();
        // Map block → its RPO position, for the intersection walk.
        let mut rpo_pos = vec![usize::MAX; cdfg.len()];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let mut reachable = vec![false; cdfg.len()];
        for &b in &rpo {
            reachable[b.index()] = true;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; cdfg.len()];
        idom[entry.index()] = Some(entry); // temporary self-idom sentinel

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while rpo_pos[a.index()] > rpo_pos[b.index()] {
                    a = idom[a.index()].expect("processed block has idom");
                }
                while rpo_pos[b.index()] > rpo_pos[a.index()] {
                    b = idom[b.index()].expect("processed block has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // First processed predecessor seeds the meet.
                let mut new_idom: Option<BlockId> = None;
                for &p in cdfg.preds(b) {
                    if idom[p.index()].is_some() {
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(&idom, cur, p),
                        });
                    }
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        idom[entry.index()] = None; // drop the sentinel
        Dominators {
            idom,
            entry,
            reachable,
        }
    }

    /// The immediate dominator of `b`, or `None` for the entry block and
    /// unreachable blocks.
    fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    ///
    /// Unreachable blocks are dominated by nothing and dominate nothing
    /// (except themselves).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.reachable.get(b.index()).copied().unwrap_or(false) {
            return false;
        }
        let mut cur = b;
        while let Some(d) = self.idom(cur) {
            if d == a {
                return true;
            }
            cur = d;
        }
        false
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable.get(b.index()).copied().unwrap_or(false)
    }

    /// The entry block these dominators were computed from.
    pub fn entry(&self) -> BlockId {
        self.entry
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

    /// The classic diamond: 0 → {1,2} → 3.
    #[test]
    fn diamond_dominance() {
        let mut g = Cdfg::new("diamond");
        let b0 = block(&mut g, "b0");
        let b1 = block(&mut g, "b1");
        let b2 = block(&mut g, "b2");
        let b3 = block(&mut g, "b3");
        g.add_edge(b0, b1).unwrap();
        g.add_edge(b0, b2).unwrap();
        g.add_edge(b1, b3).unwrap();
        g.add_edge(b2, b3).unwrap();
        let dom = Dominators::compute(&g);
        assert_eq!(dom.idom(b0), None);
        assert_eq!(dom.idom(b1), Some(b0));
        assert_eq!(dom.idom(b2), Some(b0));
        assert_eq!(dom.idom(b3), Some(b0)); // join dominated by fork, not arms
        assert!(dom.dominates(b0, b3));
        assert!(!dom.dominates(b1, b3));
        assert!(dom.dominates(b3, b3));
    }

    /// Cooper–Harvey–Kennedy's paper example (their Figure 2):
    /// 5→{4,3}, 4→1, 3→2, 1→2, 2→{1, exit-ish}, with entry 5.
    #[test]
    fn chk_figure2() {
        let mut g = Cdfg::new("chk");
        let n5 = block(&mut g, "n5");
        let n4 = block(&mut g, "n4");
        let n3 = block(&mut g, "n3");
        let n2 = block(&mut g, "n2");
        let n1 = block(&mut g, "n1");
        g.add_edge(n5, n4).unwrap();
        g.add_edge(n5, n3).unwrap();
        g.add_edge(n4, n1).unwrap();
        g.add_edge(n3, n2).unwrap();
        g.add_edge(n1, n2).unwrap();
        g.add_edge(n2, n1).unwrap();
        let dom = Dominators::compute(&g);
        assert_eq!(dom.idom(n4), Some(n5));
        assert_eq!(dom.idom(n3), Some(n5));
        // Both 1 and 2 are join points reachable two ways; idom is the entry.
        assert_eq!(dom.idom(n1), Some(n5));
        assert_eq!(dom.idom(n2), Some(n5));
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut g = Cdfg::new("loop");
        let entry = block(&mut g, "entry");
        let head = block(&mut g, "head");
        let body = block(&mut g, "body");
        let exit = block(&mut g, "exit");
        g.add_edge(entry, head).unwrap();
        g.add_edge(head, body).unwrap();
        g.add_edge(body, head).unwrap();
        g.add_edge(head, exit).unwrap();
        let dom = Dominators::compute(&g);
        assert!(dom.dominates(head, body));
        assert!(dom.dominates(head, exit));
        assert!(!dom.dominates(body, head));
        assert_eq!(dom.idom(body), Some(head));
    }

    #[test]
    fn unreachable_block_has_no_idom() {
        let mut g = Cdfg::new("unreach");
        let entry = block(&mut g, "entry");
        let island = block(&mut g, "island");
        let _ = entry;
        let dom = Dominators::compute(&g);
        assert_eq!(dom.idom(island), None);
        assert!(!dom.is_reachable(island));
        assert!(dom.dominates(island, island)); // reflexive only
        assert!(!dom.dominates(entry, island));
    }

    #[test]
    fn single_block_graph() {
        let mut g = Cdfg::new("one");
        let only = block(&mut g, "only");
        let dom = Dominators::compute(&g);
        assert_eq!(dom.idom(only), None);
        assert!(dom.dominates(only, only));
        assert_eq!(dom.entry(), only);
    }
}
