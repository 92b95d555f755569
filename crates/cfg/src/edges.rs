//! Edge construction and reachability over a disassembly [`Layout`].

use crate::blocks::Layout;
use crate::functions::Functions;
use crate::{plt_stub_got_slot, BlockId, EdgeKind};
use bside_x86::{Op, Target};

/// Calls `edge` for every out-edge of block `i` except `Return` edges
/// (which only [`build`] adds), resolving indirect branches to
/// `indirect_targets`. Targets that start no block are dropped.
fn out_edges(
    layout: &Layout,
    i: usize,
    indirect_targets: &[u64],
    mut edge: impl FnMut(usize, EdgeKind),
) {
    let insns = layout.insns_of(i);
    let term = insns.last().expect("blocks are never empty");
    let mut to = |addr: Option<u64>, kind: EdgeKind| {
        if let Some(j) = addr.and_then(|a| layout.index_of(a)) {
            edge(j, kind);
        }
    };
    match term.op {
        Op::Ret | Op::Ud2 | Op::Hlt => {}
        // PLT stub: external control flow, no internal edges.
        Op::Jmp(Target::Reg(_) | Target::Mem(_)) if plt_stub_got_slot(insns).is_some() => {}
        Op::Jmp(Target::Reg(_) | Target::Mem(_)) | Op::Call(Target::Reg(_) | Target::Mem(_)) => {
            for &t in indirect_targets {
                to(Some(t), EdgeKind::Indirect);
            }
        }
        Op::Jmp(Target::Rel(_)) | Op::Jcc(..) => to(term.branch_target(), EdgeKind::Branch),
        Op::Call(Target::Rel(_)) => to(term.branch_target(), EdgeKind::Call),
        _ => {}
    }
    // Conditional branches, calls (the callee returns) and blocks ended
    // by a leader split fall through.
    if !matches!(term.op, Op::Ret | Op::Ud2 | Op::Hlt | Op::Jmp(_)) {
        to(Some(term.end()), EdgeKind::FallThrough);
    }
}

/// Block-level search from the blocks containing `entries`; returns a
/// reachable flag per block.
///
/// `Return` edges are *not* followed: they over-approximate (a shared
/// helper's `ret` points at every caller's continuation, so following
/// them would mark a dead caller's continuation reachable through any
/// live call into the helper). Post-call continuations are covered by
/// the call block's own `FallThrough` edge, so skipping returns loses no
/// genuinely reachable block. No edge map is built: the search reads the
/// terminators directly.
pub(crate) fn reachable_from(
    entries: &[u64],
    layout: &Layout,
    indirect_targets: &[u64],
) -> Vec<bool> {
    let mut seen = vec![false; layout.len()];
    let mut stack: Vec<usize> = Vec::with_capacity(layout.len());
    for i in entries.iter().filter_map(|&e| layout.containing(e)) {
        if !std::mem::replace(&mut seen[i], true) {
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        out_edges(layout, i, indirect_targets, |j, _| {
            if !std::mem::replace(&mut seen[j], true) {
                stack.push(j);
            }
        });
    }
    seen
}

/// Per-block edge lists in one flat array: block `i`'s edges are
/// `ids[offsets[i]..offsets[i + 1]]`, sorted by `(id, kind)` and
/// deduplicated.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeLists {
    offsets: Vec<u32>,
    ids: Vec<(BlockId, EdgeKind)>,
}

impl EdgeLists {
    /// Lists the `(from, to, kind)` triples over `n` blocks by `from`, or
    /// by `to` (as `(to, from, kind)`) when `reverse` is set.
    fn new(n: usize, triples: &[(u32, u32, EdgeKind)], reverse: bool) -> EdgeLists {
        let ends = |&(from, to, kind): &(u32, u32, EdgeKind)| {
            if reverse {
                (to as usize, from, kind)
            } else {
                (from as usize, to, kind)
            }
        };
        // Bucket by source: count, prefix-sum, then place with
        // `offsets[i]` as block `i`'s cursor, which leaves it at the
        // block's end; shifting by one restores the starts.
        let mut offsets = vec![0u32; n + 1];
        for t in triples {
            offsets[ends(t).0 + 1] += 1;
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut ids = vec![(0, EdgeKind::Branch); triples.len()];
        for t in triples {
            let (from, to, kind) = ends(t);
            ids[offsets[from] as usize] = (to, kind);
            offsets[from] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        // Sort and deduplicate each block's few edges, compacting.
        let mut len = 0;
        for i in 0..n {
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            ids[lo..hi].sort_unstable();
            offsets[i] = len as u32;
            for k in lo..hi {
                if len == offsets[i] as usize || ids[len - 1] != ids[k] {
                    ids[len] = ids[k];
                    len += 1;
                }
            }
        }
        offsets[n] = len as u32;
        ids.truncate(len);
        EdgeLists { offsets, ids }
    }

    /// The edges of block `i`.
    pub(crate) fn of(&self, i: usize) -> &[(BlockId, EdgeKind)] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The final edges, built once after the fixpoint: successor and
/// predecessor lists, and per block the GOT slot of a PLT stub.
pub(crate) fn build(
    layout: &Layout,
    functions: &Functions,
    indirect_targets: &[u64],
) -> (EdgeLists, EdgeLists, Vec<Option<u64>>) {
    let mut edges: Vec<(u32, u32, EdgeKind)> = Vec::new();
    let mut plt = Vec::with_capacity(layout.len());
    // Call edges: (callee block, post-call block).
    let mut calls: Vec<(usize, u32)> = Vec::new();

    for i in 0..layout.len() {
        let insns = layout.insns_of(i);
        let term = insns.last().expect("blocks are never empty");
        plt.push(plt_stub_got_slot(insns));
        let post_call = match term.op {
            Op::Call(_) => layout.index_of(term.end()),
            _ => None,
        };
        out_edges(layout, i, indirect_targets, |j, kind| {
            edges.push((i as u32, j as u32, kind));
            if let (Some(f), EdgeKind::Call | EdgeKind::Indirect) = (post_call, kind) {
                calls.push((j, f as u32));
            }
        });
    }

    // Return edges: from each `ret` block of a called function back to the
    // post-call block of each caller.
    for &(callee, post_call) in &calls {
        let (lo, hi) = functions.range_from(layout.start(callee));
        for r in layout.starting_in(lo, hi) {
            let term = layout.insns_of(r).last().expect("blocks are never empty");
            if matches!(term.op, Op::Ret) {
                edges.push((r as u32, post_call, EdgeKind::Return));
            }
        }
    }

    (
        EdgeLists::new(layout.len(), &edges, false),
        EdgeLists::new(layout.len(), &edges, true),
        plt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::Disassembler;
    use crate::FunctionSym;
    use bside_x86::{Assembler, Cond, Reg};
    use std::collections::HashMap;

    type EdgeMap = HashMap<u64, Vec<(u64, EdgeKind)>>;

    fn setup(
        asm: Assembler,
        funcs: &[FunctionSym],
        indirect: &[u64],
    ) -> (Layout, EdgeMap, EdgeMap, HashMap<u64, u64>) {
        let code = asm.finish().expect("assemble");
        let roots = funcs
            .iter()
            .map(|f| f.entry)
            .chain(indirect.iter().copied());
        let layout = Disassembler::new(&code, 0x1000).pass(roots.chain([0x1000]));
        let (s, p, stubs) = build(&layout, &Functions::new(funcs), indirect);
        let stubs = (0..layout.len())
            .filter_map(|i| Some((layout.start(i), stubs[i]?)))
            .collect();
        let by_addr = |edges: &[(BlockId, EdgeKind)]| {
            let to_addr = |&(to, kind): &(BlockId, EdgeKind)| (layout.start(to as usize), kind);
            edges.iter().map(to_addr).collect()
        };
        let map = |lists: &EdgeLists| -> EdgeMap {
            (0..layout.len())
                .map(|i| (layout.start(i), by_addr(lists.of(i))))
                .collect()
        };
        let (s, p) = (map(&s), map(&p));
        (layout, s, p, stubs)
    }

    #[test]
    fn jcc_has_branch_and_fallthrough() {
        let mut a = Assembler::new(0x1000);
        let t = a.new_label();
        a.cmp_reg_imm32(Reg::Rax, 0);
        a.jcc_label(Cond::E, t);
        a.nop();
        a.bind(t).unwrap();
        a.ret();
        let (_b, succs, preds, _) = setup(a, &[], &[]);
        let out = &succs[&0x1000];
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|&(_, k)| k == EdgeKind::Branch));
        assert!(out.iter().any(|&(_, k)| k == EdgeKind::FallThrough));
        // The target block has the entry block as a predecessor.
        let t_addr = out.iter().find(|&&(_, k)| k == EdgeKind::Branch).unwrap().0;
        assert!(preds[&t_addr].iter().any(|&(p, _)| p == 0x1000));
    }

    #[test]
    fn call_produces_call_fallthrough_and_return_edges() {
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        a.call_label(f); // block A @0x1000 (5 bytes)
        a.ret(); // block B @0x1005
        a.bind(f).unwrap();
        a.ret(); // callee @0x1006
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: 6,
            },
            FunctionSym {
                name: "f".into(),
                entry: 0x1006,
                size: 1,
            },
        ];
        let (_b, succs, _preds, _) = setup(a, &funcs, &[]);
        let out = &succs[&0x1000];
        assert!(out.contains(&(0x1006, EdgeKind::Call)));
        assert!(out.contains(&(0x1005, EdgeKind::FallThrough)));
        // Return edge: callee ret block → post-call block.
        assert!(succs[&0x1006].contains(&(0x1005, EdgeKind::Return)));
    }

    #[test]
    fn every_ret_block_of_the_callee_returns_to_the_caller() {
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        let second = a.new_label();
        a.call_label(f); // 0x1000 (5 bytes)
        a.ret(); // post-call block @0x1005
        a.bind(f).unwrap(); // 0x1006
        a.cmp_reg_imm32(Reg::Rdi, 0);
        a.jcc_label(Cond::E, second);
        let first_ret = a.cursor();
        a.ret();
        a.bind(second).unwrap();
        let second_ret = a.cursor();
        a.ret();
        let end = a.cursor();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: 6,
            },
            FunctionSym {
                name: "f".into(),
                entry: 0x1006,
                size: end - 0x1006,
            },
        ];
        let (_b, succs, preds, _) = setup(a, &funcs, &[]);
        for ret in [first_ret, second_ret] {
            assert!(
                succs[&ret].contains(&(0x1005, EdgeKind::Return)),
                "{ret:#x}"
            );
            assert!(
                preds[&0x1005].contains(&(ret, EdgeKind::Return)),
                "{ret:#x}"
            );
        }
    }

    #[test]
    fn indirect_call_fans_out_to_targets() {
        let mut a = Assembler::new(0x1000);
        let f1 = a.new_label();
        let f2 = a.new_label();
        a.call_reg(Reg::Rbx); // 0x1000..0x1002(+rex?) — call rbx = ff d3 (2 bytes)
        a.ret();
        a.bind(f1).unwrap();
        a.ret();
        a.bind(f2).unwrap();
        a.ret();
        // f1 at 0x1003, f2 at 0x1004.
        let (_b, succs, _p, _) = setup(a, &[], &[0x1003, 0x1004]);
        let out = &succs[&0x1000];
        assert!(out.contains(&(0x1003, EdgeKind::Indirect)));
        assert!(out.contains(&(0x1004, EdgeKind::Indirect)));
        assert!(out.iter().any(|&(_, k)| k == EdgeKind::FallThrough));
    }

    #[test]
    fn plt_stub_is_classified_not_edged() {
        let mut a = Assembler::new(0x1000);
        let got = a.new_label();
        a.bind_at(got, 0x3000).unwrap();
        a.endbr64();
        a.jmp_riplabel(got);
        let (_b, succs, _p, stubs) = setup(a, &[], &[]);
        assert_eq!(stubs.get(&0x1000), Some(&0x3000));
        assert!(succs[&0x1000].is_empty());
    }

    #[test]
    fn reachability_stops_at_dead_code() {
        let mut a = Assembler::new(0x1000);
        a.ret(); // entry
        a.syscall(); // dead
        a.ret();
        let code = a.finish().unwrap();
        let layout = Disassembler::new(&code, 0x1000).pass([0x1000, 0x1001]);
        let reach = reachable_from(&[0x1000], &layout, &[]);
        assert!(reach[layout.index_of(0x1000).unwrap()]);
        assert!(!reach[layout.index_of(0x1001).unwrap()]);
    }
}
