//! Basic-block discovery by recursive-traversal disassembly.

use bside_x86::{decode, Instruction, Op};

/// A maximal straight-line run of instructions: entered only at the top,
/// left only at the bottom. It borrows its instructions from the CFG's
/// single instruction array.
#[derive(Debug, Clone, Copy)]
pub struct BasicBlock<'a> {
    /// Address of the first instruction.
    pub start: u64,
    /// The instructions, in address order. Never empty.
    pub insns: &'a [Instruction],
}

impl<'a> BasicBlock<'a> {
    /// Address one past the last instruction.
    pub fn end(&self) -> u64 {
        self.insns.last().map(|i| i.end()).unwrap_or(self.start)
    }

    /// Size of the block in bytes (used for the phase-size column of
    /// Table 4).
    pub fn byte_size(&self) -> u64 {
        self.end() - self.start
    }

    /// The final instruction.
    pub fn terminator(&self) -> &'a Instruction {
        self.insns.last().expect("blocks are never empty")
    }

    /// `true` if the block contains a `syscall` instruction.
    pub fn has_syscall(&self) -> bool {
        self.insns.iter().any(|i| matches!(i.op, Op::Syscall))
    }
}

/// One disassembly pass: every decoded instruction in address order, cut
/// into blocks. Block `i` starts at `blocks[i].0` and holds the
/// instructions from index `blocks[i].1` up to the next block's first.
/// The last pass's layout is the CFG's block store, and block `i` is the
/// block with id `i`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    pub(crate) insns: Vec<Instruction>,
    blocks: Vec<(u64, u32)>,
}

impl Layout {
    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Start address of block `i`.
    pub(crate) fn start(&self, i: usize) -> u64 {
        self.blocks[i].0
    }

    /// The instructions of block `i`; never empty.
    pub(crate) fn insns_of(&self, i: usize) -> &[Instruction] {
        let end = self
            .blocks
            .get(i + 1)
            .map_or(self.insns.len(), |&(_, first)| first as usize);
        &self.insns[self.blocks[i].1 as usize..end]
    }

    /// The block starting exactly at `addr`.
    pub(crate) fn index_of(&self, addr: u64) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |&(s, _)| s).ok()
    }

    /// The block whose bytes contain `addr`.
    pub(crate) fn containing(&self, addr: u64) -> Option<usize> {
        let i = self
            .blocks
            .partition_point(|&(s, _)| s <= addr)
            .checked_sub(1)?;
        let last = self.insns_of(i).last().expect("blocks are never empty");
        (addr < last.end()).then_some(i)
    }

    /// Blocks whose start lies in `lo..hi`.
    pub(crate) fn starting_in(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        self.blocks.partition_point(|&(s, _)| s < lo)..self.blocks.partition_point(|&(s, _)| s < hi)
    }

    /// Block `i`, borrowing its instructions.
    pub(crate) fn block(&self, i: usize) -> BasicBlock<'_> {
        BasicBlock {
            start: self.start(i),
            insns: self.insns_of(i),
        }
    }
}

/// Decode-memo slot of an offset not decoded yet.
const UNDECODED: u32 = u32::MAX;
/// Decode-memo slot of an offset whose bytes do not decode.
const INVALID: u32 = u32::MAX - 1;

/// Recursive-traversal disassembler over one `.text`, with everything
/// indexed by text offset.
///
/// The active-address-taken fixpoint re-disassembles after every round
/// that finds new indirect targets. The bytes never change within one
/// CFG construction, so each offset is decoded at most once: `slot` holds
/// the offset's index into `decoded` (or `UNDECODED` / `INVALID`), a
/// `u32` per text byte. The per-pass marks (`VISITED`, `LEADER`) are a
/// byte per text byte.
pub(crate) struct Disassembler<'a> {
    code: &'a [u8],
    base: u64,
    slot: Vec<u32>,
    decoded: Vec<Instruction>,
    marks: Vec<u8>,
}

/// Mark of an offset decoded by the current pass.
const VISITED: u8 = 1;
/// Mark of an offset that must start a block.
const LEADER: u8 = 2;

impl<'a> Disassembler<'a> {
    pub(crate) fn new(code: &'a [u8], base: u64) -> Disassembler<'a> {
        Disassembler {
            code,
            base,
            slot: vec![UNDECODED; code.len()],
            decoded: Vec::new(),
            marks: vec![0; code.len()],
        }
    }

    fn offset(&self, addr: u64) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        (off < self.code.len() as u64).then_some(off as usize)
    }

    fn decode_at(&mut self, off: usize) -> Option<Instruction> {
        if self.slot[off] == UNDECODED {
            self.slot[off] = match decode(&self.code[off..], self.base + off as u64) {
                Ok(insn) => {
                    self.decoded.push(insn);
                    (self.decoded.len() - 1) as u32
                }
                Err(_) => INVALID,
            };
        }
        self.decoded.get(self.slot[off] as usize).copied()
    }

    /// Disassembles from every root, following direct control flow, and
    /// splits blocks at every discovered leader (root, branch target, or
    /// the address after a `jcc`, `call` or `syscall`).
    pub(crate) fn pass(&mut self, roots: impl IntoIterator<Item = u64>) -> Layout {
        self.marks.fill(0);

        // Pass 1: discover instructions and leaders. The visited set is
        // the closure of the roots under fall-through and branch targets,
        // so the worklist order does not matter.
        let mut worklist: Vec<usize> = Vec::new();
        for root in roots {
            if let Some(off) = self.offset(root) {
                self.marks[off] |= LEADER;
                worklist.push(off);
            }
        }
        while let Some(mut off) = worklist.pop() {
            while self.marks[off] & VISITED == 0 {
                let Some(insn) = self.decode_at(off) else {
                    break; // undecodable: stop this run
                };
                self.marks[off] |= VISITED;
                if let Some(t) = insn.branch_target().and_then(|t| self.offset(t)) {
                    self.marks[t] |= LEADER;
                    worklist.push(t);
                }
                let next = self.offset(insn.end());
                // One syscall site per block: phase detection labels a
                // block's outgoing edges with its site's syscalls, which
                // only models execution if each site sits at a block
                // boundary. Calls fall through (the callee returns).
                if matches!(insn.op, Op::Jcc(..) | Op::Call(_) | Op::Syscall) {
                    if let Some(n) = next {
                        self.marks[n] |= LEADER;
                    }
                }
                match (insn.is_terminator(), next) {
                    (false, Some(n)) => off = n,
                    _ => break,
                }
            }
        }

        // Pass 2: group instructions, in address order, into blocks split
        // at leaders, at gaps and after block-ending instructions.
        let mut layout = Layout::default();
        let mut open = false;
        for off in (0..self.code.len()).filter(|&off| self.marks[off] & VISITED != 0) {
            let insn = self.decoded[self.slot[off] as usize];
            let contiguous = layout.insns.last().is_some_and(|p| p.end() == insn.addr);
            if !open || self.marks[off] & LEADER != 0 || !contiguous {
                layout.blocks.push((insn.addr, layout.insns.len() as u32));
            }
            layout.insns.push(insn);
            open = !(insn.is_terminator()
                || matches!(insn.op, Op::Jcc(..) | Op::Call(_) | Op::Syscall));
        }
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_x86::{Assembler, Cond, Reg};

    fn disassemble(code: &[u8], base: u64, roots: &[u64]) -> Layout {
        Disassembler::new(code, base).pass(roots.iter().copied())
    }

    fn blocks_of(asm: Assembler, roots: &[u64]) -> Layout {
        let code = asm.finish().expect("assemble");
        disassemble(&code, 0x1000, roots)
    }

    /// The block starting at `addr`.
    fn at(layout: &Layout, addr: u64) -> BasicBlock<'_> {
        layout.block(layout.index_of(addr).expect("a block starts there"))
    }

    #[test]
    fn straight_line_splits_after_syscall() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 60);
        a.syscall();
        a.ret();
        let blocks = blocks_of(a, &[0x1000]);
        // The syscall ends its block so each block holds ≤ 1 site.
        assert_eq!(blocks.len(), 2);
        let b = at(&blocks, 0x1000);
        assert_eq!(b.insns.len(), 2);
        assert!(b.has_syscall());
        assert!(!at(&blocks, 0x1009).has_syscall());
    }

    #[test]
    fn branch_splits_blocks() {
        let mut a = Assembler::new(0x1000);
        let tgt = a.new_label();
        a.cmp_reg_imm32(Reg::Rdi, 0); // block 1
        a.jcc_label(Cond::E, tgt);
        a.nop(); // block 2 (fallthrough)
        a.bind(tgt).unwrap();
        a.ret(); // block 3 (branch target)
        let blocks = blocks_of(a, &[0x1000]);
        assert_eq!(blocks.len(), 3);
    }

    #[test]
    fn call_target_becomes_a_block() {
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        a.call_label(f); // block 1
        a.ret(); // block 2 (post-call)
        a.bind(f).unwrap();
        a.syscall(); // block 3 (callee)
        a.ret();
        let blocks = blocks_of(a, &[0x1000]);
        assert_eq!(blocks.len(), 4, "call split + syscall split + callee ret");
        assert!((0..blocks.len()).any(|i| blocks.block(i).has_syscall()));
    }

    #[test]
    fn jump_into_middle_splits_existing_block() {
        // A backward jump into the middle of an already-decoded run must
        // split that run into two blocks.
        let mut a = Assembler::new(0x1000);
        let mid = a.new_label();
        a.nop(); // 0x1000
        a.bind(mid).unwrap();
        a.nop(); // 0x1001 ← jump target
        a.nop();
        a.jmp_label(mid);
        let blocks = blocks_of(a, &[0x1000]);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.index_of(0x1000).is_some());
        assert!(blocks.index_of(0x1001).is_some());
    }

    #[test]
    fn unreached_roots_outside_range_are_ignored() {
        let mut a = Assembler::new(0x1000);
        a.ret();
        let blocks = blocks_of(a, &[0x1000, 0x9999]);
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn undecodable_bytes_stop_the_run() {
        let mut code = vec![0x90]; // nop
        code.push(0x06); // invalid
        let blocks = disassemble(&code, 0x1000, &[0x1000]);
        assert_eq!(blocks.len(), 1);
        assert_eq!(at(&blocks, 0x1000).insns.len(), 1);
    }

    #[test]
    fn block_byte_size() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 1); // 7 bytes
        a.ret(); // 1 byte
        let blocks = blocks_of(a, &[0x1000]);
        assert_eq!(at(&blocks, 0x1000).byte_size(), 8);
    }
}
