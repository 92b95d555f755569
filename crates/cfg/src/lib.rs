//! Control-flow-graph recovery (§4.3 of the B-Side paper).
//!
//! Disassembly alone yields an *incomplete* CFG: indirect calls and jumps
//! (function pointers) have no statically obvious targets. B-Side
//! conservatively over-approximates them with the *address taken*
//! heuristic inherited from SysFilter — every indirect branch may go to
//! any code address that is the operand of an address-forming instruction
//! (`lea reg, [rip+disp]`) — and refines it into *active addresses taken*:
//! only `lea`s in blocks **reachable from the entry point** count, computed
//! to a fixpoint because resolving indirect branches can make new `lea`s
//! reachable (Fig. 4).
//!
//! The crate exposes:
//!
//! * [`Cfg`] — basic blocks, intra-/inter-procedural edges with
//!   [`EdgeKind`]s, function table, PLT-stub classification;
//! * [`CfgOptions`] / [`IndirectResolution`] — plain vs. active
//!   address-taken (the ablation of the paper's refinement);
//! * [`CfgStats`] — deterministic cost counters (blocks, fixpoint
//!   iterations) used by the Table 3 harness.
//!
//! # Construction
//!
//! [`Cfg::build`] works on dense indices: one decode memo indexed by
//! `.text` offset serves every disassembly pass; fixpoint rounds find
//! reachable blocks by walking block terminators; successor, predecessor
//! and PLT-stub tables are built once, after the fixpoint. The stages are
//! `bside-obs` spans: `cfg.disassemble`, `cfg.fixpoint`, `cfg.edges`.
//!
//! The graph stores each fact once, by block id. Blocks have dense
//! [`BlockId`]s in address order. The block store is the last
//! disassembly pass's single instruction array plus each block's start
//! and first instruction; a [`BasicBlock`] borrows its instructions from
//! it. Successors and predecessors are flat lists of `(id, kind)` pairs
//! ([`Cfg::succ_ids`], [`Cfg::pred_ids`]), reachability is a flag per id
//! ([`Cfg::reached`]), and the PLT table gives each id's GOT slot, if the
//! block is a stub ([`Cfg::plt_slot`]). Analyses read the graph by id;
//! the address-keyed views ([`Cfg::succs`], [`Cfg::preds`],
//! [`Cfg::reachable`], [`Cfg::plt_stubs`]) are computed from the id store
//! on each call, for tests and reports. Built once per graph as well: the
//! function table, sorted by entry and as a step function over addresses,
//! which answers [`Cfg::function_of`] by binary search and gives each
//! callee's range for return edges; and the reachable `syscall` sites.
//!
//! # Examples
//!
//! ```
//! use bside_x86::{Assembler, Reg};
//! use bside_cfg::{Cfg, CfgOptions, FunctionSym};
//!
//! // entry: mov rax, 60; syscall (fallthrough into a second block via jmp)
//! let mut asm = Assembler::new(0x1000);
//! let done = asm.new_label();
//! asm.mov_reg_imm32(Reg::Rax, 60);
//! asm.jmp_label(done);
//! asm.bind(done).unwrap();
//! asm.syscall();
//! asm.ret();
//! let code = asm.finish().unwrap();
//!
//! let funcs = vec![FunctionSym { name: "_start".into(), entry: 0x1000, size: code.len() as u64 }];
//! let cfg = Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default());
//! assert_eq!(cfg.syscall_sites().len(), 1);
//! assert!(cfg.reachable().contains(&cfg.block_containing(cfg.syscall_sites()[0]).unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ataken;
mod blocks;
mod edges;
mod functions;

pub use blocks::BasicBlock;

use blocks::Layout;
use functions::Functions;

use bside_obs as obs;
use bside_x86::{Op, Target};
use std::collections::{BTreeMap, BTreeSet};

/// How indirect branch targets are over-approximated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndirectResolution {
    /// Leave indirect branches unresolved (misses code — the naive
    /// baseline shape; kept for ablations).
    None,
    /// SysFilter-style: every `lea`-taken code address anywhere in the
    /// binary is a potential target.
    AddressTaken,
    /// B-Side's refinement: only addresses taken in blocks reachable from
    /// the entry points, iterated to a fixpoint (§4.3, Fig. 4).
    #[default]
    ActiveAddressTaken,
}

serde::impl_serde_unit_enum!(IndirectResolution {
    None,
    AddressTaken,
    ActiveAddressTaken,
});

/// CFG construction options.
#[derive(Debug, Clone, Default)]
pub struct CfgOptions {
    /// Indirect-branch resolution strategy.
    pub indirect: IndirectResolution,
}

serde::impl_serde_struct!(CfgOptions { indirect });

/// A function symbol: the boundary metadata the paper assumes the
/// disassembler recovers (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSym {
    /// Symbol name.
    pub name: String,
    /// Entry address.
    pub entry: u64,
    /// Size in bytes (0 = unknown).
    pub size: u64,
}

/// The kind of a CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Taken direct branch (`jmp`/`jcc`).
    Branch,
    /// Sequential fall-through (including the not-taken side of `jcc` and
    /// the post-`call` continuation).
    FallThrough,
    /// Call edge into a function entry.
    Call,
    /// Return edge from a `ret` block back to a post-call block.
    Return,
    /// Edge added by the address-taken over-approximation of an indirect
    /// branch.
    Indirect,
}

/// Deterministic cost counters for Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfgStats {
    /// Number of basic blocks discovered.
    pub blocks: usize,
    /// Number of instructions decoded.
    pub instructions: usize,
    /// Fixpoint iterations of the active-address-taken refinement.
    pub ataken_iterations: usize,
    /// Number of (active) addresses taken used to resolve indirect
    /// branches.
    pub addresses_taken: usize,
}

serde::impl_serde_struct!(CfgStats {
    blocks,
    instructions,
    ataken_iterations,
    addresses_taken,
});

/// The dense id of a basic block: blocks are numbered from 0 in address
/// order, so comparing ids compares start addresses. The methods that
/// take an id panic if it is not below [`Cfg::block_count`].
pub type BlockId = u32;

/// A recovered control-flow graph.
///
/// The `Default` impl builds an **empty** graph (no blocks, no edges, no
/// functions). It exists for results that cross a serialization boundary:
/// the analysis wire format carries every observable *except* the CFG, so
/// a deserialized `bside-core` analysis holds an empty graph. Consumers
/// that need the live graph (phase detection) must analyze in-process.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// The block store: one instruction array cut into blocks; block `i`
    /// of the layout is the block with id `i`.
    layout: Layout,
    succs: edges::EdgeLists,
    preds: edges::EdgeLists,
    functions: Functions,
    entries: Vec<u64>,
    /// Per block id: is the block reachable from the entries.
    reached: Vec<bool>,
    addresses_taken: BTreeSet<u64>,
    /// Per block id: the GOT slot a PLT stub (`jmp [rip+disp]`) jumps
    /// through, or `None` if the block is no stub. Symbol resolution
    /// happens in `bside-core` where relocations are available.
    plt: Vec<Option<u64>>,
    /// Reachable `syscall` sites, ascending.
    sites: Vec<u64>,
    stats: CfgStats,
}

impl Cfg {
    /// Builds a CFG from raw text bytes.
    ///
    /// * `code`/`base` — the `.text` contents and load address;
    /// * `entries` — disassembly roots and reachability sources: the
    ///   program entry point, or a shared library's exposed functions;
    /// * `functions` — function boundary symbols;
    /// * `options` — indirect-branch resolution strategy.
    pub fn build(
        code: &[u8],
        base: u64,
        entries: &[u64],
        functions: &[FunctionSym],
        options: &CfgOptions,
    ) -> Cfg {
        builder::build(code, base, entries, functions, options)
    }

    /// All basic blocks, in address order (the `i`-th has id `i`).
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BasicBlock<'_>> + '_ {
        (0..self.layout.len()).map(|i| self.layout.block(i))
    }

    /// The blocks starting at or after `addr`, in address order.
    pub fn blocks_from(&self, addr: u64) -> impl Iterator<Item = BasicBlock<'_>> + '_ {
        let first = self.layout.starting_in(0, addr).end;
        (first..self.layout.len()).map(|i| self.layout.block(i))
    }

    /// Number of blocks; ids run from 0 up to it.
    pub fn block_count(&self) -> usize {
        self.layout.len()
    }

    /// The block starting exactly at `addr`.
    pub fn block(&self, addr: u64) -> Option<BasicBlock<'_>> {
        self.layout.index_of(addr).map(|i| self.layout.block(i))
    }

    /// The block with id `id`.
    pub fn block_at(&self, id: BlockId) -> BasicBlock<'_> {
        self.layout.block(id as usize)
    }

    /// The id of the block starting exactly at `addr`.
    pub fn block_id(&self, addr: u64) -> Option<BlockId> {
        self.layout.index_of(addr).map(|i| i as BlockId)
    }

    /// The id of the block containing `addr`.
    pub fn block_id_containing(&self, addr: u64) -> Option<BlockId> {
        self.layout.containing(addr).map(|i| i as BlockId)
    }

    /// The start address of the block containing `addr`, if any.
    pub fn block_containing(&self, addr: u64) -> Option<u64> {
        self.layout.containing(addr).map(|i| self.layout.start(i))
    }

    /// Successor edges of the block starting at `addr`, by address: a
    /// view of [`Cfg::succ_ids`] computed on each call, for tests and
    /// reports.
    pub fn succs(&self, addr: u64) -> Vec<(u64, EdgeKind)> {
        self.block_id(addr)
            .map_or_else(Vec::new, |id| self.by_address(self.succ_ids(id)))
    }

    /// Predecessor edges of the block starting at `addr`, by address: a
    /// view of [`Cfg::pred_ids`] computed on each call, for tests and
    /// reports.
    pub fn preds(&self, addr: u64) -> Vec<(u64, EdgeKind)> {
        self.block_id(addr)
            .map_or_else(Vec::new, |id| self.by_address(self.pred_ids(id)))
    }

    fn by_address(&self, edges: &[(BlockId, EdgeKind)]) -> Vec<(u64, EdgeKind)> {
        let start = |id: BlockId| self.layout.start(id as usize);
        edges.iter().map(|&(to, kind)| (start(to), kind)).collect()
    }

    /// Successor edges of block `id`, sorted by `(id, kind)`; ids follow
    /// addresses, so this is also address order.
    pub fn succ_ids(&self, id: BlockId) -> &[(BlockId, EdgeKind)] {
        self.succs.of(id as usize)
    }

    /// Predecessor edges of block `id`, sorted by `(id, kind)`.
    pub fn pred_ids(&self, id: BlockId) -> &[(BlockId, EdgeKind)] {
        self.preds.of(id as usize)
    }

    /// The function symbols supplied at construction.
    pub fn functions(&self) -> &[FunctionSym] {
        self.functions.syms()
    }

    /// The function containing `addr`, resolved by symbol ranges (with a
    /// fallback to the nearest preceding entry when sizes are absent):
    /// the containing symbol with the greatest entry, the first listed
    /// among those sharing it. A binary search of a table built once.
    pub fn function_of(&self, addr: u64) -> Option<&FunctionSym> {
        self.functions.of(addr)
    }

    /// The disassembly/reachability roots.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Start addresses of the blocks reachable from the entries,
    /// ascending: a view of [`Cfg::reached`] computed on each call, for
    /// tests and reports.
    pub fn reachable(&self) -> Vec<u64> {
        let reached = (0..self.block_count()).filter(|&i| self.reached[i]);
        reached.map(|i| self.layout.start(i)).collect()
    }

    /// Per block id: `true` if the block is reachable from the entries.
    pub fn reached(&self) -> &[bool] {
        &self.reached
    }

    /// The (active) address-taken set used to resolve indirect branches.
    pub fn addresses_taken(&self) -> &BTreeSet<u64> {
        &self.addresses_taken
    }

    /// Addresses of every *reachable* `syscall` instruction, ascending
    /// (§4.4 step F: only occurrences reachable from the entry point are
    /// considered).
    pub fn syscall_sites(&self) -> &[u64] {
        &self.sites
    }

    /// All `syscall` sites, reachable or not (used by baselines that skip
    /// the reachability filter).
    pub fn all_syscall_sites(&self) -> Vec<u64> {
        syscall_addrs(&self.layout.insns).collect()
    }

    /// Block starts of PLT stubs, with the GOT slot each jumps through: a
    /// view of [`Cfg::plt_slot`] computed on each call, for tests and
    /// reports.
    pub fn plt_stubs(&self) -> BTreeMap<u64, u64> {
        let stubs = (0..self.block_count()).map(|i| (self.layout.start(i), self.plt[i]));
        stubs
            .filter_map(|(start, slot)| Some((start, slot?)))
            .collect()
    }

    /// The GOT slot block `id` jumps through if it is a PLT stub.
    pub fn plt_slot(&self, id: BlockId) -> Option<u64> {
        self.plt[id as usize]
    }

    /// `true` if block `id` is a PLT stub.
    pub fn is_plt_stub(&self, id: BlockId) -> bool {
        self.plt_slot(id).is_some()
    }

    /// Cost counters.
    pub fn stats(&self) -> CfgStats {
        self.stats
    }

    /// Functions reachable from the entries (by entry address).
    pub fn reachable_functions(&self) -> Vec<&FunctionSym> {
        self.functions()
            .iter()
            .filter(|f| {
                self.block_id_containing(f.entry)
                    .is_some_and(|id| self.reached[id as usize])
            })
            .collect()
    }
}

/// The addresses of the `syscall` instructions among `insns`.
fn syscall_addrs(insns: &[bside_x86::Instruction]) -> impl Iterator<Item = u64> + '_ {
    insns
        .iter()
        .filter(|i| matches!(i.op, Op::Syscall))
        .map(|i| i.addr)
}

mod builder {
    use super::*;
    use crate::{ataken, blocks::Disassembler, edges};

    pub(super) fn build(
        code: &[u8],
        base: u64,
        entries: &[u64],
        functions: &[FunctionSym],
        options: &CfgOptions,
    ) -> Cfg {
        let end = base + code.len() as u64;
        // Roots: explicit entries plus all function symbols, so the whole
        // binary is disassembled (as angr/Capstone do); reachability below
        // distinguishes live code.
        let roots: Vec<u64> = entries
            .iter()
            .chain(functions.iter().map(|f| &f.entry))
            .copied()
            .collect();
        let disassemble_span = obs::span("cfg.disassemble");
        let mut disassembler = Disassembler::new(code, base);
        let mut layout = disassembler.pass(roots.iter().copied());
        disassemble_span.finish();

        let fixpoint_span = obs::span("cfg.fixpoint");
        let mut iterations = 0usize;
        // Sorted and deduplicated.
        let mut indirect_targets: Vec<u64> = Vec::new();
        // The reachable flag per block of the final layout, if the
        // fixpoint has computed it.
        let mut reached: Option<Vec<bool>> = None;
        match options.indirect {
            IndirectResolution::None => {}
            IndirectResolution::AddressTaken => {
                indirect_targets = ataken::scan(&layout.insns, base, end);
                // Addresses taken may point at not-yet-disassembled code.
                layout = disassembler.pass(roots.iter().chain(&indirect_targets).copied());
                iterations = 1;
            }
            IndirectResolution::ActiveAddressTaken => {
                // Fixpoint: reachable blocks → active addresses taken →
                // new indirect edges → possibly more reachable blocks.
                loop {
                    iterations += 1;
                    let reachable = edges::reachable_from(entries, &layout, &indirect_targets);
                    let live = (0..layout.len()).filter(|&i| reachable[i]);
                    let active = ataken::scan(live.flat_map(|i| layout.insns_of(i)), base, end);
                    if active == indirect_targets {
                        reached = Some(reachable);
                        break;
                    }
                    indirect_targets = active;
                    layout = disassembler.pass(roots.iter().chain(&indirect_targets).copied());
                    if iterations > 64 {
                        break; // defensive bound; fixpoint is monotone
                    }
                }
            }
        }
        fixpoint_span.finish();

        let edges_span = obs::span("cfg.edges");
        let functions = Functions::new(functions);
        let (succs, preds, plt) = edges::build(&layout, &functions, &indirect_targets);
        let reached =
            reached.unwrap_or_else(|| edges::reachable_from(entries, &layout, &indirect_targets));
        // Blocks are disjoint and visited in address order, so the sites
        // come out ascending.
        let sites = (0..layout.len())
            .filter(|&i| reached[i])
            .flat_map(|i| syscall_addrs(layout.insns_of(i)))
            .collect();
        let stats = CfgStats {
            blocks: layout.len(),
            instructions: layout.insns.len(),
            ataken_iterations: iterations,
            addresses_taken: indirect_targets.len(),
        };
        edges_span.finish();

        Cfg {
            layout,
            succs,
            preds,
            functions,
            entries: entries.to_vec(),
            reached,
            addresses_taken: indirect_targets.into_iter().collect(),
            plt,
            sites,
            stats,
        }
    }
}

/// Returns the GOT slot address if a block's instructions are a PLT
/// stub (`jmp [rip+disp]` as its only real instruction).
pub(crate) fn plt_stub_got_slot(insns: &[bside_x86::Instruction]) -> Option<u64> {
    let insn = insns
        .iter()
        .find(|i| !matches!(i.op, Op::Endbr64 | Op::Nop))?;
    match insn.op {
        Op::Jmp(Target::Mem(mem)) if mem.rip_relative => mem.rip_target(insn.addr, insn.len),
        _ => None,
    }
}

/// Extracts the RIP-relative `lea` target of an instruction, if any.
pub(crate) fn lea_target(insn: &bside_x86::Instruction) -> Option<u64> {
    match insn.op {
        Op::Lea { addr, .. } if addr.rip_relative => addr.rip_target(insn.addr, insn.len),
        // `movabs reg, imm64` of a code address is the non-PIC equivalent.
        Op::MovImm64 { imm, .. } => Some(imm),
        Op::Mov {
            src: bside_x86::Operand::Imm(imm),
            ..
        } if imm > 0 => Some(imm as u64),
        _ => None,
    }
}
