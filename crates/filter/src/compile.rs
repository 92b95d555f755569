//! Optimizing seccomp-BPF policy compiler.
//!
//! The paper's enforcement story (PAPER.md §1, §4.7) puts a classic-BPF
//! filter on *every* system call the enforced process makes — the one
//! hot path each enforcing user pays forever. The naive lowering
//! ([`crate::bpf::BpfProgram::from_policy`]) walks a linear `jeq` chain,
//! so its per-call cost grows with the allow-list; this module is the
//! optimizing backend that brings it down to `O(log n)` comparisons, the
//! same shape `libseccomp` emits for the kernel.
//!
//! The pipeline lowers a [`FilterPolicy`] through an explicit IR:
//!
//! 1. **Interval IR** — the allow-set becomes a sorted list of disjoint
//!    closed [`Interval`]s; contiguous syscall numbers coalesce into one
//!    `jge`/`jgt` pair instead of per-number `jeq`s (redundant-rule
//!    elimination).
//! 2. **Leaf runs** — intervals chunk into short linear runs so the tree
//!    above them stays shallow without paying one comparison per
//!    singleton.
//! 3. **Balanced BST** — a binary search tree of `jge` pivots over the
//!    runs dispatches in `O(log n)`; the value range proven on the path
//!    to each leaf eliminates comparisons the bounds already decide
//!    (dead-branch elimination — a right subtree entered through
//!    `jge pivot` never re-tests its first interval's lower bound).
//! 4. **Assembly** — a label-based mini-assembler with fixpoint branch
//!    relaxation: conditional offsets are 8-bit, so verdict returns are
//!    materialized as periodic `ret` *islands* and rare far branches get
//!    `ja` trampolines (the 255-instruction limit that shapes large
//!    BSTs).
//!
//! Every candidate program must pass the exhaustive [`crate::equiv`]
//! gate against the naive lowering before it leaves the compiler;
//! if equivalence cannot be established, [`compile`] **fails closed**
//! to the naive program and says so in the report. Phase policies
//! ([`PhasePolicy`], §4.7) additionally get phase-aware layering: the
//! allow-set common to all phases compiles once as a shared prefix tree
//! whose miss path chains into the per-phase residual tree, and
//! identical phase allow-sets dedup to a single program.

use crate::bpf::{op, BpfInsn, BpfProgram, AUDIT_ARCH_X86_64, RET_ALLOW, RET_KILL};
use crate::equiv::{self, EquivProof};
use crate::{FilterPolicy, PhasePolicy};
use bside_syscalls::SyscallSet;

/// A closed range `lo..=hi` of allowed syscall numbers — the compiler's
/// IR. Produced sorted and disjoint by [`intervals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lowest allowed number in the range.
    pub lo: u32,
    /// Highest allowed number in the range (inclusive).
    pub hi: u32,
}

/// Coalesces an allow-set into sorted, disjoint, maximal intervals:
/// adjacent numbers merge, so a dense region costs one range test
/// instead of one `jeq` per number.
pub fn intervals(allowed: &SyscallSet) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    for sysno in allowed.iter() {
        let nr = sysno.raw();
        match out.last_mut() {
            Some(iv) if iv.hi + 1 == nr => iv.hi = nr,
            _ => out.push(Interval { lo: nr, hi: nr }),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Label-based assembler with fixpoint branch relaxation.
// ---------------------------------------------------------------------------

/// A forward jump target, resolved at assembly time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label(usize);

/// One symbolic instruction: jumps name [`Label`]s instead of offsets.
#[derive(Debug, Clone, Copy)]
enum Sym {
    Ld {
        k: u32,
    },
    Cond {
        code: u16,
        k: u32,
        jt: Label,
        jf: Label,
    },
    Ja {
        target: Label,
    },
    Ret {
        k: u32,
    },
}

/// The mini-assembler. Emission is strictly forward (classic BPF has no
/// backward jumps), labels bind to the next emitted instruction, and
/// [`Asm::assemble`] relaxes any conditional whose target lies more than
/// 255 slots ahead by spilling it into an adjacent `ja` trampoline
/// (unconditional jumps carry 32-bit offsets).
struct Asm {
    insns: Vec<Sym>,
    /// Per-instruction `(jt_far, jf_far)` relaxation state.
    far: Vec<(bool, bool)>,
    /// Label → symbolic instruction index.
    bound: Vec<Option<usize>>,
    /// Label → reference count (an era's unused island label emits no
    /// dead `ret`).
    refs: Vec<usize>,
}

impl Asm {
    fn new() -> Asm {
        Asm {
            insns: Vec::new(),
            far: Vec::new(),
            bound: Vec::new(),
            refs: Vec::new(),
        }
    }

    fn label(&mut self) -> Label {
        self.bound.push(None);
        self.refs.push(0);
        Label(self.bound.len() - 1)
    }

    fn bind(&mut self, label: Label) {
        debug_assert!(self.bound[label.0].is_none(), "label bound twice");
        self.bound[label.0] = Some(self.insns.len());
    }

    fn referenced(&self, label: Label) -> bool {
        self.refs[label.0] > 0
    }

    fn len(&self) -> usize {
        self.insns.len()
    }

    fn push(&mut self, sym: Sym) {
        self.insns.push(sym);
        self.far.push((false, false));
    }

    fn ld(&mut self, k: u32) {
        self.push(Sym::Ld { k });
    }

    fn ret(&mut self, k: u32) {
        self.push(Sym::Ret { k });
    }

    fn cond(&mut self, code: u16, k: u32, jt: Label, jf: Label) {
        self.refs[jt.0] += 1;
        self.refs[jf.0] += 1;
        self.push(Sym::Cond { code, k, jt, jf });
    }

    fn ja(&mut self, target: Label) {
        self.refs[target.0] += 1;
        self.push(Sym::Ja { target });
    }

    /// Width in concrete instructions of symbolic instruction `i` under
    /// the current relaxation state.
    fn width(&self, i: usize) -> usize {
        1 + usize::from(self.far[i].0) + usize::from(self.far[i].1)
    }

    /// Concrete addresses of every symbolic instruction (plus the end
    /// address) under the current relaxation state.
    fn addresses(&self) -> Vec<usize> {
        let mut addr = Vec::with_capacity(self.insns.len() + 1);
        let mut a = 0usize;
        for i in 0..self.insns.len() {
            addr.push(a);
            a += self.width(i);
        }
        addr.push(a);
        addr
    }

    fn target(&self, addr: &[usize], label: Label) -> usize {
        let idx = self.bound[label.0].expect("referenced label is bound");
        addr[idx]
    }

    /// Resolves labels to offsets, spilling far conditionals into `ja`
    /// trampolines until the layout reaches a fixpoint (far flags only
    /// ever get set, so this terminates). Returns the concrete program
    /// and the number of trampolines inserted.
    fn assemble(self) -> (Vec<BpfInsn>, usize) {
        let mut asm = self;
        loop {
            let addr = asm.addresses();
            let mut changed = false;
            for i in 0..asm.insns.len() {
                let Sym::Cond { jt, jf, .. } = asm.insns[i] else {
                    continue;
                };
                let base = addr[i] + 1;
                for (side, label) in [(0, jt), (1, jf)] {
                    let far = if side == 0 {
                        asm.far[i].0
                    } else {
                        asm.far[i].1
                    };
                    if far {
                        continue;
                    }
                    let t = asm.target(&addr, label);
                    debug_assert!(t >= base - 1, "backward branch emitted");
                    if t.saturating_sub(base) > u8::MAX as usize {
                        if side == 0 {
                            asm.far[i].0 = true;
                        } else {
                            asm.far[i].1 = true;
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let addr = asm.addresses();
        let mut out = Vec::with_capacity(*addr.last().expect("end address"));
        let mut trampolines = 0usize;
        for i in 0..asm.insns.len() {
            debug_assert_eq!(out.len(), addr[i]);
            match asm.insns[i] {
                Sym::Ld { k } => out.push(BpfInsn {
                    code: op::LD_W_ABS,
                    jt: 0,
                    jf: 0,
                    k,
                }),
                Sym::Ja { target } => {
                    let k = (asm.target(&addr, target) - (addr[i] + 1)) as u32;
                    out.push(BpfInsn {
                        code: op::JMP_JA,
                        jt: 0,
                        jf: 0,
                        k,
                    });
                }
                Sym::Ret { k } => out.push(BpfInsn {
                    code: op::RET_K,
                    jt: 0,
                    jf: 0,
                    k,
                }),
                Sym::Cond { code, k, jt, jf } => {
                    let (jt_far, jf_far) = asm.far[i];
                    let a = addr[i];
                    let next = a + 1;
                    // Trampolines sit directly after the conditional: the
                    // taken one first, then the not-taken one.
                    let jt_off = if jt_far {
                        0
                    } else {
                        asm.target(&addr, jt) - next
                    };
                    let jf_off = if jf_far {
                        usize::from(jt_far)
                    } else {
                        asm.target(&addr, jf) - next
                    };
                    debug_assert!(jt_off <= u8::MAX as usize && jf_off <= u8::MAX as usize);
                    out.push(BpfInsn {
                        code,
                        jt: jt_off as u8,
                        jf: jf_off as u8,
                        k,
                    });
                    for (far, label) in [(jt_far, jt), (jf_far, jf)] {
                        if !far {
                            continue;
                        }
                        let slot = out.len();
                        out.push(BpfInsn {
                            code: op::JMP_JA,
                            jt: 0,
                            jf: 0,
                            k: (asm.target(&addr, label) - (slot + 1)) as u32,
                        });
                        trampolines += 1;
                    }
                }
            }
        }
        (out, trampolines)
    }
}

// ---------------------------------------------------------------------------
// BST lowering.
// ---------------------------------------------------------------------------

/// Maximum per-leaf linear cost before the tree splits: a run of up to
/// this many comparisons is cheaper than growing the tree by a level
/// (what keeps sparse allow-lists near `1.25×` intervals instead of
/// `2×`).
const LEAF_COST_MAX: u32 = 6;

/// Symbolic instructions between `ret` islands. Conservative: with at
/// most 3 concrete slots per symbolic instruction, island references
/// stay within the 8-bit branch range and need no trampolines.
const ISLAND_EVERY: usize = 60;

/// Where a leaf's "definitely not allowed here" exits go.
#[derive(Clone, Copy)]
enum DenyExit {
    /// Materialize `ret KILL` islands (a standalone program).
    Kill,
    /// Chain to a fixed label (the layered common tree falls through to
    /// the per-phase residual tree).
    Chain,
}

/// Size/shape measurements of one optimized lowering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Coalesced intervals in the IR.
    pub intervals: usize,
    /// Leaf runs the BST dispatches over.
    pub runs: usize,
    /// Maximum BST depth (comparisons before a leaf run).
    pub depth: usize,
    /// `ja` trampolines inserted by branch relaxation.
    pub trampolines: usize,
    /// `ret` islands materialized inside the body.
    pub islands: usize,
}

struct Emitter<'a> {
    asm: &'a mut Asm,
    allow: Label,
    deny: Label,
    deny_exit: DenyExit,
    last_island: usize,
    islands: usize,
    depth: usize,
}

impl Emitter<'_> {
    fn new(asm: &mut Asm, deny_exit: DenyExit) -> Emitter<'_> {
        let allow = asm.label();
        let deny = asm.label();
        let last_island = asm.len();
        Emitter {
            asm,
            allow,
            deny,
            deny_exit,
            last_island,
            islands: 0,
            depth: 0,
        }
    }

    /// Emits the BST over `runs` (index ranges into `ivals`), knowing
    /// from the path that the loaded number lies in `lo_b..=hi_b`.
    fn tree(
        &mut self,
        ivals: &[Interval],
        runs: &[std::ops::Range<usize>],
        lo_b: u32,
        hi_b: u32,
        depth: usize,
    ) {
        self.depth = self.depth.max(depth);
        if runs.len() == 1 {
            self.run(&ivals[runs[0].clone()], lo_b, hi_b);
            self.maybe_island();
            return;
        }
        let mid = runs.len() / 2;
        let pivot = ivals[runs[mid].start].lo;
        let right = self.asm.label();
        let fall = self.asm.label();
        self.asm.cond(op::JMP_JGE_K, pivot, right, fall);
        self.asm.bind(fall);
        self.tree(ivals, &runs[..mid], lo_b, pivot - 1, depth + 1);
        self.asm.bind(right);
        self.tree(ivals, &runs[mid..], pivot, hi_b, depth + 1);
    }

    /// Emits one leaf run: sequential interval tests, falling through to
    /// the next interval on a miss that might still match later. Sorted
    /// disjoint intervals mean a value below a range's `lo` can match
    /// nothing later, so that exit goes straight to `deny`.
    fn run(&mut self, ivals: &[Interval], lo_b: u32, hi_b: u32) {
        for (i, iv) in ivals.iter().enumerate() {
            let last = i + 1 == ivals.len();
            let need_lo = lo_b < iv.lo;
            let need_hi = hi_b > iv.hi;
            let miss = if last { self.deny } else { self.asm.label() };
            if iv.lo == iv.hi {
                if !need_lo && !need_hi {
                    // Path bounds pin the value to exactly this number.
                    self.jump(self.allow);
                } else {
                    self.asm.cond(op::JMP_JEQ_K, iv.lo, self.allow, miss);
                }
            } else {
                match (need_lo, need_hi) {
                    (false, false) => self.jump(self.allow),
                    (true, false) => self.asm.cond(op::JMP_JGE_K, iv.lo, self.allow, self.deny),
                    (false, true) => self.asm.cond(op::JMP_JGT_K, iv.hi, miss, self.allow),
                    (true, true) => {
                        let inside = self.asm.label();
                        self.asm.cond(op::JMP_JGE_K, iv.lo, inside, self.deny);
                        self.asm.bind(inside);
                        self.asm.cond(op::JMP_JGT_K, iv.hi, miss, self.allow);
                    }
                }
            }
            if !last {
                self.asm.bind(miss);
            }
        }
    }

    /// An unconditional transfer to `label` — `ja` carries a 32-bit
    /// offset, so it never needs relaxation.
    fn jump(&mut self, label: Label) {
        self.asm.ja(label);
    }

    /// Emits pending verdict islands once the current era has grown past
    /// [`ISLAND_EVERY`], keeping island references within 8-bit range.
    fn maybe_island(&mut self) {
        if self.asm.len() - self.last_island < ISLAND_EVERY {
            return;
        }
        self.flush_islands();
        self.last_island = self.asm.len();
    }

    fn flush_islands(&mut self) {
        if self.asm.referenced(self.allow) {
            self.asm.bind(self.allow);
            self.asm.ret(RET_ALLOW);
            self.allow = self.asm.label();
            self.islands += 1;
        }
        if matches!(self.deny_exit, DenyExit::Kill) && self.asm.referenced(self.deny) {
            self.asm.bind(self.deny);
            self.asm.ret(RET_KILL);
            self.deny = self.asm.label();
            self.islands += 1;
        }
    }

    /// Binds the final verdict islands. Returns the still-unbound deny
    /// label in [`DenyExit::Chain`] mode for the caller to continue at.
    fn finish(mut self) -> (Option<Label>, usize, usize) {
        match self.deny_exit {
            DenyExit::Kill => {
                self.flush_islands();
                (None, self.islands, self.depth)
            }
            DenyExit::Chain => {
                if self.asm.referenced(self.allow) {
                    self.asm.bind(self.allow);
                    self.asm.ret(RET_ALLOW);
                    self.islands += 1;
                }
                (Some(self.deny), self.islands, self.depth)
            }
        }
    }
}

/// Splits sorted intervals into leaf runs of bounded linear cost.
fn leaf_runs(ivals: &[Interval]) -> Vec<std::ops::Range<usize>> {
    let cost = |iv: &Interval| if iv.lo == iv.hi { 1u32 } else { 2u32 };
    let mut runs = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u32;
    for (i, iv) in ivals.iter().enumerate() {
        let c = cost(iv);
        if acc + c > LEAF_COST_MAX && i > start {
            runs.push(start..i);
            start = i;
            acc = 0;
        }
        acc += c;
    }
    if start < ivals.len() {
        runs.push(start..ivals.len());
    }
    runs
}

/// Emits the arch-pinning prologue shared by every program shape.
fn prologue(asm: &mut Asm) {
    asm.ld(4);
    let ok = asm.label();
    let bad = asm.label();
    asm.cond(op::JMP_JEQ_K, AUDIT_ARCH_X86_64, ok, bad);
    asm.bind(bad);
    asm.ret(RET_KILL);
    asm.bind(ok);
    asm.ld(0);
}

/// Lowers an allow-set through the interval IR into an optimized BST
/// program, without the equivalence gate — [`compile`] is the checked
/// entry point; this is exposed for tests and diagnostics that need the
/// unchecked candidate.
pub fn optimize(allowed: &SyscallSet) -> (BpfProgram, OptStats) {
    let ivals = intervals(allowed);
    let mut stats = OptStats {
        intervals: ivals.len(),
        ..OptStats::default()
    };
    let mut asm = Asm::new();
    if ivals.is_empty() {
        // Nothing is allowed on any architecture: one instruction.
        asm.ret(RET_KILL);
        let (insns, _) = asm.assemble();
        return (BpfProgram { insns }, stats);
    }
    prologue(&mut asm);
    let runs = leaf_runs(&ivals);
    stats.runs = runs.len();
    let mut em = Emitter::new(&mut asm, DenyExit::Kill);
    em.tree(&ivals, &runs, 0, u32::MAX, 0);
    let (_, islands, depth) = em.finish();
    stats.islands = islands;
    stats.depth = depth;
    let (insns, trampolines) = asm.assemble();
    stats.trampolines = trampolines;
    (BpfProgram { insns }, stats)
}

/// Lowers a phase allow-set as a layered program: the `common` set
/// (allowed in *every* phase) compiles first as a shared-prefix tree
/// whose miss path chains into the BST for this phase's residual
/// numbers. Falls back to the plain shape when layering cannot help.
fn optimize_layered(common: &SyscallSet, full: &SyscallSet) -> (BpfProgram, OptStats) {
    let residual = full.difference(common);
    if common.is_empty() || residual.is_empty() || common.len() == full.len() {
        return optimize(full);
    }
    let common_ivals = intervals(common);
    let residual_ivals = intervals(&residual);
    let mut stats = OptStats {
        intervals: common_ivals.len() + residual_ivals.len(),
        ..OptStats::default()
    };
    let mut asm = Asm::new();
    prologue(&mut asm);

    let common_runs = leaf_runs(&common_ivals);
    let mut em = Emitter::new(&mut asm, DenyExit::Chain);
    em.tree(&common_ivals, &common_runs, 0, u32::MAX, 0);
    let (chain, islands, depth) = em.finish();
    stats.islands += islands;
    stats.depth = depth;
    if let Some(chain) = chain {
        asm.bind(chain);
    }

    let residual_runs = leaf_runs(&residual_ivals);
    stats.runs = common_runs.len() + residual_runs.len();
    let mut em = Emitter::new(&mut asm, DenyExit::Kill);
    em.tree(&residual_ivals, &residual_runs, 0, u32::MAX, 0);
    let (_, islands, depth) = em.finish();
    stats.islands += islands;
    stats.depth = stats.depth.max(depth);
    let (insns, trampolines) = asm.assemble();
    stats.trampolines = trampolines;
    (BpfProgram { insns }, stats)
}

// ---------------------------------------------------------------------------
// Checked compilation.
// ---------------------------------------------------------------------------

/// What [`compile`] produced and how it got there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReport {
    /// Instruction count of the naive linear lowering.
    pub naive_len: usize,
    /// Instruction count of the optimized candidate.
    pub optimized_len: usize,
    /// `true` when the optimized program passed the gate and is the one
    /// in [`CompiledPolicy::program`].
    pub used_optimized: bool,
    /// Why compilation fell back to the naive program, if it did.
    pub fallback: Option<String>,
    /// Shape of the optimized lowering.
    pub stats: OptStats,
    /// The equivalence evidence, when the gate passed.
    pub proof: Option<EquivProof>,
}

/// A gate-checked compilation result. `program` is the optimized
/// lowering when the exhaustive equivalence proof succeeded, otherwise
/// the naive one (fail closed — semantics over speed, always).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPolicy {
    /// The program to install.
    pub program: BpfProgram,
    /// How it was produced.
    pub report: CompileReport,
}

fn gate(naive: BpfProgram, candidate: BpfProgram, stats: OptStats) -> CompiledPolicy {
    let naive_len = naive.insns.len();
    let optimized_len = candidate.insns.len();
    match equiv::check_equivalent(&naive.insns, &candidate.insns) {
        Ok(proof) => CompiledPolicy {
            program: candidate,
            report: CompileReport {
                naive_len,
                optimized_len,
                used_optimized: true,
                fallback: None,
                stats,
                proof: Some(proof),
            },
        },
        Err(err) => CompiledPolicy {
            program: naive,
            report: CompileReport {
                naive_len,
                optimized_len,
                used_optimized: false,
                fallback: Some(err.to_string()),
                stats,
                proof: None,
            },
        },
    }
}

/// Compiles a whole-program policy to optimized cBPF, gated by the
/// exhaustive [`crate::equiv`] check against the naive lowering.
pub fn compile(policy: &FilterPolicy) -> CompiledPolicy {
    let naive = BpfProgram::from_policy(policy);
    let (candidate, stats) = optimize(&policy.allowed);
    gate(naive, candidate, stats)
}

/// A compiled phase policy: one gate-checked program per *distinct*
/// phase allow-set, with phases sharing a set sharing the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPhases {
    /// The distinct programs, each individually gate-checked.
    pub programs: Vec<CompiledPolicy>,
    /// `phase_program[phase]` indexes into [`Self::programs`].
    pub phase_program: Vec<usize>,
    /// The allow-set common to every phase (the shared prefix tree).
    pub common: SyscallSet,
}

impl CompiledPhases {
    /// The program enforcing `phase`.
    pub fn program_for(&self, phase: usize) -> &CompiledPolicy {
        &self.programs[self.phase_program[phase]]
    }

    /// How many phases reuse another phase's program.
    pub fn shared(&self) -> usize {
        self.phase_program.len() - self.programs.len()
    }
}

/// Compiles every phase of a [`PhasePolicy`] with phase-aware layering
/// (common-prefix tree + per-phase residual) and identical-set
/// deduplication. Each distinct program passes the equivalence gate
/// against the naive lowering of its phase's allow-set.
pub fn compile_phases(policy: &PhasePolicy) -> CompiledPhases {
    let common = policy.phases.iter().skip(1).fold(
        policy.phases.first().cloned().unwrap_or_default(),
        |acc, p| acc.intersection(p),
    );
    let mut programs: Vec<CompiledPolicy> = Vec::new();
    let mut seen: std::collections::BTreeMap<Vec<u32>, usize> = std::collections::BTreeMap::new();
    let mut phase_program = Vec::with_capacity(policy.phases.len());
    for set in &policy.phases {
        let key: Vec<u32> = set.iter().map(|s| s.raw()).collect();
        let idx = *seen.entry(key).or_insert_with(|| {
            let naive =
                BpfProgram::from_policy(&FilterPolicy::allow_only(policy.binary.clone(), *set));
            let (candidate, stats) = optimize_layered(&common, set);
            programs.push(gate(naive, candidate, stats));
            programs.len() - 1
        });
        phase_program.push(idx);
    }
    CompiledPhases {
        programs,
        phase_program,
        common,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpf::{execute, SeccompData};
    use bside_syscalls::Sysno;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn set_of(nrs: impl IntoIterator<Item = u32>) -> SyscallSet {
        nrs.into_iter().filter_map(Sysno::new).collect()
    }

    fn random_policy(rng: &mut SmallRng) -> FilterPolicy {
        let density = rng.gen_range(1u32..100);
        let allowed: SyscallSet = bside_syscalls::table::iter()
            .filter(|_| rng.gen_range(0u32..100) < density)
            .map(|(nr, _)| Sysno::new(nr).expect("table nr"))
            .collect();
        FilterPolicy::allow_only("prop", allowed)
    }

    #[test]
    fn intervals_coalesce_adjacent_numbers() {
        let ivals = intervals(&set_of([0, 1, 2, 5, 7, 8]));
        assert_eq!(
            ivals,
            vec![
                Interval { lo: 0, hi: 2 },
                Interval { lo: 5, hi: 5 },
                Interval { lo: 7, hi: 8 },
            ]
        );
        assert!(intervals(&SyscallSet::new()).is_empty());
    }

    #[test]
    fn compiled_program_matches_policy_on_random_policies() {
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0_4211 ^ case);
            let policy = random_policy(&mut rng);
            let compiled = compile(&policy);
            assert!(
                compiled.report.used_optimized,
                "case {case}: gate must pass: {:?}",
                compiled.report.fallback
            );
            for (nr, _) in bside_syscalls::table::iter() {
                let sysno = Sysno::new(nr).expect("table nr");
                let verdict = execute(
                    &compiled.program.insns,
                    &SeccompData::new(AUDIT_ARCH_X86_64, nr),
                )
                .expect("well-formed");
                let expected = if policy.permits(sysno) {
                    RET_ALLOW
                } else {
                    RET_KILL
                };
                assert_eq!(verdict, expected, "case {case}, nr {nr}");
            }
            for _ in 0..64 {
                let nr = rng.gen_range(0u32..=u32::MAX);
                let verdict = execute(
                    &compiled.program.insns,
                    &SeccompData::new(AUDIT_ARCH_X86_64, nr),
                )
                .expect("well-formed");
                let expected = if policy.allowed.iter().any(|s| s.raw() == nr) {
                    RET_ALLOW
                } else {
                    RET_KILL
                };
                assert_eq!(verdict, expected, "case {case}, raw nr {nr}");
            }
            let wrong = execute(&compiled.program.insns, &SeccompData::new(0x1234, 0))
                .expect("well-formed");
            assert_eq!(wrong, RET_KILL, "wrong arch dies");
        }
    }

    #[test]
    fn optimized_is_never_larger_than_naive_on_table_policies() {
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0_4212 ^ case);
            let policy = random_policy(&mut rng);
            let compiled = compile(&policy);
            assert!(
                compiled.report.optimized_len <= compiled.report.naive_len,
                "case {case}: {} > {}",
                compiled.report.optimized_len,
                compiled.report.naive_len
            );
        }
    }

    #[test]
    fn dense_ranges_collapse_to_a_handful_of_instructions() {
        let policy = FilterPolicy::allow_only("dense", set_of(0..=300));
        let compiled = compile(&policy);
        assert!(compiled.report.used_optimized);
        assert_eq!(compiled.report.stats.intervals, 1);
        assert!(
            compiled.program.insns.len() <= 8,
            "one interval needs one range test, got {}",
            compiled.program.insns.len()
        );
        assert!(compiled.report.naive_len > 600);
    }

    #[test]
    fn empty_policy_compiles_to_a_single_kill() {
        let compiled = compile(&FilterPolicy::allow_only("none", SyscallSet::new()));
        assert!(compiled.report.used_optimized);
        assert_eq!(compiled.program.insns.len(), 1);
        assert_eq!(
            execute(
                &compiled.program.insns,
                &SeccompData::new(AUDIT_ARCH_X86_64, 0)
            ),
            Ok(RET_KILL)
        );
    }

    #[test]
    fn sparse_adversarial_sets_stay_logarithmic_and_compact() {
        // No two adjacent numbers: coalescing finds nothing, the BST
        // carries the whole load.
        let allowed = set_of((0..512).step_by(3));
        let policy = FilterPolicy::allow_only("sparse", allowed);
        let compiled = compile(&policy);
        assert!(
            compiled.report.used_optimized,
            "{:?}",
            compiled.report.fallback
        );
        assert_eq!(compiled.report.stats.intervals, 171);
        assert!(
            compiled.report.stats.depth <= 8,
            "depth {} for 171 singleton intervals",
            compiled.report.stats.depth
        );
        assert!(compiled.report.optimized_len < compiled.report.naive_len);
    }

    #[test]
    fn branch_relaxation_spills_far_conditionals_into_ja_trampolines() {
        // The 255-instruction conditional-offset limit, exercised on the
        // assembler directly: a `jeq` whose taken side lies 300 slots
        // ahead must be spilled into a `ja` trampoline (32-bit offset),
        // and the resulting program must still branch correctly.
        let mut asm = Asm::new();
        asm.ld(0);
        let far_allow = asm.label();
        let near_kill = asm.label();
        asm.cond(op::JMP_JEQ_K, 7, far_allow, near_kill);
        asm.bind(near_kill);
        for _ in 0..300 {
            asm.ret(RET_KILL);
        }
        asm.bind(far_allow);
        asm.ret(RET_ALLOW);
        let (insns, trampolines) = asm.assemble();
        assert_eq!(trampolines, 1, "exactly the far side is spilled");
        assert!(insns.iter().any(|i| i.code == op::JMP_JA));
        for insn in insns.iter().filter(|i| i.code != op::JMP_JA) {
            assert!(insn.jt as usize <= u8::MAX as usize);
        }
        let run = |nr: u32| {
            execute(&insns, &SeccompData::new(AUDIT_ARCH_X86_64, nr)).expect("well-formed")
        };
        assert_eq!(run(7), RET_ALLOW, "trampoline reaches the far target");
        assert_eq!(run(8), RET_KILL, "near side unaffected");
    }

    #[test]
    fn full_width_bsts_stay_within_conditional_range_without_trampolines() {
        // The densest adversarial policy a 512-entry syscall space
        // admits (every other number) compiles to a program well past
        // 255 instructions — yet the BST halves every branch span and
        // the ret islands keep verdict jumps local, so relaxation finds
        // nothing to spill. The trampoline path above stays a safety
        // net, not a tax.
        let allowed = set_of((0..512).step_by(2));
        let compiled = compile(&FilterPolicy::allow_only("wide", allowed));
        assert!(
            compiled.report.used_optimized,
            "{:?}",
            compiled.report.fallback
        );
        assert!(compiled.program.insns.len() > u8::MAX as usize);
        assert_eq!(compiled.report.stats.trampolines, 0);
        assert!(compiled.report.stats.islands > 0);
        assert!(compiled.report.optimized_len <= compiled.report.naive_len);
    }

    #[test]
    fn islands_keep_conditional_offsets_in_range() {
        let allowed = set_of((0..512).step_by(3));
        let (program, stats) = optimize(&allowed);
        assert!(stats.islands > 0, "sparse program needs ret islands");
        // Every conditional's encoded offsets are honored by the
        // evaluator; verify by exhaustive agreement with membership.
        for nr in 0..512u32 {
            let verdict = execute(&program.insns, &SeccompData::new(AUDIT_ARCH_X86_64, nr))
                .expect("well-formed");
            let expected = if nr % 3 == 0 { RET_ALLOW } else { RET_KILL };
            assert_eq!(verdict, expected, "nr {nr}");
        }
    }

    #[test]
    fn gate_failure_falls_back_to_naive() {
        let policy = FilterPolicy::allow_only("t", set_of([0, 2, 7]));
        let naive = BpfProgram::from_policy(&policy);
        let (mut candidate, stats) = optimize(&policy.allowed);
        // Sabotage the candidate: flip its first ret verdict.
        for insn in candidate.insns.iter_mut() {
            if insn.code == op::RET_K && insn.k == RET_ALLOW {
                insn.k = RET_KILL;
                break;
            }
        }
        let compiled = gate(naive.clone(), candidate, stats);
        assert!(!compiled.report.used_optimized);
        assert_eq!(compiled.program, naive, "fail closed to the naive program");
        assert!(compiled.report.fallback.is_some());
        assert!(compiled.report.proof.is_none());
    }

    #[test]
    fn phase_compilation_dedups_identical_sets_and_matches_membership() {
        let a = set_of([0, 1, 2, 60]);
        let b = set_of([0, 1, 2, 60, 100, 101]);
        let policy = PhasePolicy {
            binary: "t".into(),
            phases: vec![a, b, a],
            transitions: vec![vec![], vec![], vec![]],
            initial: 0,
        };
        let compiled = compile_phases(&policy);
        assert_eq!(compiled.programs.len(), 2, "identical sets share a program");
        assert_eq!(compiled.shared(), 1);
        assert_eq!(compiled.phase_program, vec![0, 1, 0]);
        assert_eq!(compiled.common, a, "common set is the intersection");
        for (phase, set) in policy.phases.iter().enumerate() {
            let prog = compiled.program_for(phase);
            assert!(prog.report.used_optimized, "{:?}", prog.report.fallback);
            for nr in 0..512u32 {
                let verdict = execute(
                    &prog.program.insns,
                    &SeccompData::new(AUDIT_ARCH_X86_64, nr),
                )
                .expect("well-formed");
                let expected = if set.iter().any(|s| s.raw() == nr) {
                    RET_ALLOW
                } else {
                    RET_KILL
                };
                assert_eq!(verdict, expected, "phase {phase}, nr {nr}");
            }
        }
    }

    #[test]
    fn layered_phase_programs_share_the_common_prefix_shape() {
        // The layered lowering is itself gate-checked; here we only pin
        // that layering kicks in (distinct phases, non-empty common
        // set) and stays correct via compile_phases' own gate.
        let common = set_of([10, 11, 12, 13]);
        let p0 = common.union(&set_of([100, 102, 104]));
        let p1 = common.union(&set_of([200, 203]));
        let policy = PhasePolicy {
            binary: "t".into(),
            phases: vec![p0, p1],
            transitions: vec![vec![], vec![]],
            initial: 0,
        };
        let compiled = compile_phases(&policy);
        assert_eq!(compiled.common, common);
        assert_eq!(compiled.programs.len(), 2);
        for prog in &compiled.programs {
            assert!(prog.report.used_optimized, "{:?}", prog.report.fallback);
        }
    }

    #[test]
    fn every_generated_corpus_policy_passes_the_gate() {
        // The acceptance property: for each corpus profile's ground
        // truth (static and full), the optimized program proves
        // equivalent to the naive lowering over the whole input space.
        for profile in bside_gen::profiles::all_profiles() {
            for truth in [profile.static_truth(), profile.truth()] {
                let policy = FilterPolicy::allow_only(profile.name, truth);
                let compiled = compile(&policy);
                assert!(
                    compiled.report.used_optimized,
                    "{}: {:?}",
                    profile.name, compiled.report.fallback
                );
                assert!(
                    compiled.report.optimized_len <= compiled.report.naive_len,
                    "{}: optimized {} > naive {}",
                    profile.name,
                    compiled.report.optimized_len,
                    compiled.report.naive_len
                );
                assert!(compiled.report.proof.expect("proof").pieces() > 0);
            }
        }
    }
}
