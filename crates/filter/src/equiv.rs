//! Exhaustive semantic-equivalence checking for seccomp-BPF programs.
//!
//! The optimizing backend in [`crate::compile`] must never change policy
//! semantics, so every optimized program is checked against the naive
//! lowering before it is allowed out of the compiler — in the spirit of
//! component-assembly verification, which checks an assembly against its
//! specification instead of sampling it, but specialized to the shape of
//! seccomp filters so the check is both *exhaustive* and cheap enough to
//! run on every compilation.
//!
//! # The walk partitions `u32 × u32` into boxes
//!
//! Both lowerings only ever (a) load `seccomp_data.nr` (byte offset 0) or
//! `seccomp_data.arch` (byte offset 4) into the accumulator and (b)
//! branch on `==`, `>`, `>=` against compile-time constants.
//! [`check_equivalent`] pushes the whole input space `arch ∈ [0, 2³²)`,
//! `nr ∈ [0, 2³²)` through each program once, as *regions*: boxes
//! `arch interval × nr interval`, each tagged with the word its
//! accumulator holds. A load retags a region and `ja` moves it. A
//! conditional jump splits the region's interval in the loaded dimension
//! into the part for which the jump is taken and at most two parts that
//! fall through. `ret k` emits the region as a *piece* with verdict `k`.
//!
//! Splits are exact and disjoint, so the regions that reach one
//! instruction are disjoint, and the pieces a program emits partition
//! `u32 × u32`: every input lies in exactly one piece and gets its
//! verdict. Classic-BPF jumps only go forward, so every region reaches a
//! `ret` after at most one visit per instruction. No sampling argument
//! is needed — the pieces *are* the program's semantics.
//!
//! The two partitions are compared by merging. The arch axis is cut at
//! every piece boundary of either program (a handful of cells, since the
//! prologue pins one architecture); within each cell, both programs'
//! pieces form a sorted partition of `nr`, compared with a two-pointer
//! merge. An [`EquivError::Mismatch`] carries the low corner of the
//! first disagreeing overlap, which is the least `(arch, nr)` in
//! lexicographic order on which the programs disagree.
//!
//! # Failing closed
//!
//! A region that reaches anything outside that subset — `jset`-style bit
//! tests, `ret A`, immediate loads, loads of the instruction pointer or
//! arguments, a branch before any load — is rejected as
//! [`EquivError::Unsupported`], which makes [`crate::compile::compile`]
//! fail closed to the naive program. No instruction a region reaches
//! reads `args` or `instruction_pointer`, so verdicts cannot depend on
//! them. A region that jumps or falls past the last instruction is
//! reported as [`EquivError::Eval`] at its low corner, where
//! [`crate::bpf::execute`] reproduces the error.

use crate::bpf::{op, BpfEvalError, BpfInsn};
use std::fmt;

#[cfg(test)]
mod oracle;

/// Evidence that the equivalence check ran to completion: how many
/// pieces each program's verdicts split `(arch, nr)` into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivProof {
    /// Pieces of the first (reference) program.
    pub left_pieces: usize,
    /// Pieces of the second (candidate) program.
    pub right_pieces: usize,
}

impl EquivProof {
    /// Pieces of both programs together.
    pub fn pieces(&self) -> usize {
        self.left_pieces + self.right_pieces
    }
}

/// Why two programs could not be proven equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivError {
    /// A reachable instruction outside the checkable subset — the walk
    /// cannot split input boxes on it, so the check refuses.
    Unsupported {
        /// Location of the offending instruction.
        pc: usize,
        /// What was found there.
        what: String,
    },
    /// The programs disagree on a concrete input: a genuine semantic
    /// difference, with the counterexample attached.
    Mismatch {
        /// `seccomp_data.arch` of the counterexample.
        arch: u32,
        /// `seccomp_data.nr` of the counterexample.
        nr: u32,
        /// Verdict of the first (reference) program.
        left: u32,
        /// Verdict of the second (candidate) program.
        right: u32,
    },
    /// One program is malformed: inputs run past its last instruction.
    /// The bounds-checked evaluator reports the same error on the
    /// witness.
    Eval {
        /// `seccomp_data.arch` of the witness.
        arch: u32,
        /// `seccomp_data.nr` of the witness.
        nr: u32,
        /// What the evaluator reported.
        err: BpfEvalError,
    },
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Unsupported { pc, what } => {
                write!(f, "instruction {pc} outside the checkable subset: {what}")
            }
            EquivError::Mismatch {
                arch,
                nr,
                left,
                right,
            } => write!(
                f,
                "verdicts diverge at arch={arch:#x} nr={nr}: {left:#x} vs {right:#x}"
            ),
            EquivError::Eval { arch, nr, err } => {
                write!(f, "evaluation failed at arch={arch:#x} nr={nr}: {err}")
            }
        }
    }
}

impl std::error::Error for EquivError {}

/// A closed interval `lo..=hi` of one `seccomp_data` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: u32,
    hi: u32,
}

impl Span {
    const FULL: Span = Span {
        lo: 0,
        hi: u32::MAX,
    };

    fn contains(self, v: u32) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `self ∩ lo..=hi`, if non-empty.
    fn clamp(self, lo: u32, hi: u32) -> Option<Span> {
        let (lo, hi) = (self.lo.max(lo), self.hi.min(hi));
        (lo <= hi).then_some(Span { lo, hi })
    }
}

/// The `seccomp_data` word a region's accumulator holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Word {
    /// The initial accumulator (constant zero, nothing loaded).
    Init,
    /// `seccomp_data.nr`.
    Nr,
    /// `seccomp_data.arch`.
    Arch,
}

/// A box of inputs that all reach `pc` along the same path.
#[derive(Debug, Clone, Copy)]
struct Region {
    pc: usize,
    acc: Word,
    arch: Span,
    nr: Span,
}

impl Region {
    /// The same box narrowed to `span` in the loaded dimension, at `pc`.
    fn narrowed(self, pc: usize, span: Span) -> Region {
        match self.acc {
            Word::Arch => Region {
                pc,
                arch: span,
                ..self
            },
            _ => Region {
                pc,
                nr: span,
                ..self
            },
        }
    }
}

/// A box of `(arch, nr)` inputs and the verdict every one of them gets.
#[derive(Debug, Clone, Copy)]
struct Piece {
    arch: Span,
    nr: Span,
    verdict: u32,
}

/// Splits `span` by a `jeq`/`jgt`/`jge k`: the part for which the jump is
/// taken, and the parts below and above it, which fall through.
fn split(code: u16, k: u32, span: Span) -> [Option<Span>; 3] {
    let (lo, hi) = match code {
        op::JMP_JEQ_K => (k, k),
        op::JMP_JGE_K => (k, u32::MAX),
        // `jgt` is never taken at `u32::MAX`.
        _ => match k.checked_add(1) {
            Some(lo) => (lo, u32::MAX),
            None => return [None, Some(span), None],
        },
    };
    [
        span.clamp(lo, hi),
        lo.checked_sub(1).and_then(|below| span.clamp(0, below)),
        hi.checked_add(1)
            .and_then(|above| span.clamp(above, u32::MAX)),
    ]
}

/// Pushes all of `u32 × u32` through `insns` and returns the pieces its
/// `ret`s emit, which partition the input space.
fn walk(insns: &[BpfInsn]) -> Result<Vec<Piece>, EquivError> {
    let unsupported = |pc: usize, what: &str| EquivError::Unsupported {
        pc,
        what: what.to_string(),
    };
    let mut pieces = Vec::new();
    let mut regions = vec![Region {
        pc: 0,
        acc: Word::Init,
        arch: Span::FULL,
        nr: Span::FULL,
    }];
    // Held back until every other region is walked, so a construct
    // outside the subset outranks a malformed jump.
    let mut overrun = None;
    // Regions never merge, so the order they are drained in does not
    // change the pieces; forward-only jumps bound each region's path.
    while let Some(r) = regions.pop() {
        let Some(insn) = insns.get(r.pc) else {
            overrun.get_or_insert(EquivError::Eval {
                arch: r.arch.lo,
                nr: r.nr.lo,
                err: BpfEvalError::PcOutOfRange { pc: r.pc },
            });
            continue;
        };
        let next = r.pc + 1;
        match insn.code {
            op::LD_W_ABS => {
                let acc = match insn.k {
                    0 => Word::Nr,
                    4 => Word::Arch,
                    _ => return Err(unsupported(r.pc, "load outside nr/arch words")),
                };
                regions.push(Region { pc: next, acc, ..r });
            }
            op::LD_IMM => return Err(unsupported(r.pc, "immediate load")),
            op::JMP_JA => regions.push(Region {
                pc: next + insn.k as usize,
                ..r
            }),
            op::JMP_JEQ_K | op::JMP_JGT_K | op::JMP_JGE_K => {
                let span = match r.acc {
                    Word::Nr => r.nr,
                    Word::Arch => r.arch,
                    Word::Init => return Err(unsupported(r.pc, "branch on unloaded accumulator")),
                };
                let [taken, below, above] = split(insn.code, insn.k, span);
                let (jt, jf) = (next + insn.jt as usize, next + insn.jf as usize);
                regions.extend(taken.map(|s| r.narrowed(jt, s)));
                regions.extend(below.map(|s| r.narrowed(jf, s)));
                regions.extend(above.map(|s| r.narrowed(jf, s)));
            }
            op::JMP_JSET_K => return Err(unsupported(r.pc, "bit-set test")),
            op::RET_K => pieces.push(Piece {
                arch: r.arch,
                nr: r.nr,
                verdict: insn.k,
            }),
            op::RET_A => return Err(unsupported(r.pc, "accumulator return")),
            _ => return Err(unsupported(r.pc, "unknown opcode")),
        }
    }
    overrun.map_or(Ok(pieces), Err)
}

/// The pieces of a partition that cover the arch cell starting at
/// `arch`, in `nr` order when `pieces` is sorted by `nr.lo`.
fn column(pieces: &[Piece], arch: u32) -> impl Iterator<Item = Piece> + '_ {
    pieces
        .iter()
        .filter(move |p| p.arch.contains(arch))
        .copied()
}

/// Compares two partitions of `u32 × u32`, returning the least
/// disagreeing `(arch, nr)` if there is one.
fn compare(left: &mut [Piece], right: &mut [Piece]) -> Result<(), EquivError> {
    left.sort_unstable_by_key(|p| p.nr.lo);
    right.sort_unstable_by_key(|p| p.nr.lo);
    // Every arch boundary of either partition starts a cell over which
    // both programs are constant in `arch`.
    let mut cells: Vec<u32> = left.iter().chain(right.iter()).map(|p| p.arch.lo).collect();
    cells.sort_unstable();
    cells.dedup();
    for arch in cells {
        let (mut ls, mut rs) = (column(left, arch), column(right, arch));
        let (mut l, mut r) = (ls.next(), rs.next());
        while let (Some(lp), Some(rp)) = (l, r) {
            if lp.verdict != rp.verdict {
                return Err(EquivError::Mismatch {
                    arch,
                    nr: lp.nr.lo.max(rp.nr.lo),
                    left: lp.verdict,
                    right: rp.verdict,
                });
            }
            let end = lp.nr.hi.min(rp.nr.hi);
            if lp.nr.hi == end {
                l = ls.next();
            }
            if rp.nr.hi == end {
                r = rs.next();
            }
        }
        debug_assert!(l.is_none() && r.is_none(), "columns partition nr");
    }
    Ok(())
}

/// Proves two seccomp-BPF programs return identical verdicts on **every**
/// `(arch, nr, args)` input, or returns why that could not be
/// established.
///
/// See the module docs for the walk. `left` is the reference (naive)
/// program, `right` the candidate; a [`EquivError::Mismatch`] carries the
/// counterexample with verdicts in that order.
///
/// # Errors
///
/// [`EquivError::Unsupported`] when either program leaves the checkable
/// subset, [`EquivError::Mismatch`] on a real semantic difference,
/// [`EquivError::Eval`] when either program is malformed.
pub fn check_equivalent(left: &[BpfInsn], right: &[BpfInsn]) -> Result<EquivProof, EquivError> {
    let (mut left, mut right) = match (walk(left), walk(right)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e @ EquivError::Unsupported { .. }), _)
        | (_, Err(e @ EquivError::Unsupported { .. })) => return Err(e),
        (Err(e), _) | (_, Err(e)) => return Err(e),
    };
    compare(&mut left, &mut right)?;
    Ok(EquivProof {
        left_pieces: left.len(),
        right_pieces: right.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpf::{execute, BpfProgram, SeccompData, AUDIT_ARCH_X86_64, RET_ALLOW, RET_KILL};
    use crate::FilterPolicy;
    use bside_syscalls::SyscallSet;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_policy(rng: &mut SmallRng) -> FilterPolicy {
        let density = rng.gen_range(1u32..100);
        let allowed: SyscallSet = bside_syscalls::table::iter()
            .filter(|_| rng.gen_range(0u32..100) < density)
            .map(|(nr, _)| bside_syscalls::Sysno::new(nr).expect("table nr"))
            .collect();
        FilterPolicy::allow_only("prop", allowed)
    }

    #[test]
    fn a_program_is_equivalent_to_itself() {
        let prog = BpfProgram::from_policy(&FilterPolicy::allow_only("t", SyscallSet::all_known()));
        let proof = check_equivalent(&prog.insns, &prog.insns).expect("reflexive");
        assert_eq!(proof.left_pieces, proof.right_pieces);
        // One piece per allowed number, plus the kill pieces around them.
        assert!(proof.left_pieces > SyscallSet::all_known().len());
    }

    #[test]
    fn naive_lowerings_of_the_same_policy_agree() {
        for case in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(0xE9_0001 ^ case);
            let policy = random_policy(&mut rng);
            let a = BpfProgram::from_policy(&policy);
            let b = BpfProgram::from_policy(&policy);
            check_equivalent(&a.insns, &b.insns).expect("identical lowering");
        }
    }

    #[test]
    fn seeded_verdict_mutations_are_caught() {
        // Flip each allow/kill return of a small program in turn; the
        // grid must produce a counterexample for every single one.
        let allowed: SyscallSet = ["read", "write", "openat", "close", "mmap"]
            .iter()
            .filter_map(|n| bside_syscalls::Sysno::from_name(n))
            .collect();
        let reference = BpfProgram::from_policy(&FilterPolicy::allow_only("t", allowed));
        let mut flipped = 0;
        for pc in 0..reference.insns.len() {
            let mut mutant = reference.insns.clone();
            if mutant[pc].code != op::RET_K {
                continue;
            }
            mutant[pc].k = if mutant[pc].k == RET_ALLOW {
                RET_KILL
            } else {
                RET_ALLOW
            };
            match check_equivalent(&reference.insns, &mutant) {
                Err(EquivError::Mismatch { left, right, .. }) => {
                    assert_ne!(left, right);
                    flipped += 1;
                }
                other => panic!("mutation at {pc} not caught: {other:?}"),
            }
        }
        assert!(flipped >= 7, "every ret was mutated and caught: {flipped}");
    }

    #[test]
    fn seeded_constant_mutations_are_caught() {
        let allowed: SyscallSet = bside_syscalls::table::iter()
            .take(40)
            .map(|(nr, _)| bside_syscalls::Sysno::new(nr).expect("table nr"))
            .collect();
        let reference = BpfProgram::from_policy(&FilterPolicy::allow_only("t", allowed));
        let mut rng = SmallRng::seed_from_u64(0xE9_0002);
        let mut caught = 0;
        for _ in 0..24 {
            let pc = rng.gen_range(0..reference.insns.len());
            let mut mutant = reference.insns.clone();
            if mutant[pc].code != op::JMP_JEQ_K || mutant[pc].k == AUDIT_ARCH_X86_64 {
                continue;
            }
            // Move a matched number out of the allow-list.
            mutant[pc].k += 5000;
            assert!(
                matches!(
                    check_equivalent(&reference.insns, &mutant),
                    Err(EquivError::Mismatch { .. })
                ),
                "constant mutation at {pc} must be caught"
            );
            caught += 1;
        }
        assert!(caught > 0, "at least one jeq constant was mutated");
    }

    #[test]
    fn constructs_outside_the_subset_fail_closed() {
        let ret = BpfInsn {
            code: op::RET_K,
            jt: 0,
            jf: 0,
            k: RET_KILL,
        };
        let ld_nr = BpfInsn {
            code: op::LD_W_ABS,
            jt: 0,
            jf: 0,
            k: 0,
        };
        let cases: Vec<(Vec<BpfInsn>, &str)> = vec![
            (
                vec![
                    ld_nr,
                    BpfInsn {
                        code: op::JMP_JSET_K,
                        jt: 0,
                        jf: 0,
                        k: 1,
                    },
                    ret,
                ],
                "bit-set",
            ),
            (
                vec![
                    ld_nr,
                    BpfInsn {
                        code: op::RET_A,
                        jt: 0,
                        jf: 0,
                        k: 0,
                    },
                ],
                "ret A",
            ),
            (
                vec![
                    BpfInsn {
                        code: op::LD_IMM,
                        jt: 0,
                        jf: 0,
                        k: 7,
                    },
                    ret,
                ],
                "ld imm",
            ),
            (
                vec![
                    BpfInsn {
                        code: op::LD_W_ABS,
                        jt: 0,
                        jf: 0,
                        k: 16,
                    },
                    ret,
                ],
                "args load",
            ),
            (
                vec![
                    BpfInsn {
                        code: op::JMP_JEQ_K,
                        jt: 0,
                        jf: 0,
                        k: 1,
                    },
                    ret,
                ],
                "branch before load",
            ),
        ];
        for (prog, what) in cases {
            assert!(
                matches!(
                    check_equivalent(&prog, &prog),
                    Err(EquivError::Unsupported { .. })
                ),
                "{what} must be unsupported"
            );
        }
    }

    #[test]
    fn dead_code_does_not_trip_the_subset_check() {
        // An unreachable jset after the final ret is never executed and
        // must not block the proof.
        let mut insns = BpfProgram::from_policy(&FilterPolicy::allow_only(
            "t",
            [bside_syscalls::well_known::READ].into_iter().collect(),
        ))
        .insns;
        insns.push(BpfInsn {
            code: op::JMP_JSET_K,
            jt: 0,
            jf: 0,
            k: 1,
        });
        check_equivalent(&insns, &insns).expect("dead code ignored");
    }

    #[test]
    fn malformed_candidates_surface_as_eval_errors() {
        let reference = BpfProgram::from_policy(&FilterPolicy::allow_only(
            "t",
            [bside_syscalls::well_known::READ].into_iter().collect(),
        ));
        let mut truncated = reference.insns.clone();
        truncated.pop();
        assert!(matches!(
            check_equivalent(&reference.insns, &truncated),
            Err(EquivError::Eval { .. })
        ));
    }

    fn set_of(nrs: impl IntoIterator<Item = u32>) -> SyscallSet {
        nrs.into_iter()
            .filter_map(bside_syscalls::Sysno::new)
            .collect()
    }

    #[test]
    fn naive_lowerings_have_hand_counted_pieces() {
        // The two arch pieces either side of AUDIT_ARCH_X86_64 go straight
        // to kill; on x86-64, each allowed number is a piece, and so is
        // each gap the jeq chain passes down to the final kill.
        for (allowed, pieces) in [
            (SyscallSet::new(), 2 + 1),
            (set_of([0, 1, 2]), 2 + 3 + 1),
            (set_of(0..bside_syscalls::MAX_SYSNO), 2 + 512 + 1),
        ] {
            let naive = BpfProgram::from_policy(&FilterPolicy::allow_only("t", allowed));
            let proof = check_equivalent(&naive.insns, &naive.insns).expect("reflexive");
            assert_eq!(
                (proof.left_pieces, proof.right_pieces),
                (pieces, pieces),
                "{} allowed",
                allowed.len()
            );
        }
    }

    #[test]
    fn walk_edge_cases_fail_like_the_grid() {
        let insn = |code, k| BpfInsn {
            code,
            jt: 0,
            jf: 0,
            k,
        };
        let kill = vec![insn(op::RET_K, RET_KILL)];
        let cases: Vec<(Vec<BpfInsn>, &str)> = vec![
            (vec![], "empty program"),
            (
                vec![insn(op::JMP_JA, 5), insn(op::RET_K, RET_KILL)],
                "ja past the end",
            ),
            (
                vec![insn(op::LD_W_ABS, 0)],
                "falls off the last instruction",
            ),
            (
                vec![
                    insn(op::LD_W_ABS, 0),
                    BpfInsn {
                        code: op::JMP_JEQ_K,
                        jt: 0,
                        jf: 1,
                        k: 7,
                    },
                    insn(op::RET_K, RET_ALLOW),
                ],
                "only the fall-through side runs off",
            ),
            (
                vec![insn(op::JMP_JGE_K, 1), insn(op::RET_K, RET_KILL)],
                "branch before load",
            ),
        ];
        for (prog, what) in cases {
            for (left, right) in [(&kill, &prog), (&prog, &kill), (&prog, &prog)] {
                let walked = check_equivalent(left, right).expect_err(what);
                let grid = oracle::grid_oracle(left, right).expect_err(what);
                assert_eq!(
                    std::mem::discriminant(&walked),
                    std::mem::discriminant(&grid),
                    "{what}: walk {walked:?} vs grid {grid:?}"
                );
                if let EquivError::Eval { arch, nr, err } = walked {
                    assert_eq!(
                        execute(&prog, &SeccompData::new(arch, nr)),
                        Err(err),
                        "{what}: witness reproduces the error"
                    );
                }
            }
        }
    }

    /// A clustered random allow-set small enough for the grid oracle.
    fn clustered_set(rng: &mut SmallRng) -> SyscallSet {
        let mut set = SyscallSet::new();
        for _ in 0..rng.gen_range(0..12) {
            let start = rng.gen_range(0..bside_syscalls::MAX_SYSNO);
            set = set.union(&set_of(start..start + rng.gen_range(1u32..5)));
        }
        set
    }

    /// Every mutant the suite derives from `prog`: each conditional with
    /// its branches swapped and its constant moved by ±1, each allow/kill
    /// `ret` swapped, and each run of consecutive conditionals (a leaf
    /// run) replaced by `fallthrough`, the reference's final `ret`.
    fn mutants(prog: &[BpfInsn], fallthrough: BpfInsn) -> Vec<Vec<BpfInsn>> {
        let is_cond = |i: &BpfInsn| matches!(i.code, op::JMP_JEQ_K | op::JMP_JGT_K | op::JMP_JGE_K);
        let mut out = Vec::new();
        let mut edit = |pc: usize, f: &dyn Fn(&mut BpfInsn)| {
            let mut m = prog.to_vec();
            f(&mut m[pc]);
            out.push(m);
        };
        for (pc, insn) in prog.iter().enumerate() {
            if is_cond(insn) {
                edit(pc, &|i| std::mem::swap(&mut i.jt, &mut i.jf));
                edit(pc, &|i| i.k = i.k.wrapping_add(1));
                edit(pc, &|i| i.k = i.k.wrapping_sub(1));
            } else if insn.code == op::RET_K && [RET_ALLOW, RET_KILL].contains(&insn.k) {
                edit(pc, &|i| {
                    i.k = if i.k == RET_ALLOW {
                        RET_KILL
                    } else {
                        RET_ALLOW
                    }
                });
            }
        }
        let mut pc = 0;
        while pc < prog.len() {
            let len = prog[pc..].iter().take_while(|i| is_cond(i)).count();
            if len > 0 {
                let mut m = prog.to_vec();
                m[pc..pc + len].fill(fallthrough);
                out.push(m);
            }
            pc += len.max(1);
        }
        out
    }

    /// Checks every mutant of `candidate` against `reference` with both
    /// the walk and the grid oracle; returns `(mutants, rejected)`.
    fn differential(reference: &[BpfInsn], candidate: &[BpfInsn]) -> (usize, usize) {
        check_equivalent(reference, candidate).expect("unmutated candidate passes");
        let fallthrough = *reference.last().expect("non-empty reference");
        let all = mutants(candidate, fallthrough);
        let mut rejected = 0;
        for mutant in &all {
            let walked = check_equivalent(reference, mutant);
            let grid = oracle::grid_oracle(reference, mutant);
            assert_eq!(
                walked.is_ok(),
                grid.is_ok(),
                "walk {walked:?} vs grid {grid:?}"
            );
            let Err(err) = walked else { continue };
            let EquivError::Mismatch {
                arch,
                nr,
                left,
                right,
            } = err
            else {
                panic!("a mutant rejected as {err:?}, not as a mismatch");
            };
            let data = SeccompData::new(arch, nr);
            assert_eq!(execute(reference, &data), Ok(left));
            assert_eq!(execute(mutant, &data), Ok(right));
            assert_ne!(left, right);
            // Both report the least disagreeing (arch, nr).
            assert_eq!(Err(err), grid);
            rejected += 1;
        }
        (all.len(), rejected)
    }

    #[test]
    fn walk_and_grid_oracle_agree_on_every_mutant() {
        let (mut total, mut rejected) = (0, 0);
        for case in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(0xE9_0003 ^ case);
            let policy = FilterPolicy::allow_only("flat", clustered_set(&mut rng));
            let compiled = crate::compile::compile(&policy);
            assert!(compiled.report.used_optimized, "case {case}");
            let naive = BpfProgram::from_policy(&policy);
            let (n, r) = differential(&naive.insns, &compiled.program.insns);
            total += n;
            rejected += r;
        }
        for case in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(0xE9_0004 ^ case);
            let common = clustered_set(&mut rng);
            let phases: Vec<SyscallSet> = (0..rng.gen_range(1..=4))
                .map(|_| common.union(&clustered_set(&mut rng)))
                .collect();
            let policy = crate::PhasePolicy {
                binary: "phased".into(),
                transitions: vec![vec![]; phases.len()],
                phases,
                initial: 0,
            };
            let compiled = crate::compile::compile_phases(&policy);
            for (idx, program) in compiled.programs.iter().enumerate() {
                let phase = compiled
                    .phase_program
                    .iter()
                    .position(|&p| p == idx)
                    .expect("every program serves a phase");
                let naive = BpfProgram::from_policy(&FilterPolicy::allow_only(
                    "phased",
                    policy.phases[phase],
                ));
                assert!(program.report.used_optimized, "case {case}");
                let (n, r) = differential(&naive.insns, &program.program.insns);
                total += n;
                rejected += r;
            }
        }
        assert!(total >= 1000, "only {total} mutants");
        assert!(
            rejected * 2 > total,
            "{rejected} of {total} mutants rejected"
        );
    }
}
