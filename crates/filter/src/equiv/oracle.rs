//! The boundary-grid equivalence checker, kept as a test oracle for the
//! interval walk in [`super::check_equivalent`].
//!
//! A forward dataflow pass proves both programs only branch on the
//! `nr`/`arch` words, which makes their verdicts piecewise constant over
//! `(arch, nr)` with pieces delimited by the compared constants. For
//! every constant `k` the candidate set `{k-1, k, k+1}` (saturating)
//! plus `{0, u32::MAX}` then holds the low corner of every piece, so
//! agreement on the grid is agreement everywhere. The grid also sweeps
//! the full `0..MAX_SYSNO` space and two argument patterns. It shares no
//! code with the walk, which is what makes it a useful second opinion.

use super::EquivError;
use crate::bpf::{execute, op, BpfInsn, SeccompData, AUDIT_ARCH_X86_64};
use std::collections::BTreeSet;

/// Accumulator contents at an instruction, as proven by forward
/// dataflow. `Init` is the pre-load zero; `Mixed` joins disagreeing
/// paths — branching on either would break the piecewise argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Acc {
    /// No path reaches this instruction (yet).
    Unreached,
    /// The initial accumulator (constant zero, nothing loaded).
    Init,
    /// `seccomp_data.nr`.
    Nr,
    /// `seccomp_data.arch`.
    Arch,
    /// Different words on different paths.
    Mixed,
}

fn join(a: Acc, b: Acc) -> Acc {
    match (a, b) {
        (Acc::Unreached, x) | (x, Acc::Unreached) => x,
        (x, y) if x == y => x,
        _ => Acc::Mixed,
    }
}

/// Collects the comparison constants of one program, per accumulator
/// class, while proving the program stays inside the checkable subset.
fn classify(
    insns: &[BpfInsn],
    arch_consts: &mut BTreeSet<u32>,
    nr_consts: &mut BTreeSet<u32>,
) -> Result<(), EquivError> {
    let unsupported = |pc: usize, what: &str| EquivError::Unsupported {
        pc,
        what: what.to_string(),
    };
    let mut state = vec![Acc::Unreached; insns.len()];
    if !insns.is_empty() {
        state[0] = Acc::Init;
    }
    // Classic-BPF jumps are forward-only, so instruction order is a
    // topological order and one pass settles the dataflow.
    for pc in 0..insns.len() {
        let acc = state[pc];
        if acc == Acc::Unreached {
            continue; // dead code cannot affect verdicts
        }
        let insn = insns[pc];
        let flow_to = |target: usize, class: Acc, state: &mut Vec<Acc>| {
            if let Some(slot) = state.get_mut(target) {
                *slot = join(*slot, class);
            }
            // Out-of-range targets surface as Eval errors on the grid.
        };
        match insn.code {
            op::LD_W_ABS => {
                let class = match insn.k {
                    0 => Acc::Nr,
                    4 => Acc::Arch,
                    _ => return Err(unsupported(pc, "load outside nr/arch words")),
                };
                flow_to(pc + 1, class, &mut state);
            }
            op::LD_IMM => return Err(unsupported(pc, "immediate load")),
            op::JMP_JA => flow_to(pc + 1 + insn.k as usize, acc, &mut state),
            op::JMP_JEQ_K | op::JMP_JGT_K | op::JMP_JGE_K => {
                match acc {
                    Acc::Nr => {
                        nr_consts.insert(insn.k);
                    }
                    Acc::Arch => {
                        arch_consts.insert(insn.k);
                    }
                    _ => return Err(unsupported(pc, "branch on unloaded or mixed accumulator")),
                }
                flow_to(pc + 1 + insn.jt as usize, acc, &mut state);
                flow_to(pc + 1 + insn.jf as usize, acc, &mut state);
            }
            op::JMP_JSET_K => return Err(unsupported(pc, "bit-set test")),
            op::RET_K => {}
            op::RET_A => return Err(unsupported(pc, "accumulator return")),
            _ => return Err(unsupported(pc, "unknown opcode")),
        }
    }
    Ok(())
}

/// Boundary candidates for one dimension: the extremes plus `k-1, k,
/// k+1` around every compared constant (saturating at the edges).
fn candidates(consts: &BTreeSet<u32>, extra: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut out: BTreeSet<u32> = [0, u32::MAX].into();
    for &k in consts {
        out.insert(k.saturating_sub(1));
        out.insert(k);
        out.insert(k.saturating_add(1));
    }
    out.extend(extra);
    out.into_iter().collect()
}

/// Checks `left` against `right` by executing both at every grid point,
/// in ascending `(arch, nr)` order. Errors mean what they mean for
/// [`super::check_equivalent`]; a `Mismatch` is the first disagreeing
/// grid point.
pub(super) fn grid_oracle(left: &[BpfInsn], right: &[BpfInsn]) -> Result<(), EquivError> {
    let mut arch_consts = BTreeSet::new();
    let mut nr_consts = BTreeSet::new();
    classify(left, &mut arch_consts, &mut nr_consts)?;
    classify(right, &mut arch_consts, &mut nr_consts)?;

    let arch_grid = candidates(&arch_consts, [AUDIT_ARCH_X86_64]);
    let nr_grid = candidates(&nr_consts, 0..bside_syscalls::MAX_SYSNO);

    // Argument patterns: the checkable subset cannot read ip/args, but
    // probe two extremes anyway so a regression in `classify` cannot
    // silently weaken the oracle.
    let patterns = [
        |d: SeccompData| d,
        |mut d: SeccompData| {
            d.instruction_pointer = u64::MAX;
            d.args = [u64::MAX; 6];
            d
        },
    ];

    for &arch in &arch_grid {
        for &nr in &nr_grid {
            for pattern in &patterns {
                let data = pattern(SeccompData::new(arch, nr));
                let lv = execute(left, &data).map_err(|err| EquivError::Eval { arch, nr, err })?;
                let rv = execute(right, &data).map_err(|err| EquivError::Eval { arch, nr, err })?;
                if lv != rv {
                    return Err(EquivError::Mismatch {
                        arch,
                        nr,
                        left: lv,
                        right: rv,
                    });
                }
            }
        }
    }
    Ok(())
}
