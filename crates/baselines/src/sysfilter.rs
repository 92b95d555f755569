//! The SysFilter-style identifier.
//!
//! SysFilter (RAID '20) recovers a conservative CFG with the plain
//! address-taken heuristic and determines `%rax` at each `syscall` with
//! **intra-procedural** use-define chains. Consequences the B-Side paper
//! documents (§3, §5.2):
//!
//! * values that cross a function boundary (system call wrappers) or
//!   travel through memory are missed — false negatives;
//! * no reachability pruning: every site in every linked object counts —
//!   false positives from dead code and unused library exports;
//! * non-PIC static executables are rejected outright (230/231 failures
//!   in Table 2).

use crate::BaselineError;
use bside_cfg::{BlockId, Cfg, CfgOptions, FunctionSym, IndirectResolution};
use bside_elf::Elf;
use bside_syscalls::{SyscallSet, Sysno};
use bside_x86::{Op, Operand, Reg};
use std::collections::HashSet;

/// Analyzes one object (executable or library) plus its already-loaded
/// dependencies, returning the identified system call set.
///
/// # Errors
///
/// Returns [`BaselineError::Unsupported`] for non-PIC executables
/// (`ET_EXEC`), mirroring SysFilter's restriction.
pub fn analyze(elf: &Elf, libs: &[&Elf]) -> Result<SyscallSet, BaselineError> {
    if !elf.is_pic() {
        return Err(BaselineError::Unsupported(
            "SysFilter requires position-independent binaries",
        ));
    }
    let mut set = analyze_object(elf)?;
    for lib in libs {
        set.extend_from(&analyze_object(lib)?);
    }
    Ok(set)
}

fn functions_of(elf: &Elf) -> Vec<FunctionSym> {
    elf.function_symbols()
        .into_iter()
        .map(|s| FunctionSym {
            name: s.name.clone(),
            entry: s.value,
            size: s.size,
        })
        .collect()
}

fn analyze_object(elf: &Elf) -> Result<SyscallSet, BaselineError> {
    let (text, vaddr) = elf
        .text()
        .ok_or(BaselineError::AnalysisFailed("no .text section"))?;
    let functions = functions_of(elf);
    let entries: Vec<u64> = functions.iter().map(|f| f.entry).collect();
    let options = CfgOptions {
        indirect: IndirectResolution::AddressTaken,
    };
    let cfg = Cfg::build(text, vaddr, &entries, &functions, &options);

    let mut set = SyscallSet::new();
    // No reachability filter: every site in the object is considered.
    for site in cfg.all_syscall_sites() {
        for value in use_define_rax(&cfg, site) {
            if let Some(sysno) = u32::try_from(value).ok().and_then(Sysno::new) {
                set.insert(sysno);
            }
        }
        // Unresolved sites are silently dropped — SysFilter's documented
        // false-negative source.
    }
    Ok(set)
}

/// Intra-procedural reaching-definitions for `%rax` at `site`: walks the
/// CFG backwards inside the containing function, collecting immediate
/// definitions; any path that meets a memory load, arithmetic, a call
/// clobber or the function boundary contributes nothing (use-define
/// chains cannot see through those).
fn use_define_rax(cfg: &Cfg, site: u64) -> Vec<u64> {
    let Some(func) = cfg.function_of(site) else {
        return Vec::new();
    };
    let Some(site_block) = cfg.block_id_containing(site) else {
        return Vec::new();
    };

    let mut values = Vec::new();
    // Work items: (block id, tracked register, scan-before address or
    // None for whole block).
    let mut work: Vec<(BlockId, Reg, Option<u64>)> = vec![(site_block, Reg::Rax, Some(site))];
    let mut visited: HashSet<(BlockId, Reg)> = HashSet::new();

    while let Some((id, tracked, before)) = work.pop() {
        let block = cfg.block_at(id);
        // Scan this block's instructions backwards from `before`.
        let mut resolved_here = false;
        for insn in block.insns.iter().rev() {
            if before.is_some_and(|b| insn.addr >= b) {
                continue;
            }
            match insn.op {
                Op::Mov {
                    dst: Operand::Reg(d),
                    src,
                } if d == tracked => {
                    match src {
                        Operand::Imm(v) => values.push(v as u64),
                        Operand::Reg(s) => {
                            // Follow the chain from this point backwards.
                            work.push((id, s, Some(insn.addr)));
                        }
                        Operand::Mem(_) => {} // memory: cannot track
                    }
                    resolved_here = true;
                    break;
                }
                Op::MovImm64 { dst, imm } if dst == tracked => {
                    values.push(imm);
                    resolved_here = true;
                    break;
                }
                Op::Xor {
                    dst: Operand::Reg(d),
                    src: Operand::Reg(s),
                } if d == tracked && s == d => {
                    values.push(0);
                    resolved_here = true;
                    break;
                }
                // Any other write to the tracked register kills the chain.
                Op::Add {
                    dst: Operand::Reg(d),
                    ..
                }
                | Op::Sub {
                    dst: Operand::Reg(d),
                    ..
                }
                | Op::Xor {
                    dst: Operand::Reg(d),
                    ..
                }
                | Op::And {
                    dst: Operand::Reg(d),
                    ..
                }
                | Op::Or {
                    dst: Operand::Reg(d),
                    ..
                }
                | Op::Pop(d)
                    if d == tracked =>
                {
                    resolved_here = true;
                    break;
                }
                Op::Call(_)
                    if matches!(
                        tracked,
                        Reg::Rax
                            | Reg::Rcx
                            | Reg::Rdx
                            | Reg::Rsi
                            | Reg::Rdi
                            | Reg::R8
                            | Reg::R9
                            | Reg::R10
                            | Reg::R11
                    ) =>
                {
                    // Caller-saved: the call kills the chain.
                    resolved_here = true;
                    break;
                }
                Op::Syscall if tracked == Reg::Rax => {
                    // rax holds a kernel result past this point.
                    resolved_here = true;
                    break;
                }
                _ => {}
            }
        }
        if resolved_here {
            continue;
        }
        // No definition in this block: continue into intra-procedural
        // predecessors (stop at the function boundary).
        if !visited.insert((id, tracked)) {
            continue;
        }
        for &(pred, _) in cfg.pred_ids(id) {
            let pred_func = cfg.function_of(cfg.block_at(pred).start);
            let same_func = pred_func.is_some_and(|f| f.entry == func.entry);
            if same_func {
                work.push((pred, tracked, None));
            }
            // Crossing into a caller would be inter-procedural: SysFilter
            // does not do it (the wrapper false-negative source).
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_elf::ElfKind;
    use bside_gen::{generate, ProgramSpec, Scenario, WrapperStyle};
    use bside_syscalls::well_known as wk;

    fn spec(kind: ElfKind, style: WrapperStyle, scenarios: Vec<Scenario>) -> ProgramSpec {
        ProgramSpec {
            name: "t".into(),
            kind,
            wrapper_style: style,
            scenarios,
            dead_scenarios: vec![],
            imports: vec![],
            libs: vec![],
            serve_loop: None,
        }
    }

    #[test]
    fn rejects_non_pic_static() {
        let prog = generate(&spec(
            ElfKind::Executable,
            WrapperStyle::None,
            vec![Scenario::Direct(vec![1])],
        ));
        assert!(matches!(
            analyze(&prog.elf, &[]),
            Err(BaselineError::Unsupported(_))
        ));
    }

    #[test]
    fn resolves_direct_and_branching_immediates() {
        let prog = generate(&spec(
            ElfKind::PieExecutable,
            WrapperStyle::None,
            vec![Scenario::Direct(vec![1]), Scenario::BranchJoin(0, 2)],
        ));
        let set = analyze(&prog.elf, &[]).expect("PIE accepted");
        assert!(set.contains(wk::WRITE));
        assert!(set.contains(wk::READ));
        assert!(set.contains(wk::OPEN));
        assert!(set.contains(wk::EXIT));
    }

    #[test]
    fn misses_memory_flows_fig1c() {
        let prog = generate(&spec(
            ElfKind::PieExecutable,
            WrapperStyle::None,
            vec![Scenario::ThroughStack(39)],
        ));
        let set = analyze(&prog.elf, &[]).expect("accepted");
        let getpid = bside_syscalls::Sysno::from_name("getpid").unwrap();
        assert!(
            !set.contains(getpid),
            "use-define chains cannot see through memory"
        );
    }

    #[test]
    fn misses_wrapper_flows_fig2b() {
        let prog = generate(&spec(
            ElfKind::PieExecutable,
            WrapperStyle::Register,
            vec![Scenario::ViaWrapper(vec![0, 2])],
        ));
        let set = analyze(&prog.elf, &[]).expect("accepted");
        assert!(
            !set.contains(wk::READ),
            "wrapper values are inter-procedural: FN"
        );
        assert!(!set.contains(wk::OPEN));
    }

    #[test]
    fn computed_numbers_are_missed() {
        // Arithmetic kills the use-define chain: FN on computed numbers,
        // which B-Side's constant folding handles.
        let prog = generate(&spec(
            ElfKind::PieExecutable,
            WrapperStyle::None,
            vec![Scenario::ComputedAdd(1, 2)],
        ));
        let set = analyze(&prog.elf, &[]).expect("accepted");
        assert!(
            !set.contains(wk::CLOSE),
            "1+2=3 (close) must be missed: {set}"
        );
    }

    #[test]
    fn counts_dead_code_as_false_positives() {
        let prog = generate(&ProgramSpec {
            dead_scenarios: vec![Scenario::Direct(vec![59])],
            ..spec(
                ElfKind::PieExecutable,
                WrapperStyle::None,
                vec![Scenario::Direct(vec![1])],
            )
        });
        let set = analyze(&prog.elf, &[]).expect("accepted");
        assert!(
            set.contains(wk::EXECVE),
            "no reachability pruning: dead execve counted"
        );
    }
}
