//! System call wrapper detection (§4.4 of the paper).
//!
//! A *wrapper* is a function that encapsulates a `syscall` instruction and
//! receives the system call number as a parameter — `syscall(2)` in libc,
//! `Syscall`/`Syscall6` in Go, `syscall()` in musl, raw wrappers in Rust
//! runtimes. Identifying wrapper sites matters twice over: a backward
//! search from inside the wrapper both explodes (the wrapper is called
//! from everywhere) and over-estimates (every number ever passed to the
//! wrapper is reported, Fig. 2 B).
//!
//! B-Side's heuristic asks: *is the system call number necessarily
//! determined between the start of the containing function and the
//! `syscall` site?* If yes, the function is not a wrapper; if the number
//! still depends on a function input at the site, it is. Two phases keep
//! the cost down:
//!
//! 1. a fast backward use-define scan that may yield false positives;
//! 2. only when phase 1 is positive, intra-procedural symbolic execution
//!    confirms the verdict and recovers *which* parameter (register or
//!    stack slot) carries the number.

use bside_cfg::Cfg;
use bside_symex::{exec_within_function, Limits, Query, QueryLoc, SymValue};
use bside_x86::{Op, Operand, Reg};

/// Where a wrapper receives its system call number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperParam {
    /// In a register (e.g. `%rdi` for C `syscall(long number, ...)`).
    Reg(Reg),
    /// In a stack slot at `[rsp + offset]` on entry (Go ABI0 style).
    StackSlot(i64),
    /// The heuristic confirmed a wrapper but could not name the parameter;
    /// identification falls back conservatively.
    Unknown,
}

/// A detected wrapper function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperInfo {
    /// Entry address of the wrapper function.
    pub entry: u64,
    /// Function name (from symbols).
    pub name: String,
    /// The `syscall` sites inside the wrapper.
    pub sites: Vec<u64>,
    /// Where the system call number comes from.
    pub param: WrapperParam,
}

/// Phase 1: fast backward use-define scan from `site` to the start of the
/// containing function (§4.4: "a simple use-define chain analysis that is
/// fast but may yield false positives").
///
/// Returns `true` when `%rax` **may** be undetermined at the site (i.e.
/// the function may be a wrapper): memory loads, arithmetic over unknowns,
/// or no definition before the function start.
pub fn phase1_may_be_wrapper(cfg: &Cfg, func_entry: u64, site: u64) -> bool {
    // Instructions of the function, in address order, up to the site.
    let Some(func) = cfg.function_of(site) else {
        return true;
    };
    if func.entry != func_entry {
        return true;
    }
    // Blocks come in address order, so the instructions do too.
    let insns: Vec<&bside_x86::Instruction> = cfg
        .blocks_from(func_entry)
        .take_while(|b| {
            cfg.function_of(b.start)
                .is_some_and(|f| f.entry == func_entry)
        })
        .flat_map(|b| b.insns.iter())
        .filter(|i| i.addr < site)
        .collect();

    // Walk backwards resolving the register chain starting at %rax.
    let mut tracked = Reg::Rax;
    for insn in insns.iter().rev() {
        match insn.op {
            Op::Mov {
                dst: Operand::Reg(d),
                src,
            } if d == tracked => match src {
                Operand::Imm(_) => return false, // determined
                Operand::Reg(s) => tracked = s,  // follow the chain
                Operand::Mem(_) => return true,  // memory: undetermined
            },
            Op::MovImm64 { dst, .. } if dst == tracked => return false,
            Op::Xor {
                dst: Operand::Reg(d),
                src: Operand::Reg(s),
            } if d == tracked && s == d => {
                return false; // xor r,r = 0: determined
            }
            Op::Pop(d) if d == tracked => return true, // via stack: undetermined
            // Any other write to the tracked register: undetermined.
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
            } if d == tracked => {
                return true;
            }
            // A call clobbers caller-saved registers, rax included.
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
                return true;
            }
            _ => {}
        }
    }
    // No definition found before the function start: the value flows in
    // from a parameter — wrapper-positive.
    true
}

/// Phase 2: symbolic confirmation. Runs intra-procedural symbolic
/// execution from the function entry to the site; the function is a
/// wrapper iff `%rax` can still be symbolic at the site, in which case the
/// named origin (initial register / initial stack slot) identifies the
/// parameter.
pub fn phase2_confirm(
    cfg: &Cfg,
    func_entry: u64,
    site: u64,
    limits: &Limits,
) -> Option<WrapperParam> {
    let query = Query {
        target: site,
        what: QueryLoc::Reg(Reg::Rax),
    };
    let result = exec_within_function(cfg, func_entry, &query, limits);
    if !result.reached {
        // The site is not reachable intra-procedurally; treat as
        // wrapper-unknown so identification stays conservative.
        return Some(WrapperParam::Unknown);
    }
    let mut param: Option<WrapperParam> = None;
    for outcome in &result.outcomes {
        match outcome {
            SymValue::Concrete(_) => {}
            SymValue::InitialReg(r) => {
                param = Some(merge_param(param, WrapperParam::Reg(*r)));
            }
            SymValue::InitialStack(off) => {
                param = Some(merge_param(param, WrapperParam::StackSlot(*off)));
            }
            _ => param = Some(WrapperParam::Unknown),
        }
    }
    if result.budget_exhausted && param.is_none() {
        return Some(WrapperParam::Unknown);
    }
    param
}

fn merge_param(current: Option<WrapperParam>, new: WrapperParam) -> WrapperParam {
    match current {
        None => new,
        Some(p) if p == new => p,
        Some(_) => WrapperParam::Unknown, // conflicting origins
    }
}

/// Runs the two-phase heuristic over every reachable `syscall` site and
/// groups the positives by containing function.
pub fn detect_wrappers(cfg: &Cfg, limits: &Limits) -> Vec<WrapperInfo> {
    let mut wrappers: Vec<WrapperInfo> = Vec::new();
    for &site in cfg.syscall_sites() {
        let Some(func) = cfg.function_of(site) else {
            continue;
        };
        // Phase 1 gate: only run symbolic confirmation on positives.
        if !phase1_may_be_wrapper(cfg, func.entry, site) {
            continue;
        }
        let Some(param) = phase2_confirm(cfg, func.entry, site, limits) else {
            continue; // phase 2 refuted: all paths concrete
        };
        if let Some(w) = wrappers.iter_mut().find(|w| w.entry == func.entry) {
            w.sites.push(site);
            if w.param != param {
                w.param = WrapperParam::Unknown;
            }
        } else {
            wrappers.push(WrapperInfo {
                entry: func.entry,
                name: func.name.clone(),
                sites: vec![site],
                param,
            });
        }
    }
    wrappers
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_cfg::{CfgOptions, FunctionSym};
    use bside_x86::{Assembler, Mem};

    fn cfg_for(code: Vec<u8>, funcs: Vec<FunctionSym>, entries: &[u64]) -> Cfg {
        Cfg::build(&code, 0x1000, entries, &funcs, &CfgOptions::default())
    }

    #[test]
    fn glibc_style_wrapper_is_detected_with_rdi_param() {
        // wrapper: mov rax, rdi; syscall; ret  (C syscall(number, ...)).
        let mut a = Assembler::new(0x1000);
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "syscall".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        assert!(phase1_may_be_wrapper(&cfg, 0x1000, site));
        let wrappers = detect_wrappers(&cfg, &Limits::default());
        assert_eq!(wrappers.len(), 1);
        assert_eq!(wrappers[0].name, "syscall");
        assert_eq!(wrappers[0].param, WrapperParam::Reg(Reg::Rdi));
    }

    #[test]
    fn go_style_stack_wrapper_is_detected() {
        // wrapper: mov rax, [rsp+8]; syscall; ret (stack-passed number).
        let mut a = Assembler::new(0x1000);
        a.mov_reg_mem(Reg::Rax, Mem::base_disp(Reg::Rsp, 8));
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "runtime.Syscall".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        assert!(phase1_may_be_wrapper(&cfg, 0x1000, site));
        let wrappers = detect_wrappers(&cfg, &Limits::default());
        assert_eq!(wrappers.len(), 1);
        assert_eq!(wrappers[0].param, WrapperParam::StackSlot(8));
    }

    #[test]
    fn direct_immediate_is_not_a_wrapper() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 1);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "do_write".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        // Phase 1 already refutes: no symbolic execution needed.
        assert!(!phase1_may_be_wrapper(&cfg, 0x1000, site));
        assert!(detect_wrappers(&cfg, &Limits::default()).is_empty());
    }

    #[test]
    fn phase1_false_positive_is_refuted_by_phase2() {
        // The number takes a round trip through the stack *within* the
        // function: phase 1 sees a memory load (positive), phase 2 proves
        // the value concrete (refuted).
        let mut a = Assembler::new(0x1000);
        a.sub_reg_imm32(Reg::Rsp, 0x10);
        a.mov_mem_imm32(Mem::base_disp(Reg::Rsp, 0), 2);
        a.mov_reg_mem(Reg::Rax, Mem::base_disp(Reg::Rsp, 0));
        let site = a.cursor();
        a.syscall();
        a.add_reg_imm32(Reg::Rsp, 0x10);
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        assert!(
            phase1_may_be_wrapper(&cfg, 0x1000, site),
            "phase 1 is conservatively positive"
        );
        assert!(
            detect_wrappers(&cfg, &Limits::default()).is_empty(),
            "phase 2 refutes the false positive"
        );
    }

    #[test]
    fn register_chain_is_followed_by_phase1() {
        // mov rbx, 5; mov rax, rbx — determined through a chain.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rbx, 5);
        a.mov_reg_reg(Reg::Rax, Reg::Rbx);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        assert!(!phase1_may_be_wrapper(&cfg, 0x1000, site));
    }

    #[test]
    fn xor_zeroing_is_determined() {
        let mut a = Assembler::new(0x1000);
        a.xor_reg_reg(Reg::Rax, Reg::Rax);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        assert!(!phase1_may_be_wrapper(&cfg, 0x1000, site));
    }

    #[test]
    fn two_sites_in_one_wrapper_are_grouped() {
        // wrapper with a branch: both sides syscall on the rdi parameter.
        let mut a = Assembler::new(0x1000);
        let alt = a.new_label();
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        a.cmp_reg_imm32(Reg::Rsi, 0);
        a.jcc_label(bside_x86::Cond::Ne, alt);
        a.syscall();
        a.ret();
        a.bind(alt).unwrap();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "w".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let cfg = cfg_for(code, funcs, &[0x1000]);
        let wrappers = detect_wrappers(&cfg, &Limits::default());
        assert_eq!(wrappers.len(), 1);
        assert_eq!(wrappers[0].sites.len(), 2);
        assert_eq!(wrappers[0].param, WrapperParam::Reg(Reg::Rdi));
    }
}
