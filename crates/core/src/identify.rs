//! Per-site system call type identification (step H of Fig. 3).

use crate::par;
use crate::wrapper::{WrapperInfo, WrapperParam};
use crate::{AnalysisError, AnalyzerOptions};
use bside_cfg::Cfg;
use bside_symex::{find_values_scratch, Query, QueryLoc, SearchScratch};
use bside_syscalls::{SyscallSet, Sysno};
use bside_x86::Reg;

/// How the set for one site was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteOutcome {
    /// Every backward path ended at an immediate-defining node: the set is
    /// exact for the modeled semantics.
    Exact,
    /// The site is inside a wrapper; the set was computed at the wrapper's
    /// call sites against its number-carrying parameter.
    ViaWrapper,
    /// The search could not bound the value; the site was assigned every
    /// known system call to preserve the no-false-negative guarantee.
    ConservativeFallback,
}

/// The identification result for a single `syscall` site.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Address of the `syscall` instruction.
    pub site: u64,
    /// Name of the containing function, when known.
    pub function: Option<String>,
    /// The system calls that may be invoked at this site.
    pub syscalls: SyscallSet,
    /// How the set was obtained.
    pub outcome: SiteOutcome,
}

pub(crate) struct IdentifyOutcome {
    pub sites: Vec<SiteReport>,
    pub blocks_explored: usize,
}

fn to_syscall_set(values: impl IntoIterator<Item = u64>) -> SyscallSet {
    values
        .into_iter()
        .filter_map(|v| u32::try_from(v).ok().and_then(Sysno::new))
        .collect()
}

/// Identifies what one wrapper can invoke, restricted (when `universe` is
/// given) to call sites inside a block universe, a flag per block id —
/// the per-export attribution used by the shared-library analysis (§4.5).
///
/// Returns `(set, complete)`; an incomplete search under the conservative
/// policy yields every known system call (no-FN preservation).
pub(crate) fn identify_wrapper(
    cfg: &Cfg,
    wrapper: &WrapperInfo,
    options: &AnalyzerOptions,
    universe: Option<&[bool]>,
    scratch: &mut SearchScratch,
) -> Result<(SyscallSet, bool), AnalysisError> {
    let query = match wrapper.param {
        WrapperParam::Reg(r) => Query {
            target: wrapper.entry,
            what: QueryLoc::Reg(r),
        },
        WrapperParam::StackSlot(off) => Query {
            target: wrapper.entry,
            what: QueryLoc::StackSlot(off),
        },
        WrapperParam::Unknown => {
            return Ok(if options.conservative_fallback {
                (SyscallSet::all_known(), false)
            } else {
                (SyscallSet::new(), false)
            });
        }
    };
    let result = find_values_scratch(cfg, &query, &options.limits, universe, scratch);
    if result.budget_exhausted {
        return Err(AnalysisError::Timeout {
            step: "wrapper identification",
        });
    }
    if result.complete {
        Ok((to_syscall_set(result.values), true))
    } else if options.conservative_fallback {
        let mut set = SyscallSet::all_known();
        set.extend_from(&to_syscall_set(result.values));
        Ok((set, false))
    } else {
        Ok((to_syscall_set(result.values), false))
    }
}

/// Identifies the possible system call types for every reachable site.
///
/// Non-wrapper sites are queried directly (`%rax` at the `syscall`
/// instruction). Sites inside a detected wrapper are instead identified at
/// the wrapper boundary: the search is directed at the wrapper's first
/// instruction and queries the parameter that carries the number (§4.4),
/// avoiding both the state explosion and the over-estimation of Fig. 2 B.
pub(crate) fn identify_sites(
    cfg: &Cfg,
    wrappers: &[WrapperInfo],
    options: &AnalyzerOptions,
) -> Result<IdentifyOutcome, AnalysisError> {
    // §4.4: only occurrences reachable from the entry point are
    // considered — and the *searches* stay within reachable blocks too,
    // so values passed at dead call sites (e.g. an unlinked wrapper
    // caller) do not leak into a reachable site's set.
    let universe = cfg.reached();

    // A wrapper's identification is the same at every one of its sites
    // (same query at the wrapper entry, same universe): run each wrapper
    // search once up front instead of once per contained site.
    let wrapper_sets: Vec<(SyscallSet, bool)> = {
        let mut scratch = SearchScratch::new();
        wrappers
            .iter()
            .map(|w| identify_wrapper(cfg, w, options, Some(universe), &mut scratch))
            .collect::<Result<_, _>>()?
    };

    // Each site's search is a pure function of (cfg, wrappers, options,
    // universe): fan the sites out across workers, in ascending address
    // order so reports and error selection are deterministic. Once any
    // site exhausts a budget, remaining sites are cancelled.
    let results = par::run_indexed_ctx_fallible(
        options.parallelism,
        cfg.syscall_sites(),
        SearchScratch::new,
        |scratch, _, &site| {
            identify_one_site(
                cfg,
                wrappers,
                &wrapper_sets,
                options,
                universe,
                site,
                scratch,
            )
        },
    )?;

    let mut sites = Vec::with_capacity(results.len());
    let mut blocks_explored = 0usize;
    for (report, blocks) in results {
        blocks_explored += blocks;
        sites.push(report);
    }
    Ok(IdentifyOutcome {
        sites,
        blocks_explored,
    })
}

/// Identifies one `syscall` site; the per-worker unit of the parallel
/// fan-out. Returns the report plus the blocks this site's search
/// explored (summed into the Table 3 cost counter).
fn identify_one_site(
    cfg: &Cfg,
    wrappers: &[WrapperInfo],
    wrapper_sets: &[(SyscallSet, bool)],
    options: &AnalyzerOptions,
    universe: &[bool],
    site: u64,
    scratch: &mut SearchScratch,
) -> Result<(SiteReport, usize), AnalysisError> {
    let function = cfg.function_of(site);
    let wrapper = wrappers.iter().position(|w| w.sites.contains(&site));
    let mut blocks_explored = 0usize;

    let (syscalls, outcome) = match wrapper {
        Some(w) => {
            let (set, complete) = wrapper_sets[w];
            if complete {
                (set, SiteOutcome::ViaWrapper)
            } else {
                (set, SiteOutcome::ConservativeFallback)
            }
        }
        None => {
            let q = Query {
                target: site,
                what: QueryLoc::Reg(Reg::Rax),
            };
            let result = find_values_scratch(cfg, &q, &options.limits, Some(universe), scratch);
            blocks_explored += result.blocks_explored;
            if result.budget_exhausted {
                return Err(AnalysisError::Timeout {
                    step: "syscall identification",
                });
            }
            if result.complete {
                (to_syscall_set(result.values), SiteOutcome::Exact)
            } else if options.conservative_fallback {
                let mut set = SyscallSet::all_known();
                set.extend_from(&to_syscall_set(result.values));
                (set, SiteOutcome::ConservativeFallback)
            } else {
                (
                    to_syscall_set(result.values),
                    SiteOutcome::ConservativeFallback,
                )
            }
        }
    };

    let report = SiteReport {
        site,
        function: function.map(|f| f.name.clone()),
        syscalls,
        outcome,
    };
    Ok((report, blocks_explored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::detect_wrappers;
    use bside_cfg::{CfgOptions, FunctionSym};
    use bside_x86::{Assembler, Mem};

    fn analyze(code: Vec<u8>, funcs: Vec<FunctionSym>, entry: u64) -> IdentifyOutcome {
        let cfg = Cfg::build(&code, 0x1000, &[entry], &funcs, &CfgOptions::default());
        let options = AnalyzerOptions::default();
        let wrappers = detect_wrappers(&cfg, &options.limits);
        identify_sites(&cfg, &wrappers, &options).expect("no timeout")
    }

    fn names(set: &SyscallSet) -> Vec<String> {
        set.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn direct_site_is_exact() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 1);
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let out = analyze(code, funcs, 0x1000);
        assert_eq!(out.sites.len(), 1);
        assert_eq!(out.sites[0].outcome, SiteOutcome::Exact);
        assert_eq!(names(&out.sites[0].syscalls), vec!["write"]);
    }

    #[test]
    fn wrapper_site_reports_caller_values_only() {
        // Two callers pass 0 (read) and 39 (getpid) to a register wrapper:
        // the wrapper site must report exactly {read, getpid}, not every
        // syscall (the Fig. 2 B over-estimation).
        let mut a = Assembler::new(0x1000);
        let w = a.new_label();
        a.mov_reg_imm32(Reg::Rdi, 0);
        a.call_label(w);
        a.mov_reg_imm32(Reg::Rdi, 39);
        a.call_label(w);
        a.ret();
        let w_addr = a.cursor();
        a.bind(w).unwrap();
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: w_addr - 0x1000,
            },
            FunctionSym {
                name: "syscall".into(),
                entry: w_addr,
                size: 0,
            },
        ];
        let out = analyze(code, funcs, 0x1000);
        assert_eq!(out.sites.len(), 1);
        assert_eq!(out.sites[0].outcome, SiteOutcome::ViaWrapper);
        assert_eq!(names(&out.sites[0].syscalls), vec!["read", "getpid"]);
    }

    #[test]
    fn stack_wrapper_site_is_identified() {
        // Go-style: the caller stores the number to its outgoing argument
        // slot; the wrapper reads [rsp+8].
        let mut a = Assembler::new(0x1000);
        let w = a.new_label();
        a.sub_reg_imm32(Reg::Rsp, 0x10);
        a.mov_mem_imm32(Mem::base_disp(Reg::Rsp, 0), 35); // nanosleep
        a.call_label(w);
        a.add_reg_imm32(Reg::Rsp, 0x10);
        a.ret();
        let w_addr = a.cursor();
        a.bind(w).unwrap();
        a.mov_reg_mem(Reg::Rax, Mem::base_disp(Reg::Rsp, 8));
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: w_addr - 0x1000,
            },
            FunctionSym {
                name: "go_syscall".into(),
                entry: w_addr,
                size: 0,
            },
        ];
        let out = analyze(code, funcs, 0x1000);
        assert_eq!(out.sites.len(), 1);
        assert_eq!(out.sites[0].outcome, SiteOutcome::ViaWrapper);
        assert_eq!(names(&out.sites[0].syscalls), vec!["nanosleep"]);
    }

    #[test]
    fn out_of_range_values_are_dropped() {
        // A "syscall number" of 0x10000 is not a valid sysno; the set maps
        // only representable values.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 0x10000);
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let out = analyze(code, funcs, 0x1000);
        assert!(out.sites[0].syscalls.is_empty());
    }

    #[test]
    fn unbounded_site_falls_back_conservatively() {
        // rax flows from an untracked input at the program boundary.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_reg(Reg::Rax, Reg::R15);
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![FunctionSym {
            name: "f".into(),
            entry: 0x1000,
            size: code.len() as u64,
        }];
        let out = analyze(code, funcs, 0x1000);
        assert_eq!(out.sites[0].outcome, SiteOutcome::ConservativeFallback);
        assert_eq!(out.sites[0].syscalls.len(), SyscallSet::all_known().len());
    }
}
