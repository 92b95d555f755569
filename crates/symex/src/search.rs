//! Backward BFS + directed forward symbolic execution (§4.4, Fig. 5).

use crate::state::SymState;
use crate::value::SymValue;
use bside_cfg::{BlockId, Cfg, EdgeKind};
use bside_x86::{Op, Reg, Target};
use std::collections::BTreeSet;

/// What to evaluate once the target address is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLoc {
    /// A register — `%rax` for plain `syscall` sites, or the parameter
    /// register of a detected wrapper.
    Reg(Reg),
    /// A stack slot `[rsp + offset]` at the target — the parameter slot of
    /// a stack-passing (Go-style) wrapper.
    StackSlot(i64),
}

/// A value query: "what can `what` hold when execution reaches `target`?"
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Address of the instruction at which to evaluate (the `syscall`
    /// instruction, or a wrapper's first instruction). Evaluation happens
    /// *before* the instruction executes.
    pub target: u64,
    /// What to read.
    pub what: QueryLoc,
}

/// Search budgets. Exhausting any of them marks the result incomplete —
/// the in-model equivalent of the paper's analysis timeouts (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum nodes the backward BFS may visit.
    pub max_backward_nodes: usize,
    /// Maximum forward paths explored per start node.
    pub max_forward_paths: usize,
    /// Maximum blocks along one forward path.
    pub max_path_blocks: usize,
    /// Total symbolic block executions across the whole search.
    pub max_total_blocks: usize,
    /// Disable search direction: forward exploration may leave the
    /// backward-discovered node set. This is the ablation of §4.4's key
    /// optimization — without direction the search "gets lost in paths
    /// not leading to the system call site" and exploration balloons
    /// (Fig. 2 A).
    pub undirected: bool,
}

serde::impl_serde_struct!(Limits {
    max_backward_nodes,
    max_forward_paths,
    max_path_blocks,
    max_total_blocks,
    undirected,
});

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_backward_nodes: 4096,
            max_forward_paths: 4096,
            max_path_blocks: 512,
            max_total_blocks: 200_000,
            undirected: false,
        }
    }
}

/// The outcome of [`find_values`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Every concrete value observed at the target across all paths.
    pub values: BTreeSet<u64>,
    /// `true` when every backward path terminated at an immediate-defining
    /// node: the value set is exhaustive for the modeled semantics.
    pub complete: bool,
    /// `true` when a budget in [`Limits`] was exhausted.
    pub budget_exhausted: bool,
    /// Basic blocks executed symbolically (the Table 3 cost metric).
    pub blocks_explored: usize,
}

/// Runs the backward-BFS + directed-forward-search of Fig. 5 and returns
/// every concrete value the queried location can hold at the target.
///
/// Starting from the block containing `query.target`, predecessors are
/// visited in BFS order; each is used as the start of a forward symbolic
/// execution *directed* at the target (only blocks already discovered by
/// the backward walk are explored). A start node whose every
/// target-reaching path yields a concrete value is immediate-defining and
/// its predecessors are pruned.
pub fn find_values(cfg: &Cfg, query: &Query, limits: &Limits) -> SearchResult {
    find_values_scratch(cfg, query, limits, None, &mut SearchScratch::new())
}

/// Reusable buffers for repeated searches, indexed by block id.
///
/// The backward walk marks the blocks it discovers in a flag vector of
/// one entry per block, and lists them in discovery order: that list is
/// the BFS queue, its length is the visited count, and the marks are the
/// relevant set the forward search is directed into. The forward search
/// keeps a path stack of block ids. Callers that issue many queries
/// (per-site identification, per-export attribution) hold one scratch per
/// worker thread and pass it to [`find_values_scratch`], which unmarks
/// only the blocks the previous search listed and grows the marks to the
/// graph's block count, so one scratch serves graphs of any size.
#[derive(Debug, Default)]
pub struct SearchScratch {
    marked: Vec<bool>,
    order: Vec<BlockId>,
    stack: Vec<(BlockId, SymState, usize)>,
    concrete: Vec<u64>,
}

impl SearchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Like [`find_values`], reusing the caller's [`SearchScratch`] buffers
/// instead of allocating fresh ones per search. When `universe` is given
/// (a flag per block id), the backward walk only expands predecessors
/// inside it.
///
/// The universe is how the shared-library analysis attributes a wrapper
/// site *per exported function* (§4.5): querying the wrapper's parameter
/// with the universe restricted to the blocks reachable from one export
/// yields only the numbers that export can pass — not the union over
/// every caller in the library (the Fig. 2 B over-estimation).
pub fn find_values_scratch(
    cfg: &Cfg,
    query: &Query,
    limits: &Limits,
    universe: Option<&[bool]>,
    scratch: &mut SearchScratch,
) -> SearchResult {
    let mut result = SearchResult {
        values: BTreeSet::new(),
        complete: true,
        budget_exhausted: false,
        blocks_explored: 0,
    };
    let SearchScratch {
        marked,
        order,
        stack,
        concrete,
    } = scratch;
    for id in order.drain(..) {
        marked[id as usize] = false;
    }
    if marked.len() < cfg.block_count() {
        marked.resize(cfg.block_count(), false);
    }
    let Some(target_block) = cfg.block_id_containing(query.target) else {
        result.complete = false;
        return result;
    };
    marked[target_block as usize] = true;
    order.push(target_block);

    let mut next = 0;
    while let Some(&start) = order.get(next) {
        next += 1;
        if order.len() > limits.max_backward_nodes
            || result.blocks_explored > limits.max_total_blocks
        {
            result.budget_exhausted = true;
            result.complete = false;
            break;
        }

        let fwd = forward_exec(
            cfg,
            start,
            query,
            marked,
            limits,
            &mut result.blocks_explored,
            stack,
            concrete,
        );
        result.values.extend(concrete.iter().copied());

        let defining = fwd.reached && !fwd.saw_symbolic && !fwd.budget_exhausted;
        if fwd.budget_exhausted {
            result.budget_exhausted = true;
            result.complete = false;
        }
        if !defining {
            // Expand backwards (the walk crosses function boundaries via
            // call edges but not return edges, so it ascends from wrappers
            // into their callers rather than descending into callees).
            let mut any_pred = false;
            for &(p, kind) in cfg.pred_ids(start) {
                if kind != EdgeKind::Return && universe.is_none_or(|u| u[p as usize]) {
                    any_pred = true;
                    if !std::mem::replace(&mut marked[p as usize], true) {
                        order.push(p);
                    }
                }
            }
            if !any_pred && fwd.saw_symbolic {
                // Symbolic value at a program boundary: cannot conclude.
                result.complete = false;
            }
        }
    }

    result
}

#[derive(Debug, Default)]
struct ForwardOutcome {
    saw_symbolic: bool,
    reached: bool,
    budget_exhausted: bool,
}

fn eval_query(state: &mut SymState, what: QueryLoc) -> SymValue {
    match what {
        QueryLoc::Reg(r) => state.reg(r),
        QueryLoc::StackSlot(offset) => match state.reg(Reg::Rsp) {
            SymValue::StackAddr(base) => state.stack_slot(base + offset),
            _ => SymValue::Opaque(u32::MAX),
        },
    }
}

/// Directed forward symbolic execution from `start` toward
/// `query.target`, restricted to the blocks `relevant` marks (by id).
///
/// Concrete values observed at the target are appended to `concrete`
/// (cleared on entry); `stack` is the caller's reusable path worklist.
#[allow(clippy::too_many_arguments)]
fn forward_exec(
    cfg: &Cfg,
    start: BlockId,
    query: &Query,
    relevant: &[bool],
    limits: &Limits,
    blocks_explored: &mut usize,
    stack: &mut Vec<(BlockId, SymState, usize)>,
    concrete: &mut Vec<u64>,
) -> ForwardOutcome {
    let mut outcome = ForwardOutcome::default();
    stack.clear();
    stack.push((start, SymState::fresh_at_entry(), 0));
    concrete.clear();
    let mut paths = 0usize;

    while let Some((id, mut state, depth)) = stack.pop() {
        if paths >= limits.max_forward_paths || *blocks_explored >= limits.max_total_blocks {
            outcome.budget_exhausted = true;
            break;
        }
        if depth >= limits.max_path_blocks {
            // Treat an over-long path as inconclusive.
            outcome.budget_exhausted = true;
            paths += 1;
            continue;
        }
        let block = cfg.block_at(id);
        *blocks_explored += 1;

        // Execute the block, stopping at the query target if it is here.
        let mut reached_target = false;
        for insn in block.insns {
            if insn.addr == query.target {
                let v = eval_query(&mut state, query.what);
                outcome.reached = true;
                reached_target = true;
                match v.as_concrete() {
                    Some(c) => concrete.push(c),
                    None => outcome.saw_symbolic = true,
                }
                break;
            }
            state.step(insn);
        }
        if reached_target {
            paths += 1;
            continue;
        }

        // Follow successor edges, directed: only into `relevant`
        // (unless the undirected ablation is on).
        let admit = |to: BlockId| limits.undirected || relevant[to as usize];
        let term = block.terminator();
        let succs = cfg.succ_ids(id);
        let mut followed = false;
        match term.op {
            Op::Call(_) => {
                for &(to, kind) in succs {
                    if !admit(to) {
                        continue;
                    }
                    match kind {
                        EdgeKind::Call | EdgeKind::Indirect => {
                            let mut s = state.clone();
                            s.apply_call_enter(term.end());
                            stack.push((to, s, depth + 1));
                            followed = true;
                        }
                        EdgeKind::FallThrough => {
                            let mut s = state.clone();
                            s.apply_call_skip();
                            stack.push((to, s, depth + 1));
                            followed = true;
                        }
                        _ => {}
                    }
                }
            }
            Op::Ret => {
                for &(to, kind) in succs {
                    if kind == EdgeKind::Return && admit(to) {
                        let mut s = state.clone();
                        s.apply_ret();
                        stack.push((to, s, depth + 1));
                        followed = true;
                    }
                }
            }
            _ => {
                for &(to, kind) in succs {
                    if kind != EdgeKind::Return && admit(to) {
                        stack.push((to, state.clone(), depth + 1));
                        followed = true;
                    }
                }
            }
        }
        if !followed {
            // Dead end: this path never reaches the target.
            paths += 1;
        }
    }

    outcome
}

/// The result of [`exec_within_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncExecResult {
    /// Every distinct value observed at the site across intra-procedural
    /// paths (concrete constants, named inputs, or opaques).
    pub outcomes: BTreeSet<SymValue>,
    /// `true` if at least one path reached the site.
    pub reached: bool,
    /// `true` if a budget was exhausted.
    pub budget_exhausted: bool,
}

/// Intra-procedural forward symbolic execution from `func_entry` to
/// `query.target`, never entering callees (calls are skipped with ABI
/// havoc). This is phase 2 of the wrapper-detection heuristic (§4.4): if
/// the queried location is still a *named input* at the site, the function
/// is a wrapper and the named input identifies its parameter.
pub fn exec_within_function(
    cfg: &Cfg,
    func_entry: u64,
    query: &Query,
    limits: &Limits,
) -> FuncExecResult {
    let mut result = FuncExecResult {
        outcomes: BTreeSet::new(),
        reached: false,
        budget_exhausted: false,
    };
    let Some(entry_block) = cfg.block_id_containing(func_entry) else {
        return result;
    };
    let func = cfg.function_of(func_entry);

    let mut stack: Vec<(BlockId, SymState, usize)> =
        vec![(entry_block, SymState::fresh_at_entry(), 0)];
    let mut paths = 0usize;
    let mut blocks = 0usize;

    while let Some((id, mut state, depth)) = stack.pop() {
        if paths >= limits.max_forward_paths || blocks >= limits.max_total_blocks {
            result.budget_exhausted = true;
            break;
        }
        if depth >= limits.max_path_blocks {
            result.budget_exhausted = true;
            paths += 1;
            continue;
        }
        let block = cfg.block_at(id);
        // Stay inside the function.
        match (func, cfg.function_of(block.start)) {
            (Some(f), Some(g)) if f.entry == g.entry => {}
            (None, _) => {}
            _ => {
                paths += 1;
                continue;
            }
        }
        blocks += 1;

        let mut reached_target = false;
        for insn in block.insns {
            if insn.addr == query.target {
                let v = eval_query(&mut state, query.what);
                result.outcomes.insert(v);
                result.reached = true;
                reached_target = true;
                break;
            }
            state.step(insn);
        }
        if reached_target {
            paths += 1;
            continue;
        }

        let term = block.terminator();
        let mut followed = false;
        match term.op {
            Op::Call(Target::Rel(_)) | Op::Call(Target::Reg(_)) | Op::Call(Target::Mem(_)) => {
                // Intra-procedural: always step over calls.
                for &(to, kind) in cfg.succ_ids(id) {
                    if kind == EdgeKind::FallThrough {
                        let mut s = state.clone();
                        s.apply_call_skip();
                        stack.push((to, s, depth + 1));
                        followed = true;
                    }
                }
            }
            Op::Ret => {}
            _ => {
                for &(to, kind) in cfg.succ_ids(id) {
                    if matches!(kind, EdgeKind::Branch | EdgeKind::FallThrough) {
                        stack.push((to, state.clone(), depth + 1));
                        followed = true;
                    }
                }
            }
        }
        if !followed {
            paths += 1;
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bside_cfg::{CfgOptions, FunctionSym};
    use bside_x86::{Assembler, Cond};

    fn build_cfg(code: Vec<u8>, funcs: Vec<FunctionSym>) -> Cfg {
        Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default())
    }

    fn rax_query(target: u64) -> Query {
        Query {
            target,
            what: QueryLoc::Reg(Reg::Rax),
        }
    }

    #[test]
    fn fig1a_immediate_in_same_block() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 0);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(r.complete && !r.budget_exhausted);
        assert_eq!(r.values.iter().copied().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn fig5_two_defining_paths() {
        // Two branches load 0 (read) and 2 (open), joining at one syscall.
        let mut a = Assembler::new(0x1000);
        let alt = a.new_label();
        let join = a.new_label();
        a.cmp_reg_imm32(Reg::Rdi, 0);
        a.jcc_label(Cond::Ne, alt);
        a.mov_reg_imm32(Reg::Rax, 0);
        a.jmp_label(join);
        a.bind(alt).unwrap();
        a.mov_reg_imm32(Reg::Rax, 2);
        a.bind(join).unwrap();
        a.nop();
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(r.complete, "{r:?}");
        assert_eq!(r.values.iter().copied().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn interprocedural_wrapper_param_through_register() {
        // caller: mov rdi, 39; call wrapper
        // wrapper: mov rax, rdi; syscall
        let mut a = Assembler::new(0x1000);
        let wrapper = a.new_label();
        a.mov_reg_imm32(Reg::Rdi, 39);
        a.call_label(wrapper);
        a.ret();
        let wrapper_addr = a.cursor();
        a.bind(wrapper).unwrap();
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: wrapper_addr - 0x1000,
            },
            FunctionSym {
                name: "wrapper".into(),
                entry: wrapper_addr,
                size: 0,
            },
        ];
        let cfg = build_cfg(code, funcs);
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(r.complete, "{r:?}");
        assert_eq!(r.values.iter().copied().collect::<Vec<_>>(), vec![39]);
    }

    #[test]
    fn value_through_stack_across_call() {
        // Go-style: caller stores the number to the stack, callee loads it.
        // caller: sub rsp,0x10; mov [rsp+0], 1; call w; ...
        // w: mov rax, [rsp+8]; syscall  ([rsp+8] skips the return address)
        let mut a = Assembler::new(0x1000);
        let w = a.new_label();
        a.sub_reg_imm32(Reg::Rsp, 0x10);
        a.mov_mem_imm32(bside_x86::Mem::base_disp(Reg::Rsp, 0), 1);
        a.call_label(w);
        a.ret();
        let w_addr = a.cursor();
        a.bind(w).unwrap();
        a.mov_reg_mem(Reg::Rax, bside_x86::Mem::base_disp(Reg::Rsp, 8));
        let site = a.cursor();
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
                name: "w".into(),
                entry: w_addr,
                size: 0,
            },
        ];
        let cfg = build_cfg(code, funcs);
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(r.complete, "{r:?}");
        assert_eq!(r.values.iter().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn intervening_popular_call_is_skipped() {
        // mov rbx, 17 (callee-saved); call helper; mov rax, rbx; syscall.
        // helper must be stepped over, not explored.
        let mut a = Assembler::new(0x1000);
        let helper = a.new_label();
        a.mov_reg_imm64(Reg::Rbx, 17);
        a.call_label(helper);
        a.mov_reg_reg(Reg::Rax, Reg::Rbx);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let helper_addr = a.cursor();
        a.bind(helper).unwrap();
        a.nop();
        a.ret();
        let code = a.finish().unwrap();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: helper_addr - 0x1000,
            },
            FunctionSym {
                name: "helper".into(),
                entry: helper_addr,
                size: 0,
            },
        ];
        let cfg = build_cfg(code, funcs);
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(r.complete, "{r:?}");
        assert_eq!(r.values.iter().copied().collect::<Vec<_>>(), vec![17]);
    }

    #[test]
    fn unconstrained_input_is_incomplete() {
        // rax comes straight from the (symbolic) input: nothing defines it.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = find_values(&cfg, &rax_query(site), &Limits::default());
        assert!(!r.complete);
        assert!(r.values.is_empty());
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let mut a = Assembler::new(0x1000);
        let alt = a.new_label();
        let join = a.new_label();
        a.cmp_reg_imm32(Reg::Rdi, 0);
        a.jcc_label(Cond::Ne, alt);
        a.mov_reg_imm32(Reg::Rax, 0);
        a.jmp_label(join);
        a.bind(alt).unwrap();
        a.mov_reg_imm32(Reg::Rax, 2);
        a.bind(join).unwrap();
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let tight = Limits {
            max_total_blocks: 1,
            ..Limits::default()
        };
        let r = find_values(&cfg, &rax_query(site), &tight);
        assert!(r.budget_exhausted);
        assert!(!r.complete);
    }

    #[test]
    fn universe_confines_the_backward_walk() {
        // Two call sites pass 0 and 39 to a register wrapper; a universe
        // that leaves out the second caller's block keeps its number out.
        let mut a = Assembler::new(0x1000);
        let w = a.new_label();
        a.mov_reg_imm32(Reg::Rdi, 0);
        a.call_label(w);
        let second = a.cursor();
        a.mov_reg_imm32(Reg::Rdi, 39);
        a.call_label(w);
        a.ret();
        let w_addr = a.cursor();
        a.bind(w).unwrap();
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let funcs = vec![
            FunctionSym {
                name: "main".into(),
                entry: 0x1000,
                size: w_addr - 0x1000,
            },
            FunctionSym {
                name: "wrapper".into(),
                entry: w_addr,
                size: 0,
            },
        ];
        let cfg = build_cfg(a.finish().unwrap(), funcs);
        let query = rax_query(site);
        let values = |universe: Option<&[bool]>| {
            let mut scratch = SearchScratch::new();
            let r = find_values_scratch(&cfg, &query, &Limits::default(), universe, &mut scratch);
            assert!(r.complete, "{r:?}");
            r.values.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(values(None), vec![0, 39]);
        let mut universe = vec![true; cfg.block_count()];
        universe[cfg.block_id_containing(second).unwrap() as usize] = false;
        assert_eq!(values(Some(&universe)), vec![0]);
    }

    /// `mov rax, 7`, then a chain of `blocks` jumps, then the site.
    fn chain(blocks: usize) -> (Cfg, u64) {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 7);
        for _ in 0..blocks {
            let next = a.new_label();
            a.jmp_label(next);
            a.bind(next).unwrap();
        }
        let site = a.cursor();
        a.syscall();
        a.ret();
        (build_cfg(a.finish().unwrap(), vec![]), site)
    }

    /// `mov rax, 60` and a branch around the site to a dead end: the
    /// directed search explores the dead end only if its block is marked.
    fn branch_to_dead_end() -> (Cfg, u64) {
        let mut a = Assembler::new(0x1000);
        let dead = a.new_label();
        a.mov_reg_imm32(Reg::Rax, 60);
        a.cmp_reg_imm32(Reg::Rdi, 0);
        a.jcc_label(Cond::E, dead);
        let site = a.cursor();
        a.syscall();
        a.ret();
        a.bind(dead).unwrap();
        a.ret();
        (build_cfg(a.finish().unwrap(), vec![]), site)
    }

    #[test]
    fn one_scratch_serves_graphs_of_any_size() {
        let (large, large_site) = chain(40);
        let (small, small_site) = branch_to_dead_end();
        assert!(large.block_count() > 2 * small.block_count());
        // Small then large grows the marks; large then small leaves marks
        // past the small graph's blocks, which must all be clear.
        let mut scratch = SearchScratch::new();
        for (cfg, site) in [
            (&small, small_site),
            (&large, large_site),
            (&small, small_site),
            (&large, large_site),
        ] {
            let query = rax_query(site);
            let reused = find_values_scratch(cfg, &query, &Limits::default(), None, &mut scratch);
            assert_eq!(reused, find_values(cfg, &query, &Limits::default()));
        }
        let small_result = find_values(&small, &rax_query(small_site), &Limits::default());
        assert_eq!(
            small_result.values.into_iter().collect::<Vec<_>>(),
            vec![60]
        );
        assert_eq!(
            small_result.blocks_explored, 3,
            "the dead end stays unexplored"
        );
    }

    #[test]
    fn within_function_exec_identifies_wrapper_param() {
        // wrapper: mov rax, rdi; syscall — rax at the site is init(rdi).
        let mut a = Assembler::new(0x1000);
        a.mov_reg_reg(Reg::Rax, Reg::Rdi);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "w".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = exec_within_function(&cfg, 0x1000, &rax_query(site), &Limits::default());
        assert!(r.reached);
        assert_eq!(
            r.outcomes.iter().copied().collect::<Vec<_>>(),
            vec![SymValue::InitialReg(Reg::Rdi)]
        );
    }

    #[test]
    fn within_function_exec_sees_concrete_non_wrapper() {
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm32(Reg::Rax, 3);
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "f".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = exec_within_function(&cfg, 0x1000, &rax_query(site), &Limits::default());
        assert_eq!(
            r.outcomes.iter().copied().collect::<Vec<_>>(),
            vec![SymValue::Concrete(3)]
        );
    }

    #[test]
    fn within_function_stack_param_is_named() {
        // Go-style wrapper body: mov rax, [rsp+8]; syscall.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_mem(Reg::Rax, bside_x86::Mem::base_disp(Reg::Rsp, 8));
        let site = a.cursor();
        a.syscall();
        a.ret();
        let code = a.finish().unwrap();
        let cfg = build_cfg(
            code.clone(),
            vec![FunctionSym {
                name: "w".into(),
                entry: 0x1000,
                size: code.len() as u64,
            }],
        );
        let r = exec_within_function(&cfg, 0x1000, &rax_query(site), &Limits::default());
        assert_eq!(
            r.outcomes.iter().copied().collect::<Vec<_>>(),
            vec![SymValue::InitialStack(8)]
        );
    }
}
