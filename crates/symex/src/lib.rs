//! Symbolic execution for system call identification (§4.4 of the B-Side
//! paper, Fig. 5).
//!
//! Exhaustive forward symbolic execution from the program entry point
//! explodes combinatorially, so B-Side inverts the problem: starting from
//! each `syscall` site it walks the CFG **backwards** in BFS order, and
//! from each candidate predecessor runs **directed forward symbolic
//! execution** toward the site, restricted to the nodes the backward walk
//! has already identified. A predecessor from which every forward path
//! produces a *concrete* value for the query is *immediate-defining*: its
//! own predecessors need never be explored (the early-stop that avoids the
//! popular-function state explosion of Fig. 2 A).
//!
//! The crate provides:
//!
//! * [`SymValue`] — the value lattice: concrete constants, stack
//!   addresses, named initial register/stack-slot values (the origin
//!   tracking that powers wrapper detection), and opaque unknowns;
//! * [`SymState`] — a machine state over that lattice with a relative
//!   stack model, able to track immediates through memory (the Fig. 1 C
//!   scenario that defeats use-define-chain tools);
//! * [`find_values`] — the backward-BFS + directed-forward search
//!   answering "which concrete values can `%rax` (or a wrapper parameter
//!   slot) hold at this address?";
//! * [`find_values_scratch`] — the same search with reusable
//!   [`SearchScratch`] buffers, optionally confined to a universe of
//!   blocks (per-export attribution, §4.5);
//! * [`exec_within_function`] — intra-procedural forward execution used
//!   by the wrapper-detection heuristic (§4.4).
//!
//! # Examples
//!
//! The Fig. 1 B shape — the immediate defined in a different basic block
//! than the `syscall`:
//!
//! ```
//! use bside_x86::{Assembler, Reg};
//! use bside_cfg::{Cfg, CfgOptions, FunctionSym};
//! use bside_symex::{find_values, Limits, Query, QueryLoc};
//!
//! let mut asm = Assembler::new(0x1000);
//! let join = asm.new_label();
//! asm.mov_reg_imm32(Reg::Rax, 0);   // read
//! asm.jmp_label(join);
//! asm.bind(join).unwrap();
//! asm.nop();
//! let site = asm.cursor();
//! asm.syscall();
//! asm.ret();
//! let code = asm.finish().unwrap();
//!
//! let funcs = vec![FunctionSym { name: "_start".into(), entry: 0x1000, size: code.len() as u64 }];
//! let cfg = Cfg::build(&code, 0x1000, &[0x1000], &funcs, &CfgOptions::default());
//! let result = find_values(&cfg, &Query { target: site, what: QueryLoc::Reg(Reg::Rax) }, &Limits::default());
//! assert!(result.complete);
//! assert_eq!(result.values.into_iter().collect::<Vec<_>>(), vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod search;
mod state;
mod value;

pub use search::{
    exec_within_function, find_values, find_values_scratch, FuncExecResult, Limits, Query,
    QueryLoc, SearchResult, SearchScratch,
};
pub use state::SymState;
pub use value::SymValue;
