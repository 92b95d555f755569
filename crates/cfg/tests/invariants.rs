//! Structural CFG invariants over generated corpus binaries: these hold
//! for *every* input or downstream analyses (symbolic search, phase
//! automaton) silently break.

use bside_cfg::{BlockId, Cfg, CfgOptions, EdgeKind, FunctionSym, IndirectResolution};
use bside_gen::corpus::corpus_with_size;

fn cfgs_of_corpus(seed: u64) -> Vec<(String, Cfg)> {
    let corpus = corpus_with_size(seed, 4, 4, 3);
    let mut out = Vec::new();
    for binary in &corpus.binaries {
        let elf = &binary.program.elf;
        let (text, vaddr) = elf.text().expect(".text");
        let funcs: Vec<FunctionSym> = elf
            .function_symbols()
            .into_iter()
            .map(|s| FunctionSym {
                name: s.name.clone(),
                entry: s.value,
                size: s.size,
            })
            .collect();
        let cfg = Cfg::build(
            text,
            vaddr,
            &[elf.entry_point()],
            &funcs,
            &CfgOptions::default(),
        );
        out.push((binary.program.spec.name.clone(), cfg));
    }
    out
}

#[test]
fn blocks_are_disjoint_and_sorted() {
    for (name, cfg) in cfgs_of_corpus(101) {
        let mut prev_end = 0u64;
        for (id, block) in cfg.blocks().enumerate() {
            let start = block.start;
            assert_eq!(cfg.block_id(start), Some(id as BlockId), "{name}");
            assert!(
                start >= prev_end,
                "{name}: block {start:#x} overlaps previous"
            );
            assert!(!block.insns.is_empty(), "{name}: empty block {start:#x}");
            assert!(block.end() > start, "{name}");
            prev_end = block.end();
        }
    }
}

#[test]
fn preds_are_exact_inverse_of_succs() {
    for (name, cfg) in cfgs_of_corpus(102) {
        for from in cfg.blocks().map(|b| b.start) {
            for (to, kind) in cfg.succs(from) {
                assert!(
                    cfg.preds(to).contains(&(from, kind)),
                    "{name}: edge {from:#x}->{to:#x} ({kind:?}) missing inverse"
                );
            }
        }
        for to in cfg.blocks().map(|b| b.start) {
            for (from, kind) in cfg.preds(to) {
                assert!(
                    cfg.succs(from).contains(&(to, kind)),
                    "{name}: pred {from:#x}->{to:#x} ({kind:?}) missing forward edge"
                );
            }
        }
    }
}

#[test]
fn edges_land_on_block_starts() {
    for (name, cfg) in cfgs_of_corpus(103) {
        for from in cfg.blocks().map(|b| b.start) {
            for (to, _) in cfg.succs(from) {
                assert!(
                    cfg.block(to).is_some(),
                    "{name}: edge into non-block {to:#x}"
                );
            }
        }
    }
}

#[test]
fn block_containing_agrees_with_block_ranges() {
    for (name, cfg) in cfgs_of_corpus(104) {
        for block in cfg.blocks() {
            let start = block.start;
            for insn in block.insns {
                assert_eq!(
                    cfg.block_containing(insn.addr),
                    Some(start),
                    "{name}: {:#x} not attributed to its block",
                    insn.addr
                );
            }
            assert_ne!(
                cfg.block_containing(block.end() - 1),
                None,
                "{name}: last byte address resolves"
            );
        }
    }
}

#[test]
fn reachable_blocks_exist_and_include_entry() {
    for (name, cfg) in cfgs_of_corpus(105) {
        for b in cfg.reachable() {
            assert!(cfg.block(b).is_some(), "{name}");
        }
        let entry_block = cfg
            .block_containing(cfg.entries()[0])
            .expect("entry decodes");
        assert!(cfg.reachable().contains(&entry_block), "{name}");
    }
}

#[test]
fn active_ataken_is_subset_of_plain_on_corpus() {
    let corpus = corpus_with_size(106, 4, 0, 0);
    for binary in &corpus.binaries {
        let elf = &binary.program.elf;
        let (text, vaddr) = elf.text().expect(".text");
        let funcs: Vec<FunctionSym> = elf
            .function_symbols()
            .into_iter()
            .map(|s| FunctionSym {
                name: s.name.clone(),
                entry: s.value,
                size: s.size,
            })
            .collect();
        let active = Cfg::build(
            text,
            vaddr,
            &[elf.entry_point()],
            &funcs,
            &CfgOptions::default(),
        );
        let plain = Cfg::build(
            text,
            vaddr,
            &[elf.entry_point()],
            &funcs,
            &CfgOptions {
                indirect: IndirectResolution::AddressTaken,
            },
        );
        assert!(
            active.addresses_taken().is_subset(plain.addresses_taken()),
            "{}",
            binary.program.spec.name
        );
        // Reachable sites under active resolution never exceed plain.
        assert!(
            active.syscall_sites().len() <= plain.syscall_sites().len(),
            "{}",
            binary.program.spec.name
        );
    }
}

#[test]
fn syscall_sites_are_reachable_subset_of_all_sites() {
    for (name, cfg) in cfgs_of_corpus(107) {
        let reachable = cfg.syscall_sites();
        let all = cfg.all_syscall_sites();
        assert!(reachable.len() <= all.len(), "{name}");
        for site in reachable {
            assert!(all.contains(site), "{name}");
            let b = cfg.block_containing(*site).expect("site in a block");
            assert!(cfg.reachable().contains(&b), "{name}");
        }
    }
}

#[test]
fn return_edges_pair_with_call_edges() {
    // Every Return edge's destination must also be the FallThrough target
    // of some call block (the invariant that makes skipping Return edges
    // in reachability lossless).
    for (name, cfg) in cfgs_of_corpus(108) {
        for from in cfg.blocks().map(|b| b.start) {
            for (to, kind) in cfg.succs(from) {
                if kind != EdgeKind::Return {
                    continue;
                }
                let has_call_fallthrough = cfg.preds(to).iter().any(|&(p, k)| {
                    k == EdgeKind::FallThrough && {
                        cfg.block(p)
                            .is_some_and(|b| matches!(b.terminator().op, bside_x86::Op::Call(_)))
                    }
                });
                assert!(
                    has_call_fallthrough,
                    "{name}: return edge {from:#x}->{to:#x} without a call fall-through"
                );
            }
        }
    }
}

#[test]
fn edges_by_id_match_edges_by_address() {
    for (name, cfg) in cfgs_of_corpus(109) {
        let start = |id: BlockId| cfg.block_at(id).start;
        for (id, block) in cfg.blocks().enumerate() {
            let id = id as BlockId;
            let by_id = |edges: &[(BlockId, EdgeKind)]| -> Vec<(u64, EdgeKind)> {
                edges.iter().map(|&(to, kind)| (start(to), kind)).collect()
            };
            assert_eq!(by_id(cfg.succ_ids(id)), cfg.succs(block.start), "{name}");
            assert_eq!(by_id(cfg.pred_ids(id)), cfg.preds(block.start), "{name}");
            let last = block.end() - 1;
            assert_eq!(cfg.block_id_containing(last), Some(id), "{name}");
            assert_eq!(
                cfg.is_plt_stub(id),
                cfg.plt_stubs().contains_key(&block.start),
                "{name}"
            );
        }
    }
}
