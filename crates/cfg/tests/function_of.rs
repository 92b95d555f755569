//! `Cfg::function_of` against the linear scan it replaced, on synthetic
//! symbol tables and on every address near a block of the seed-1 corpus.

use bside_cfg::{Cfg, CfgOptions, FunctionSym};
use bside_gen::corpus::corpus_with_size;

/// The linear scan over the symbols: the containing symbol with the
/// greatest entry, the first listed among those sharing it. A sized
/// symbol whose end overflows contains nothing.
fn linear_of(syms: &[FunctionSym], addr: u64) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, f) in syms.iter().enumerate() {
        if addr >= f.entry {
            let in_range = if f.size > 0 {
                f.entry.checked_add(f.size).is_some_and(|end| addr < end)
            } else {
                true
            };
            if in_range && best.is_none_or(|b| f.entry > syms[b].entry) {
                best = Some(i);
            }
        }
    }
    best
}

/// The index of the symbol `function_of` answers with.
fn table_of(cfg: &Cfg, addr: u64) -> Option<usize> {
    let f = cfg.function_of(addr)?;
    let syms = cfg.functions();
    Some(
        syms.iter()
            .position(|g| std::ptr::eq(g, f))
            .expect("a symbol of the table"),
    )
}

fn sym(name: &str, entry: u64, size: u64) -> FunctionSym {
    FunctionSym {
        name: name.into(),
        entry,
        size,
    }
}

/// Checks every address in `0..0x400`, every address within 4 bytes of
/// a symbol boundary, and the top of the address space.
fn agrees_everywhere(syms: &[FunctionSym]) {
    // One `ret` outside every table's range: the table is all that
    // `function_of` reads.
    let cfg = Cfg::build(&[0xc3], 0x10_0000, &[], syms, &CfgOptions::default());
    let mut probes: Vec<u64> = (0..0x400).collect();
    for f in syms {
        for p in [f.entry, f.entry.wrapping_add(f.size)] {
            probes.extend((0..=8).map(|d| p.wrapping_sub(4).wrapping_add(d)));
        }
    }
    probes.extend([u64::MAX - 1, u64::MAX]);
    for addr in probes {
        assert_eq!(
            table_of(&cfg, addr),
            linear_of(syms, addr),
            "{addr:#x} in {syms:?}"
        );
    }
}

#[test]
fn hand_written_tables_agree_with_the_linear_scan() {
    let tables = [
        vec![],
        vec![sym("a", 0x100, 0x10)],
        // Gaps, and addresses before the first entry.
        vec![sym("a", 0x100, 0x10), sym("b", 0x180, 0x20)],
        // Zero-size symbols own everything up to a later entry.
        vec![
            sym("a", 0x100, 0),
            sym("b", 0x140, 0x10),
            sym("c", 0x180, 0),
        ],
        // Duplicate entries: the first listed containing one wins.
        vec![
            sym("a", 0x100, 0x10),
            sym("b", 0x100, 0x40),
            sym("c", 0x100, 0),
        ],
        vec![sym("a", 0x100, 0), sym("b", 0x100, 0x10)],
        // Nested and overlapping ranges, listed in any order.
        vec![sym("outer", 0x100, 0x100), sym("inner", 0x120, 0x10)],
        vec![
            sym("a", 0x100, 0x40),
            sym("b", 0x120, 0x40),
            sym("c", 0x130, 0x4),
        ],
        vec![
            sym("inner", 0x120, 0x10),
            sym("outer", 0x100, 0x100),
            sym("z", 0, 0),
        ],
        // A size that overflows the address space contains nothing.
        vec![sym("wrap", 0x100, u64::MAX), sym("tail", u64::MAX - 1, 1)],
    ];
    for syms in &tables {
        agrees_everywhere(syms);
    }
}

#[test]
fn random_tables_agree_with_the_linear_scan() {
    // A fixed linear congruential stream over small entries and sizes,
    // so duplicates, nesting, overlaps and gaps are all common.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for _ in 0..500 {
        let n = next(12) as usize;
        let syms: Vec<FunctionSym> = (0..n)
            .map(|i| {
                let size = if next(4) == 0 { 0 } else { next(0x60) };
                sym(&format!("f{i}"), 0x100 + next(0x100), size)
            })
            .collect();
        agrees_everywhere(&syms);
    }
}

#[test]
fn corpus_addresses_agree_with_the_linear_scan() {
    let corpus = corpus_with_size(1, 231, 326, 59);
    let elfs = corpus
        .binaries
        .iter()
        .map(|b| &b.program.elf)
        .chain(corpus.libraries.iter().map(|l| &l.elf));
    let mut checked = 0usize;
    for elf in elfs {
        let (text, base) = elf.text().expect(".text");
        let syms: Vec<FunctionSym> = elf
            .function_symbols()
            .into_iter()
            .map(|s| sym(&s.name, s.value, s.size))
            .collect();
        let entries = [elf.entry_point()];
        let cfg = Cfg::build(text, base, &entries, &syms, &CfgOptions::default());
        let mut probes: Vec<u64> = cfg
            .blocks()
            .flat_map(|b| b.start.saturating_sub(64)..b.end().saturating_add(64))
            .collect();
        probes.sort_unstable();
        probes.dedup();
        for addr in probes {
            assert_eq!(table_of(&cfg, addr), linear_of(&syms, addr), "{addr:#x}");
            checked += 1;
        }
    }
    assert!(checked > 300_000, "{checked} addresses");
}
