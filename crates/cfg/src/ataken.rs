//! Address-taken scanning (§4.3).
//!
//! An *address taken* is a code address used as the operand of an
//! address-forming instruction — on x86-64, `lea reg, [rip+disp]` in PIC
//! code, or an immediate code address moved into a register in non-PIC
//! code. These mark function-pointer creation sites; the CFG heuristic
//! resolves every indirect branch to the set of addresses taken.

use crate::lea_target;
use bside_x86::Instruction;

/// The addresses taken by `insns` that land inside `base..end`, sorted
/// and deduplicated. Over every decoded instruction this is SysFilter's
/// plain variant; over the reachable blocks' instructions it is B-Side's
/// *active* variant.
pub(crate) fn scan<'a>(
    insns: impl IntoIterator<Item = &'a Instruction>,
    base: u64,
    end: u64,
) -> Vec<u64> {
    let mut taken: Vec<u64> = insns
        .into_iter()
        .filter_map(lea_target)
        .filter(|&t| t >= base && t < end)
        .collect();
    taken.sort_unstable();
    taken.dedup();
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::Disassembler;
    use crate::edges::reachable_from;
    use bside_x86::{Assembler, Reg};

    /// Every instruction of one disassembly pass from `roots`.
    fn all_insns(code: &[u8], roots: &[u64]) -> Vec<Instruction> {
        Disassembler::new(code, 0x1000)
            .pass(roots.iter().copied())
            .insns
    }

    #[test]
    fn lea_of_code_address_is_taken() {
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        a.lea_riplabel(Reg::Rdi, f);
        a.ret();
        a.bind(f).unwrap();
        a.ret();
        let code = a.finish().unwrap();
        let len = code.len() as u64;
        let taken = scan(&all_insns(&code, &[0x1000]), 0x1000, 0x1000 + len);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken.first(), Some(&0x1008)); // lea(7) + ret(1)
    }

    #[test]
    fn lea_of_data_address_is_not_taken() {
        let mut a = Assembler::new(0x1000);
        let data = a.new_label();
        a.bind_at(data, 0x20_0000).unwrap(); // outside text
        a.lea_riplabel(Reg::Rdi, data);
        a.ret();
        let code = a.finish().unwrap();
        let len = code.len() as u64;
        assert!(scan(&all_insns(&code, &[0x1000]), 0x1000, 0x1000 + len).is_empty());
    }

    #[test]
    fn movabs_code_immediate_is_taken() {
        // Non-PIC function pointer: movabs rdi, 0x1005.
        let mut a = Assembler::new(0x1000);
        a.mov_reg_imm64(Reg::Rdi, 0x100b);
        a.ret();
        a.ret(); // 0x100b
        let code = a.finish().unwrap();
        let len = code.len() as u64;
        let taken = scan(&all_insns(&code, &[0x1000]), 0x1000, 0x1000 + len);
        assert!(taken.contains(&0x100b));
    }

    #[test]
    fn reachable_scan_ignores_dead_blocks() {
        let mut a = Assembler::new(0x1000);
        let f = a.new_label();
        let dead = a.new_label();
        a.ret(); // entry block: no lea
        a.bind(dead).unwrap();
        a.lea_riplabel(Reg::Rdi, f); // dead code holding the only lea
        a.ret();
        a.bind(f).unwrap();
        a.ret();
        let code = a.finish().unwrap();
        let len = code.len() as u64;
        let all = scan(&all_insns(&code, &[0x1000, 0x1001]), 0x1000, 0x1000 + len);
        assert_eq!(all.len(), 1, "plain scan sees the dead lea");
        let layout = Disassembler::new(&code, 0x1000).pass([0x1000, 0x1001]);
        let reachable = reachable_from(&[0x1000], &layout, &[]);
        let live = (0..layout.len()).filter(|&i| reachable[i]);
        let active = scan(live.flat_map(|i| layout.insns_of(i)), 0x1000, 0x1000 + len);
        assert!(active.is_empty(), "active scan does not");
    }
}
