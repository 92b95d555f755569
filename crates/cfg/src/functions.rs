//! The function symbols and their sorted lookup tables, built once per
//! CFG.

use crate::FunctionSym;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// No function owns the addresses of a segment.
const NONE: u32 = u32::MAX;

/// The function symbols as supplied, plus two tables sorted by address:
///
/// * `by_entry` — symbol indices by entry, ties in listed order; it gives
///   the code range of a called function;
/// * `cuts`/`owner` — [`Functions::of`] as a step function: every address
///   from `cuts[k]` up to `cuts[k + 1]` resolves to symbol `owner[k]`.
///
/// An address resolves to the containing symbol with the greatest entry;
/// an unsized symbol contains everything from its entry on, and among
/// symbols sharing an entry the first listed wins. The step function
/// only changes where a symbol starts or ends, so one sweep over those
/// points fills it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Functions {
    syms: Vec<FunctionSym>,
    by_entry: Vec<u32>,
    cuts: Vec<u64>,
    owner: Vec<u32>,
}

impl Functions {
    pub(crate) fn new(syms: &[FunctionSym]) -> Functions {
        let syms = syms.to_vec();
        let mut by_entry: Vec<u32> = (0..syms.len() as u32).collect();
        by_entry.sort_by_key(|&i| syms[i as usize].entry);
        // One past a sized symbol's last address; `None` if that
        // overflows, and then the symbol contains no address.
        let end = |i: u32| syms[i as usize].entry.checked_add(syms[i as usize].size);
        let mut closes: Vec<(u64, u32)> = Vec::with_capacity(syms.len());
        for &i in &by_entry {
            if let (true, Some(e)) = (syms[i as usize].size > 0, end(i)) {
                closes.push((e, i));
            }
        }
        closes.sort_unstable();

        // Sweep the points where a symbol opens or closes, keeping the
        // open symbols ordered by (greatest entry, first listed).
        let mut active: BTreeSet<(Reverse<u64>, u32)> = BTreeSet::new();
        let points = syms.len() + closes.len();
        let (mut cuts, mut owner) = (Vec::with_capacity(points), Vec::with_capacity(points));
        let (mut o, mut c) = (0, 0);
        loop {
            let next_open = by_entry.get(o).map(|&i| syms[i as usize].entry);
            let next_close = closes.get(c).map(|&(e, _)| e);
            let Some(at) = next_open.into_iter().chain(next_close).min() else {
                break;
            };
            while let Some(&(_, i)) = closes.get(c).filter(|&&(e, _)| e == at) {
                active.remove(&(Reverse(syms[i as usize].entry), i));
                c += 1;
            }
            while let Some(&i) = by_entry.get(o).filter(|&&i| syms[i as usize].entry == at) {
                if end(i).is_some() {
                    active.insert((Reverse(at), i));
                }
                o += 1;
            }
            let now = active.first().map_or(NONE, |&(_, i)| i);
            if owner.last() != Some(&now) {
                cuts.push(at);
                owner.push(now);
            }
        }
        Functions {
            syms,
            by_entry,
            cuts,
            owner,
        }
    }

    /// The symbols, as supplied.
    pub(crate) fn syms(&self) -> &[FunctionSym] {
        &self.syms
    }

    /// The function containing `addr`.
    pub(crate) fn of(&self, addr: u64) -> Option<&FunctionSym> {
        let k = self.cuts.partition_point(|&c| c <= addr).checked_sub(1)?;
        self.syms.get(self.owner[k] as usize)
    }

    /// The code range `lo..hi` of the function called at `entry`: the
    /// first listed symbol at `entry` if it has a size, else up to the
    /// next symbol's entry.
    pub(crate) fn range_from(&self, entry: u64) -> (u64, u64) {
        let entry_of = |i: u32| self.syms[i as usize].entry;
        let k = self.by_entry.partition_point(|&i| entry_of(i) < entry);
        match self.by_entry.get(k).map(|&i| &self.syms[i as usize]) {
            Some(f) if f.entry == entry && f.size > 0 => (f.entry, f.entry.wrapping_add(f.size)),
            _ => {
                let next = self.by_entry[k..]
                    .iter()
                    .map(|&i| entry_of(i))
                    .find(|&e| e > entry);
                (entry, next.unwrap_or(u64::MAX))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(name: &str, entry: u64, size: u64) -> FunctionSym {
        FunctionSym {
            name: name.into(),
            entry,
            size,
        }
    }

    #[test]
    fn an_unsized_callee_ranges_to_the_next_entry() {
        let t = Functions::new(&[sym("a", 0x100, 0), sym("b", 0x180, 0x10)]);
        assert_eq!(t.range_from(0x100), (0x100, 0x180));
    }

    #[test]
    fn the_last_function_ranges_to_its_size_or_the_end() {
        let t = Functions::new(&[sym("a", 0x100, 0x10), sym("b", 0x180, 0x10)]);
        assert_eq!(t.range_from(0x180), (0x180, 0x190));
        let t = Functions::new(&[sym("a", 0x100, 0x10), sym("b", 0x180, 0)]);
        assert_eq!(t.range_from(0x180), (0x180, u64::MAX));
        // A callee no symbol names runs to the next entry, or to the end.
        assert_eq!(t.range_from(0x140), (0x140, 0x180));
        assert_eq!(t.range_from(0x200), (0x200, u64::MAX));
    }

    #[test]
    fn the_first_listed_of_two_symbols_at_one_entry_wins() {
        let t = Functions::new(&[sym("a", 0x100, 0x10), sym("b", 0x100, 0x40)]);
        assert_eq!(t.range_from(0x100), (0x100, 0x110));
        let t = Functions::new(&[sym("b", 0x100, 0x40), sym("a", 0x100, 0x10)]);
        assert_eq!(t.range_from(0x100), (0x100, 0x140));
        // An unsized first symbol ranges to the next distinct entry.
        let t = Functions::new(&[
            sym("a", 0x100, 0),
            sym("b", 0x100, 0x40),
            sym("c", 0x200, 0),
        ]);
        assert_eq!(t.range_from(0x100), (0x100, 0x200));
    }
}
