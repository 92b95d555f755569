//! Dense bit-set of system call numbers.

use crate::{Sysno, MAX_SYSNO};
use std::fmt;

const WORDS: usize = (MAX_SYSNO as usize).div_ceil(64);

/// A set of system call numbers, stored as a fixed-size bitmap.
///
/// This is the result type of every identification analysis in the
/// workspace: cheap to copy, set-algebra friendly, and ordered iteration.
///
/// # Examples
///
/// ```
/// use bside_syscalls::{Sysno, SyscallSet};
///
/// let a: SyscallSet = ["read", "write", "close"]
///     .iter()
///     .filter_map(|n| Sysno::from_name(n))
///     .collect();
/// let b: SyscallSet = ["write", "openat"]
///     .iter()
///     .filter_map(|n| Sysno::from_name(n))
///     .collect();
///
/// assert_eq!(a.union(&b).len(), 4);
/// assert_eq!(a.intersection(&b).len(), 1);
/// assert!(a.difference(&b).contains(Sysno::from_name("read").unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyscallSet {
    words: [u64; WORDS],
}

impl SyscallSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SyscallSet { words: [0; WORDS] }
    }

    /// Creates a set containing every number in `0..MAX_SYSNO` that is
    /// assigned in the x86-64 table — "allow everything" in filter terms.
    pub fn all_known() -> Self {
        crate::table::iter()
            .filter_map(|(n, _)| Sysno::new(n))
            .collect()
    }

    /// Inserts a system call. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, sysno: Sysno) -> bool {
        let (w, b) = Self::slot(sysno);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes a system call. Returns `true` if it was present.
    pub fn remove(&mut self, sysno: Sysno) -> bool {
        let (w, b) = Self::slot(sysno);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Tests membership.
    pub fn contains(&self, sysno: Sysno) -> bool {
        let (w, b) = Self::slot(sysno);
        self.words[w] & (1 << b) != 0
    }

    /// Number of system calls in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        out.extend_from(other);
        out
    }

    /// In-place union.
    pub fn extend_from(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
        out
    }

    /// Elements of `self` not in `other`.
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = *self;
        for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        out
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over members in ascending numeric order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    fn slot(sysno: Sysno) -> (usize, u32) {
        let raw = sysno.raw();
        ((raw / 64) as usize, raw % 64)
    }
}

impl Default for SyscallSet {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SyscallSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for SyscallSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        f.write_str("{")?;
        for s in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl FromIterator<Sysno> for SyscallSet {
    fn from_iter<I: IntoIterator<Item = Sysno>>(iter: I) -> Self {
        let mut set = SyscallSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Sysno> for SyscallSet {
    fn extend<I: IntoIterator<Item = Sysno>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl<'a> IntoIterator for &'a SyscallSet {
    type Item = Sysno;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`SyscallSet`], created by [`SyscallSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a SyscallSet,
    next: u32,
}

impl Iterator for Iter<'_> {
    type Item = Sysno;

    fn next(&mut self) -> Option<Sysno> {
        // Skip whole empty words: a set holds a few dozen of 512 numbers.
        while self.next < MAX_SYSNO {
            let (w, b) = ((self.next / 64) as usize, self.next % 64);
            let rest = self.set.words[w] >> b;
            if rest == 0 {
                self.next = (w as u32 + 1) * 64;
                continue;
            }
            let cur = self.next + rest.trailing_zeros();
            self.next = cur + 1;
            return Sysno::new(cur);
        }
        None
    }
}

impl serde::Serialize for SyscallSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_seq(self.iter().map(|s| s.raw()))
    }
}

/// Reads a set from an array of numbers. A number out of range is
/// reported only once every element has parsed, so a malformed element
/// later in the array takes precedence, as for a `Vec<u32>`.
struct SyscallSetVisitor;

impl<'de> serde::de::Visitor<'de> for SyscallSetVisitor {
    type Value = SyscallSet;

    fn expecting(&self) -> &str {
        "sequence"
    }

    fn visit_seq<A: serde::de::SeqAccess<'de>>(self, mut seq: A) -> Result<SyscallSet, A::Error> {
        let mut set = SyscallSet::new();
        let mut out_of_range = None;
        while let Some(raw) = seq.next_element::<u32>()? {
            match Sysno::new(raw) {
                Some(sysno) => {
                    set.insert(sysno);
                }
                None => {
                    out_of_range.get_or_insert(raw);
                }
            }
        }
        match out_of_range {
            Some(raw) => Err(serde::de::Error::custom(format!(
                "system call number {raw} out of range"
            ))),
            None => Ok(set),
        }
    }
}

impl<'de> serde::Deserialize<'de> for SyscallSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_any(SyscallSetVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::well_known as wk;

    #[test]
    fn insert_remove_contains() {
        let mut s = SyscallSet::new();
        assert!(s.insert(wk::READ));
        assert!(!s.insert(wk::READ), "second insert reports not-fresh");
        assert!(s.contains(wk::READ));
        assert!(s.remove(wk::READ));
        assert!(!s.remove(wk::READ), "second remove reports absent");
        assert!(s.is_empty());
    }

    #[test]
    fn len_counts_across_words() {
        let mut s = SyscallSet::new();
        s.insert(Sysno::new(0).unwrap());
        s.insert(Sysno::new(63).unwrap());
        s.insert(Sysno::new(64).unwrap());
        s.insert(Sysno::new(446).unwrap());
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let mut s = SyscallSet::new();
        for raw in [322, 0, 59, 101, 425] {
            s.insert(Sysno::new(raw).unwrap());
        }
        let raws: Vec<u32> = s.iter().map(|x| x.raw()).collect();
        assert_eq!(raws, vec![0, 59, 101, 322, 425]);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let raws = [0, 1, 63, 64, 127, 128, 448, 510, 511];
        let s: SyscallSet = raws.iter().map(|&r| Sysno::new(r).unwrap()).collect();
        let back: Vec<u32> = s.iter().map(|x| x.raw()).collect();
        assert_eq!(back, raws);
        assert_eq!(SyscallSet::new().iter().next(), None);
    }

    #[test]
    fn set_algebra() {
        let a: SyscallSet = [wk::READ, wk::WRITE, wk::OPEN].into_iter().collect();
        let b: SyscallSet = [wk::WRITE, wk::CLOSE].into_iter().collect();
        assert_eq!(a.union(&b).len(), 4);
        let i = a.intersection(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains(wk::WRITE));
        let d = a.difference(&b);
        assert!(d.contains(wk::READ) && d.contains(wk::OPEN) && !d.contains(wk::WRITE));
        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn all_known_matches_table_count() {
        assert_eq!(SyscallSet::all_known().len(), crate::table::count());
    }

    fn evens() -> SyscallSet {
        (0..crate::MAX_SYSNO)
            .step_by(2)
            .filter_map(Sysno::new)
            .collect()
    }

    fn multiples_of(k: u32) -> SyscallSet {
        (0..crate::MAX_SYSNO)
            .step_by(k as usize)
            .filter_map(Sysno::new)
            .collect()
    }

    #[test]
    fn bulk_union_matches_element_wise() {
        // The parallel merge step folds per-site/per-worker sets with
        // extend_from; it must agree with element-wise insertion across
        // word boundaries.
        let a = evens();
        let b = multiples_of(3);
        let u = a.union(&b);
        for raw in 0..crate::MAX_SYSNO {
            let s = Sysno::new(raw).unwrap();
            assert_eq!(u.contains(s), raw % 2 == 0 || raw % 3 == 0, "{raw}");
        }
        assert_eq!(
            u.len(),
            (0..crate::MAX_SYSNO)
                .filter(|r| r % 2 == 0 || r % 3 == 0)
                .count()
        );

        // In-place union over many small sets equals one big collect.
        let mut folded = SyscallSet::new();
        for raw in 0..crate::MAX_SYSNO {
            if raw % 2 == 0 || raw % 3 == 0 {
                let single: SyscallSet = [Sysno::new(raw).unwrap()].into_iter().collect();
                folded.extend_from(&single);
            }
        }
        assert_eq!(folded, u);
    }

    #[test]
    fn bulk_intersection_matches_element_wise() {
        let a = evens();
        let b = multiples_of(3);
        let i = a.intersection(&b);
        for raw in 0..crate::MAX_SYSNO {
            let s = Sysno::new(raw).unwrap();
            assert_eq!(i.contains(s), raw % 6 == 0, "{raw}");
        }
        assert_eq!(i, multiples_of(6));
        assert!(i.is_subset(&a) && i.is_subset(&b));

        // Identities: x ∩ x = x, x ∩ ∅ = ∅, and for a set of *assigned*
        // numbers, x ∩ all_known = x.
        assert_eq!(a.intersection(&a), a);
        assert!(a.intersection(&SyscallSet::new()).is_empty());
        let assigned = SyscallSet::all_known().intersection(&a);
        assert_eq!(assigned.intersection(&SyscallSet::all_known()), assigned);
        assert!(!assigned.is_empty());
    }

    #[test]
    fn bulk_iteration_is_ascending_and_lossless() {
        let set = multiples_of(7);
        let raws: Vec<u32> = set.iter().map(|s| s.raw()).collect();
        assert_eq!(raws.len(), set.len());
        assert!(raws.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!(raws.iter().all(|r| r % 7 == 0));
        // Round trip through iteration rebuilds the identical bitmap.
        let rebuilt: SyscallSet = set.iter().collect();
        assert_eq!(rebuilt, set);
        // Full-range iteration covers the highest representable word.
        let full = SyscallSet::all_known();
        let max = full.iter().last().unwrap();
        assert!(full.contains(max));
        assert_eq!(full.iter().count(), full.len());
    }

    #[test]
    fn difference_and_union_are_consistent() {
        let a = evens();
        let b = multiples_of(3);
        // (a \ b) ∪ (a ∩ b) = a, and (a \ b) ∩ b = ∅.
        let rebuilt = a.difference(&b).union(&a.intersection(&b));
        assert_eq!(rebuilt, a);
        assert!(a.difference(&b).intersection(&b).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let a: SyscallSet = [wk::READ, wk::EXECVEAT].into_iter().collect();
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, "[0,322]");
        let back: SyscallSet = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn serde_rejects_out_of_range() {
        let err = serde_json::from_str::<SyscallSet>("[9999]");
        assert!(err.is_err());
    }

    #[test]
    fn display_lists_names() {
        let a: SyscallSet = [wk::READ, wk::WRITE].into_iter().collect();
        assert_eq!(a.to_string(), "{read, write}");
    }
}
