//! A set of small non-negative integers stored as a bitset: the bucket
//! type of the placement index (the host ids in one `(idle, subscribed)`
//! cell, and the occupied `subscribed` levels of one idle row).
//!
//! One bit per value, so insert and remove are one word operation, and
//! iteration in either direction walks set bits with `trailing_zeros` /
//! `leading_zeros` over dense memory. The word vector never ends in a zero
//! word: a removal trims it (keeping its capacity, so a value that comes
//! back costs no allocation). Hence emptiness and `last` are O(1), and the
//! derived equality is set equality: a set that once held a large value
//! compares equal to one that never did.

/// A set of `u64` values, one bit each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IdSet {
    /// Bit `v % 64` of word `v / 64` is set iff `v` is in the set; no
    /// trailing zero word.
    words: Vec<u64>,
}

/// The word index and in-word mask of `v`.
fn locate(v: u64) -> (usize, u64) {
    ((v / 64) as usize, 1 << (v % 64))
}

impl IdSet {
    /// Whether the set holds no value: then it has no word at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Adds `v`; returns whether it was absent. Allocates only when `v`
    /// lies past every word this set has ever held.
    pub(crate) fn insert(&mut self, v: u64) -> bool {
        let (w, bit) = locate(v);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let word = &mut self.words[w];
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Removes `v`; returns whether it was present.
    pub(crate) fn remove(&mut self, v: u64) -> bool {
        let (w, bit) = locate(v);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let present = *word & bit != 0;
        *word &= !bit;
        if present && w + 1 == self.words.len() {
            let keep = self
                .words
                .iter()
                .rposition(|&word| word != 0)
                .map_or(0, |i| i + 1);
            self.words.truncate(keep);
        }
        present
    }

    /// Whether `v` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, v: u64) -> bool {
        let (w, bit) = locate(v);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    /// The smallest value.
    pub(crate) fn first(&self) -> Option<u64> {
        self.iter_from(0).next()
    }

    /// The largest value: O(1), the last word is never zero.
    pub(crate) fn last(&self) -> Option<u64> {
        let (i, &word) = self.words.iter().enumerate().next_back()?;
        Some(i as u64 * 64 + u64::from(63 - word.leading_zeros()))
    }

    /// Every value, ascending.
    pub(crate) fn iter(&self) -> Ascending<'_> {
        self.iter_from(0)
    }

    /// The values `≥ start`, ascending.
    pub(crate) fn iter_from(&self, start: u64) -> Ascending<'_> {
        let (w, bit) = locate(start);
        match self.words.get(w) {
            // `bit.wrapping_neg()` masks `bit` and every bit above it.
            Some(&word) => Ascending {
                words: &self.words,
                at: w,
                bits: word & bit.wrapping_neg(),
            },
            None => Ascending {
                words: &self.words,
                at: self.words.len(),
                bits: 0,
            },
        }
    }

    /// Every value, descending.
    pub(crate) fn iter_rev(&self) -> Descending<'_> {
        // No bits in hand: the first `next` loads the last word.
        Descending {
            words: &self.words,
            at: self.words.len(),
            bits: 0,
        }
    }

    /// The values `≤ end`, descending.
    pub(crate) fn iter_rev_through(&self, end: u64) -> Descending<'_> {
        let (w, bit) = locate(end);
        match self.words.get(w) {
            // `bit | (bit - 1)` masks `bit` and every bit below it.
            Some(&word) => Descending {
                words: &self.words,
                at: w,
                bits: word & (bit | (bit - 1)),
            },
            // `end` lies past the last word.
            None => self.iter_rev(),
        }
    }
}

/// Ascending walk over an [`IdSet`]'s set bits.
pub(crate) struct Ascending<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    at: usize,
    /// The not-yet-returned bits of word `at`.
    bits: u64,
}

impl Iterator for Ascending<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.bits == 0 {
            self.at += 1;
            self.bits = *self.words.get(self.at)?;
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.at as u64 * 64 + u64::from(b))
    }
}

/// Descending walk over an [`IdSet`]'s set bits.
pub(crate) struct Descending<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from (the word count before the
    /// first load).
    at: usize,
    /// The not-yet-returned bits of word `at`.
    bits: u64,
}

impl Iterator for Descending<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.bits == 0 {
            self.at = self.at.checked_sub(1)?;
            self.bits = self.words[self.at];
        }
        let b = 63 - self.bits.leading_zeros();
        self.bits &= !(1 << b);
        Some(self.at as u64 * 64 + u64::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[u64]) -> IdSet {
        let mut s = IdSet::default();
        for &v in values {
            s.insert(v);
        }
        s
    }

    /// Values at and around both edges of the first three words.
    const EDGES: [u64; 10] = [0, 1, 62, 63, 64, 65, 127, 128, 129, 191];

    #[test]
    fn iterates_ascending_and_descending() {
        let s = set(&[129, 5, 64, 63, 0, 1000, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 5, 63, 64, 128, 129, 1000]);
        assert_eq!(
            s.iter_rev().collect::<Vec<_>>(),
            [1000, 129, 128, 64, 63, 5, 0]
        );
    }

    #[test]
    fn bounded_walks_start_at_their_bound() {
        let s = set(&EDGES);
        for start in 0..260 {
            let want: Vec<u64> = EDGES.iter().copied().filter(|&v| v >= start).collect();
            assert_eq!(s.iter_from(start).collect::<Vec<_>>(), want, "from {start}");
            let mut want: Vec<u64> = EDGES.iter().copied().filter(|&v| v <= start).collect();
            want.reverse();
            assert_eq!(
                s.iter_rev_through(start).collect::<Vec<_>>(),
                want,
                "through {start}"
            );
        }
        assert_eq!(s.iter_from(u64::MAX).next(), None);
        assert_eq!(s.iter_rev_through(u64::MAX).next(), Some(191));
    }

    #[test]
    fn first_and_last() {
        let mut s = IdSet::default();
        assert_eq!((s.first(), s.last()), (None, None));
        for v in [70, 3, 200, 64] {
            s.insert(v);
        }
        assert_eq!((s.first(), s.last()), (Some(3), Some(200)));
        s.remove(200);
        s.remove(3);
        assert_eq!((s.first(), s.last()), (Some(64), Some(70)));
    }

    #[test]
    fn grows_past_a_word_and_reports_membership_changes() {
        let mut s = IdSet::default();
        assert!(s.insert(63));
        assert!(s.insert(64), "the second word");
        assert!(s.insert(300), "several words on");
        assert!(!s.insert(64), "already present");
        assert!(s.contains(64) && s.contains(300) && !s.contains(65));
        assert!(s.remove(300));
        assert!(!s.remove(300), "already gone");
        assert!(!s.remove(10_000), "past every word");
        assert_eq!(s.iter().collect::<Vec<_>>(), [63, 64]);
    }

    #[test]
    fn empty_after_removals_and_equal_to_a_fresh_set() {
        let mut s = set(&EDGES);
        s.insert(5000);
        for v in EDGES.iter().chain(&[5000]) {
            assert!(s.remove(*v));
        }
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
        assert_eq!(s.iter_rev().next(), None);
        assert_eq!((s.first(), s.last()), (None, None));
        assert_eq!(s, IdSet::default(), "no trailing words survive");
        // Equality is by content, not by how large the set once grew.
        let mut grown = set(&[1, 4000]);
        grown.remove(4000);
        assert_eq!(grown, set(&[1]));
    }
}
