//! A fixed-size bitset with ascending, live iteration: the active-set
//! driver's index of runnable nodes and the fabric's index of occupied
//! buffers.
//!
//! Iteration is by [`BitSet::next_from`], which reads the set as it is at
//! the moment of the call. A caller that walks `next_from(i + 1)` after
//! visiting `i` therefore sees a bit set *during* the walk when it lies
//! ahead of the cursor, and never revisits one behind it — exactly what
//! a full scan in index order would have visited.

/// A set of indices `0..len`, stored as 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    /// Members currently set (O(1) emptiness).
    count: usize,
}

impl BitSet {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            count: 0,
        }
    }

    /// Whether `i` is a member.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Add `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let (w, b) = (&mut self.words[i / 64], 1u64 << (i % 64));
        if *w & b == 0 {
            *w |= b;
            self.count += 1;
        }
    }

    /// Remove `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        let (w, b) = (&mut self.words[i / 64], 1u64 << (i % 64));
        if *w & b != 0 {
            *w &= !b;
            self.count -= 1;
        }
    }

    /// Make membership of `i` equal `member`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, member: bool) {
        if member {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// Whether the set has no members.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest member `>= from`, if any.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(s: &BitSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = 0;
        while let Some(n) = s.next_from(i) {
            out.push(n);
            i = n + 1;
        }
        out
    }

    #[test]
    fn iterates_members_in_ascending_order_across_words() {
        let mut s = BitSet::new(300);
        for i in [299, 0, 64, 63, 128, 5] {
            s.insert(i);
        }
        s.insert(64); // idempotent
        assert_eq!(members(&s), [0, 5, 63, 64, 128, 299]);
        s.remove(63);
        s.remove(63); // idempotent
        s.set(5, false);
        s.set(200, true);
        assert_eq!(members(&s), [0, 64, 128, 200, 299]);
        assert!(s.contains(200) && !s.contains(5));
        assert_eq!(s.next_from(300), None);
        for i in members(&s) {
            s.remove(i);
        }
        assert!(s.is_empty());
        assert_eq!(s.next_from(0), None);
    }

    #[test]
    fn a_walk_sees_bits_set_ahead_of_the_cursor_only() {
        let mut s = BitSet::new(130);
        s.insert(10);
        let mut seen = Vec::new();
        let mut i = 0;
        while let Some(n) = s.next_from(i) {
            seen.push(n);
            if n == 10 {
                s.insert(3); // behind the cursor: not visited
                s.insert(129); // ahead: visited
            }
            i = n + 1;
        }
        assert_eq!(seen, [10, 129]);
    }
}
