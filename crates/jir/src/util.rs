//! Small utilities shared across the workspace: index newtypes, an interner,
//! an FxHash-style hasher for id-keyed tables, and a dense bitset used for
//! points-to sets and worklists.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Declares a `u32`-backed index newtype with the standard trait surface.
///
/// The generated type implements [`Copy`], ordering, hashing, `Debug`
/// (rendered as `prefix(n)`), and conversions to/from `usize`.
#[macro_export]
macro_rules! index_type {
    ($(#[$meta:meta])* $vis:vis struct $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(pub u32);

        impl $name {
            /// Creates the index from a raw `usize`.
            ///
            /// # Panics
            /// Panics if `idx` exceeds `u32::MAX`.
            #[inline]
            pub fn new(idx: usize) -> Self {
                debug_assert!(idx <= u32::MAX as usize);
                Self(idx as u32)
            }

            /// Returns the index as a `usize`.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(idx: usize) -> Self {
                Self::new(idx)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// An FxHash-style hasher (the rustc compiler's): one rotate, xor and
/// multiply per word. Much cheaper than std's SipHash on small integer
/// keys such as ids and code locations, but not collision-resistant, so
/// only tables keyed by values the analysis mints itself use it. Tables
/// keyed by text from the input program keep std's randomized hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s (deterministic: no per-table keys).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashing with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashing with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A deduplicating interner mapping values of type `T` to dense `u32` ids.
///
/// Used for contexts, selectors, strings, and every other entity whose
/// identity must be cheap to compare and hash. Ids follow first-intern
/// order whatever the hasher `S`; `Interner<T, FxBuildHasher>` suits keys
/// the analysis mints itself (see [`FxHasher`]).
#[derive(Clone)]
pub struct Interner<T: Eq + Hash + Clone, S = RandomState> {
    items: Vec<T>,
    map: HashMap<T, u32, S>,
}

impl<T: Eq + Hash + Clone, S: Default> Default for Interner<T, S> {
    fn default() -> Self {
        Interner { items: Vec::new(), map: HashMap::default() }
    }
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// Creates an empty interner with std's randomized hasher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Eq + Hash + Clone, S: BuildHasher> Interner<T, S> {
    /// Interns `value`, returning its dense id. Repeated calls with equal
    /// values return the same id.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.map.get(&value) {
            return id;
        }
        let id = self.items.len() as u32;
        self.items.push(value.clone());
        self.map.insert(value, id);
        id
    }

    /// Returns the id for `value` if it has been interned.
    pub fn lookup(&self, value: &T) -> Option<u32> {
        self.map.get(value).copied()
    }

    /// Resolves an id back to its value.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(id, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

impl<T: Eq + Hash + Clone + fmt::Debug, S> fmt::Debug for Interner<T, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.items.len()).finish()
    }
}

/// A growable dense bitset over `u32` indices.
///
/// Points-to sets and reachability marks use this; it grows on demand and
/// supports fast union with difference reporting (the core operation of
/// difference propagation in the Andersen solver). Equality compares
/// members: a set may keep trailing zero words after `remove` or
/// `union_into`, and those do not count.
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        BitSet { words: Vec::new(), len: 0 }
    }

    /// Creates an empty bitset with capacity for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        BitSet { words: Vec::with_capacity(n / 64 + 1), len: 0 }
    }

    #[inline]
    fn word_of(idx: u32) -> (usize, u64) {
        ((idx / 64) as usize, 1u64 << (idx % 64))
    }

    /// Inserts `idx`, returning `true` if it was newly added.
    pub fn insert(&mut self, idx: u32) -> bool {
        let (w, m) = Self::word_of(idx);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & m == 0;
        if newly {
            self.words[w] |= m;
            self.len += 1;
        }
        newly
    }

    /// Removes `idx`, returning `true` if it was present.
    pub fn remove(&mut self, idx: u32) -> bool {
        let (w, m) = Self::word_of(idx);
        if w < self.words.len() && self.words[w] & m != 0 {
            self.words[w] &= !m;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        let (w, m) = Self::word_of(idx);
        w < self.words.len() && self.words[w] & m != 0
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unions `other` into `self`, returning the elements newly added.
    pub fn union_into(&mut self, other: &BitSet) -> Vec<u32> {
        let mut added = Vec::new();
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &ow) in other.words.iter().enumerate() {
            let diff = ow & !self.words[w];
            if diff != 0 {
                self.words[w] |= diff;
                let mut d = diff;
                while d != 0 {
                    let bit = d.trailing_zeros();
                    added.push(w as u32 * 64 + bit);
                    d &= d - 1;
                }
            }
        }
        self.len += added.len();
        added
    }

    /// Returns `true` iff `self` and `other` share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(other.words.iter()).any(|(a, b)| a & b != 0)
    }

    /// Returns `true` iff every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(w, &a)| a & !other.words.get(w).copied().unwrap_or(0) == 0)
    }

    /// Iterates over set bits in ascending order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter { set: self, word: 0, bits: self.words.first().copied().unwrap_or(0) }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.len == other.len
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<u32> for BitSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Iterator over the elements of a [`BitSet`].
#[derive(Debug)]
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word: usize,
    bits: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(self.word as u32 * 64 + bit);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("x".to_string());
        let b = i.intern("y".to_string());
        let c = i.intern("x".to_string());
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "x");
        assert_eq!(i.len(), 2);
        assert_eq!(i.lookup(&"y".to_string()), Some(b));
        assert_eq!(i.lookup(&"z".to_string()), None);
    }

    #[test]
    fn fx_interner_ids_follow_first_intern_order() {
        let mut fx: Interner<(u32, u32), FxBuildHasher> = Interner::default();
        let mut std = Interner::new();
        for key in [(3, 1), (0, 0), (3, 1), (7, 2), (0, 0), (1, 9)] {
            assert_eq!(fx.intern(key), std.intern(key));
        }
        assert_eq!(fx.len(), 4);
        assert_eq!(fx.lookup(&(7, 2)), Some(2));
        assert_eq!(
            fx.iter().map(|(_, &k)| k).collect::<Vec<_>>(),
            [(3, 1), (0, 0), (7, 2), (1, 9)]
        );
    }

    #[test]
    fn fx_hasher_is_deterministic_and_separates_small_keys() {
        let hash = |key: &(u32, u64)| FxBuildHasher::default().hash_one(key);
        assert_eq!(hash(&(1, 2)), hash(&(1, 2)));
        let distinct: HashSet<u64> =
            (0..64u32).flat_map(|a| (0..64u64).map(move |b| (a, b))).map(|k| hash(&k)).collect();
        assert_eq!(distinct.len(), 64 * 64);
        // Unaligned byte tails still feed the hash.
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(b"abcdefghi"), bytes(b"abcdefghj"));
    }

    #[test]
    fn bitset_insert_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(100));
        assert!(s.contains(3));
        assert!(s.contains(100));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 100]);
    }

    #[test]
    fn bitset_union_reports_diff() {
        let mut a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3, 64, 65].into_iter().collect();
        let mut added = a.union_into(&b);
        added.sort_unstable();
        assert_eq!(added, vec![64, 65]);
        assert_eq!(a.len(), 5);
        // Second union adds nothing.
        assert!(a.union_into(&b).is_empty());
    }

    #[test]
    fn bitset_intersects_subset() {
        let a: BitSet = [1, 5].into_iter().collect();
        let b: BitSet = [5, 9].into_iter().collect();
        let c: BitSet = [2, 70].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let ab: BitSet = [1, 5, 9].into_iter().collect();
        assert!(a.is_subset(&ab));
        assert!(!ab.is_subset(&a));
    }

    #[test]
    fn bitset_remove() {
        let mut s: BitSet = [7, 8].into_iter().collect();
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(!s.contains(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bitset_equality_compares_members_not_words() {
        let one: BitSet = [1].into_iter().collect();
        let mut shrunk = one.clone();
        shrunk.insert(100);
        shrunk.remove(100);
        assert_eq!(shrunk, one, "a trailing zero word is not a member");
        assert_eq!(one, shrunk);
        let mut copied = BitSet::new();
        assert_eq!(copied.union_into(&shrunk), vec![1]);
        assert_eq!(copied, one, "union_into copies the zero word, not a member");
        shrunk.insert(2);
        assert_ne!(shrunk, one);
        assert_ne!(one, shrunk);
        assert_ne!(BitSet::new(), one);
        let mut emptied: BitSet = [64].into_iter().collect();
        emptied.remove(64);
        assert_eq!(emptied, BitSet::new(), "an emptied set equals the empty set");
    }

    #[test]
    fn bitset_debug_nonempty() {
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        let e = BitSet::new();
        assert_eq!(format!("{e:?}"), "{}");
    }
}
