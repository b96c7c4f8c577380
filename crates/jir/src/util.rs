//! Small utilities shared across the workspace: index newtypes, an interner,
//! an FxHash-style hasher for id-keyed tables, and [`BitSet`], the set of
//! ids behind points-to sets and reachability marks, which stores a few
//! members inline, a few dozen as a sorted list, and more as dense words.

use std::collections::hash_map::{Entry, RandomState};
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
        match self.map.entry(value) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let id = self.items.len() as u32;
                self.items.push(slot.key().clone());
                slot.insert(id);
                id
            }
        }
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

/// Members a set holds inline, with no allocation. The enum tag and the
/// inline length share the first word, so seven ids fit in 32 bytes.
const INLINE_MAX: usize = 7;

/// Members a sorted list holds; a bigger set is dense words.
const SORTED_MAX: usize = 64;

/// A set of `u32` indices, sized by the members it holds rather than by
/// the largest one.
///
/// Points-to sets, escape sets and reachability marks use this. It
/// supports union with difference reporting (the core operation of
/// difference propagation in the Andersen solver). Its form follows its
/// member count: up to seven members sit inline, up to 64 in a sorted
/// `Vec<u32>`, and a bigger set is dense `u64` words. Every form iterates
/// in ascending order, and equality compares members: a dense set may
/// keep trailing zero words after `remove`, and those do not count.
#[derive(Clone)]
pub struct BitSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `ids[..len]`, ascending.
    Inline { len: u8, ids: [u32; INLINE_MAX] },
    /// Ascending, more than `INLINE_MAX` and at most `SORTED_MAX`.
    Sorted(Vec<u32>),
    /// Bit `i % 64` of word `i / 64` per member; more than `SORTED_MAX`.
    Dense { len: u32, words: Vec<u64> },
}

/// A set's members as a sorted slice (inline or sorted form) or as words.
enum View<'a> {
    Sorted(&'a [u32]),
    Dense(&'a [u64]),
}

#[inline]
fn word_of(idx: u32) -> (usize, u64) {
    ((idx / 64) as usize, 1u64 << (idx % 64))
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { repr: Repr::Inline { len: 0, ids: [0; INLINE_MAX] } }
    }

    /// The set holding the ascending, duplicate-free `ids`, in the form
    /// its size calls for.
    fn from_sorted(ids: Vec<u32>) -> Self {
        let repr = if ids.len() <= INLINE_MAX {
            let mut inline = [0; INLINE_MAX];
            inline[..ids.len()].copy_from_slice(&ids);
            Repr::Inline { len: ids.len() as u8, ids: inline }
        } else if ids.len() <= SORTED_MAX {
            Repr::Sorted(ids)
        } else {
            let last = *ids.last().expect("a dense set is not empty");
            let mut words = vec![0u64; word_of(last).0 + 1];
            for &idx in &ids {
                let (w, m) = word_of(idx);
                words[w] |= m;
            }
            Repr::Dense { len: ids.len() as u32, words }
        };
        BitSet { repr }
    }

    fn view(&self) -> View<'_> {
        match &self.repr {
            Repr::Inline { len, ids } => View::Sorted(&ids[..usize::from(*len)]),
            Repr::Sorted(ids) => View::Sorted(ids),
            Repr::Dense { words, .. } => View::Dense(words),
        }
    }

    /// Inserts `idx`, returning `true` if it was newly added.
    pub fn insert(&mut self, idx: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = usize::from(*len);
                let Err(at) = ids[..n].binary_search(&idx) else { return false };
                if n < INLINE_MAX {
                    ids.copy_within(at..n, at + 1);
                    ids[at] = idx;
                    *len += 1;
                } else {
                    let mut grown = ids.to_vec();
                    grown.insert(at, idx);
                    *self = Self::from_sorted(grown);
                }
            }
            Repr::Sorted(ids) => {
                let Err(at) = ids.binary_search(&idx) else { return false };
                ids.insert(at, idx);
                if ids.len() > SORTED_MAX {
                    *self = Self::from_sorted(std::mem::take(ids));
                }
            }
            Repr::Dense { len, words } => {
                let (w, m) = word_of(idx);
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                if words[w] & m != 0 {
                    return false;
                }
                words[w] |= m;
                *len += 1;
            }
        }
        true
    }

    /// Removes `idx`, returning `true` if it was present.
    pub fn remove(&mut self, idx: u32) -> bool {
        match &mut self.repr {
            Repr::Inline { len, ids } => {
                let n = usize::from(*len);
                let Ok(at) = ids[..n].binary_search(&idx) else { return false };
                ids.copy_within(at + 1..n, at);
                *len -= 1;
            }
            Repr::Sorted(ids) => {
                let Ok(at) = ids.binary_search(&idx) else { return false };
                ids.remove(at);
                if ids.len() <= INLINE_MAX {
                    *self = Self::from_sorted(std::mem::take(ids));
                }
            }
            Repr::Dense { len, words } => {
                let (w, m) = word_of(idx);
                if words.get(w).is_none_or(|&word| word & m == 0) {
                    return false;
                }
                words[w] &= !m;
                *len -= 1;
                if *len as usize <= SORTED_MAX {
                    *self = Self::from_sorted(self.iter().collect());
                }
            }
        }
        true
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, idx: u32) -> bool {
        match self.view() {
            View::Sorted(ids) => ids.binary_search(&idx).is_ok(),
            View::Dense(words) => {
                let (w, m) = word_of(idx);
                words.get(w).is_some_and(|&word| word & m != 0)
            }
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Sorted(ids) => ids.len(),
            Repr::Dense { len, .. } => *len as usize,
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unions `other` into `self`, returning the members newly added, in
    /// ascending order.
    pub fn union_into(&mut self, other: &BitSet) -> Vec<u32> {
        let added: Vec<u32> = other.iter().filter(|&idx| !self.contains(idx)).collect();
        self.extend(added.iter().copied());
        added
    }

    /// Returns `true` iff `self` and `other` share at least one member.
    pub fn intersects(&self, other: &BitSet) -> bool {
        match (self.view(), other.view()) {
            (View::Dense(a), View::Dense(b)) => a.iter().zip(b).any(|(x, y)| x & y != 0),
            (View::Sorted(ids), _) => ids.iter().any(|&idx| other.contains(idx)),
            (_, View::Sorted(ids)) => ids.iter().any(|&idx| self.contains(idx)),
        }
    }

    /// Returns `true` iff every member of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.len() <= other.len() && self.iter().all(|idx| other.contains(idx))
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter(match self.view() {
            View::Sorted(ids) => IterRepr::Sorted(ids.iter()),
            View::Dense(words) => {
                IterRepr::Dense { words, word: 0, bits: words.first().copied().unwrap_or(0) }
            }
        })
    }

    /// Removes all members and frees the set's storage.
    pub fn clear(&mut self) {
        *self = BitSet::new();
    }
}

impl Default for BitSet {
    fn default() -> Self {
        BitSet::new()
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &BitSet) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
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
        s.extend(iter);
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

/// Iterator over the members of a [`BitSet`], ascending.
#[derive(Debug)]
pub struct BitSetIter<'a>(IterRepr<'a>);

#[derive(Debug)]
enum IterRepr<'a> {
    Sorted(std::slice::Iter<'a, u32>),
    /// `bits` is what is left of `words[word]`.
    Dense {
        words: &'a [u64],
        word: usize,
        bits: u64,
    },
}

impl Iterator for BitSetIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            IterRepr::Sorted(ids) => ids.next().copied(),
            IterRepr::Dense { words, word, bits } => loop {
                if *bits != 0 {
                    let bit = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some(*word as u32 * 64 + bit);
                }
                *word += 1;
                *bits = *words.get(*word)?;
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        assert_eq!(shrunk, one, "a removed member is gone");
        assert_eq!(one, shrunk);
        let mut copied = BitSet::new();
        assert_eq!(copied.union_into(&shrunk), vec![1]);
        assert_eq!(copied, one, "union_into copies members only");
        shrunk.insert(2);
        assert_ne!(shrunk, one);
        assert_ne!(one, shrunk);
        assert_ne!(BitSet::new(), one);
        let mut emptied: BitSet = [64].into_iter().collect();
        emptied.remove(64);
        assert_eq!(emptied, BitSet::new(), "an emptied set equals the empty set");
        // A dense set keeps its zero words after a remove.
        let mut dense: BitSet = (0..100).chain([1000]).collect();
        dense.remove(1000);
        assert_eq!(dense, (0..100).collect::<BitSet>(), "trailing zero words are not members");
        assert_eq!((0..100).collect::<BitSet>(), dense);
    }

    #[test]
    fn bitset_fits_in_four_words() {
        assert!(std::mem::size_of::<BitSet>() <= 32, "{}", std::mem::size_of::<BitSet>());
    }

    /// The form a set is in: 0 inline, 1 sorted, 2 dense.
    fn form(set: &BitSet) -> u8 {
        match set.repr {
            Repr::Inline { .. } => 0,
            Repr::Sorted(_) => 1,
            Repr::Dense { .. } => 2,
        }
    }

    /// Ids up to 300 share a few dense words; a few reach word 120.
    fn spread(raw: u32) -> u32 {
        if raw < 300 {
            raw
        } else {
            raw * 13
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Random operation sequences agree with a `BTreeSet` reference.
        /// Each sequence grows the set past 80 members, then removes it
        /// down below 3, and again, so it crosses every form boundary in
        /// both directions.
        #[test]
        fn bitset_matches_btreeset(
            ops in proptest::collection::vec(
                (0u8..16, 0u32..600, proptest::collection::vec(0u32..600, 0..90)),
                700..900,
            )
        ) {
            let mut set = BitSet::new();
            let mut reference = BTreeSet::new();
            let mut growing = true;
            let mut crossed = BTreeSet::new();
            for (kind, raw, others) in ops {
                if growing && reference.len() > 80 {
                    growing = false;
                } else if !growing && reference.len() < 3 {
                    growing = true;
                }
                let id = spread(raw);
                // While shrinking, the second set and the ids removed are
                // members, so the set keeps shrinking.
                let nth = |k: u32| reference.iter().copied().nth(k as usize % reference.len().max(1));
                let other: BTreeSet<u32> = if growing {
                    others.iter().map(|&o| spread(o)).collect()
                } else {
                    others.iter().take(4).filter_map(|&o| nth(o)).collect()
                };
                let other_set: BitSet = other.iter().copied().collect();
                let before = form(&set);
                // A clear is no boundary crossing.
                let cleared = kind == 15 && growing && raw % 8 == 0;
                match kind {
                    0..=9 if growing => {
                        proptest::prop_assert_eq!(set.insert(id), reference.insert(id));
                    }
                    0..=9 => {
                        let victim = nth(raw).expect("a shrinking set has members");
                        proptest::prop_assert!(set.remove(victim));
                        reference.remove(&victim);
                    }
                    10 | 11 if growing => {
                        proptest::prop_assert_eq!(set.remove(id), reference.remove(&id));
                    }
                    10 | 11 => {
                        let member = nth(raw).expect("a shrinking set has members");
                        proptest::prop_assert!(!set.insert(member));
                    }
                    15 if cleared => {
                        set.clear();
                        reference.clear();
                    }
                    _ => {
                        let expected: Vec<u32> = other.difference(&reference).copied().collect();
                        proptest::prop_assert_eq!(set.union_into(&other_set), expected);
                        reference.extend(other.iter().copied());
                    }
                }
                if !cleared {
                    crossed.insert((before, form(&set)));
                }
                proptest::prop_assert_eq!(set.len(), reference.len());
                proptest::prop_assert_eq!(set.is_empty(), reference.is_empty());
                proptest::prop_assert!(set.iter().eq(reference.iter().copied()));
                for probe in [id, id + 1, id.saturating_sub(1), 0, 63, 64, u32::MAX]
                    .into_iter()
                    .chain(other.iter().copied())
                {
                    proptest::prop_assert_eq!(set.contains(probe), reference.contains(&probe));
                }
                let shares = !other.is_disjoint(&reference);
                proptest::prop_assert_eq!(set.intersects(&other_set), shares);
                proptest::prop_assert_eq!(other_set.intersects(&set), shares);
                proptest::prop_assert_eq!(set.is_subset(&other_set), reference.is_subset(&other));
                proptest::prop_assert_eq!(other_set.is_subset(&set), other.is_subset(&reference));
                let fresh: BitSet = reference.iter().rev().copied().collect();
                proptest::prop_assert_eq!(&set, &fresh);
                proptest::prop_assert_eq!(set == other_set, reference == other);
            }
            for step in [(0, 1), (1, 2), (2, 1), (1, 0)] {
                proptest::prop_assert!(crossed.contains(&step), "never crossed {step:?}");
            }
        }
    }

    #[test]
    fn bitset_debug_nonempty() {
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        let e = BitSet::new();
        assert_eq!(format!("{e:?}"), "{}");
    }
}
